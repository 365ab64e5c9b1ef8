//! Minimal JSON output (the suite writes JSON and never parses it).

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// `null` for a value JSON cannot hold.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// An object built field by field; values are already-rendered JSON.
#[derive(Debug, Default)]
pub struct Object(Vec<(String, String)>);

impl Object {
    pub fn new() -> Self {
        Object::default()
    }

    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.0.push((key.to_string(), json));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, number(value))
    }

    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}: {}", string(k), v)).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON array of already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_objects_strings_and_numbers() {
        let o = Object::new().str("a\"b", "x\ny").num("n", 1.5).int("i", 3).bool("t", true);
        assert_eq!(o.render(), r#"{"a\"b": "x\ny", "n": 1.5, "i": 3, "t": true}"#);
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1, 2]");
    }
}
