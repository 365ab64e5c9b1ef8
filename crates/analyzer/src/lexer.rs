//! A minimal Rust lexer — just enough fidelity for coarse, line-anchored
//! invariant checks.
//!
//! The rule passes (see [`crate::rules`]) only need identifiers,
//! punctuation, literal *boundaries* (so that `"unwrap()"` inside a string
//! never looks like a call) and comments with exact line anchoring (so that
//! `// SAFETY:` and `// analyzer: allow(...)` attach to the right code).
//! Everything else a real lexer distinguishes — number bases, multi-char
//! operators, keyword classes — is deliberately collapsed: identifiers keep
//! their text, literals keep only their kind, operators come out one
//! `char` at a time.
//!
//! Handled faithfully because getting them wrong silently corrupts every
//! downstream rule: nested block comments, raw strings (`r#".."#`), byte
//! and C strings, char literals vs. lifetimes (`'a'` vs. `'a`), raw
//! identifiers (`r#type`), and line counting across multi-line tokens.

/// What a token is; identifiers and string literals keep their text (rules
/// match on names and on `feature = "..."` style cfg strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unsafe`, `unwrap`, ...).
    Ident(String),
    /// A lifetime such as `'a` or `'_` (text dropped).
    Lifetime,
    /// A string, byte-string, C-string or char literal; the text is the
    /// raw source slice *without* the surrounding quotes/hashes.
    Str(String),
    /// A numeric literal (text dropped — no rule interprets numbers).
    Num,
    /// A single punctuation character (`.`, `!`, `{`, `<`, ...).
    Punct(char),
}

/// One token with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
}

/// One comment (line `//...` incl. doc forms, or block `/* ... */`
/// incl. nesting) with its line span and whether code preceded it on its
/// starting line (a *trailing* comment annotates its own line; a
/// stand-alone one annotates the next code line).
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub start_line: u32,
    pub end_line: u32,
    pub trailing: bool,
}

/// The result of [`lex`]: the code token stream plus the comment side
/// channel.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lexes `src`. Never fails: unrecognized bytes degrade to `Punct` tokens,
/// which at worst makes a rule miss a match in code that rustc would
/// reject anyway.
pub fn lex(src: &str) -> Lexed {
    Lexer { b: src.as_bytes(), src, i: 0, line: 1, line_had_token: false, out: Lexed::default() }
        .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    line_had_token: bool,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.line_had_token = false;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => {
                    let line = self.line;
                    let body = self.quoted_string();
                    self.push(TokKind::Str(body), line);
                }
                b'\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ => {
                    let line = self.line;
                    // Skip UTF-8 continuation bytes so a stray non-ASCII
                    // char degrades to one Punct, not several.
                    let ch = self.src[self.i..].chars().next().unwrap_or('?');
                    self.i += ch.len_utf8();
                    self.push(TokKind::Punct(if ch.is_ascii() { ch } else { '?' }), line);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, line: u32) {
        self.out.tokens.push(Token { kind, line });
        self.line_had_token = true;
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        self.out.comments.push(Comment {
            text: self.src[start..self.i].to_string(),
            start_line: self.line,
            end_line: self.line,
            trailing: self.line_had_token,
        });
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let start_line = self.line;
        let trailing = self.line_had_token;
        let mut depth = 1u32;
        self.i += 2;
        while self.i < self.b.len() && depth > 0 {
            match (self.b[self.i], self.peek(1)) {
                (b'\n', _) => {
                    self.line += 1;
                    self.line_had_token = false;
                    self.i += 1;
                }
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.i += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
        self.out.comments.push(Comment {
            text: self.src[start..self.i].to_string(),
            start_line,
            end_line: self.line,
            trailing,
        });
    }

    /// `self.i` is on the opening `"`. Returns the body (quotes stripped).
    fn quoted_string(&mut self) -> String {
        self.i += 1;
        let start = self.i;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => break,
                b'\n' => {
                    self.line += 1;
                    self.line_had_token = false;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let body = self.src[start..self.i.min(self.b.len())].to_string();
        self.i += 1; // past the closing quote
        body
    }

    /// `self.i` is on the first `#` or `"` of a raw string (after an `r`,
    /// `br` or `cr` prefix has been consumed). Returns the body.
    fn raw_string(&mut self) -> String {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.i += 1;
        }
        self.i += 1; // opening quote
        let start = self.i;
        while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.line += 1;
                self.line_had_token = false;
                self.i += 1;
                continue;
            }
            if self.b[self.i] == b'"' {
                let closes = (0..hashes).all(|k| self.peek(1 + k) == Some(b'#'));
                if closes {
                    let body = self.src[start..self.i].to_string();
                    self.i += 1 + hashes;
                    return body;
                }
            }
            self.i += 1;
        }
        self.src[start..].to_string()
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // `'a` (not followed by a closing quote) is a lifetime; everything
        // else — `'x'`, `'\n'`, `'\u{1F980}'`, `'∀'` — is a char literal.
        let next = self.peek(1);
        let is_lifetime = match next {
            Some(c) if is_ident_start(c) => self.peek(2) != Some(b'\''),
            _ => false,
        };
        if is_lifetime {
            self.i += 1;
            while self.peek(0).is_some_and(is_ident_cont) {
                self.i += 1;
            }
            self.push(TokKind::Lifetime, line);
            return;
        }
        self.i += 1;
        let start = self.i;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => break,
                _ => self.i += 1,
            }
        }
        let body = self.src[start..self.i.min(self.b.len())].to_string();
        self.i += 1;
        self.push(TokKind::Str(body), line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut seen_dot = false;
        while let Some(c) = self.peek(0) {
            if is_ident_cont(c) {
                self.i += 1;
            } else if c == b'.' && !seen_dot && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                seen_dot = true;
                self.i += 1;
            } else {
                break;
            }
        }
        self.push(TokKind::Num, line);
    }

    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let start = self.i;
        while self.peek(0).is_some_and(is_ident_cont) {
            self.i += 1;
        }
        let name = &self.src[start..self.i];
        // Raw-string / byte-string / C-string prefixes, and raw idents.
        match (name, self.peek(0)) {
            ("r" | "br" | "cr", Some(b'"' | b'#')) => {
                if name == "r" && self.peek(0) == Some(b'#') && self.peek(1) != Some(b'"') {
                    // Raw identifier `r#type`: skip the hash, lex the name.
                    self.i += 1;
                    let s = self.i;
                    while self.peek(0).is_some_and(is_ident_cont) {
                        self.i += 1;
                    }
                    let raw = self.src[s..self.i].to_string();
                    self.push(TokKind::Ident(raw), line);
                } else {
                    let body = self.raw_string();
                    self.push(TokKind::Str(body), line);
                }
            }
            ("b" | "c", Some(b'"')) => {
                let body = self.quoted_string();
                self.push(TokKind::Str(body), line);
            }
            ("b", Some(b'\'')) => {
                self.char_or_lifetime();
            }
            _ => self.push(TokKind::Ident(name.to_string()), line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_hide_their_contents_from_the_token_stream() {
        for src in [
            r#"let x = "call .unwrap() here";"#,
            r##"let x = r#"panic!("inside")"#;"##,
            r#"let x = b"unwrap";"#,
            "let x = '\\'';",
        ] {
            assert!(
                !idents(src).iter().any(|i| i == "unwrap" || i == "panic" || i == "inside"),
                "{src}"
            );
        }
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'a' }").tokens;
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| matches!(t.kind, TokKind::Str(_))).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn comments_track_lines_and_trailing() {
        let src = "let a = 1; // trailing\n// standalone\n/* multi\nline */ let b = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 3);
        assert!(lexed.comments[0].trailing && lexed.comments[0].start_line == 1);
        assert!(!lexed.comments[1].trailing && lexed.comments[1].start_line == 2);
        let block = &lexed.comments[2];
        assert_eq!((block.start_line, block.end_line, block.trailing), (3, 4, false));
        // The `let b` after the block comment lands on line 4.
        assert!(lexed.tokens.iter().any(|t| t.kind == TokKind::Ident("b".into()) && t.line == 4));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let lexed = lex("/* outer /* inner */ still outer */ fn f() {}");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ fn f() {}"), vec!["fn", "f"]);
        let _ = lexed;
    }

    #[test]
    fn numbers_do_not_swallow_range_operators() {
        let toks = lex("for i in 0..4 { a[i] = 1.5e3; }").tokens;
        let dots = toks.iter().filter(|t| t.kind == TokKind::Punct('.')).count();
        assert_eq!(dots, 2, "0..4 keeps both range dots");
    }

    #[test]
    fn cfg_feature_strings_survive() {
        let toks = lex(r#"#[cfg(any(test, feature = "simd"))]"#).tokens;
        assert!(toks.iter().any(|t| t.kind == TokKind::Str("simd".into())));
    }
}
