//! The coarse per-file model the rule passes walk.
//!
//! One [`SourceFile`] holds the token stream plus everything the rules
//! need resolved up front:
//!
//! * **Test spans** — token ranges gated by `#[cfg(test)]`-style
//!   attributes (any `cfg` predicate mentioning `test`) or `#[test]`.
//!   Production-only rules skip these.
//! * **Items** — `fn` items with their body spans, and
//!   `impl Trait for Type` blocks with their method names (for the
//!   wrapper-forwarding audit).
//! * **Annotations** — `// analyzer: allow(rule, reason = "...")`
//!   escapes, resolved to the code line they cover.
//!
//! The model is deliberately *approximate*: it tracks brace/paren/bracket
//! nesting exactly but does not build an AST. Every approximation errs
//! toward a rule firing (deny-by-default), never toward one going silent;
//! false positives are handled with an annotation carrying a reason.

use crate::lexer::{lex, Comment, TokKind, Token};
use std::collections::BTreeSet;

/// A half-open token-index range `[start, end)`.
pub type Span = (usize, usize);

/// A `fn` item: its name, the line of the `fn` keyword, and the token
/// span of its body (`None` for bodiless trait-method declarations).
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    pub line: u32,
    pub body: Option<Span>,
}

/// An `impl` block: `impl [Trait for] Type { ... }`.
#[derive(Debug)]
pub struct ImplItem {
    /// The trait's final path segment (`BlockDevice` for
    /// `impl<T> blockdev::BlockDevice for Arc<T>`); `None` for inherent
    /// impls.
    pub trait_name: Option<String>,
    pub line: u32,
    pub body: Span,
    /// Names of `fn`s defined directly in the impl body.
    pub methods: Vec<String>,
}

/// One `// analyzer: allow(rule, reason = "...")` escape.
#[derive(Debug)]
pub struct Annotation {
    pub rule: String,
    pub has_reason: bool,
    /// Line of the comment itself.
    pub line: u32,
    /// The code line the annotation covers (its own line when trailing,
    /// else the next line carrying a non-attribute token).
    pub target_line: u32,
}

/// A comment that contained `analyzer:` but did not parse as a valid
/// annotation — surfaced as a deny finding so a typo'd escape can never
/// silently grant itself.
#[derive(Debug)]
pub struct BadAnnotation {
    pub line: u32,
    pub why: String,
}

/// One parsed source file of the workspace.
#[derive(Debug)]
pub struct SourceFile {
    pub crate_name: String,
    /// Workspace-relative path, e.g. `crates/blockdev/src/memdisk.rs`.
    pub rel_path: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub test_spans: Vec<Span>,
    pub fns: Vec<FnItem>,
    pub impls: Vec<ImplItem>,
    pub annotations: Vec<Annotation>,
    pub bad_annotations: Vec<BadAnnotation>,
    /// Lines holding at least one token outside attribute syntax.
    pub code_lines: BTreeSet<u32>,
    /// Rendered `#![...]` inner attributes (idents and punctuation only).
    pub inner_attrs: Vec<String>,
    pub has_unsafe: bool,
}

impl SourceFile {
    pub fn parse(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let mut f = SourceFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            tokens: lexed.tokens,
            comments: lexed.comments,
            test_spans: Vec::new(),
            fns: Vec::new(),
            impls: Vec::new(),
            annotations: Vec::new(),
            bad_annotations: Vec::new(),
            code_lines: BTreeSet::new(),
            inner_attrs: Vec::new(),
            has_unsafe: false,
        };
        let attr_spans = f.scan_attributes();
        f.compute_code_lines(&attr_spans);
        f.scan_items();
        f.scan_annotations();
        f.has_unsafe = f.tokens.iter().any(|t| t.kind == TokKind::Ident("unsafe".into()));
        f
    }

    /// The file name (`memdisk.rs`) without its directory.
    pub fn file_name(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or(&self.rel_path)
    }

    pub fn ident_at(&self, idx: usize) -> Option<&str> {
        match self.tokens.get(idx).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s),
            _ => None,
        }
    }

    pub fn punct_at(&self, idx: usize, c: char) -> bool {
        matches!(self.tokens.get(idx).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
    }

    pub fn line_of(&self, idx: usize) -> u32 {
        self.tokens.get(idx).map_or(0, |t| t.line)
    }

    pub fn in_test_span(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// Whether an `analyzer: allow(rule, ...)` annotation covers `line`.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.annotations.iter().any(|a| a.rule == rule && a.has_reason && a.target_line == line)
    }

    /// Attribute pass: records inner attributes, classifies `cfg` gates
    /// into test spans, and returns every attribute's token span so
    /// attribute-only lines can be told apart from code lines.
    fn scan_attributes(&mut self) -> Vec<Span> {
        let mut attr_spans = Vec::new();
        let mut i = 0;
        while i < self.tokens.len() {
            if !self.punct_at(i, '#') {
                i += 1;
                continue;
            }
            let inner = self.punct_at(i + 1, '!');
            let open = if inner { i + 2 } else { i + 1 };
            if !self.punct_at(open, '[') {
                i += 1;
                continue;
            }
            let close = match self.match_delim(open, '[', ']') {
                Some(c) => c,
                None => break,
            };
            attr_spans.push((i, close + 1));
            let content = &self.tokens[open + 1..close];
            if inner {
                self.inner_attrs.push(render(content));
            } else {
                let first = content.first().map(|t| &t.kind);
                let is_test_attr = first == Some(&TokKind::Ident("test".into()));
                let is_cfg = first == Some(&TokKind::Ident("cfg".into()));
                let mentions_test =
                    is_cfg && content.iter().any(|t| t.kind == TokKind::Ident("test".into()));
                if is_test_attr || mentions_test {
                    self.test_spans.push((close + 1, self.item_end(close + 1)));
                }
            }
            i = close + 1;
        }
        attr_spans
    }

    /// End (exclusive token index) of the item/statement/field starting at
    /// `from`: skips stacked attributes, then runs to the first `,` or `;`
    /// at depth 0 or past the matching close of the first depth-0 `{`.
    fn item_end(&self, from: usize) -> usize {
        let mut i = from;
        // Skip any further stacked attributes.
        while self.punct_at(i, '#') && self.punct_at(i + 1, '[') {
            match self.match_delim(i + 1, '[', ']') {
                Some(c) => i = c + 1,
                None => return self.tokens.len(),
            }
        }
        let (mut paren, mut bracket) = (0i32, 0i32);
        while i < self.tokens.len() {
            match self.tokens[i].kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                    return self.match_delim(i, '{', '}').map_or(self.tokens.len(), |c| c + 1);
                }
                TokKind::Punct(',' | ';') if paren == 0 && bracket == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        self.tokens.len()
    }

    /// Matching close index for the `open_ch` at `open_idx`, tracking all
    /// three bracket kinds so strings/comments (already stripped by the
    /// lexer) cannot desynchronize it.
    pub fn match_delim(&self, open_idx: usize, open_ch: char, close_ch: char) -> Option<usize> {
        if !self.punct_at(open_idx, open_ch) {
            return None;
        }
        let mut depth = 0i32;
        for (k, t) in self.tokens.iter().enumerate().skip(open_idx) {
            match t.kind {
                TokKind::Punct(c) if c == open_ch => depth += 1,
                TokKind::Punct(c) if c == close_ch => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn compute_code_lines(&mut self, attr_spans: &[Span]) {
        let mut in_attr = vec![false; self.tokens.len()];
        for &(s, e) in attr_spans {
            for flag in in_attr.iter_mut().take(e.min(self.tokens.len())).skip(s) {
                *flag = true;
            }
        }
        for (k, t) in self.tokens.iter().enumerate() {
            if !in_attr[k] {
                self.code_lines.insert(t.line);
            }
        }
    }

    fn scan_items(&mut self) {
        let mut fns = Vec::new();
        let mut impls = Vec::new();
        let mut i = 0;
        while i < self.tokens.len() {
            match self.ident_at(i) {
                Some("fn") => {
                    if let Some((item, next)) = self.parse_fn(i) {
                        fns.push(item);
                        i = next;
                        continue;
                    }
                }
                Some("impl") => {
                    if let Some((item, next)) = self.parse_impl(i) {
                        impls.push(item);
                        i = next;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.fns = fns;
        self.impls = impls;
    }

    /// Parses from a `fn` keyword; returns the item and the index to
    /// resume scanning at (start of the body, so nested fns are found).
    fn parse_fn(&self, fn_idx: usize) -> Option<(FnItem, usize)> {
        let name = self.ident_at(fn_idx + 1)?.to_string();
        let line = self.line_of(fn_idx);
        let (mut paren, mut bracket) = (0i32, 0i32);
        let mut i = fn_idx + 2;
        while i < self.tokens.len() {
            match self.tokens[i].kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct(';') if paren == 0 && bracket == 0 => {
                    return Some((FnItem { name, line, body: None }, i + 1));
                }
                TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                    let close = self.match_delim(i, '{', '}')?;
                    return Some((FnItem { name, line, body: Some((i, close + 1)) }, i + 1));
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    fn parse_impl(&self, impl_idx: usize) -> Option<(ImplItem, usize)> {
        let line = self.line_of(impl_idx);
        let mut i = impl_idx + 1;
        // Skip the generic parameter list, if any.
        if self.punct_at(i, '<') {
            let mut depth = 0i32;
            while i < self.tokens.len() {
                match self.tokens[i].kind {
                    TokKind::Punct('<') => depth += 1,
                    TokKind::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        // Walk to the body `{`, remembering the last depth-0 ident seen
        // before a `for` (the trait's final path segment).
        let mut angle = 0i32;
        let (mut paren, mut bracket) = (0i32, 0i32);
        let mut last_ident: Option<String> = None;
        let mut trait_name: Option<String> = None;
        while i < self.tokens.len() {
            match &self.tokens[i].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle = (angle - 1).max(0),
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Ident(s) if angle == 0 && paren == 0 && bracket == 0 => {
                    if s == "for" {
                        trait_name = last_ident.take();
                    } else if s == "where" {
                        // Self type ends; bounds may mention idents.
                    } else {
                        last_ident = Some(s.clone());
                    }
                }
                TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                    let close = self.match_delim(i, '{', '}')?;
                    let methods = self.impl_methods((i, close + 1));
                    return Some((
                        ImplItem { trait_name, line, body: (i, close + 1), methods },
                        i + 1,
                    ));
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// Names of `fn`s at nesting depth 1 of an impl body.
    fn impl_methods(&self, body: Span) -> Vec<String> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        for k in body.0..body.1 {
            match self.tokens[k].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => depth -= 1,
                TokKind::Ident(ref s) if s == "fn" && depth == 1 => {
                    if let Some(name) = self.ident_at(k + 1) {
                        out.push(name.to_string());
                    }
                }
                _ => {}
            }
        }
        out
    }

    fn scan_annotations(&mut self) {
        let mut annotations = Vec::new();
        let mut bad = Vec::new();
        for c in &self.comments {
            // Annotations are plain comments whose content *starts* with
            // `analyzer:` — doc comments and prose that merely mention
            // the grammar are not escapes.
            if c.text.starts_with("///")
                || c.text.starts_with("//!")
                || c.text.starts_with("/**")
                || c.text.starts_with("/*!")
            {
                continue;
            }
            let content = c.text.trim_start_matches(['/', '*']).trim_start();
            let Some(rest) = content.strip_prefix("analyzer:") else { continue };
            let target_line = if c.trailing {
                c.start_line
            } else {
                // The next line carrying a non-attribute token; attribute
                // stacks and further comments between the annotation and
                // its item are skipped.
                self.code_lines.range(c.end_line + 1..).next().copied().unwrap_or(0)
            };
            match parse_allow(rest) {
                Ok((rule, has_reason)) => {
                    if !has_reason {
                        bad.push(BadAnnotation {
                            line: c.start_line,
                            why: format!(
                                "allow({rule}) without a reason — every escape must say why \
                                 (`analyzer: allow({rule}, reason = \"...\")`)"
                            ),
                        });
                    }
                    annotations.push(Annotation {
                        rule,
                        has_reason,
                        line: c.start_line,
                        target_line,
                    });
                }
                Err(why) => bad.push(BadAnnotation { line: c.start_line, why }),
            }
        }
        self.annotations = annotations;
        self.bad_annotations = bad;
    }
}

/// Parses the tail of an annotation comment after `analyzer:`. Accepts
/// `allow(rule)` (reported as reasonless) and
/// `allow(rule, reason = "non-empty")`.
fn parse_allow(rest: &str) -> Result<(String, bool), String> {
    let rest = rest.trim_start();
    let body = rest
        .strip_prefix("allow")
        .and_then(|r| r.trim_start().strip_prefix('('))
        .ok_or_else(|| "expected `allow(rule, reason = \"...\")` after `analyzer:`".to_string())?;
    let close = body
        .rfind(')')
        .ok_or_else(|| "unterminated `analyzer: allow(...)` annotation".to_string())?;
    let inside = &body[..close];
    let (rule, tail) = match inside.split_once(',') {
        Some((r, t)) => (r.trim(), Some(t.trim())),
        None => (inside.trim(), None),
    };
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("`{rule}` is not a rule name"));
    }
    let has_reason = match tail {
        None => false,
        Some(t) => {
            let after = t.strip_prefix("reason").map(str::trim_start);
            let eq = after.and_then(|a| a.strip_prefix('=')).map(str::trim_start);
            match eq.and_then(|a| a.strip_prefix('"')).and_then(|a| a.rsplit_once('"')) {
                Some((text, _)) if !text.trim().is_empty() => true,
                _ => {
                    return Err("annotation tail must be `reason = \"non-empty text\"`".to_string())
                }
            }
        }
    };
    Ok((rule.to_string(), has_reason))
}

fn render(tokens: &[Token]) -> String {
    let mut s = String::new();
    for t in tokens {
        match &t.kind {
            TokKind::Ident(i) => {
                if !s.is_empty() && !s.ends_with(['(', '[', ':']) {
                    s.push(' ');
                }
                s.push_str(i);
            }
            TokKind::Punct(c) => s.push(*c),
            TokKind::Str(v) => {
                s.push('"');
                s.push_str(v);
                s.push('"');
            }
            TokKind::Num => s.push('N'),
            TokKind::Lifetime => s.push('\''),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("test-crate", "src/lib.rs", src)
    }

    #[test]
    fn cfg_test_mod_spans_cover_their_items() {
        let src = "fn prod() { work(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n";
        let f = parse(src);
        let unwrap_idx = f
            .tokens
            .iter()
            .position(|t| t.kind == TokKind::Ident("unwrap".into()))
            .expect("unwrap token");
        assert!(f.in_test_span(unwrap_idx));
        let work_idx =
            f.tokens.iter().position(|t| t.kind == TokKind::Ident("work".into())).unwrap();
        assert!(!f.in_test_span(work_idx));
    }

    #[test]
    fn impls_resolve_trait_names_and_methods() {
        let src = "
impl<T: BlockDevice + ?Sized> BlockDevice for Arc<T> {
    fn read_blocks(&self) {}
    fn flush(&self) { if x { y(); } }
}
impl fmt::Display for Foo {
    fn fmt(&self) {}
}
impl Foo {
    fn inherent(&self) {}
}
impl From<Bar> for Foo {
    fn from(b: Bar) -> Foo { Foo }
}
";
        let f = parse(src);
        assert_eq!(f.impls.len(), 4);
        assert_eq!(f.impls[0].trait_name.as_deref(), Some("BlockDevice"));
        assert_eq!(f.impls[0].methods, vec!["read_blocks", "flush"]);
        assert_eq!(f.impls[1].trait_name.as_deref(), Some("Display"));
        assert_eq!(f.impls[2].trait_name, None);
        assert_eq!(f.impls[3].trait_name.as_deref(), Some("From"));
    }

    #[test]
    fn annotations_cover_their_lines() {
        let src = "\
// analyzer: allow(panic_freedom, reason = \"bounded by construction\")
let x = v.pop().unwrap();
let y = w.pop().unwrap(); // analyzer: allow(panic_freedom, reason = \"ditto\")
let z = q.pop().unwrap();
";
        let f = parse(src);
        assert!(f.allowed("panic_freedom", 2));
        assert!(f.allowed("panic_freedom", 3));
        assert!(!f.allowed("panic_freedom", 4));
        assert!(!f.allowed("secret_taint", 2));
    }

    #[test]
    fn annotations_skip_attribute_stacks() {
        let src = "\
// analyzer: allow(safety_comment, reason = \"covered by module docs\")
#[cfg(target_arch = \"x86_64\")]
#[target_feature(enable = \"aes\")]
unsafe fn fast(&self) {}
";
        let f = parse(src);
        assert!(f.allowed("safety_comment", 4));
    }

    #[test]
    fn reasonless_or_malformed_annotations_are_reported() {
        let f = parse("// analyzer: allow(panic_freedom)\nlet x = v.pop().unwrap();\n");
        assert_eq!(f.bad_annotations.len(), 1);
        assert!(!f.allowed("panic_freedom", 2), "reasonless escape grants nothing");
        let f = parse("// analyzer: allw(panic_freedom, reason = \"x\")\nfoo();\n");
        assert_eq!(f.bad_annotations.len(), 1);
        let f = parse("// analyzer: allow(panic_freedom, reason = \"\")\nfoo();\n");
        assert_eq!(f.bad_annotations.len(), 1);
    }

    #[test]
    fn inner_attrs_render() {
        let f = parse("#![forbid(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\nfn f() {}\n");
        assert!(f.inner_attrs.iter().any(|a| a.contains("forbid") && a.contains("unsafe_code")));
        assert!(f.inner_attrs.iter().any(|a| a.contains("unsafe_op_in_unsafe_fn")));
    }
}
