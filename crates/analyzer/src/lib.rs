//! `mobiceal-analyzer` — the stack's hand-enforced contracts as
//! CI-gated static checks.
//!
//! The MobiCeal stack rests on invariants that live in prose and review
//! discipline: every `BlockDevice` layer implements the caller-owned read
//! `read_blocks_to`, the foreground I/O path never panics, every `unsafe`
//! is justified, and secrets never parameterize charged time. Each of these fails *silently* when
//! the next layer is added — the compiler is happy, the tests pass, and
//! the regression surfaces weeks later as a read that recurses forever or
//! a timing channel.
//!
//! This crate turns those contracts into deny-by-default lint passes
//! over a hand-rolled lexer and a coarse item model (zero dependencies —
//! the container has no registry). Run it as
//!
//! ```text
//! cargo run -p mobiceal-analyzer -- --workspace
//! ```
//!
//! Diagnostics are rustc-style `file:line`; any deny-level finding makes
//! the exit status non-zero, which is what the CI "Static analysis" step
//! gates on. See `DESIGN.md` §"Static analysis & invariant lints" for
//! the rule catalog and the `analyzer: allow(rule, reason = "...")`
//! annotation grammar.

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::{to_json, Finding, Level};
pub use workspace::{find_workspace_root, Workspace};

/// Convenience: analyze a set of in-memory files and return the
/// findings. The fixture self-tests are built on this.
pub fn analyze_memory(files: &[(&str, &str, &str)]) -> Vec<Finding> {
    Workspace::from_memory(files).analyze()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_workspace_is_clean() {
        assert!(analyze_memory(&[]).is_empty());
    }

    #[test]
    fn unknown_annotation_rule_is_a_deny_finding() {
        let findings = analyze_memory(&[(
            "x",
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\n// analyzer: allow(no_such_rule, reason = \"hm\")\nfn f() {}\n",
        )]);
        assert!(
            findings.iter().any(|f| f.rule == "A0/annotation" && f.level == Level::Deny),
            "{findings:?}"
        );
    }
}
