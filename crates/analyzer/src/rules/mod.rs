//! The rule passes. Each pass walks the parsed [`Workspace`] and appends
//! [`Finding`]s; the catalog lives in `DESIGN.md` §"Static analysis &
//! invariant lints".
//!
//! | id | name | level | contract |
//! |----|------|-------|----------|
//! | A1 | `default_forwarding` | deny | every `impl BlockDevice` implements `read_blocks_to`, the one trait method left with a default |
//! | A3 | `panic_freedom` | deny | no `unwrap`/`expect`/`panic!`/`unreachable!` in hot-path modules |
//! | A5 | `safety_comment` | deny | every `unsafe` justified; unsafe-free crates forbid unsafe |
//! | A6 | `secret_taint` | warn | secret-named values never feed charged-time computation |

pub mod forwarding;
pub mod panics;
pub mod taint;
pub mod unsafety;

use crate::diag::{Finding, Level};
use crate::workspace::Workspace;

/// The annotation-facing rule names (what `analyzer: allow(<name>, ...)`
/// accepts). `annotation` is the meta-rule for malformed escapes.
pub const RULE_NAMES: [&str; 5] =
    ["default_forwarding", "panic_freedom", "safety_comment", "secret_taint", "annotation"];

/// Runs every pass over the workspace, including annotation validation.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    annotations(ws, &mut out);
    forwarding::run(ws, &mut out);
    panics::run(ws, &mut out);
    unsafety::run(ws, &mut out);
    taint::run(ws, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// The meta-pass: malformed annotations and annotations naming unknown
/// rules are themselves deny findings, so a typo'd escape can never
/// silently grant itself.
fn annotations(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        for bad in &f.bad_annotations {
            out.push(Finding {
                rule: "A0/annotation",
                level: Level::Deny,
                file: f.rel_path.clone(),
                line: bad.line,
                message: bad.why.clone(),
            });
        }
        for a in &f.annotations {
            if !RULE_NAMES.contains(&a.rule.as_str()) {
                out.push(Finding {
                    rule: "A0/annotation",
                    level: Level::Deny,
                    file: f.rel_path.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) names no rule; known rules: {}",
                        a.rule,
                        RULE_NAMES.join(", ")
                    ),
                });
            }
        }
    }
}
