//! A1 `default_forwarding` — the caller-owned read survives every layer.
//!
//! The compiler makes every `impl BlockDevice` implement `read_blocks`,
//! `write_blocks`, `flush` and the host-queue hooks. `read_blocks_to`
//! keeps a default, one `read_blocks` batch copied into the caller's
//! memory, so that a wrapper like the benchmark's span recorder, which
//! overrides only `read_blocks`, still charges what that batch charges.
//! The default is a trap for a production layer: one whose `read_blocks`
//! is `read_blocks_owned` (the layers of the public read path) recurses
//! forever without its own `read_blocks_to`, and any other layer silently
//! reads into fresh buffers and copies them out. So every production
//! `impl BlockDevice for ...` must implement `read_blocks_to`. A wrapper
//! that really does read through a batch of its own forwards it to
//! `mobiceal_blockdev::read_blocks_via_batch`, the default's body, so the
//! choice is written down.
//!
//! Escape: `// analyzer: allow(default_forwarding, reason = "...")` on
//! the impl.

use crate::diag::{Finding, Level};
use crate::workspace::Workspace;

/// The trait method whose default no production layer may inherit.
pub const REQUIRED: &str = "read_blocks_to";

pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        for im in &f.impls {
            if im.trait_name.as_deref() != Some("BlockDevice") {
                continue;
            }
            if f.in_test_span(im.body.0) {
                continue;
            }
            if im.methods.iter().any(|have| have == REQUIRED)
                || f.allowed("default_forwarding", im.line)
            {
                continue;
            }
            out.push(Finding {
                rule: "A1/default_forwarding",
                level: Level::Deny,
                file: f.rel_path.clone(),
                line: im.line,
                message: format!(
                    "`impl BlockDevice` relies on the default `{REQUIRED}`; implement it (or \
                     forward it to `read_blocks_via_batch`) so the caller-owned read survives \
                     this layer, or annotate \
                     `analyzer: allow(default_forwarding, reason = \"...\")`"
                ),
            });
        }
    }
}

/// Number of production `impl BlockDevice` sites audited — pinned by the
/// self-tests so the rule can never silently stop matching.
pub fn audited_sites(ws: &Workspace) -> usize {
    ws.files
        .iter()
        .flat_map(|f| f.impls.iter().map(move |im| (f, im)))
        .filter(|(f, im)| {
            im.trait_name.as_deref() == Some("BlockDevice") && !f.in_test_span(im.body.0)
        })
        .count()
}
