//! A1 `default_forwarding` — wrapper-forwarding completeness.
//!
//! Every production `impl BlockDevice for ...` must explicitly implement
//! (or explicitly forward) the vectored batch methods and the host-queue
//! hooks. The trait default-implements all six, which is exactly the
//! trap: a new wrapper that forgets them still compiles, silently breaks
//! batch amortization (`read_blocks`/`write_blocks` fall back to
//! per-block loops), the caller-owned read (`read_blocks_to` falls back to
//! reading into fresh buffers and copying them out) or the engine's
//! queue-depth signal (`host_queue_enter`/`leave` stop reaching the medium,
//! a regression once caught only at runtime). A wrapper
//! that really does read through a batch of its own forwards
//! `read_blocks_to` to `mobiceal_blockdev::read_blocks_via_batch`, the
//! default's body, so the choice is written down.
//!
//! Escape: `// analyzer: allow(default_forwarding, reason = "...")` on
//! the impl, for devices that genuinely want per-block defaults.

use crate::diag::{Finding, Level};
use crate::workspace::Workspace;

/// The methods a wrapper must pin down. `read_block`/`write_block` and
/// the geometry methods are required by the compiler (no defaults), so
/// only the silently-defaultable six need auditing.
pub const REQUIRED: [&str; 6] = [
    "read_blocks",
    "read_blocks_to",
    "write_blocks",
    "flush",
    "host_queue_enter",
    "host_queue_leave",
];

pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        for im in &f.impls {
            if im.trait_name.as_deref() != Some("BlockDevice") {
                continue;
            }
            if f.in_test_span(im.body.0) {
                continue;
            }
            let missing: Vec<&str> = REQUIRED
                .iter()
                .filter(|m| !im.methods.iter().any(|have| have == *m))
                .copied()
                .collect();
            if missing.is_empty() || f.allowed("default_forwarding", im.line) {
                continue;
            }
            out.push(Finding {
                rule: "A1/default_forwarding",
                level: Level::Deny,
                file: f.rel_path.clone(),
                line: im.line,
                message: format!(
                    "`impl BlockDevice` relies on default bodies for {}; forward them \
                     explicitly so batching and host-queue depth survive this layer, or \
                     annotate `analyzer: allow(default_forwarding, reason = \"...\")`",
                    missing.join(", ")
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
