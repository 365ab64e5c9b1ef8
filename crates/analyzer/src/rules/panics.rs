//! A3 `panic_freedom` — no panics on the foreground I/O path.
//!
//! The hot-path modules sit under every workload's read/write and must
//! surface failures as `BlockDeviceError`/`McError`, never abort: a
//! panic mid-batch poisons nothing visible (parking_lot) but tears down
//! the tenant thread, and on the real product would crash the storage
//! daemon. `unwrap`, `expect`, `panic!`, `unreachable!`, `todo!` and
//! `unimplemented!` are banned in non-test code of the designated
//! modules; a genuinely unreachable arm keeps a
//! `analyzer: allow(panic_freedom, reason = "...")` stating *why* it is
//! unreachable.
//!
//! `unwrap_or`/`unwrap_or_else`/`unwrap_or_default` are distinct
//! identifiers and deliberately not matched.

use crate::diag::{Finding, Level};
use crate::lexer::TokKind;
use crate::workspace::Workspace;

/// The designated hot-path modules: (crate name, file name).
pub const HOT_FILES: [(&str, &str); 7] = [
    ("mobiceal-blockdev", "memdisk.rs"),
    ("mobiceal-blockdev", "engine.rs"),
    ("mobiceal-blockdev", "device.rs"),
    ("mobiceal-dm", "crypt.rs"),
    ("mobiceal-thinp", "pool.rs"),
    ("mobiceal", "pde_volume.rs"),
    ("mobiceal", "device.rs"),
];

const BANNED_METHODS: [&str; 2] = ["unwrap", "expect"];
const BANNED_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        let designated =
            HOT_FILES.iter().any(|&(c, name)| c == f.crate_name && name == f.file_name());
        if !designated {
            continue;
        }
        for (i, t) in f.tokens.iter().enumerate() {
            let TokKind::Ident(name) = &t.kind else { continue };
            let hit = if BANNED_METHODS.contains(&name.as_str()) {
                f.punct_at(i.wrapping_sub(1), '.') && f.punct_at(i + 1, '(')
            } else if BANNED_MACROS.contains(&name.as_str()) {
                f.punct_at(i + 1, '!')
            } else {
                false
            };
            if !hit || f.in_test_span(i) {
                continue;
            }
            let line = t.line;
            if f.allowed("panic_freedom", line) {
                continue;
            }
            let call = if BANNED_MACROS.contains(&name.as_str()) {
                format!("{name}!")
            } else {
                format!(".{name}()")
            };
            out.push(Finding {
                rule: "A3/panic_freedom",
                level: Level::Deny,
                file: f.rel_path.clone(),
                line,
                message: format!(
                    "`{call}` in hot-path module {}: propagate a BlockDeviceError/McError \
                     instead, or annotate `analyzer: allow(panic_freedom, reason = \"...\")` \
                     stating why this cannot fire",
                    f.file_name()
                ),
            });
        }
    }
}
