//! Measurement workloads reproducing the paper's benchmarks.
//!
//! §VI-B evaluates MobiCeal with two tools:
//!
//! * `dd` — one large sequential write
//!   (`dd if=/dev/zero of=test.dbf bs=400M count=1 conv=fdatasync`) and one
//!   large sequential read, cache dropped in between → [`DdWorkload`].
//! * Bonnie++ — block-wise sequential output/input/rewrite plus small-file
//!   create/stat/delete churn, with a working set sized at 2× RAM →
//!   [`BonnieWorkload`].
//!
//! [`stacks`] assembles the five configurations of Fig. 4 (Android FDE,
//! A-T-P, A-T-H, MC-P, MC-H) as mountable block devices, and [`report`]
//! renders rows the way the paper's tables do. All timing comes from the
//! simulated clock, so results are exactly reproducible.

#![forbid(unsafe_code)]

pub mod bonnie;
pub mod dd;
pub mod iozone;
pub mod report;
pub mod stacks;
pub mod table1;

pub use bonnie::{BonnieResult, BonnieWorkload};
pub use dd::{DdResult, DdWorkload};
pub use iozone::{IozoneResult, IozoneWorkload};
pub use report::{render_table, Cell, Table};
pub use stacks::{build_stack, StackConfig, StackHandle};
pub use table1::{defy_row, hive_row, mobiceal_row, Table1Row};
