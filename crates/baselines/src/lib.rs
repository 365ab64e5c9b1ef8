//! Comparator systems the paper evaluates MobiCeal against.
//!
//! Table I, Table II, Fig. 4 and the related-work analysis all compare
//! MobiCeal with running systems, so this crate implements each of them at
//! the block layer:
//!
//! * [`AndroidFde`] — stock Android full-disk encryption (§II-A): dm-crypt
//!   over the whole userdata partition, no deniability. The baseline of
//!   Fig. 4 and the "Android FDE" row of Table II.
//! * [`MobiPluto`] — a MobiPluto/Mobiflage-class *static* hidden-volume
//!   system (§VII-A): disk pre-filled with randomness, sequential public
//!   allocation, hidden data at key-derived offsets. Deniable against one
//!   snapshot; broken by snapshot differencing (§IV-A) — the property the
//!   security-game experiment demonstrates.
//! * [`HiveWoOram`] — HIVE's write-only ORAM (§VII-B): every logical write
//!   rewrites `k = 3` uniformly random physical blocks plus position-map
//!   and stash state, with a sync per write. Multi-snapshot secure but
//!   crushingly slow (the ≥ 99 % overhead row of Table I).
//! * [`DefyLite`] — a DEFY-class log-structured deniable store (§VII-B):
//!   all writes are appends encrypted under per-epoch chained keys, with
//!   log cleaning. Reproduces DEFY's ~94 % overhead regime in its original
//!   (RAM-disk) test environment.
//! * [`worlds`] — adapters plugging MobiCeal and the baselines into the
//!   empirical multi-snapshot security game of `mobiceal-adversary`.

#![forbid(unsafe_code)]

mod defy;
mod fde;
mod hive;
mod mobipluto;
mod persist;
pub mod worlds;

pub use defy::DefyLite;
pub use fde::AndroidFde;
pub use hive::HiveWoOram;
pub use mobipluto::MobiPluto;
pub use persist::StateJournal;

use mobiceal_blockdev::{BlockDeviceError, BlockIndex, SharedDevice};

/// Reads `indices` from `dev` in one batch, and makes no call when there is
/// nothing to read. A reply with a different number of blocks than asked
/// for is an `Io` error, never a panic or a block made up in its place.
fn read_exact(
    dev: &SharedDevice,
    indices: &[BlockIndex],
) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
    if indices.is_empty() {
        return Ok(Vec::new());
    }
    let bufs = dev.read_blocks(indices)?;
    if bufs.len() != indices.len() {
        return Err(BlockDeviceError::Io {
            reason: "device returned a different number of blocks than it was asked for".into(),
        });
    }
    Ok(bufs)
}
