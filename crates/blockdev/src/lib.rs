//! Simulated block devices.
//!
//! The bottom of every storage stack in this reproduction is a
//! [`BlockDevice`]: a fixed geometry of equally sized blocks addressed by
//! [`BlockIndex`]. The concrete implementation, [`MemDisk`], keeps the block
//! contents in memory, charges simulated time per operation according to an
//! eMMC [`mobiceal_sim::CostModel`], records per-operation statistics, and —
//! crucially for the paper's threat model — can produce [`DiskSnapshot`]s:
//! bit-exact images of the medium that the multi-snapshot adversary analyses
//! (§III-A of the paper).
//!
//! Layered devices (`dm-crypt`, thin volumes, MobiCeal itself) also implement
//! [`BlockDevice`], so any block-based file system can be deployed on any
//! layer — the paper's "file system friendly" design principle.
//!
//! [`IoEngine`] adds an AHCI/io_uring-style bounded submission/completion
//! ring over any device: one thread keeps up to `ring_depth` batches in
//! flight, and queue-capable cost profiles charge the overlapped commands
//! at the resulting genuine queue depth (see the [`engine`] module docs).
//!
//! # Example
//!
//! ```
//! use mobiceal_blockdev::{BlockDevice, MemDisk};
//!
//! let disk = MemDisk::with_default_timing(128, 4096);
//! disk.write_block(5, &vec![0xAB; 4096])?;
//! assert_eq!(disk.read_block(5)?[0], 0xAB);
//! let snap = disk.snapshot();
//! assert_eq!(snap.block(5)[0], 0xAB);
//! # Ok::<(), mobiceal_blockdev::BlockDeviceError>(())
//! ```

#![forbid(unsafe_code)]

mod crash;
mod device;
pub mod engine;
mod memdisk;
mod snapshot;
mod stats;

pub use crash::CrashDisk;
pub use device::{
    read_blocks_owned, BlockDevice, BlockDeviceError, BlockIndex, ReadDest, SharedDevice,
};
pub use engine::{Completion, EngineDevice, IoEngine, IoOutput, Ticket};
pub use memdisk::{FaultInjection, MemDisk};
pub use snapshot::DiskSnapshot;
pub use stats::{DeviceStats, OpCounter};
