//! Userspace device mapper.
//!
//! Linux's device mapper lets block devices be stacked: `dm-crypt` places an
//! "encrypted block device" over a raw one (this is how Android FDE works,
//! §II-A of the paper), `dm-linear` carves out sub-ranges, and `dm-thin`
//! (in `mobiceal-thinp`) provides thin provisioning. This crate reproduces
//! the first two as ordinary [`mobiceal_blockdev::BlockDevice`]
//! implementations, so stacks compose exactly like kernel dm tables:
//!
//! ```text
//!   SimFs  →  DmCrypt (AES-CBC-ESSIV)  →  DmLinear  →  MemDisk (eMMC)
//! ```
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mobiceal_blockdev::{BlockDevice, MemDisk};
//! use mobiceal_dm::DmCrypt;
//!
//! let raw = Arc::new(MemDisk::with_default_timing(64, 4096));
//! let enc = DmCrypt::new_essiv(raw.clone(), &[0x42; 32]);
//! enc.write_block(3, &vec![7u8; 4096])?;
//! assert_eq!(enc.read_block(3)?, vec![7u8; 4096]);   // transparent
//! assert_ne!(raw.read_block(3)?, vec![7u8; 4096]);   // ciphertext at rest
//! # Ok::<(), mobiceal_blockdev::BlockDeviceError>(())
//! ```

#![forbid(unsafe_code)]

mod crypt;
mod linear;

pub use crypt::DmCrypt;
pub use linear::DmLinear;
