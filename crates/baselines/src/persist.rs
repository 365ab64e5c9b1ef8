//! [`StateJournal`]: crash-safe state persistence for the baseline stores.
//!
//! The baselines keep their position maps in RAM (HIVE's is additionally
//! written through to its on-device map region). To make them remountable
//! and crash-recoverable, each store serializes its committed state as one
//! [`JournalRecord`] of [`DeltaOp`]s — the same checksummed record format
//! and [`TransactionManager`] append/replay machinery the thin pool's
//! metadata journal uses. Position maps ride [`DeltaOp::SetMapping`]
//! extents; scalar registers (log head, epoch, cursor) ride
//! [`DeltaOp::Register`].
//!
//! Layout on the dedicated metadata device: block 0 is a checksummed
//! header naming the committed transaction and its journal extent; the
//! rest is split into two shadow halves. A commit writes the full-state
//! record into the *inactive* half and then flips the header — the header
//! write is the commit point, so a power cut anywhere leaves the previous
//! committed state intact and replayable.

use mobiceal_blockdev::{BlockDevice, BlockDeviceError, SharedDevice};
use mobiceal_crypto::sha256;
use mobiceal_thinp::{DeltaOp, JournalConfig, JournalRecord, TransactionManager};

/// Magic prefix of the state-journal header block.
const HEADER_MAGIC: &[u8; 8] = b"MCBLJN01";

/// magic (8) + txid (8) + active (1) + used (8) + digest (32).
const HEADER_LEN: usize = 8 + 8 + 1 + 8 + 32;

/// A/B-buffered full-state journal on a dedicated metadata device.
pub struct StateJournal {
    meta: SharedDevice,
    halves: [TransactionManager; 2],
}

impl StateJournal {
    /// Wraps `meta` (header block + two shadow halves).
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::NoSpace`] if the device has fewer than 3 blocks
    /// or blocks too small for the header.
    pub fn new(meta: SharedDevice) -> Result<Self, BlockDeviceError> {
        let half_len = meta.num_blocks().saturating_sub(1) / 2;
        if half_len == 0 || meta.block_size() < HEADER_LEN {
            return Err(BlockDeviceError::NoSpace);
        }
        let halves = [
            TransactionManager::new(
                meta.clone(),
                JournalConfig { first_block: 1, blocks: half_len },
            ),
            TransactionManager::new(
                meta.clone(),
                JournalConfig { first_block: 1 + half_len, blocks: half_len },
            ),
        ];
        Ok(StateJournal { meta, halves })
    }

    fn header_digest(bytes: &[u8]) -> [u8; 32] {
        sha256(&bytes[..HEADER_LEN - 32])
    }

    /// Reads the header: `None` if the device is fresh (all-zero header).
    fn load_header(&self) -> Result<Option<(u64, usize, u64)>, BlockDeviceError> {
        let block = self.meta.read_block(0)?;
        if block.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        let corrupt = |detail: &str| BlockDeviceError::CorruptMetadata { detail: detail.into() };
        if &block[..8] != HEADER_MAGIC {
            return Err(corrupt("bad state-journal magic"));
        }
        if Self::header_digest(&block)[..] != block[HEADER_LEN - 32..HEADER_LEN] {
            return Err(corrupt("state-journal header digest mismatch"));
        }
        let txid = crate::le_u64_at(&block, 8)?;
        let active = block[16] as usize;
        let used = crate::le_u64_at(&block, 17)?;
        if active > 1 || txid == 0 {
            return Err(corrupt("state-journal header out of range"));
        }
        Ok(Some((txid, active, used)))
    }

    /// Commits `ops` as the store's new full state. Returns the committed
    /// transaction id.
    ///
    /// The record lands in the inactive half and the header flips last, so
    /// a power cut at any write boundary preserves the previously
    /// committed state.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::NoSpace`] if the state does not fit in one
    /// half; device errors otherwise.
    pub fn commit(&self, ops: Vec<DeltaOp>) -> Result<u64, BlockDeviceError> {
        let (txid, active) = match self.load_header()? {
            Some((txid, active, _)) => (txid, active),
            None => (0, 1),
        };
        let target = 1 - active;
        let record = JournalRecord { seq: txid + 1, ops };
        let used = self.halves[target].append(0, &record)?;

        let mut block = vec![0u8; self.meta.block_size()];
        block[..8].copy_from_slice(HEADER_MAGIC);
        block[8..16].copy_from_slice(&(txid + 1).to_le_bytes());
        block[16] = target as u8;
        block[17..25].copy_from_slice(&used.to_le_bytes());
        let digest = Self::header_digest(&block);
        block[HEADER_LEN - 32..HEADER_LEN].copy_from_slice(&digest);
        self.meta.write_block(0, &block)?;
        self.meta.flush()?;
        Ok(txid + 1)
    }

    /// Loads the last committed state: `None` if nothing was ever
    /// committed.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::CorruptMetadata`] if the header or the
    /// committed record fails validation.
    pub fn load(&self) -> Result<Option<(u64, Vec<DeltaOp>)>, BlockDeviceError> {
        match self.load_header()? {
            None => Ok(None),
            Some((txid, active, used)) => {
                let mut records = self.halves[active].replay(used, txid, txid)?;
                let record = records.pop().ok_or_else(|| BlockDeviceError::CorruptMetadata {
                    detail: "state-journal record missing".into(),
                })?;
                Ok(Some((txid, record.ops)))
            }
        }
    }
}

/// Coalesces a `logical → Some(physical)` table into run-length
/// [`DeltaOp::SetMapping`] extents for volume id 0 — the shared shape of
/// every baseline's position map.
pub(crate) fn map_to_ops(map: &[Option<u64>], ops: &mut Vec<DeltaOp>) {
    let mut run: Option<(u64, u64, u64)> = None;
    for (l, slot) in map.iter().enumerate() {
        let l = l as u64;
        match (*slot, &mut run) {
            (Some(p), Some((vb, db, len))) if l == *vb + *len && p == *db + *len => *len += 1,
            (Some(p), _) => {
                if let Some((virt_begin, data_begin, len)) = run.take() {
                    ops.push(DeltaOp::SetMapping {
                        id: 0,
                        extent: mobiceal_thinp::Extent { virt_begin, data_begin, len },
                    });
                }
                run = Some((l, p, 1));
            }
            (None, _) => {
                if let Some((virt_begin, data_begin, len)) = run.take() {
                    ops.push(DeltaOp::SetMapping {
                        id: 0,
                        extent: mobiceal_thinp::Extent { virt_begin, data_begin, len },
                    });
                }
            }
        }
    }
    if let Some((virt_begin, data_begin, len)) = run {
        ops.push(DeltaOp::SetMapping {
            id: 0,
            extent: mobiceal_thinp::Extent { virt_begin, data_begin, len },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::MemDisk;
    use std::sync::Arc;

    fn journal(blocks: u64) -> (Arc<MemDisk>, StateJournal) {
        let disk = Arc::new(MemDisk::with_default_timing(blocks, 512));
        let j = StateJournal::new(disk.clone() as SharedDevice).unwrap();
        (disk, j)
    }

    fn regs(vals: &[(u32, u64)]) -> Vec<DeltaOp> {
        vals.iter().map(|&(key, value)| DeltaOp::Register { key, value }).collect()
    }

    #[test]
    fn fresh_device_loads_none() {
        let (_disk, j) = journal(9);
        assert_eq!(j.load().unwrap(), None);
    }

    #[test]
    fn commit_then_load_roundtrip() {
        let (_disk, j) = journal(9);
        assert_eq!(j.commit(regs(&[(0, 42), (1, 7)])).unwrap(), 1);
        let (txid, ops) = j.load().unwrap().unwrap();
        assert_eq!(txid, 1);
        assert_eq!(ops, regs(&[(0, 42), (1, 7)]));
        assert_eq!(j.commit(regs(&[(0, 43)])).unwrap(), 2);
        let (txid, ops) = j.load().unwrap().unwrap();
        assert_eq!(txid, 2);
        assert_eq!(ops, regs(&[(0, 43)]));
    }

    #[test]
    fn torn_record_without_header_flip_keeps_old_state() {
        let (disk, j) = journal(9);
        j.commit(regs(&[(0, 1)])).unwrap();
        j.commit(regs(&[(0, 2)])).unwrap();
        // A new commit would land in the inactive half; garbage there (a
        // torn record whose header flip never happened) must not matter.
        let active_first = { 1 + (disk.num_blocks() - 1) / 2 };
        for b in 1..disk.num_blocks() {
            let in_active = (active_first..active_first + 4).contains(&b);
            if !in_active {
                disk.write_block(b, &vec![0xFF; 512]).unwrap();
            }
        }
        let (txid, ops) = j.load().unwrap().unwrap();
        assert_eq!((txid, ops), (2, regs(&[(0, 2)])));
    }

    #[test]
    fn corrupt_header_is_detected() {
        let (disk, j) = journal(9);
        j.commit(regs(&[(0, 5)])).unwrap();
        let mut header = disk.read_block(0).unwrap();
        header[9] ^= 0x10; // inside txid
        disk.write_block(0, &header).unwrap();
        assert!(j.load().is_err());
    }

    #[test]
    fn oversized_state_reports_no_space() {
        let (_disk, j) = journal(3);
        let big = regs(&(0..200u32).map(|k| (k, k as u64)).collect::<Vec<_>>());
        assert!(matches!(j.commit(big), Err(BlockDeviceError::NoSpace)));
    }

    #[test]
    fn map_to_ops_coalesces_runs() {
        let map = [Some(10), Some(11), Some(12), None, Some(20), Some(30), Some(31)];
        let mut ops = Vec::new();
        map_to_ops(&map, &mut ops);
        let extents: Vec<(u64, u64, u64)> = ops
            .iter()
            .map(|op| match op {
                DeltaOp::SetMapping { extent, .. } => {
                    (extent.virt_begin, extent.data_begin, extent.len)
                }
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert_eq!(extents, vec![(0, 10, 3), (4, 20, 1), (5, 30, 2)]);
    }
}
