//! A DEFY-class log-structured deniable store (Peters et al., NDSS 2015).
//!
//! DEFY rides YAFFS's log-structured, all-writes-are-appends design and
//! adds per-write encryption under chained keys with secure deletion. The
//! cost profile Table I captures (≈ 94 % overhead *on a RAM-disk*, where
//! the medium is nearly free) is dominated by the extra cryptography on
//! every page write: key-chain derivation, KDM-style re-encryption, and
//! authenticated metadata.
//!
//! `DefyLite` reproduces that regime: an append-only log with logical→log
//! mapping, per-append key-chain hashing plus a double AES pass, per-append
//! metadata write, and stop-the-world log cleaning when the log fills.
//!
//! The log is driven *vectored*: a `write_blocks` batch lands each
//! contiguous head run as one sequential extent (one multi-block command on
//! an amortizing device), and cleaning reads every live block in one
//! vectored relocation pass before rewriting the compacted front as a
//! second. Reading everything before writing anything also fixes a latent
//! read-after-overwrite hazard of the incremental cleaning loop: when a
//! live block's old log position lay inside the compacted front, the
//! one-block-at-a-time loop could overwrite it under the new epoch key
//! before relocating it, corrupting the block. Log head and mapping commit
//! only after an extent has landed, so a mid-batch device error never
//! advances the head past what is on the medium.

use crate::persist::{map_to_ops, StateJournal};
use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, SharedDevice};
use mobiceal_crypto::{sha256, Aes256, CbcEssiv, SectorCipher};
use mobiceal_sim::{CpuCostModel, SimClock};
use mobiceal_thinp::DeltaOp;
use parking_lot::Mutex;

/// State-journal register ids (see [`DefyLite::commit`]).
const REG_HEAD: u32 = 0;
const REG_EPOCH: u32 = 1;
const REG_CLEANINGS: u32 = 2;

struct DefyState {
    /// logical → log position of the current version.
    map: Vec<Option<u64>>,
    /// log position → logical for live entries.
    inverse: Vec<Option<u64>>,
    /// Next append position.
    head: u64,
    /// Epoch counter (bumped by cleaning; models DEFY's secure-deletion
    /// epochs).
    epoch: u64,
    /// Current epoch key (chained by hashing).
    epoch_key: [u8; 32],
    cleanings: u64,
}

/// The DEFY-like log-structured deniable store. See the module docs.
pub struct DefyLite {
    dev: SharedDevice,
    clock: SimClock,
    cpu: CpuCostModel,
    n_logical: u64,
    log_blocks: u64,
    state: Mutex<DefyState>,
}

impl std::fmt::Debug for DefyLite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefyLite").field("n_logical", &self.n_logical).finish_non_exhaustive()
    }
}

impl DefyLite {
    /// Builds a store exposing `n_logical` blocks over `dev`, which must be
    /// at least twice as large (cleaning headroom).
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::OutOfRange`] if the device is too small.
    pub fn new(
        dev: SharedDevice,
        clock: SimClock,
        n_logical: u64,
        root_key: [u8; 32],
    ) -> Result<Self, BlockDeviceError> {
        let log_blocks = dev.num_blocks();
        if log_blocks < 2 * n_logical {
            return Err(BlockDeviceError::OutOfRange {
                index: 2 * n_logical,
                num_blocks: log_blocks,
            });
        }
        Ok(DefyLite {
            dev,
            clock,
            // DEFY's testbed runs the cipher stack synchronously on a
            // single-processor PC (no DMA overlap).
            cpu: CpuCostModel::pc_singlecore(),
            n_logical,
            log_blocks,
            state: Mutex::new(DefyState {
                map: vec![None; n_logical as usize],
                inverse: vec![None; log_blocks as usize],
                head: 0,
                epoch: 0,
                epoch_key: root_key,
                cleanings: 0,
            }),
        })
    }

    /// Log-cleaning passes performed so far.
    pub fn cleanings(&self) -> u64 {
        self.state.lock().cleanings
    }

    fn cipher_for(key: &[u8; 32]) -> CbcEssiv<Aes256> {
        CbcEssiv::with_essiv_key(Aes256::new(key), &sha256(key))
    }

    /// DEFY's per-write cryptographic tax: key-chain hash derivations plus
    /// a KDM-style double encryption pass.
    fn charge_crypto(&self, bytes: usize) {
        self.clock.advance(self.cpu.hash_cost() * 3);
        self.clock.advance(self.cpu.aes_cost(bytes) * 2);
    }

    /// Compacts live entries to the front of the log under a fresh epoch
    /// key (secure deletion of stale versions).
    ///
    /// The relocation is fully vectored: one read batch of every live
    /// block, then one sequential write extent for the compacted front.
    /// Reading everything first (instead of interleaving) means a block
    /// whose old position lies inside the new front is relocated from its
    /// pre-compaction content, never from a slot the pass already rewrote.
    /// The epoch key, mapping and head commit only after the extent lands;
    /// a failed cleaning pass leaves the store on the old epoch (blocks
    /// whose old position was inside the landed prefix are lost to the
    /// overwrite, as in any interrupted secure-deletion pass).
    fn clean(&self, state: &mut DefyState) -> Result<(), BlockDeviceError> {
        let old_cipher = Self::cipher_for(&state.epoch_key);
        let new_key = sha256(&state.epoch_key);
        self.clock.advance(self.cpu.hash_cost());
        let new_cipher = Self::cipher_for(&new_key);

        let live: Vec<(u64, u64)> = state
            .map
            .iter()
            .enumerate()
            .filter_map(|(l, pos)| pos.map(|p| (l as u64, p)))
            .collect();
        // One vectored relocation read of every live block.
        let old_positions: Vec<u64> = live.iter().map(|&(_, p)| p).collect();
        let mut bufs = self.dev.read_blocks(&old_positions)?;
        for (new_pos, ((_, old_pos), buf)) in live.iter().zip(bufs.iter_mut()).enumerate() {
            self.charge_crypto(buf.len());
            old_cipher.decrypt_sector_in_place(*old_pos, buf);
            new_cipher.encrypt_sector_in_place(new_pos as u64, buf);
        }
        // One sequential extent for the compacted front.
        let writes: Vec<(u64, &[u8])> =
            bufs.iter().enumerate().map(|(i, b)| (i as u64, b.as_slice())).collect();
        self.dev.write_blocks(&writes)?;

        state.epoch += 1;
        state.epoch_key = new_key;
        state.inverse.fill(None);
        for (new_pos, &(logical, _)) in live.iter().enumerate() {
            state.map[logical as usize] = Some(new_pos as u64);
            state.inverse[new_pos] = Some(logical);
        }
        state.head = live.len() as u64;
        state.cleanings += 1;
        self.dev.flush()
    }

    /// Persists the store's committed state into `journal` as one
    /// [`StateJournal`] transaction: the log head, epoch and cleaning
    /// counters ride [`DeltaOp::Register`]s and the position map rides
    /// run-length [`DeltaOp::SetMapping`] extents. Returns the committed
    /// transaction id.
    ///
    /// The log itself is flushed first, so the journaled state never names
    /// log positions that are not on the medium.
    ///
    /// # Errors
    ///
    /// Device errors from the flush or the journal commit.
    pub fn commit(&self, journal: &StateJournal) -> Result<u64, BlockDeviceError> {
        self.dev.flush()?;
        let state = self.state.lock();
        let mut ops = vec![
            DeltaOp::Register { key: REG_HEAD, value: state.head },
            DeltaOp::Register { key: REG_EPOCH, value: state.epoch },
            DeltaOp::Register { key: REG_CLEANINGS, value: state.cleanings },
        ];
        map_to_ops(&state.map, &mut ops);
        journal.commit(ops)
    }

    /// Remounts a store from the state last committed to `journal`. A fresh
    /// journal (nothing ever committed) yields an empty store, like
    /// [`DefyLite::new`].
    ///
    /// Key-chain rederivation is charged per epoch: recovery replays the
    /// same hash chain regardless of what the log contains, so remount cost
    /// depends only on the committed counters.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::CorruptMetadata`] if the journaled state is
    /// internally inconsistent (missing registers, out-of-range or
    /// double-mapped log positions, mappings beyond the head).
    pub fn open(
        dev: SharedDevice,
        journal: &StateJournal,
        clock: SimClock,
        n_logical: u64,
        root_key: [u8; 32],
    ) -> Result<Self, BlockDeviceError> {
        let store = Self::new(dev, clock, n_logical, root_key)?;
        let Some((_txid, ops)) = journal.load()? else {
            return Ok(store);
        };
        let corrupt = |detail: String| BlockDeviceError::CorruptMetadata { detail };
        let mut state = store.state.lock();
        let mut regs: [Option<u64>; 3] = [None; 3];
        for op in ops {
            match op {
                DeltaOp::Register { key, value } if (key as usize) < regs.len() => {
                    regs[key as usize] = Some(value);
                }
                DeltaOp::SetMapping { id: 0, extent } => {
                    let virt_end = extent.virt_begin.checked_add(extent.len);
                    let data_end = extent.data_begin.checked_add(extent.len);
                    if virt_end.is_none_or(|e| e > n_logical)
                        || data_end.is_none_or(|e| e > store.log_blocks)
                    {
                        return Err(corrupt("defy mapping extent out of range".into()));
                    }
                    for i in 0..extent.len {
                        let logical = (extent.virt_begin + i) as usize;
                        let pos = extent.data_begin + i;
                        if state.inverse[pos as usize].is_some() || state.map[logical].is_some() {
                            return Err(corrupt(format!("defy log position {pos} mapped twice")));
                        }
                        state.map[logical] = Some(pos);
                        state.inverse[pos as usize] = Some(logical as u64);
                    }
                }
                other => return Err(corrupt(format!("unexpected defy journal op {other:?}"))),
            }
        }
        let (Some(head), Some(epoch), Some(cleanings)) = (regs[0], regs[1], regs[2]) else {
            return Err(corrupt("defy journal missing a register".into()));
        };
        if head > store.log_blocks {
            return Err(corrupt("defy log head out of range".into()));
        }
        if state.inverse[head as usize..].iter().any(|slot| slot.is_some()) {
            return Err(corrupt("defy mapping beyond the log head".into()));
        }
        state.head = head;
        state.epoch = epoch;
        state.cleanings = cleanings;
        for _ in 0..epoch {
            state.epoch_key = sha256(&state.epoch_key);
            store.clock.advance(store.cpu.hash_cost());
        }
        drop(state);
        Ok(store)
    }

    /// Encrypts and lands `run` as one contiguous extent at the current
    /// head, committing head and mapping only after the extent is on the
    /// medium. The caller guarantees the run fits before the log end.
    fn append_run(
        &self,
        state: &mut DefyState,
        run: &[(BlockIndex, &[u8])],
    ) -> Result<(), BlockDeviceError> {
        let base = state.head;
        let cipher = Self::cipher_for(&state.epoch_key);
        let mut payloads: Vec<(u64, Vec<u8>)> = Vec::with_capacity(run.len());
        for (i, &(_, data)) in run.iter().enumerate() {
            self.charge_crypto(data.len());
            let pos = base + i as u64;
            let mut ct = data.to_vec();
            cipher.encrypt_sector_in_place(pos, &mut ct);
            payloads.push((pos, ct));
        }
        let extent: Vec<(u64, &[u8])> = payloads.iter().map(|(p, d)| (*p, d.as_slice())).collect();
        // Land the whole run before advancing any state: on a mid-extent
        // device error the head and mapping stay put (the landed prefix is
        // on the medium but unreferenced) and the run can be retried.
        self.dev.write_blocks(&extent)?;
        for (i, &(logical, _)) in run.iter().enumerate() {
            let pos = base + i as u64;
            if let Some(old) = state.map[logical as usize].replace(pos) {
                state.inverse[old as usize] = None;
            }
            state.inverse[pos as usize] = Some(logical);
        }
        state.head = base + run.len() as u64;
        Ok(())
    }
}

impl BlockDevice for DefyLite {
    fn num_blocks(&self) -> u64 {
        self.n_logical
    }

    fn block_size(&self) -> usize {
        self.dev.block_size()
    }

    /// Batched write: appends land as contiguous head runs, each one
    /// vectored sequential extent (split only where the log fills and a
    /// cleaning pass compacts it). Mapping tags live inline with the chunk
    /// (YAFFS keeps them in the page's OOB area), so no separate metadata
    /// write is needed. Head and mapping advance per landed extent, never
    /// past a mid-extent device error (see [`DefyLite::append_run`]);
    /// geometry errors fail the whole batch before anything lands.
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        for &(index, data) in writes {
            self.check_index(index)?;
            self.check_buffer(data)?;
        }
        let mut state = self.state.lock();
        let mut rest = writes;
        while !rest.is_empty() {
            if state.head >= self.log_blocks {
                self.clean(&mut state)?;
                if state.head >= self.log_blocks {
                    return Err(BlockDeviceError::NoSpace);
                }
            }
            let room = (self.log_blocks - state.head) as usize;
            let take = rest.len().min(room);
            let (run, tail) = rest.split_at(take);
            self.append_run(&mut state, run)?;
            rest = tail;
        }
        Ok(())
    }

    /// Batched read: resolves every index through the mapping, then
    /// fetches all mapped log positions in one vectored read (an
    /// out-of-range index fails after the valid prefix is served, like the
    /// sequential loop).
    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        let bad = indices.iter().position(|&i| i >= self.n_logical);
        let valid = &indices[..bad.unwrap_or(indices.len())];
        let (resolved, key) = {
            let state = self.state.lock();
            let resolved: Vec<Option<u64>> = valid.iter().map(|&i| state.map[i as usize]).collect();
            (resolved, state.epoch_key)
        };
        let fetch: Vec<(usize, u64)> =
            resolved.iter().enumerate().filter_map(|(i, pos)| pos.map(|p| (i, p))).collect();
        let positions: Vec<u64> = fetch.iter().map(|&(_, p)| p).collect();
        let bufs = crate::read_exact(&self.dev, &positions)?;
        let cipher = Self::cipher_for(&key);
        let mut out: Vec<Option<Vec<u8>>> = vec![None; resolved.len()];
        for (&(i, p), mut buf) in fetch.iter().zip(bufs) {
            self.charge_crypto(buf.len());
            cipher.decrypt_sector_in_place(p, &mut buf);
            out[i] = Some(buf);
        }
        // Unmapped blocks read zero; only they allocate a fresh buffer.
        let out: Vec<Vec<u8>> = out
            .into_iter()
            .map(|b| b.unwrap_or_else(|| vec![0u8; self.dev.block_size()]))
            .collect();
        match bad {
            Some(pos) => Err(BlockDeviceError::OutOfRange {
                index: indices[pos],
                num_blocks: self.n_logical,
            }),
            None => Ok(out),
        }
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.dev.flush()
    }

    fn host_queue_enter(&self) {
        self.dev.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.dev.host_queue_leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::MemDisk;
    use mobiceal_sim::EmmcCostModel;
    use std::sync::Arc;

    fn store(blocks: u64, logical: u64) -> (Arc<MemDisk>, DefyLite, SimClock) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::with_cost_model(
            blocks,
            4096,
            clock.clone(),
            Arc::new(EmmcCostModel::nandsim_ramdisk()),
        ));
        let defy = DefyLite::new(disk.clone(), clock.clone(), logical, [5u8; 32]).unwrap();
        (disk, defy, clock)
    }

    #[test]
    fn roundtrip_and_overwrite() {
        let (_disk, defy, _clock) = store(256, 64);
        defy.write_block(3, &vec![1u8; 4096]).unwrap();
        defy.write_block(3, &vec![2u8; 4096]).unwrap();
        assert_eq!(defy.read_block(3).unwrap(), vec![2u8; 4096]);
        assert_eq!(defy.read_block(4).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn cleaning_preserves_data_and_rotates_epoch() {
        let (_disk, defy, _clock) = store(256, 64);
        // 256 log slots: enough churn to force cleaning.
        for round in 0..6u64 {
            for l in 0..64u64 {
                defy.write_block(l, &vec![(round * 64 + l) as u8; 4096]).unwrap();
            }
        }
        assert!(defy.cleanings() >= 1, "log must have been cleaned");
        for l in 0..64u64 {
            assert_eq!(defy.read_block(l).unwrap(), vec![(5 * 64 + l) as u8; 4096], "block {l}");
        }
    }

    #[test]
    fn all_writes_are_appends() {
        let (disk, defy, _clock) = store(256, 64);
        disk.reset_stats();
        for l in 0..32u64 {
            defy.write_block(l, &vec![7u8; 4096]).unwrap();
        }
        let s = disk.stats();
        assert!(s.seq_writes.ops >= 31, "appends should be device-sequential: {s:?}");
    }

    #[test]
    fn crypto_tax_dominates_on_ramdisk() {
        // The DEFY regime: on a near-free medium, per-write crypto charges
        // should account for the overwhelming majority of elapsed time.
        let clock = SimClock::new();
        let raw = Arc::new(MemDisk::with_cost_model(
            256,
            4096,
            clock.clone(),
            Arc::new(EmmcCostModel::nandsim_ramdisk()),
        ));
        let t0 = clock.now();
        for i in 0..64u64 {
            raw.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        let raw_time = clock.now() - t0;

        let (_disk, defy, clock2) = store(256, 64);
        let t1 = clock2.now();
        for i in 0..64u64 {
            defy.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        let defy_time = clock2.now() - t1;
        let overhead = 1.0 - raw_time.as_secs_f64() / defy_time.as_secs_f64();
        assert!(
            overhead > 0.85,
            "DEFY-regime overhead should exceed 85%, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn cleaning_relocates_before_overwriting_the_front() {
        // Regression: a live block whose old log position lies inside the
        // compacted front must be relocated from its pre-compaction
        // content. The incremental cleaning loop read each block only
        // after rewriting earlier front slots, so this layout (logical 3
        // at log position 0, three later logicals compacting in front of
        // it) corrupted block 3 under the new epoch key.
        let (_disk, defy, _clock) = store(8, 4);
        defy.write_block(3, &vec![0x33; 4096]).unwrap(); // log position 0
        for l in 0..3u64 {
            defy.write_block(l, &vec![l as u8 + 1; 4096]).unwrap(); // positions 1-3
        }
        for _ in 0..4 {
            defy.write_block(0, &vec![0xAA; 4096]).unwrap(); // fills the log
        }
        defy.write_block(1, &vec![0xBB; 4096]).unwrap(); // forces cleaning
        assert!(defy.cleanings() >= 1, "cleaning must have run");
        assert_eq!(defy.read_block(3).unwrap(), vec![0x33; 4096], "relocated, not overwritten");
        assert_eq!(defy.read_block(2).unwrap(), vec![3u8; 4096]);
        assert_eq!(defy.read_block(1).unwrap(), vec![0xBB; 4096]);
        assert_eq!(defy.read_block(0).unwrap(), vec![0xAA; 4096]);
    }

    #[test]
    fn batched_appends_land_as_one_extent() {
        let (disk, defy, _clock) = store(256, 64);
        disk.reset_stats();
        let data = vec![9u8; 4096];
        let batch: Vec<(u64, &[u8])> = (0..32u64).map(|l| (l, data.as_slice())).collect();
        defy.write_blocks(&batch).unwrap();
        let s = disk.stats();
        assert_eq!(s.total_writes(), 32);
        assert!(s.seq_writes.ops >= 31, "one contiguous extent: {s:?}");
        for l in 0..32u64 {
            assert_eq!(defy.read_block(l).unwrap(), data, "block {l}");
        }
        // Batched reads resolve through the same mapping.
        let indices: Vec<u64> = (0..40).collect();
        let bufs = defy.read_blocks(&indices).unwrap();
        for (l, buf) in indices.iter().zip(&bufs) {
            let expect = if *l < 32 { data.clone() } else { vec![0u8; 4096] };
            assert_eq!(*buf, expect, "block {l}");
        }
    }

    #[test]
    fn rejects_undersized_device() {
        let clock = SimClock::new();
        let disk: SharedDevice = Arc::new(MemDisk::new(100, 4096, clock.clone()));
        assert!(DefyLite::new(disk, clock, 64, [0u8; 32]).is_err());
    }

    fn state_journal(clock: &SimClock) -> (Arc<MemDisk>, StateJournal) {
        let meta = Arc::new(MemDisk::with_cost_model(
            64,
            4096,
            clock.clone(),
            Arc::new(EmmcCostModel::nandsim_ramdisk()),
        ));
        let journal = StateJournal::new(meta.clone() as SharedDevice).unwrap();
        (meta, journal)
    }

    #[test]
    fn commit_and_open_roundtrip_survives_cleaning_epochs() {
        let (disk, defy, clock) = store(256, 64);
        let (_meta, journal) = state_journal(&clock);
        for round in 0..6u64 {
            for l in 0..64u64 {
                defy.write_block(l, &vec![(round * 64 + l) as u8; 4096]).unwrap();
            }
        }
        assert!(defy.cleanings() >= 1, "epoch key must have rotated");
        let txid = defy.commit(&journal).unwrap();
        assert_eq!(txid, 1);

        // Remount from the journal alone: mapping, head AND the chained
        // epoch key must come back, or reads decrypt garbage.
        let reopened =
            DefyLite::open(disk.clone(), &journal, clock.clone(), 64, [5u8; 32]).unwrap();
        assert_eq!(reopened.cleanings(), defy.cleanings());
        for l in 0..64u64 {
            assert_eq!(
                reopened.read_block(l).unwrap(),
                vec![(5 * 64 + l) as u8; 4096],
                "block {l}"
            );
        }
        // And the log keeps appending from the committed head.
        reopened.write_block(9, &vec![0xEE; 4096]).unwrap();
        assert_eq!(reopened.read_block(9).unwrap(), vec![0xEE; 4096]);
    }

    #[test]
    fn open_on_fresh_journal_is_an_empty_store() {
        let (disk, _defy, clock) = store(256, 64);
        let (_meta, journal) = state_journal(&clock);
        let reopened =
            DefyLite::open(disk.clone(), &journal, clock.clone(), 64, [5u8; 32]).unwrap();
        assert_eq!(reopened.read_block(0).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn open_rejects_mapping_beyond_the_committed_head() {
        let (disk, defy, clock) = store(256, 64);
        let (_meta, journal) = state_journal(&clock);
        defy.write_block(0, &vec![1u8; 4096]).unwrap();
        defy.commit(&journal).unwrap();
        // Forge a state whose map points past its own head.
        let ops = vec![
            DeltaOp::Register { key: REG_HEAD, value: 1 },
            DeltaOp::Register { key: REG_EPOCH, value: 0 },
            DeltaOp::Register { key: REG_CLEANINGS, value: 0 },
            DeltaOp::SetMapping {
                id: 0,
                extent: mobiceal_thinp::Extent { virt_begin: 0, data_begin: 5, len: 1 },
            },
        ];
        journal.commit(ops).unwrap();
        let err = DefyLite::open(disk, &journal, clock, 64, [5u8; 32]).unwrap_err();
        assert!(matches!(err, BlockDeviceError::CorruptMetadata { .. }), "{err:?}");
    }

    #[test]
    fn no_space_when_every_logical_block_live_and_log_full() {
        let (_disk, defy, _clock) = store(128, 64);
        // Fill all 64 logical blocks twice (128 appends = full log) then
        // keep writing: cleaning compacts to 64 live, leaving room again.
        for round in 0..4u64 {
            for l in 0..64u64 {
                defy.write_block(l, &vec![round as u8; 4096]).unwrap();
            }
        }
        assert!(defy.cleanings() >= 2);
    }
}
