//! HIVE's write-only ORAM (Blass et al., CCS 2014) — the §VII-B comparator.
//!
//! HIVE hides *which* logical block a write touched by rewriting `k = 3`
//! uniformly random physical blocks per logical write over a 2× over-
//! provisioned device, going through a stash and a position map, and
//! syncing each operation. This gives genuine multi-snapshot security for
//! every single write — at the I/O cost Table I reports (≥ 99 % overhead on
//! the SSD testbed): each 4 KiB logical write becomes ~7 random 4 KiB
//! device operations plus a flush.
//!
//! Reads are direct through the position map (HIVE is a *write-only* ORAM;
//! read patterns are assumed invisible to the snapshot adversary).
//!
//! Every shuffle pass — one logical write or a whole `write_blocks` batch —
//! issues its device I/O *vectored*: one read batch (live slots plus the
//! position-map blocks it will rewrite) and one write batch (slot rewrites,
//! placements, noise, coalesced map blocks), followed by a single sync. The
//! decisions themselves are planned first and committed only after the write
//! batch lands, so a mid-batch device error never advances the position map
//! past what is actually on the medium (the stash retains every enqueued
//! write, so no data is lost and the whole batch can be retried).

use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, SharedDevice};
use mobiceal_crypto::{Aes256, ChaCha20Rng, SectorCipher, Xts};
use mobiceal_sim::{CpuCostModel, SimClock, SimDuration};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

const K: usize = 3;

struct HiveState {
    /// logical → physical of the current copy.
    position: Vec<Option<u64>>,
    /// physical → logical for live blocks.
    inverse: Vec<Option<u64>>,
    /// Writes not yet placed on the device.
    stash: VecDeque<(u64, Vec<u8>)>,
    rng: ChaCha20Rng,
    /// High-water mark of the stash (the bound HIVE proves is O(log N)).
    stash_peak: usize,
}

/// A write-only ORAM block device in the HIVE configuration.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mobiceal_baselines::HiveWoOram;
/// use mobiceal_blockdev::{BlockDevice, MemDisk};
/// use mobiceal_sim::SimClock;
///
/// let clock = SimClock::new();
/// let disk = Arc::new(MemDisk::new(600, 4096, clock.clone()));
/// let oram = HiveWoOram::new(disk, clock, 256, [7u8; 64], 1)?;
/// oram.write_block(3, &vec![9u8; 4096])?;
/// assert_eq!(oram.read_block(3)?, vec![9u8; 4096]);
/// # Ok::<(), mobiceal_blockdev::BlockDeviceError>(())
/// ```
pub struct HiveWoOram {
    dev: SharedDevice,
    clock: SimClock,
    cpu: CpuCostModel,
    cipher: Xts<Aes256>,
    n_logical: u64,
    n_physical: u64,
    /// Physical blocks after the data area holding the serialized position
    /// map (written through on every operation, as HIVE persists its map).
    map_region_start: u64,
    map_region_blocks: u64,
    state: Mutex<HiveState>,
}

impl std::fmt::Debug for HiveWoOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HiveWoOram")
            .field("n_logical", &self.n_logical)
            .field("n_physical", &self.n_physical)
            .finish_non_exhaustive()
    }
}

impl HiveWoOram {
    /// Builds a WoORAM exposing `n_logical` blocks over `dev`.
    ///
    /// The device must hold `2 × n_logical` data blocks plus the position-
    /// map region.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::OutOfRange`] if the device is too small.
    pub fn new(
        dev: SharedDevice,
        clock: SimClock,
        n_logical: u64,
        key: [u8; 64],
        seed: u64,
    ) -> Result<Self, BlockDeviceError> {
        let n_physical = 2 * n_logical;
        let map_entries_per_block = dev.block_size() / 8;
        let map_region_blocks = n_logical.div_ceil(map_entries_per_block as u64);
        let required = n_physical + map_region_blocks;
        if dev.num_blocks() < required {
            return Err(BlockDeviceError::OutOfRange {
                index: required,
                num_blocks: dev.num_blocks(),
            });
        }
        let mut k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        k1.copy_from_slice(&key[..32]);
        k2.copy_from_slice(&key[32..]);
        Ok(HiveWoOram {
            dev,
            clock,
            cpu: CpuCostModel::nexus4(),
            cipher: Xts::new(Aes256::new(&k1), Aes256::new(&k2)),
            n_logical,
            n_physical,
            map_region_start: n_physical,
            map_region_blocks,
            state: Mutex::new(HiveState {
                position: vec![None; n_logical as usize],
                inverse: vec![None; n_physical as usize],
                stash: VecDeque::new(),
                rng: ChaCha20Rng::from_u64_seed(seed),
                stash_peak: 0,
            }),
        })
    }

    /// Largest stash occupancy seen (HIVE's correctness argument bounds
    /// this logarithmically; tests watch it).
    pub fn stash_peak(&self) -> usize {
        self.state.lock().stash_peak
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.state.lock().stash.len()
    }

    /// Blocks reserved for the persisted position map.
    pub fn map_region_blocks(&self) -> u64 {
        self.map_region_blocks
    }

    /// Remounts a WoORAM from the position map persisted in its on-device
    /// map region.
    ///
    /// HIVE does not ride the baseline [`crate::StateJournal`]: its map is
    /// already written through (and synced) as part of every shuffle pass,
    /// so the map region *is* the durable metadata. A remount is one
    /// vectored read of that region plus validation; a fresh (all-zero)
    /// device yields an empty store. The in-RAM stash is volatile by
    /// design — call [`HiveWoOram::commit`] before unmount to drain it.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::CorruptMetadata`] if an entry points outside the
    /// data area or two logical blocks claim the same physical slot.
    pub fn open(
        dev: SharedDevice,
        clock: SimClock,
        n_logical: u64,
        key: [u8; 64],
        seed: u64,
    ) -> Result<Self, BlockDeviceError> {
        let oram = Self::new(dev, clock, n_logical, key, seed)?;
        let entries_per_block = oram.dev.block_size() / 8;
        let blocks: Vec<u64> =
            (0..oram.map_region_blocks).map(|i| oram.map_region_start + i).collect();
        let bufs = oram.dev.read_blocks(&blocks)?;
        let corrupt = |detail: String| BlockDeviceError::CorruptMetadata { detail };
        let mut state = oram.state.lock();
        for (bi, buf) in bufs.iter().enumerate() {
            for i in 0..entries_per_block {
                let logical = bi * entries_per_block + i;
                if logical as u64 >= n_logical {
                    break;
                }
                let value = crate::le_u64_at(buf, i * 8)?;
                if value == 0 {
                    continue;
                }
                let p = value - 1;
                if p >= oram.n_physical {
                    return Err(corrupt(format!("hive map entry {logical} -> {p} out of range")));
                }
                if state.inverse[p as usize].is_some() {
                    return Err(corrupt(format!("hive physical slot {p} mapped twice")));
                }
                state.position[logical] = Some(p);
                state.inverse[p as usize] = Some(logical as u64);
            }
        }
        drop(state);
        Ok(oram)
    }

    /// Drains the stash onto the device: every pending write is placed in a
    /// uniformly random free slot, the touched map blocks are written
    /// through (coalesced), and the device is synced. After a successful
    /// commit the persisted map region fully describes the store, so
    /// [`HiveWoOram::open`] recovers every write.
    ///
    /// One vectored write carries all placements plus the map blocks; the
    /// in-memory state absorbs the placements only after the batch lands,
    /// so a mid-batch device error leaves the stash (and the committed map)
    /// untouched and the commit can be retried.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::NoSpace`] if no free slot exists for a pending
    /// write (impossible under 2× over-provisioning unless the device was
    /// corrupted); device errors otherwise.
    pub fn commit(&self) -> Result<(), BlockDeviceError> {
        fn planned_live(
            inverse: &[Option<u64>],
            position: &[Option<u64>],
            inv_delta: &HashMap<u64, Option<u64>>,
            pos_delta: &HashMap<u64, Option<u64>>,
            p: u64,
        ) -> bool {
            inv_delta
                .get(&p)
                .copied()
                .unwrap_or(inverse[p as usize])
                .filter(|&l| pos_delta.get(&l).copied().unwrap_or(position[l as usize]) == Some(p))
                .is_some()
        }

        let mut state = self.state.lock();
        let state = &mut *state;
        if state.stash.is_empty() {
            return self.dev.flush();
        }
        let entries_per_block = self.dev.block_size() / 8;
        let mut pos_delta: HashMap<u64, Option<u64>> = HashMap::new();
        let mut inv_delta: HashMap<u64, Option<u64>> = HashMap::new();
        let mut placements: Vec<(u64, Vec<u8>)> = Vec::with_capacity(state.stash.len());
        let mut touched: Vec<u64> = Vec::new();
        let mut cpu = SimDuration::ZERO;
        for (logical, data) in state.stash.iter() {
            // Uniformly random free slot: rejection-sample, falling back to
            // a scan if the RNG is persistently unlucky.
            let mut slot = None;
            for _ in 0..128 {
                let p = state.rng.next_below(self.n_physical);
                if !planned_live(&state.inverse, &state.position, &inv_delta, &pos_delta, p) {
                    slot = Some(p);
                    break;
                }
            }
            let slot = match slot {
                Some(p) => p,
                None => (0..self.n_physical)
                    .find(|&p| {
                        !planned_live(&state.inverse, &state.position, &inv_delta, &pos_delta, p)
                    })
                    .ok_or(BlockDeviceError::NoSpace)?,
            };
            cpu += self.cpu.aes_cost(data.len());
            if let Some(old) =
                pos_delta.get(logical).copied().unwrap_or(state.position[*logical as usize])
            {
                inv_delta.insert(old, None);
            }
            pos_delta.insert(*logical, Some(slot));
            inv_delta.insert(slot, Some(*logical));
            let mut ct = data.clone();
            self.cipher.encrypt_sector_in_place(slot, &mut ct);
            placements.push((slot, ct));
            touched.push(*logical);
        }
        let mut map_blocks: Vec<u64> =
            touched.iter().map(|&l| self.map_region_start + l / entries_per_block as u64).collect();
        map_blocks.sort_unstable();
        map_blocks.dedup();
        let mut payloads = placements;
        for &mb in &map_blocks {
            let logical = (mb - self.map_region_start) * entries_per_block as u64;
            payloads.push((mb, self.map_block_payload(&state.position, &pos_delta, logical)));
        }
        self.clock.advance(cpu);
        let batch: Vec<(u64, &[u8])> = payloads.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        // Commit-after-land: on a mid-batch error the landed prefix is
        // unreferenced ciphertext and the stash still holds everything.
        self.dev.write_blocks(&batch)?;
        for (l, v) in pos_delta {
            state.position[l as usize] = v;
        }
        for (p, v) in inv_delta {
            state.inverse[p as usize] = v;
        }
        state.stash.clear();
        self.dev.flush()
    }

    /// Serializes the map block holding `logical`'s entry: committed
    /// `position` entries overridden by this pass's planned `delta`.
    fn map_block_payload(
        &self,
        position: &[Option<u64>],
        delta: &HashMap<u64, Option<u64>>,
        logical: u64,
    ) -> Vec<u8> {
        let entries_per_block = self.dev.block_size() / 8;
        let base = (logical as usize / entries_per_block) * entries_per_block;
        let mut block = vec![0u8; self.dev.block_size()];
        for i in 0..entries_per_block {
            let l = base + i;
            let entry = if l < position.len() {
                delta.get(&(l as u64)).copied().unwrap_or(position[l])
            } else {
                None
            };
            let value = entry.map(|p| p + 1).unwrap_or(0);
            block[i * 8..(i + 1) * 8].copy_from_slice(&value.to_le_bytes());
        }
        block
    }

    /// One shuffle pass over `writes` — the whole batch rides a single
    /// eviction: each logical write still rewrites `k` uniformly random
    /// physical blocks (the decision sequence, RNG consumption and stash
    /// dynamics are exactly the single-block loop's), but the device sees
    /// one vectored read, one vectored write and one sync for the pass
    /// instead of ~2k single-block commands per logical write.
    ///
    /// Commit ordering (the fail-fast-with-prefix invariant): decisions are
    /// planned against sparse *overlays* of the position map, inverse map
    /// and stash (O(k·batch) state, not an O(N) copy); the in-memory state
    /// absorbs the overlays only after the write batch has landed. On a
    /// mid-batch device error the landed prefix is visible on the medium
    /// but the position map is not advanced past it — every write of the
    /// failed batch stays in the stash (read-your-writes keeps returning
    /// the newest data) and the batch can simply be retried.
    ///
    /// Position-map write-through is coalesced per pass: all touched
    /// entries that share a map block ride one read-modify-write of that
    /// block instead of one per entry.
    fn shuffle_pass(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        for &(index, data) in writes {
            self.check_index(index)?;
            self.check_buffer(data)?;
        }
        if writes.is_empty() {
            return Ok(());
        }
        let bs = self.dev.block_size();
        let entries_per_block = bs / 8;

        /// One planned slot write of the pass, in device order.
        enum Planned {
            /// Slot ends the pass holding encrypted live content — either a
            /// re-encrypt of what it already holds (read off the device
            /// unless this pass placed it) or a fresh stash placement; the
            /// plaintext lives in the `in_batch` overlay either way.
            Rewrite { slot: u64 },
            /// Free slot with an empty stash: fresh randomness.
            Noise { slot: u64, noise: Vec<u8> },
        }

        let mut state = self.state.lock();
        let state = &mut *state;
        // Planning overlays: logical → planned position, physical →
        // planned inverse entry. The planned stash is the committed one
        // with `pops_committed` entries consumed from the front, plus the
        // batch entries (pushed one by one, the first `pushed_consumed` of
        // them already placed).
        let mut pos_delta: HashMap<u64, Option<u64>> = HashMap::new();
        let mut inv_delta: HashMap<u64, Option<u64>> = HashMap::new();
        let mut pops_committed = 0usize;
        let mut pushed_consumed = 0usize;
        let mut planned_len = state.stash.len();
        let mut stash_peak = state.stash_peak;
        let mut plans: Vec<Planned> = Vec::new();
        // Plaintext a slot will hold after earlier writes of this pass.
        let mut in_batch: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut touched_logical: Vec<u64> = Vec::new();
        let mut cpu = SimDuration::ZERO;
        for wi in 0..writes.len() {
            // Batch entry `wi` enters the planned stash here (implicitly:
            // the pop logic below reads it straight from `writes`).
            planned_len += 1;
            stash_peak = stash_peak.max(planned_len);
            let slots: Vec<u64> = (0..K).map(|_| state.rng.next_below(self.n_physical)).collect();
            for p in slots {
                let live =
                    inv_delta.get(&p).copied().unwrap_or(state.inverse[p as usize]).filter(|&l| {
                        pos_delta.get(&l).copied().unwrap_or(state.position[l as usize]) == Some(p)
                    });
                match live {
                    Some(_) => {
                        // Live block: re-encrypt in place so the adversary
                        // sees it change regardless.
                        cpu += self.cpu.aes_cost(bs) * 2;
                        plans.push(Planned::Rewrite { slot: p });
                    }
                    None => {
                        // Pop the planned stash front: committed entries
                        // first, then this batch's entries in push order
                        // (only those pushed so far, i.e. up to `wi`).
                        let next = if pops_committed < state.stash.len() {
                            let (l, d) = &state.stash[pops_committed];
                            pops_committed += 1;
                            Some((*l, d.clone()))
                        } else if pushed_consumed <= wi {
                            let (l, d) = writes[pushed_consumed];
                            pushed_consumed += 1;
                            Some((l, d.to_vec()))
                        } else {
                            None
                        };
                        match next {
                            Some((l, d)) => {
                                planned_len -= 1;
                                cpu += self.cpu.aes_cost(d.len());
                                if let Some(old) =
                                    pos_delta.get(&l).copied().unwrap_or(state.position[l as usize])
                                {
                                    inv_delta.insert(old, None);
                                }
                                pos_delta.insert(l, Some(p));
                                inv_delta.insert(p, Some(l));
                                in_batch.insert(p, d);
                                touched_logical.push(l);
                                plans.push(Planned::Rewrite { slot: p });
                            }
                            None => {
                                let mut noise = vec![0u8; bs];
                                state.rng.fill_bytes(&mut noise);
                                cpu += self.cpu.rng_cost(bs);
                                plans.push(Planned::Noise { slot: p, noise });
                            }
                        }
                    }
                }
            }
        }

        // One vectored read: live slots whose content is still on the
        // device (deduplicated; slots this pass placed are already in the
        // overlay), plus the map blocks about to be rewritten (HIVE
        // persists the map read-modify-write).
        let mut read_slots: Vec<u64> = Vec::new();
        let mut read_index: HashMap<u64, usize> = HashMap::new();
        for plan in &plans {
            if let Planned::Rewrite { slot } = plan {
                if !in_batch.contains_key(slot) && !read_index.contains_key(slot) {
                    read_index.insert(*slot, read_slots.len());
                    read_slots.push(*slot);
                }
            }
        }
        let mut map_blocks: Vec<u64> = touched_logical
            .iter()
            .map(|&l| self.map_region_start + l / entries_per_block as u64)
            .collect();
        map_blocks.sort_unstable();
        map_blocks.dedup();
        let mut read_list = read_slots.clone();
        read_list.extend_from_slice(&map_blocks);
        let mut read_bufs = match self.dev.read_blocks(&read_list) {
            Ok(bufs) => bufs,
            Err(e) => {
                // Nothing committed; keep the enqueued writes in the stash
                // so no data is lost and the batch can be retried.
                state.stash.extend(writes.iter().map(|&(l, d)| (l, d.to_vec())));
                state.stash_peak = state.stash_peak.max(state.stash.len());
                return Err(e);
            }
        };
        for (slot, idx) in &read_index {
            // Each read buffer is consumed exactly once; take it by move.
            let mut buf = std::mem::take(&mut read_bufs[*idx]);
            self.cipher.decrypt_sector_in_place(*slot, &mut buf);
            in_batch.insert(*slot, buf);
        }

        // One vectored write: slot rewrites in decision order, then the
        // coalesced map blocks, serialized from the *planned* position map.
        let mut payloads: Vec<(u64, Vec<u8>)> = Vec::with_capacity(plans.len() + map_blocks.len());
        for plan in plans {
            match plan {
                Planned::Rewrite { slot } => {
                    let mut ct = in_batch[&slot].clone();
                    self.cipher.encrypt_sector_in_place(slot, &mut ct);
                    payloads.push((slot, ct));
                }
                Planned::Noise { slot, noise } => payloads.push((slot, noise)),
            }
        }
        for &mb in &map_blocks {
            let logical = (mb - self.map_region_start) * entries_per_block as u64;
            payloads.push((mb, self.map_block_payload(&state.position, &pos_delta, logical)));
        }
        self.clock.advance(cpu);
        let batch: Vec<(u64, &[u8])> = payloads.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        if let Err(e) = self.dev.write_blocks(&batch) {
            // Landed prefix stays on the medium, but the position map must
            // not advance past it: commit nothing, retain the batch in the
            // stash (fresh copies still win reads).
            state.stash.extend(writes.iter().map(|&(l, d)| (l, d.to_vec())));
            state.stash_peak = state.stash_peak.max(state.stash.len());
            return Err(e);
        }
        // Absorb the overlays: consume the popped committed-stash prefix,
        // append the batch entries that were not placed, apply the map
        // deltas.
        state.stash.drain(..pops_committed);
        state.stash.extend(writes[pushed_consumed..].iter().map(|&(l, d)| (l, d.to_vec())));
        for (l, v) in pos_delta {
            state.position[l as usize] = v;
        }
        for (p, v) in inv_delta {
            state.inverse[p as usize] = v;
        }
        state.stash_peak = stash_peak;
        // HIVE syncs after every operation so a snapshot can land anywhere;
        // a batch is one operation, so it syncs once.
        self.dev.flush()
    }
}

impl BlockDevice for HiveWoOram {
    fn num_blocks(&self) -> u64 {
        self.n_logical
    }

    fn block_size(&self) -> usize {
        self.dev.block_size()
    }

    /// Batched write: the whole batch rides **one** shuffle pass — one
    /// vectored read (live slots + map blocks), one vectored write (slot
    /// rewrites + coalesced map write-through) and one sync, with decisions
    /// identical to issuing the writes one by one (see
    /// [`HiveWoOram::shuffle_pass`] for the commit ordering on a mid-batch
    /// device error).
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.shuffle_pass(writes)
    }

    /// Batched read: resolves every index through the stash and position
    /// map, then fetches all mapped physical blocks in one vectored read
    /// (an out-of-range index fails after the valid prefix is served, like
    /// the sequential loop).
    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        let bad = indices.iter().position(|&i| i >= self.n_logical);
        let valid = &indices[..bad.unwrap_or(indices.len())];
        let state = self.state.lock();
        let mut out: Vec<Option<Vec<u8>>> = Vec::with_capacity(valid.len());
        let mut fetch: Vec<(usize, u64)> = Vec::new();
        for (i, &index) in valid.iter().enumerate() {
            if let Some((_, data)) = state.stash.iter().rev().find(|(l, _)| *l == index) {
                out.push(Some(data.clone()));
            } else {
                match state.position[index as usize] {
                    Some(p) => {
                        fetch.push((i, p));
                        out.push(None);
                    }
                    None => out.push(Some(vec![0u8; self.dev.block_size()])),
                }
            }
        }
        drop(state);
        let slots: Vec<u64> = fetch.iter().map(|&(_, p)| p).collect();
        let bufs = crate::read_exact(&self.dev, &slots)?;
        for (&(i, p), mut buf) in fetch.iter().zip(bufs) {
            self.clock.advance(self.cpu.aes_cost(buf.len()));
            self.cipher.decrypt_sector_in_place(p, &mut buf);
            out[i] = Some(buf);
        }
        // `read_exact` returned one buffer per fetched slot, so every slot
        // is resolved.
        let resolved: Vec<Vec<u8>> = out.into_iter().flatten().collect();
        match bad {
            Some(pos) => Err(BlockDeviceError::OutOfRange {
                index: indices[pos],
                num_blocks: self.n_logical,
            }),
            None => Ok(resolved),
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
    use std::sync::Arc;

    fn oram(seed: u64) -> (Arc<MemDisk>, HiveWoOram, SimClock) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(600, 4096, clock.clone()));
        let oram = HiveWoOram::new(disk.clone(), clock.clone(), 256, [9u8; 64], seed).unwrap();
        (disk, oram, clock)
    }

    #[test]
    fn read_your_writes() {
        let (_disk, oram, _clock) = oram(1);
        // Churn, then write deterministic final values and verify the last
        // write to each logical block wins.
        for i in 0..50u64 {
            oram.write_block(i % 16, &vec![i as u8; 4096]).unwrap();
        }
        for l in 0..16u64 {
            oram.write_block(l, &vec![0xA0 + l as u8; 4096]).unwrap();
        }
        for l in 0..16u64 {
            assert_eq!(oram.read_block(l).unwrap(), vec![0xA0 + l as u8; 4096], "block {l}");
        }
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let (_disk, oram, _clock) = oram(2);
        assert_eq!(oram.read_block(200).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn stash_stays_bounded() {
        let (_disk, oram, _clock) = oram(3);
        for i in 0..500u64 {
            oram.write_block(i % 256, &vec![1u8; 4096]).unwrap();
        }
        // With k=3 over a half-empty device, the stash drains fast; a peak
        // beyond ~32 would indicate a broken eviction loop.
        assert!(oram.stash_peak() <= 32, "stash peak {}", oram.stash_peak());
    }

    #[test]
    fn write_amplification_is_roughly_k() {
        let (disk, oram, _clock) = oram(4);
        disk.reset_stats();
        for i in 0..100u64 {
            oram.write_block(i, &vec![2u8; 4096]).unwrap();
        }
        let writes = disk.stats().total_writes();
        // k data writes plus map persistence per logical write.
        assert!(
            (300..=800).contains(&writes),
            "expected ~3-8x write amplification, got {writes} device writes for 100"
        );
    }

    #[test]
    fn snapshots_change_everywhere_not_just_at_data() {
        // The obliviousness property: physical write locations are uniform,
        // so repeated writes to ONE logical block touch many physical ones.
        let (disk, oram, _clock) = oram(5);
        let before = disk.snapshot();
        for _ in 0..60 {
            oram.write_block(7, &vec![3u8; 4096]).unwrap();
        }
        let after = disk.snapshot();
        let changed: Vec<u64> =
            before.changed_blocks(&after).into_iter().filter(|&b| b < 512).collect();
        assert!(
            changed.len() > 100,
            "60 writes to one block should scatter widely, changed {}",
            changed.len()
        );
    }

    #[test]
    fn rejects_undersized_device() {
        let clock = SimClock::new();
        let disk: SharedDevice = Arc::new(MemDisk::new(100, 4096, clock.clone()));
        assert!(HiveWoOram::new(disk, clock, 256, [0u8; 64], 0).is_err());
    }

    #[test]
    fn commit_drains_stash_and_open_recovers_every_write() {
        let (disk, oram, clock) = oram(7);
        for i in 0..80u64 {
            oram.write_block(i % 32, &vec![i as u8; 4096]).unwrap();
        }
        for l in 0..32u64 {
            oram.write_block(l, &vec![0xC0 + l as u8; 4096]).unwrap();
        }
        oram.commit().unwrap();
        assert_eq!(oram.stash_len(), 0, "commit must drain the stash");
        // Reads still serve the committed copies.
        for l in 0..32u64 {
            assert_eq!(oram.read_block(l).unwrap(), vec![0xC0 + l as u8; 4096], "block {l}");
        }
        // Remount from the persisted map region alone (different seed: the
        // RNG stream is not part of the durable state).
        let reopened = HiveWoOram::open(disk.clone(), clock.clone(), 256, [9u8; 64], 99).unwrap();
        for l in 0..32u64 {
            assert_eq!(reopened.read_block(l).unwrap(), vec![0xC0 + l as u8; 4096], "block {l}");
        }
        assert_eq!(reopened.read_block(200).unwrap(), vec![0u8; 4096]);
        // And the remounted store keeps working.
        reopened.write_block(5, &vec![0xDD; 4096]).unwrap();
        assert_eq!(reopened.read_block(5).unwrap(), vec![0xDD; 4096]);
    }

    #[test]
    fn open_on_fresh_device_is_empty() {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(600, 4096, clock.clone()));
        let oram = HiveWoOram::open(disk, clock, 256, [9u8; 64], 1).unwrap();
        assert_eq!(oram.read_block(0).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn open_rejects_double_mapped_physical_slot() {
        let (disk, oram, clock) = oram(8);
        oram.write_block(0, &vec![1u8; 4096]).unwrap();
        oram.commit().unwrap();
        // Forge a map block claiming slot 3 for two logical blocks.
        let mut map = vec![0u8; 4096];
        map[0..8].copy_from_slice(&4u64.to_le_bytes()); // logical 0 -> slot 3
        map[8..16].copy_from_slice(&4u64.to_le_bytes()); // logical 1 -> slot 3
        disk.write_block(512, &map).unwrap();
        let err = HiveWoOram::open(disk, clock, 256, [9u8; 64], 1).unwrap_err();
        assert!(matches!(err, BlockDeviceError::CorruptMetadata { .. }), "{err:?}");
    }

    #[test]
    fn ciphertext_at_rest() {
        let (disk, oram, _clock) = oram(6);
        oram.write_block(0, &vec![0u8; 4096]).unwrap();
        let snap = disk.snapshot();
        for b in 0..512 {
            if !snap.is_zero_block(b) {
                assert!(snap.block_entropy(b) > 7.0, "block {b}");
            }
        }
    }

    #[test]
    fn mixed_trace_pins_the_medium_image() {
        // Golden pin for HIVE's cipher and shuffle: a fixed xorshift trace
        // of single writes, 4-block batches and reads, then a commit, must
        // leave exactly these bytes on the medium and charge exactly this
        // much simulated time. Every slot is one 4 KiB XTS sector, so the
        // digest covers 256-block tweak sequences at scattered sector
        // numbers. The values were taken while `Xts` still had a
        // PCLMULQDQ tweak ladder, on a host that ran it, so the portable
        // ladder is pinned to the bytes that one produced.
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(600, 4096, clock.clone()));
        let oram = HiveWoOram::new(disk.clone(), clock.clone(), 256, [0x5A; 64], 77).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut shadow = vec![0u8; 256];
        for _ in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x >> 8) % 256;
            let fill = (x >> 40) as u8;
            match x % 3 {
                0 => {
                    oram.write_block(l, &vec![fill; 4096]).unwrap();
                    shadow[l as usize] = fill;
                }
                1 => {
                    let batch: Vec<(u64, Vec<u8>)> = (0..4u8)
                        .map(|i| ((l + 61 * u64::from(i)) % 256, vec![fill ^ i; 4096]))
                        .collect();
                    let writes: Vec<(u64, &[u8])> =
                        batch.iter().map(|(b, d)| (*b, d.as_slice())).collect();
                    oram.write_blocks(&writes).unwrap();
                    for (b, d) in &batch {
                        shadow[*b as usize] = d[0];
                    }
                }
                _ => assert_eq!(oram.read_block(l).unwrap(), vec![shadow[l as usize]; 4096]),
            }
        }
        oram.commit().unwrap();
        let digest = mobiceal_crypto::to_hex(&mobiceal_crypto::sha256(disk.snapshot().as_bytes()));
        assert_eq!(digest, "05caf0d7a5b43ce0c8cfd784bf0c90dcdb388a875a398004064d96630532a74e");
        assert_eq!(clock.now().as_nanos(), 1_111_299_304);
    }
}
