//! The thin pool and its volumes.
//!
//! # Concurrency
//!
//! The pool and every [`ThinVolume`] share one mutex over the volume
//! table, the allocator with its open transaction, and the read overhead.
//! Every operation holds it from its mapping lookup through its
//! data-device or metadata-device call, so a write's allocation, the write
//! that fills the block, a delete and a commit never interleave: a block a
//! delete or discard releases cannot be handed to another volume while a
//! write to it is still on its way down. The devices below the pool never
//! call back into it, so the only lock order is pool → device.

use crate::allocator::{AllocStrategy, Allocator, RandomAllocator, SequentialAllocator};
use crate::bitmap::Bitmap;
use crate::extent::{Extent, ExtentMap};
use crate::journal::{DeltaOp, JournalConfig, JournalRecord, TransactionManager};
use crate::meta::{encode_payload, MetadataView, Superblock, VolumeMeta};
use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, ReadDest, SharedDevice};
use mobiceal_crypto::sha256;
use mobiceal_sim::{SimClock, SimDuration};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a thin volume within its pool.
pub type VolumeId = u32;

/// Pool creation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Maximum number of volumes the pool will host (the paper's `n`).
    pub max_volumes: u32,
}

impl PoolConfig {
    /// Config with the given volume budget.
    pub fn new(max_volumes: u32) -> Self {
        PoolConfig { max_volumes }
    }
}

/// One uncommitted mapping change, in the order it happened. The commit
/// path coalesces consecutive contiguous deltas into extent ops for the
/// journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapDelta {
    /// `vblock` now maps to `physical`.
    Insert(u64, u64),
    /// `vblock` is no longer mapped.
    Remove(u64),
}

#[derive(Debug)]
struct VolumeState {
    /// Which creation of this id the state belongs to: handles carry it,
    /// so a handle to a deleted volume never reaches a later volume that
    /// reuses the id. In memory only.
    generation: u64,
    virtual_blocks: u64,
    mappings: ExtentMap,
    /// Mapping changes since the last commit, in application order.
    /// Cleared only after a commit has durably landed, so a failed commit
    /// retries the same delta.
    dirty: Vec<MapDelta>,
}

impl VolumeState {
    fn new(generation: u64, virtual_blocks: u64, mappings: ExtentMap) -> Self {
        VolumeState { generation, virtual_blocks, mappings, dirty: Vec::new() }
    }

    /// Maps `vblock` to `physical` and records the delta for the journal.
    fn map(&mut self, vblock: u64, physical: u64) {
        self.mappings.insert(vblock, physical);
        self.dirty.push(MapDelta::Insert(vblock, physical));
    }

    /// Unmaps `vblock`, recording the delta if anything was mapped.
    fn unmap(&mut self, vblock: u64) -> Option<u64> {
        let prev = self.mappings.remove(&vblock);
        if prev.is_some() {
            self.dirty.push(MapDelta::Remove(vblock));
        }
        prev
    }
}

/// The allocator, the committed bitmap and the open transaction.
struct AllocState {
    /// The bitmap as of the last commit. Blocks allocated in the open
    /// transaction live in `reserved` until commit folds them in — this is
    /// exactly the "transaction problem" setup of §V-A: the allocator works
    /// against the committed bitmap plus a record of in-flight allocations.
    bitmap: Bitmap,
    allocator: Box<dyn Allocator>,
    /// Blocks the allocator must not hand out although `bitmap` shows them
    /// free, one bit per data block: those allocated since the last commit
    /// (the open transaction) and those in `pending_free`. The allocator
    /// must not hand the first kind out again (§V-A's transaction fix), and
    /// a crash before commit releases them. At commit they become the
    /// record's `Alloc` ops, walked in ascending order word by word.
    reserved: Bitmap,
    transaction_id: u64,
    active_half: u8,
    /// Volume creates/deletes since the last commit, in order.
    meta_ops: Vec<DeltaOp>,
    /// Committed blocks freed since the last commit (the record's `Free`
    /// ops). Blocks that were only reserved need no op: they were never
    /// journaled as allocated.
    journal_free: Vec<u64>,
    /// Committed blocks freed in the open transaction, held out of the
    /// allocator until the free durably commits; each is also set in
    /// `reserved`, which is what holds it out. Without this hold-out a
    /// freed block could be reallocated and overwritten *before* the
    /// commit that records the free — a crash in that window would replay
    /// the old mapping against clobbered data (dm-thin defers frees to the
    /// commit boundary for the same reason).
    pending_free: Bitmap,
    /// Committed journal extent in blocks (mirrors the superblock).
    journal_used: u64,
    /// Transaction id of the checkpoint the journal is relative to.
    checkpoint_txid: u64,
    /// Checkpoint payload length, re-recorded by every journaled
    /// superblock write.
    checkpoint_payload_len: u64,
    /// Checkpoint payload digest, likewise.
    checkpoint_digest: [u8; 32],
}

impl AllocState {
    /// Fresh open-transaction state over `bitmap`, the committed cut.
    fn new(bitmap: Bitmap, allocator: Box<dyn Allocator>) -> Self {
        AllocState {
            reserved: Bitmap::new(bitmap.len()),
            pending_free: Bitmap::new(bitmap.len()),
            bitmap,
            allocator,
            transaction_id: 0,
            active_half: 1, // first checkpoint goes to half 0
            meta_ops: Vec::new(),
            journal_free: Vec::new(),
            journal_used: 0,
            checkpoint_txid: 0,
            checkpoint_payload_len: 0,
            checkpoint_digest: [0u8; 32],
        }
    }

    /// Blocks allocated in the open transaction, ascending.
    fn open_allocations(&self) -> impl Iterator<Item = u64> + '_ {
        self.reserved.iter_allocated().filter(move |&b| !self.pending_free.get(b))
    }

    /// How many blocks the open transaction has allocated.
    fn open_allocation_count(&self) -> u64 {
        self.reserved.allocated() - self.pending_free.allocated()
    }

    /// Blocks the allocator can hand out now: free in the committed bitmap
    /// and not reserved, so neither allocated in the open transaction nor
    /// freed in it (a pending free is allocatable only once it commits).
    fn allocatable(&self) -> u64 {
        self.bitmap.free() - self.reserved.allocated()
    }

    /// Committed bitmap with the open transaction folded in — the live
    /// occupancy an adversary reading the device right now would infer.
    fn live_bitmap(&self) -> Bitmap {
        let mut bm = self.bitmap.clone();
        for b in self.open_allocations() {
            bm.set(b);
        }
        bm
    }

    /// Releases one physical block, whether it was committed or still in
    /// the open transaction. Freeing a *committed* block is a journalable
    /// event; dropping an open-transaction reservation is not (it was
    /// never persisted as allocated).
    fn release(&mut self, p: u64) {
        if self.reserved.get(p) && !self.pending_free.get(p) {
            self.reserved.clear(p);
        } else {
            self.bitmap.clear(p);
            self.journal_free.push(p);
            // Keep the block unavailable until the free commits: handing it
            // out now would let new data land where a crash-replay still
            // expects the old mapping's contents.
            self.pending_free.set(p);
            self.reserved.set(p);
        }
    }

    /// Allocates one fresh physical block into the open transaction.
    fn allocate_one(&mut self) -> Result<u64, BlockDeviceError> {
        let AllocState { bitmap, allocator, reserved, .. } = self;
        // `reserved` also holds the blocks freed in the open transaction
        // (see `AllocState::pending_free`), so they stay off-limits until
        // their free commits with no per-allocation union of the two.
        let block = allocator.allocate(bitmap, reserved).ok_or(BlockDeviceError::NoSpace)?;
        debug_assert!(!bitmap.get(block), "allocator returned a committed block");
        let newly = reserved.set(block);
        debug_assert!(newly, "allocator returned a reserved block or a pending free");
        Ok(block)
    }
}

/// Everything the pool and its volumes share, behind one lock (see the
/// module docs).
struct PoolState {
    volumes: BTreeMap<VolumeId, VolumeState>,
    /// The generation the next created volume gets.
    next_generation: u64,
    alloc: AllocState,
    /// Optional per-read mapping-lookup cost. Real dm-thin walks a btree on
    /// the read path (the paper measures ~18 % sequential-read overhead
    /// from the thin layer, Fig. 4); the write path amortises its btree
    /// updates into the commit.
    read_overhead: Option<(SimClock, SimDuration)>,
}

impl PoolState {
    /// Charges the configured thin-lookup cost for `lookups` volume reads,
    /// mapped or not, in one clock advance.
    fn charge_read_overhead(&self, lookups: usize) {
        if let Some((clock, cost)) = &self.read_overhead {
            clock.advance(*cost * lookups as u64);
        }
    }
}

/// The error pool APIs return for a volume that does not exist.
fn no_volume(id: VolumeId) -> BlockDeviceError {
    BlockDeviceError::Unsupported { what: format!("no volume {id}") }
}

/// A thin-provisioning pool over a data device and a metadata device.
///
/// See the crate docs for the role this plays in MobiCeal. All mutation is
/// internally synchronised behind one lock that the pool and every
/// [`ThinVolume`] share; clones of volume handles may be used from
/// multiple threads.
pub struct ThinPool {
    state: Arc<Mutex<PoolState>>,
    data: SharedDevice,
    meta: SharedDevice,
    config: PoolConfig,
}

impl std::fmt::Debug for ThinPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThinPool").field("config", &self.config).finish_non_exhaustive()
    }
}

/// Metadata-device layout: superblock at block 0, journal region next,
/// then the two checkpoint shadow halves.
struct MetaGeometry {
    journal: JournalConfig,
    half_first: u64,
    half_len: u64,
}

fn make_allocator(strategy: AllocStrategy, seed: u64) -> Box<dyn Allocator> {
    match strategy {
        AllocStrategy::Sequential => Box::new(SequentialAllocator::new()),
        AllocStrategy::Random => Box::new(RandomAllocator::with_seed(seed)),
    }
}

impl ThinPool {
    /// Formats a new pool onto `data` + `meta` and commits an empty
    /// transaction.
    ///
    /// # Errors
    ///
    /// Fails if the metadata device is too small for the data device's
    /// bitmap and volume table, or on I/O error.
    pub fn create(
        data: SharedDevice,
        meta: SharedDevice,
        config: PoolConfig,
        strategy: AllocStrategy,
    ) -> Result<Self, BlockDeviceError> {
        Self::create_seeded(data, meta, config, strategy, 0x6d6f6263)
    }

    /// Like [`ThinPool::create`] with an explicit allocator seed, so
    /// experiments can vary the random allocation stream.
    pub fn create_seeded(
        data: SharedDevice,
        meta: SharedDevice,
        config: PoolConfig,
        strategy: AllocStrategy,
        seed: u64,
    ) -> Result<Self, BlockDeviceError> {
        let pool = ThinPool {
            state: Arc::new(Mutex::new(PoolState {
                volumes: BTreeMap::new(),
                next_generation: 0,
                alloc: AllocState::new(
                    Bitmap::new(data.num_blocks()),
                    make_allocator(strategy, seed),
                ),
                read_overhead: None,
            })),
            data,
            meta,
            config,
        };
        // Format = the initial checkpoint; there is nothing to journal
        // against yet.
        pool.checkpoint()?;
        Ok(pool)
    }

    /// Opens an existing pool from its metadata device (e.g. after a reboot
    /// or crash): decodes the superblock, reads the checkpoint payload from
    /// the active shadow half, then replays the committed journal extent on
    /// top of it. Uncommitted state from a previous run — journal appends
    /// beyond the committed extent included — is, by design, absent.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::CorruptMetadata`] if no valid superblock/payload
    /// is found, the journal fails its digests/sequence checks, or the
    /// recovered state violates bitmap ⊇ mappings; layer I/O errors
    /// otherwise.
    pub fn open(
        data: SharedDevice,
        meta: SharedDevice,
        config: PoolConfig,
        strategy: AllocStrategy,
        seed: u64,
    ) -> Result<Self, BlockDeviceError> {
        let sb = Superblock::decode(&meta.read_block(0)?)?;
        let mut view = Self::read_payload(&meta, &sb)?;
        if view.transaction_id != sb.checkpoint_txid {
            return Err(BlockDeviceError::CorruptMetadata {
                detail: "checkpoint payload transaction mismatch".into(),
            });
        }
        if view.bitmap.len() != data.num_blocks() {
            return Err(BlockDeviceError::CorruptMetadata {
                detail: format!(
                    "bitmap covers {} blocks but data device has {}",
                    view.bitmap.len(),
                    data.num_blocks()
                ),
            });
        }
        // Replay the committed journal extent on top of the checkpoint.
        let tm = TransactionManager::new(meta.clone(), Self::geometry(&meta).journal);
        let records = tm.replay(sb.journal_blocks, sb.checkpoint_txid + 1, sb.transaction_id)?;
        for record in &records {
            Self::apply_record(&mut view, record)?;
        }
        view.transaction_id = sb.transaction_id;
        // Recovery invariant: every mapping references an allocated block.
        for vol in view.volumes.values() {
            for (_, p) in vol.mappings.iter() {
                if !view.bitmap.get(p) {
                    return Err(BlockDeviceError::CorruptMetadata {
                        detail: format!("recovered mapping at {p} not covered by bitmap"),
                    });
                }
            }
        }
        let volumes: BTreeMap<_, _> = view
            .volumes
            .into_iter()
            .zip(0..)
            .map(|((id, v), generation)| {
                (id, VolumeState::new(generation, v.virtual_blocks, v.mappings))
            })
            .collect();
        Ok(ThinPool {
            state: Arc::new(Mutex::new(PoolState {
                next_generation: volumes.len() as u64,
                volumes,
                alloc: AllocState {
                    transaction_id: sb.transaction_id,
                    active_half: sb.active_half,
                    journal_used: sb.journal_blocks,
                    checkpoint_txid: sb.checkpoint_txid,
                    checkpoint_payload_len: sb.payload_len,
                    checkpoint_digest: sb.payload_digest,
                    ..AllocState::new(view.bitmap, make_allocator(strategy, seed))
                },
                read_overhead: None,
            })),
            data,
            meta,
            config,
        })
    }

    /// Applies one replayed journal record to a decoded view. Every op is
    /// idempotent on mapping/bitmap state; volume lifecycle ops are
    /// validated so a mis-sequenced journal surfaces as corruption instead
    /// of silently diverging.
    fn apply_record(
        view: &mut MetadataView,
        record: &JournalRecord,
    ) -> Result<(), BlockDeviceError> {
        let corrupt = |detail: String| BlockDeviceError::CorruptMetadata { detail };
        for op in &record.ops {
            match *op {
                DeltaOp::CreateVolume { id, virtual_blocks } => {
                    let fresh = VolumeMeta { id, virtual_blocks, mappings: ExtentMap::new() };
                    if view.volumes.insert(id, fresh).is_some() {
                        return Err(corrupt(format!("journal re-creates volume {id}")));
                    }
                }
                DeltaOp::DeleteVolume { id } => {
                    if view.volumes.remove(&id).is_none() {
                        return Err(corrupt(format!("journal deletes unknown volume {id}")));
                    }
                }
                DeltaOp::SetMapping { id, extent } => {
                    let device_blocks = view.bitmap.len();
                    let vol = view
                        .volumes
                        .get_mut(&id)
                        .ok_or_else(|| corrupt(format!("journal maps unknown volume {id}")))?;
                    if extent.virt_begin + extent.len > vol.virtual_blocks
                        || extent.data_begin + extent.len > device_blocks
                    {
                        return Err(corrupt(format!("journal extent out of range for {id}")));
                    }
                    vol.mappings.insert_run(extent);
                }
                DeltaOp::RemoveMapping { id, virt_begin, len } => {
                    let vol = view
                        .volumes
                        .get_mut(&id)
                        .ok_or_else(|| corrupt(format!("journal unmaps unknown volume {id}")))?;
                    vol.mappings.remove_run(virt_begin, len);
                }
                DeltaOp::Alloc { block } => {
                    if block >= view.bitmap.len() {
                        return Err(corrupt(format!("journal allocates out-of-range {block}")));
                    }
                    view.bitmap.set(block);
                }
                DeltaOp::Free { block } => {
                    if block >= view.bitmap.len() {
                        return Err(corrupt(format!("journal frees out-of-range {block}")));
                    }
                    view.bitmap.clear(block);
                }
                DeltaOp::Register { key, .. } => {
                    return Err(corrupt(format!("pool journal carries register op {key}")));
                }
            }
        }
        Ok(())
    }

    /// Metadata-device layout: block 0 is the superblock, then the journal
    /// region, then the two checkpoint shadow halves.
    fn geometry(meta: &SharedDevice) -> MetaGeometry {
        let usable = meta.num_blocks().saturating_sub(1);
        let journal_blocks = (usable / 8).max(1);
        let half_len = usable.saturating_sub(journal_blocks) / 2;
        MetaGeometry {
            journal: JournalConfig { first_block: 1, blocks: journal_blocks },
            half_first: 1 + journal_blocks,
            half_len,
        }
    }

    fn read_payload(
        meta: &SharedDevice,
        sb: &Superblock,
    ) -> Result<MetadataView, BlockDeviceError> {
        let MetaGeometry { half_first, half_len, .. } = Self::geometry(meta);
        let bs = meta.block_size();
        let start = half_first + sb.active_half as u64 * half_len;
        let need_blocks = (sb.payload_len as usize).div_ceil(bs) as u64;
        if need_blocks > half_len {
            return Err(BlockDeviceError::CorruptMetadata {
                detail: "payload larger than shadow half".into(),
            });
        }
        let indices: Vec<u64> = (0..need_blocks).map(|i| start + i).collect();
        let mut payload = Vec::with_capacity(need_blocks as usize * bs);
        meta.read_blocks_to(&indices, ReadDest::Append(&mut payload))?;
        payload.truncate(sb.payload_len as usize);
        if sha256(&payload) != sb.payload_digest {
            return Err(BlockDeviceError::CorruptMetadata {
                detail: "payload digest mismatch".into(),
            });
        }
        MetadataView::from_bytes(&payload)
    }

    /// Persists the open transaction crash-consistently and closes it.
    ///
    /// Holds the pool lock for the duration, so the persisted bitmap and
    /// mapping tables are one consistent cut — a mapping never references
    /// a physical block the persisted bitmap does not account for.
    ///
    /// The fast path appends one checksummed [`JournalRecord`] carrying the
    /// transaction's delta (coalesced mapping extents + bitmap changes) and
    /// rewrites the superblock — I/O proportional to the transaction, not
    /// to the pool. When the record would overflow the journal region, the
    /// commit folds everything into a fresh checkpoint instead (full view
    /// to the inactive shadow half, journal reset).
    ///
    /// # Errors
    ///
    /// I/O errors from the metadata device; on failure the previous
    /// transaction remains intact and the delta is retained for retry.
    pub fn commit(&self) -> Result<(), BlockDeviceError> {
        let mut st = self.state.lock();
        let alloc = &st.alloc;
        let mut ops: Vec<DeltaOp> = alloc.meta_ops.clone();
        for (&id, vol) in &st.volumes {
            Self::coalesce_deltas(id, &vol.dirty, &mut ops);
        }
        // Frees before allocs: a block freed and re-allocated in one
        // transaction must replay as allocated.
        for &b in &alloc.journal_free {
            ops.push(DeltaOp::Free { block: b });
        }
        ops.extend(alloc.open_allocations().map(|block| DeltaOp::Alloc { block }));
        let record = JournalRecord { seq: alloc.transaction_id + 1, ops };
        let tm = TransactionManager::new(self.meta.clone(), Self::geometry(&self.meta).journal);
        match tm.append(alloc.journal_used, &record) {
            Ok(new_used) => {
                // Superblock write is the commit point: it extends the
                // committed journal extent while re-recording the existing
                // checkpoint reference.
                let sb = Superblock {
                    transaction_id: alloc.transaction_id + 1,
                    active_half: alloc.active_half,
                    payload_len: alloc.checkpoint_payload_len,
                    payload_digest: alloc.checkpoint_digest,
                    checkpoint_txid: alloc.checkpoint_txid,
                    journal_blocks: new_used,
                };
                self.write_superblock(&sb)?;
                st.alloc.journal_used = new_used;
            }
            // Journal full (or record larger than the region): fold the
            // whole state into a fresh checkpoint and reset the journal.
            Err(BlockDeviceError::NoSpace) => {
                self.checkpoint_locked(&mut st)?;
            }
            Err(e) => return Err(e),
        }
        Self::finish_commit(&mut st);
        Ok(())
    }

    /// Forces a full-cut commit: serializes the entire metadata view to the
    /// inactive shadow half, flips the superblock to it and resets the
    /// journal. `commit()` falls back to this automatically when the
    /// journal region fills; it is public so callers (and benchmarks) can
    /// compare the full-cut cost against the journaled fast path.
    ///
    /// # Errors
    ///
    /// As [`ThinPool::commit`].
    pub fn checkpoint(&self) -> Result<(), BlockDeviceError> {
        let mut st = self.state.lock();
        self.checkpoint_locked(&mut st)?;
        Self::finish_commit(&mut st);
        Ok(())
    }

    /// The full-cut path, under the pool lock. On success the superblock
    /// names the new half with an empty journal; the caller still runs
    /// [`ThinPool::finish_commit`].
    fn checkpoint_locked(&self, st: &mut PoolState) -> Result<(), BlockDeviceError> {
        let mut payload = Vec::new();
        encode_payload(
            st.alloc.transaction_id + 1,
            &st.alloc.live_bitmap(),
            st.volumes.iter().map(|(&id, v)| (id, v.virtual_blocks, &v.mappings)),
            &mut payload,
        );
        let alloc = &mut st.alloc;
        let payload_len = payload.len();
        let MetaGeometry { half_first, half_len, .. } = Self::geometry(&self.meta);
        let bs = self.meta.block_size();
        let target_half = 1 - alloc.active_half;
        let start = half_first + target_half as u64 * half_len;
        let need_blocks = payload_len.div_ceil(bs) as u64;
        if need_blocks > half_len {
            return Err(BlockDeviceError::NoSpace);
        }
        let digest = sha256(&payload);
        // One vectored write of the zero-padded payload, block by block.
        payload.resize(need_blocks as usize * bs, 0);
        let writes: Vec<(BlockIndex, &[u8])> = (start..).zip(payload.chunks_exact(bs)).collect();
        self.meta.write_blocks(&writes)?;
        self.meta.flush()?;
        // Superblock last: this is the commit point.
        let sb = Superblock {
            transaction_id: alloc.transaction_id + 1,
            active_half: target_half,
            payload_len: payload_len as u64,
            payload_digest: digest,
            checkpoint_txid: alloc.transaction_id + 1,
            journal_blocks: 0,
        };
        self.write_superblock(&sb)?;
        alloc.active_half = target_half;
        alloc.checkpoint_txid = alloc.transaction_id + 1;
        alloc.checkpoint_payload_len = payload_len as u64;
        alloc.checkpoint_digest = digest;
        alloc.journal_used = 0;
        Ok(())
    }

    /// Encodes and writes the superblock, flushing after.
    fn write_superblock(&self, sb: &Superblock) -> Result<(), BlockDeviceError> {
        let mut sb_block = vec![0u8; self.meta.block_size()];
        sb.encode_into(&mut sb_block);
        self.meta.write_block(0, &sb_block)?;
        self.meta.flush()
    }

    /// Closes the open transaction after a durable commit: advances the
    /// transaction id, drops the recorded deltas and folds reservations
    /// into the committed bitmap. Only called after the superblock write
    /// succeeded — a failed commit keeps every delta for retry.
    fn finish_commit(st: &mut PoolState) {
        let alloc = &mut st.alloc;
        alloc.transaction_id += 1;
        for vol in st.volumes.values_mut() {
            vol.dirty.clear();
        }
        alloc.meta_ops.clear();
        alloc.journal_free.clear();
        let AllocState { bitmap, reserved, pending_free, .. } = alloc;
        for b in reserved.iter_allocated() {
            if !pending_free.get(b) {
                bitmap.set(b);
            }
        }
        // The frees just became durable: the held-out blocks are now safe
        // to hand out again.
        *reserved = Bitmap::new(bitmap.len());
        *pending_free = Bitmap::new(bitmap.len());
    }

    /// Coalesces one volume's ordered mapping deltas into extent ops:
    /// consecutive contiguous inserts become one `SetMapping`, consecutive
    /// removes one `RemoveMapping`. Order is preserved, so replaying the
    /// ops reproduces the in-memory mapping table exactly.
    fn coalesce_deltas(id: VolumeId, dirty: &[MapDelta], ops: &mut Vec<DeltaOp>) {
        let mut i = 0usize;
        while i < dirty.len() {
            match dirty[i] {
                MapDelta::Insert(v, p) => {
                    let mut len = 1u64;
                    while let Some(MapDelta::Insert(v2, p2)) = dirty.get(i + len as usize) {
                        if *v2 == v + len && *p2 == p + len {
                            len += 1;
                        } else {
                            break;
                        }
                    }
                    ops.push(DeltaOp::SetMapping {
                        id,
                        extent: Extent { virt_begin: v, data_begin: p, len },
                    });
                    i += len as usize;
                }
                MapDelta::Remove(v) => {
                    let mut len = 1u64;
                    while let Some(MapDelta::Remove(v2)) = dirty.get(i + len as usize) {
                        if *v2 == v + len {
                            len += 1;
                        } else {
                            break;
                        }
                    }
                    ops.push(DeltaOp::RemoveMapping { id, virt_begin: v, len });
                    i += len as usize;
                }
            }
        }
    }

    /// Creates a thin volume of `virtual_blocks` provisioned size.
    ///
    /// # Errors
    ///
    /// Fails if the id is taken, the pool's volume budget is exhausted, or
    /// the id is out of the configured range.
    pub fn create_volume(
        &self,
        id: VolumeId,
        virtual_blocks: u64,
    ) -> Result<ThinVolume, BlockDeviceError> {
        let mut st = self.state.lock();
        if st.volumes.len() as u32 >= self.config.max_volumes {
            return Err(BlockDeviceError::Unsupported {
                what: format!("pool limited to {} volumes", self.config.max_volumes),
            });
        }
        if st.volumes.contains_key(&id) {
            return Err(BlockDeviceError::Unsupported { what: format!("volume {id} exists") });
        }
        let generation = st.next_generation;
        st.next_generation += 1;
        st.volumes.insert(id, VolumeState::new(generation, virtual_blocks, ExtentMap::new()));
        st.alloc.meta_ops.push(DeltaOp::CreateVolume { id, virtual_blocks });
        Ok(self.volume_handle(id, &st.volumes[&id]))
    }

    /// Opens an existing volume.
    ///
    /// # Errors
    ///
    /// Fails if the volume does not exist.
    pub fn open_volume(&self, id: VolumeId) -> Result<ThinVolume, BlockDeviceError> {
        let st = self.state.lock();
        Ok(self.volume_handle(id, st.volumes.get(&id).ok_or_else(|| no_volume(id))?))
    }

    /// Deletes a volume, releasing its physical blocks.
    ///
    /// # Errors
    ///
    /// Fails if the volume does not exist.
    pub fn delete_volume(&self, id: VolumeId) -> Result<(), BlockDeviceError> {
        let mut st = self.state.lock();
        // The volume's pending deltas die with it: the journaled
        // DeleteVolume removes the whole volume on replay, and only
        // *committed* blocks produce Free ops (via `release`).
        let vol = st.volumes.remove(&id).ok_or_else(|| no_volume(id))?;
        st.alloc.meta_ops.push(DeltaOp::DeleteVolume { id });
        for p in vol.mappings.values() {
            st.alloc.release(p);
        }
        Ok(())
    }

    /// Releases the physical block backing one virtual block of a volume
    /// (a discard/trim). No-op if unmapped. Used by MobiCeal's dummy-space
    /// garbage collection (§IV-D).
    ///
    /// # Errors
    ///
    /// Fails if the volume does not exist.
    pub fn discard(&self, id: VolumeId, vblock: u64) -> Result<(), BlockDeviceError> {
        self.discard_many(id, &[vblock])
    }

    /// Total physically allocated blocks (committed + open transaction).
    pub fn allocated_blocks(&self) -> u64 {
        let st = self.state.lock();
        st.alloc.bitmap.allocated() + st.alloc.open_allocation_count()
    }

    /// Free physical blocks: those an allocation can take now. Blocks
    /// freed in the open transaction count only once their free commits.
    pub fn free_blocks(&self) -> u64 {
        self.state.lock().alloc.allocatable()
    }

    /// The pool's volume budget.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Charges `cost` on `clock` for every volume block read, mapped or
    /// not, modelling dm-thin's mapping-btree lookups on the read path.
    pub fn set_read_overhead(&self, clock: SimClock, cost: SimDuration) {
        self.state.lock().read_overhead = Some((clock, cost));
    }

    /// Data-device geometry: block size in bytes.
    pub fn block_size(&self) -> usize {
        self.data.block_size()
    }

    /// The decoded metadata exactly as an adversary with device access would
    /// recover it (current in-memory transaction), taken under the pool
    /// lock like [`ThinPool::commit`], so the view is consistent even while
    /// other threads write.
    pub fn metadata_view(&self) -> MetadataView {
        let st = self.state.lock();
        MetadataView {
            transaction_id: st.alloc.transaction_id,
            bitmap: st.alloc.live_bitmap(),
            volumes: st
                .volumes
                .iter()
                .map(|(&id, v)| {
                    (
                        id,
                        VolumeMeta {
                            id,
                            virtual_blocks: v.virtual_blocks,
                            mappings: v.mappings.clone(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Ids of existing volumes.
    pub fn volume_ids(&self) -> Vec<VolumeId> {
        self.state.lock().volumes.keys().copied().collect()
    }

    /// The virtual blocks volume `id` maps, ascending (`None` if the volume
    /// does not exist).
    pub fn mapped_vblocks(&self, id: VolumeId) -> Option<Vec<u64>> {
        Some(self.state.lock().volumes.get(&id)?.mappings.keys().collect())
    }

    /// Physical blocks mapped by volume `id` (0 if absent).
    pub fn volume_mapped_blocks(&self, id: VolumeId) -> u64 {
        self.state.lock().volumes.get(&id).map_or(0, |v| v.mappings.len() as u64)
    }

    /// How many more blocks [`ThinPool::append_blocks`] can currently land
    /// in volume `id`: the smaller of the pool's free space and the
    /// volume's unmapped virtual space (0 if the volume does not exist).
    pub fn append_headroom(&self, id: VolumeId) -> u64 {
        let st = self.state.lock();
        let Some(vol) = st.volumes.get(&id) else {
            return 0;
        };
        let volume_free = vol.virtual_blocks - vol.mappings.len() as u64;
        st.alloc.allocatable().min(volume_free)
    }

    /// Allocates up to `blocks.len()` fresh physical blocks to `id`, at its
    /// lowest unmapped virtual indices, under **one** pool-lock
    /// acquisition, then lands them with **one** vectored data-device
    /// write. This is the primitive dummy writes use: "m free blocks will
    /// be allocated and ... filled with random noise" (§IV-B). A burst of
    /// `m ~ Exp(λ)` blocks crosses the pipeline once instead of `m` times.
    ///
    /// Returns the number of blocks appended. Exhaustion of the pool or of
    /// the volume's virtual address space is not an error: allocation stops
    /// there and the count reflects what landed (dummy blocks that do not
    /// fit are simply dropped, §IV-B).
    ///
    /// # Errors
    ///
    /// Fails if the volume does not exist, any buffer is not block-sized,
    /// or the data device fails. On a device error every mapping staged by
    /// this call is rolled back, so no virtual block is ever left pointing
    /// at a physical block whose noise never landed.
    pub fn append_blocks(&self, id: VolumeId, blocks: &[&[u8]]) -> Result<u64, BlockDeviceError> {
        let bs = self.data.block_size();
        if let Some(bad) = blocks.iter().find(|b| b.len() != bs) {
            return Err(BlockDeviceError::WrongBufferSize { got: bad.len(), expected: bs });
        }
        let mut st = self.state.lock();
        let PoolState { volumes, alloc, .. } = &mut *st;
        let vol = volumes.get_mut(&id).ok_or_else(|| no_volume(id))?;
        let mut writes: Vec<(BlockIndex, &[u8])> = Vec::with_capacity(blocks.len());
        let mut staged: Vec<(u64, u64)> = Vec::with_capacity(blocks.len()); // (vblock, p)
                                                                            // Walk the lowest unmapped virtual indices, allocating as we go;
                                                                            // each step resumes at the block just mapped.
        let mut vblock = 0u64;
        for &data in blocks {
            vblock = vol.mappings.first_unmapped_from(vblock);
            if vblock >= vol.virtual_blocks {
                break; // volume virtual space exhausted: drop the rest
            }
            let Ok(p) = alloc.allocate_one() else {
                break; // pool exhausted: drop the rest
            };
            vol.map(vblock, p);
            staged.push((vblock, p));
            writes.push((p, data));
        }
        if let Err(e) = self.data.write_blocks(&writes) {
            Self::rollback_fresh(vol, alloc, &staged);
            return Err(e);
        }
        Ok(writes.len() as u64)
    }

    /// Removes the mappings a failed data-device write allocated and
    /// releases their (uncommitted) physical reservations. Without this, a
    /// mid-batch device failure would leave virtual blocks pointing at
    /// physical blocks whose data never landed — reads would then expose
    /// whatever stale bytes sit there.
    fn rollback_fresh(vol: &mut VolumeState, alloc: &mut AllocState, fresh: &[(u64, u64)]) {
        for &(vblock, p) in fresh {
            vol.unmap(vblock);
            alloc.release(p);
        }
    }

    /// Vectored [`ThinPool::discard`]: releases the physical blocks backing
    /// many virtual blocks of one volume under a single acquisition of the
    /// pool lock. Unmapped entries are no-ops, exactly like the
    /// single-block form.
    ///
    /// # Errors
    ///
    /// Fails if the volume does not exist.
    pub fn discard_many(&self, id: VolumeId, vblocks: &[u64]) -> Result<(), BlockDeviceError> {
        let mut st = self.state.lock();
        let PoolState { volumes, alloc, .. } = &mut *st;
        let vol = volumes.get_mut(&id).ok_or_else(|| no_volume(id))?;
        for &v in vblocks {
            if let Some(p) = vol.unmap(v) {
                alloc.release(p);
            }
        }
        Ok(())
    }

    fn volume_handle(&self, id: VolumeId, vol: &VolumeState) -> ThinVolume {
        ThinVolume {
            pool: Arc::clone(&self.state),
            data: self.data.clone(),
            id,
            generation: vol.generation,
            virtual_blocks: vol.virtual_blocks,
        }
    }
}

/// A thin volume: a [`BlockDevice`] whose physical blocks are allocated on
/// first write from the pool's shared free space.
///
/// Every operation takes the pool's one lock and holds it across its
/// data-device call.
#[derive(Clone)]
pub struct ThinVolume {
    pool: Arc<Mutex<PoolState>>,
    data: SharedDevice,
    id: VolumeId,
    generation: u64,
    virtual_blocks: u64,
}

impl std::fmt::Debug for ThinVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThinVolume")
            .field("id", &self.id)
            .field("virtual_blocks", &self.virtual_blocks)
            .finish_non_exhaustive()
    }
}

impl ThinVolume {
    /// This volume's id.
    pub fn id(&self) -> VolumeId {
        self.id
    }

    /// The error every I/O path surfaces once the volume is gone.
    fn deleted(&self) -> BlockDeviceError {
        BlockDeviceError::Unsupported { what: format!("volume {} deleted", self.id) }
    }

    /// This handle's volume in `volumes` (the pool lock held), or the
    /// deleted error once it is gone, even if a later volume took its id.
    fn volume<'a>(
        &self,
        volumes: &'a mut BTreeMap<VolumeId, VolumeState>,
    ) -> Result<&'a mut VolumeState, BlockDeviceError> {
        volumes
            .get_mut(&self.id)
            .filter(|v| v.generation == self.generation)
            .ok_or_else(|| self.deleted())
    }

    /// Physical blocks currently mapped.
    pub fn mapped_blocks(&self) -> u64 {
        self.volume(&mut self.pool.lock().volumes).map_or(0, |v| v.mappings.len() as u64)
    }

    /// The physical block backing `vblock`, if mapped.
    pub fn mapping(&self, vblock: u64) -> Option<u64> {
        self.volume(&mut self.pool.lock().volumes).ok()?.mappings.get(&vblock)
    }

    /// [`BlockDevice::write_blocks`] that also reports how many blocks the
    /// call freshly allocated and kept mapped: every distinct unmapped
    /// index of a batch that lands, the landed prefix's when the pool runs
    /// out (or an index or buffer is refused) mid-batch, and 0 when the
    /// data device fails and the allocations roll back. The count is taken
    /// under the pool lock the allocations are made under, so two writers
    /// racing for one unmapped block never both count it: it is the
    /// fresh-block decision the dummy-write hook consults the trigger by.
    ///
    /// A one-element batch takes the single-block path down to the data
    /// device, with no per-call allocation.
    pub fn write_blocks_fresh(
        &self,
        writes: &[(BlockIndex, &[u8])],
    ) -> (u64, Result<(), BlockDeviceError>) {
        match *writes {
            [(index, data)] => match self.write_one(index, data) {
                Ok(fresh) => (u64::from(fresh), Ok(())),
                Err(e) => (0, Err(e)),
            },
            _ => self.write_batch(writes),
        }
    }

    /// Writes one block and reports whether it allocated it. A failed write
    /// keeps no allocation.
    fn write_one(&self, index: BlockIndex, data: &[u8]) -> Result<bool, BlockDeviceError> {
        self.check_index(index)?;
        self.check_buffer(data)?;
        let mut st = self.pool.lock();
        let PoolState { volumes, alloc, .. } = &mut *st;
        let vol = self.volume(volumes)?;
        let (physical, fresh) = match vol.mappings.get(&index) {
            Some(p) => (p, false),
            None => {
                let p = alloc.allocate_one()?;
                vol.map(index, p);
                (p, true)
            }
        };
        if let Err(e) = self.data.write_block(physical, data) {
            // Never leave a fresh mapping pointing at storage whose data
            // did not land (reads would expose stale bytes).
            if fresh {
                ThinPool::rollback_fresh(vol, alloc, &[(index, physical)]);
            }
            return Err(e);
        }
        Ok(fresh)
    }

    /// Resolves or allocates every mapping under **one** acquisition of the
    /// pool lock (consuming the allocator stream in batch order, exactly as
    /// the sequential loop would), then issues one vectored write on the
    /// data device before releasing it. On pool exhaustion mid-batch the
    /// already-mapped prefix is written before the error surfaces,
    /// preserving sequential fail-fast semantics; on a *device* error the
    /// mappings freshly allocated by this call are rolled back so no
    /// virtual block points at a physical block whose data never landed.
    fn write_batch(&self, writes: &[(BlockIndex, &[u8])]) -> (u64, Result<(), BlockDeviceError>) {
        let mut staged: Vec<(BlockIndex, &[u8])> = Vec::with_capacity(writes.len());
        let mut fresh: Vec<(u64, u64)> = Vec::new(); // (vblock, p) allocated here
        let mut first_error = None;
        let mut st = self.pool.lock();
        let PoolState { volumes, alloc, .. } = &mut *st;
        let vol = match self.volume(volumes) {
            Ok(vol) => vol,
            Err(e) => return (0, Err(e)),
        };
        for &(index, data) in writes {
            if let Err(e) = self.check_index(index).and_then(|()| self.check_buffer(data)) {
                first_error = Some(e);
                break;
            }
            let physical = match vol.mappings.get(&index) {
                Some(p) => p,
                None => match alloc.allocate_one() {
                    Ok(p) => {
                        vol.map(index, p);
                        fresh.push((index, p));
                        p
                    }
                    Err(e) => {
                        first_error = Some(e);
                        break;
                    }
                },
            };
            staged.push((physical, data));
        }
        if let Err(e) = self.data.write_blocks(&staged) {
            ThinPool::rollback_fresh(vol, alloc, &fresh);
            return (0, Err(e));
        }
        (fresh.len() as u64, first_error.map_or(Ok(()), Err))
    }
}

impl BlockDevice for ThinVolume {
    fn num_blocks(&self) -> u64 {
        self.virtual_blocks
    }

    fn block_size(&self) -> usize {
        self.data.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        self.check_index(index)?;
        let mut st = self.pool.lock();
        let mapping = self.volume(&mut st.volumes)?.mappings.get(&index);
        st.charge_read_overhead(1);
        match mapping {
            Some(p) => self.data.read_block(p),
            // Unmapped thin blocks read as zeros without touching the medium.
            None => Ok(vec![0u8; self.data.block_size()]),
        }
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.write_blocks_fresh(&[(index, data)]).1
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        mobiceal_blockdev::read_blocks_owned(self, indices)
    }

    /// Batched read: resolves every mapping under **one** acquisition of
    /// the pool lock (charging the per-lookup read overhead exactly as the
    /// single-block path does), then issues one vectored read on the data
    /// device for the mapped blocks, into `dest`, and spreads them out
    /// around zero blocks for the unmapped ones.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        mut dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        let bad = indices.iter().position(|&i| i >= self.virtual_blocks);
        let valid = &indices[..bad.unwrap_or(indices.len())];
        let mut st = self.pool.lock();
        let vol = self.volume(&mut st.volumes)?;
        let mappings: Vec<Option<u64>> =
            valid.iter().map(|index| vol.mappings.get(index)).collect();
        st.charge_read_overhead(valid.len());
        let physical: Vec<u64> = mappings.iter().filter_map(|m| *m).collect();
        let mark = dest.mark();
        self.data.read_blocks_to(&physical, dest.reborrow())?;
        drop(st);
        if let Some(pos) = bad {
            dest.truncate(mark);
            return Err(BlockDeviceError::OutOfRange {
                index: indices[pos],
                num_blocks: self.virtual_blocks,
            });
        }
        dest.fill_holes(mark, self.data.block_size(), mappings.iter().map(Option::is_some))
    }

    /// Batched write: see [`ThinVolume::write_blocks_fresh`].
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.write_blocks_fresh(writes).1
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.data.flush()
    }

    fn host_queue_enter(&self) {
        self.data.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.data.host_queue_leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::MemDisk;
    use std::collections::HashSet;

    fn devices(data_blocks: u64, meta_blocks: u64) -> (SharedDevice, SharedDevice) {
        (
            Arc::new(MemDisk::with_default_timing(data_blocks, 512)) as SharedDevice,
            Arc::new(MemDisk::with_default_timing(meta_blocks, 512)) as SharedDevice,
        )
    }

    fn pool(strategy: AllocStrategy) -> ThinPool {
        let (data, meta) = devices(256, 128);
        ThinPool::create(data, meta, PoolConfig::new(8), strategy).unwrap()
    }

    #[test]
    fn thin_volume_reads_zeros_before_write() {
        let p = pool(AllocStrategy::Sequential);
        let v = p.create_volume(1, 100).unwrap();
        assert_eq!(v.read_block(50).unwrap(), vec![0u8; 512]);
        assert_eq!(p.allocated_blocks(), 0, "reads must not allocate");
    }

    #[test]
    fn write_allocates_exactly_one_block() {
        let p = pool(AllocStrategy::Sequential);
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(42, &vec![7u8; 512]).unwrap();
        assert_eq!(p.allocated_blocks(), 1);
        assert_eq!(v.mapped_blocks(), 1);
        assert_eq!(v.read_block(42).unwrap(), vec![7u8; 512]);
        // Overwrite reuses the mapping.
        v.write_block(42, &vec![8u8; 512]).unwrap();
        assert_eq!(p.allocated_blocks(), 1);
        assert_eq!(v.read_block(42).unwrap(), vec![8u8; 512]);
    }

    #[test]
    fn volumes_never_overlap() {
        let p = pool(AllocStrategy::Random);
        let a = p.create_volume(1, 200).unwrap();
        let b = p.create_volume(2, 200).unwrap();
        for i in 0..50 {
            a.write_block(i, &vec![0xAA; 512]).unwrap();
            b.write_block(i, &vec![0xBB; 512]).unwrap();
        }
        // Physical blocks must be disjoint.
        let view = p.metadata_view();
        let pa: HashSet<u64> = view.volumes[&1].mappings.values().collect();
        let pb: HashSet<u64> = view.volumes[&2].mappings.values().collect();
        assert!(pa.is_disjoint(&pb));
        for i in 0..50 {
            assert_eq!(a.read_block(i).unwrap(), vec![0xAA; 512]);
            assert_eq!(b.read_block(i).unwrap(), vec![0xBB; 512]);
        }
    }

    #[test]
    fn over_provisioning_is_allowed_until_space_runs_out() {
        let (data, meta) = devices(16, 64);
        let p =
            ThinPool::create(data, meta, PoolConfig::new(4), AllocStrategy::Sequential).unwrap();
        // Two volumes, each provisioned at the full device size.
        let a = p.create_volume(1, 16).unwrap();
        let b = p.create_volume(2, 16).unwrap();
        for i in 0..8 {
            a.write_block(i, &vec![1u8; 512]).unwrap();
        }
        for i in 0..8 {
            b.write_block(i, &vec![2u8; 512]).unwrap();
        }
        assert_eq!(p.free_blocks(), 0);
        assert!(matches!(a.write_block(9, &vec![1u8; 512]), Err(BlockDeviceError::NoSpace)));
    }

    #[test]
    fn freed_blocks_stay_unavailable_until_the_free_commits() {
        let (data, meta) = devices(16, 64);
        let p =
            ThinPool::create(data, meta, PoolConfig::new(4), AllocStrategy::Sequential).unwrap();
        let v = p.create_volume(1, 32).unwrap();
        for i in 0..16 {
            v.write_block(i, &vec![1u8; 512]).unwrap();
        }
        p.commit().unwrap();
        // Free one committed block; the free is not yet durable.
        p.discard_many(1, &[3]).unwrap();
        // Handing the block out now would let new data land where a
        // crash-replay still expects vblock 3's contents — the allocator
        // must treat the pool as full until the free commits.
        assert!(matches!(v.write_block(20, &vec![2u8; 512]), Err(BlockDeviceError::NoSpace)));
        p.commit().unwrap();
        v.write_block(20, &vec![2u8; 512]).unwrap();
        assert_eq!(v.read_block(20).unwrap(), vec![2u8; 512]);
    }

    #[test]
    fn pending_frees_count_as_free_only_once_they_commit() {
        // The space queries must agree with the allocator: on a full pool
        // whose only free blocks are frees still pending in the open
        // transaction, nothing can be allocated, so there is no headroom
        // for a dummy burst to generate noise for.
        let (data, meta) = devices(16, 64);
        let p =
            ThinPool::create(data, meta, PoolConfig::new(4), AllocStrategy::Sequential).unwrap();
        let v = p.create_volume(1, 32).unwrap();
        p.create_volume(2, 32).unwrap();
        for i in 0..16 {
            v.write_block(i, &vec![1u8; 512]).unwrap();
        }
        p.commit().unwrap();
        p.discard_many(1, &[3, 7]).unwrap();
        assert_eq!(p.free_blocks(), 0);
        assert_eq!(p.append_headroom(2), 0);
        let noise = vec![9u8; 512];
        assert_eq!(p.append_blocks(2, &[noise.as_slice(), noise.as_slice()]).unwrap(), 0);
        assert_eq!(p.allocated_blocks(), 14, "pending frees are no longer allocated either");
        // Once the frees commit, both queries and the allocator see them.
        p.commit().unwrap();
        assert_eq!(p.free_blocks(), 2);
        assert_eq!(p.append_headroom(2), 2);
        assert_eq!(p.append_blocks(2, &[noise.as_slice(), noise.as_slice()]).unwrap(), 2);
        assert_eq!(p.free_blocks(), 0);
    }

    #[test]
    fn pending_frees_leave_the_picks_of_the_reservation_set_union() {
        // Allocations while committed frees are pending pick what the
        // `HashSet` allocators pick when fed the open reservations plus the
        // pending frees, the union the pool once built per allocation:
        // through rejections, the dense fallback and exhaustion, with
        // open-transaction discards mixed in.
        use crate::allocator::reference;
        use mobiceal_crypto::ChaCha20Rng;
        for strategy in [AllocStrategy::Sequential, AllocStrategy::Random] {
            let (data, meta) = devices(256, 128);
            let p = ThinPool::create_seeded(data, meta, PoolConfig::new(4), strategy, 21).unwrap();
            let v = p.create_volume(1, 512).unwrap();
            let mut rng = ChaCha20Rng::from_u64_seed(21);
            let mut cursor = 0u64;
            let buf = vec![0x3Cu8; 512];
            let mut write_and_check = |vblock: u64| {
                let (bitmap, unavailable) = {
                    let PoolState { alloc, .. } = &*p.state.lock();
                    let held: HashSet<u64> = alloc
                        .open_allocations()
                        .chain(alloc.pending_free.iter_allocated())
                        .collect();
                    (alloc.bitmap.clone(), held)
                };
                let expected = match strategy {
                    AllocStrategy::Sequential => {
                        reference::sequential(&mut cursor, &bitmap, &unavailable)
                    }
                    AllocStrategy::Random => reference::random(&mut rng, &bitmap, &unavailable),
                };
                match expected {
                    Some(_) => v.write_block(vblock, &buf).unwrap(),
                    None => assert!(matches!(
                        v.write_block(vblock, &buf),
                        Err(BlockDeviceError::NoSpace)
                    )),
                }
                assert_eq!(v.mapping(vblock), expected, "{strategy:?}, vblock {vblock}");
                expected.is_some()
            };
            for vblock in 0..120 {
                assert!(write_and_check(vblock));
            }
            p.commit().unwrap();
            // Free 60 committed blocks: they stay held until the next commit.
            p.discard_many(1, &(0..120).step_by(2).collect::<Vec<_>>()).unwrap();
            for vblock in 120..200 {
                assert!(write_and_check(vblock));
            }
            // Open-transaction blocks go straight back to the allocator.
            p.discard_many(1, &(120..200).step_by(4).collect::<Vec<_>>()).unwrap();
            let landed = (200..400).take_while(|&vblock| write_and_check(vblock)).count();
            assert_eq!(landed, 256 - 60 - 60 - 60, "{strategy:?}: fills the unheld space");
            p.commit().unwrap();
            assert!(write_and_check(400), "{strategy:?}: the committed frees are free again");
        }
    }

    #[test]
    fn sequential_allocation_is_front_loaded() {
        let p = pool(AllocStrategy::Sequential);
        let v = p.create_volume(1, 100).unwrap();
        for i in 0..20 {
            v.write_block(i, &vec![1u8; 512]).unwrap();
        }
        let view = p.metadata_view();
        let physical: Vec<u64> = view.volumes[&1].mappings.values().collect();
        assert_eq!(physical, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn random_allocation_is_not_front_loaded() {
        let p = pool(AllocStrategy::Random);
        let v = p.create_volume(1, 100).unwrap();
        for i in 0..20 {
            v.write_block(i, &vec![1u8; 512]).unwrap();
        }
        let view = p.metadata_view();
        let physical: Vec<u64> = view.volumes[&1].mappings.values().collect();
        assert_ne!(physical, (0..20).collect::<Vec<u64>>());
        assert!(physical.iter().any(|&b| b >= 64), "some blocks land beyond the front");
    }

    #[test]
    fn commit_and_reopen_restores_state() {
        let (data, meta) = devices(256, 128);
        let p = ThinPool::create(
            data.clone(),
            meta.clone(),
            PoolConfig::new(8),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(5, &vec![0x55; 512]).unwrap();
        p.commit().unwrap();
        drop((p, v));

        let p2 =
            ThinPool::open(data, meta, PoolConfig::new(8), AllocStrategy::Sequential, 0).unwrap();
        let v2 = p2.open_volume(1).unwrap();
        assert_eq!(v2.read_block(5).unwrap(), vec![0x55; 512]);
        assert_eq!(p2.allocated_blocks(), 1);
    }

    #[test]
    fn crash_before_commit_loses_uncommitted_mappings() {
        let (data, meta) = devices(256, 128);
        let p = ThinPool::create(
            data.clone(),
            meta.clone(),
            PoolConfig::new(8),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(5, &vec![0x55; 512]).unwrap();
        p.commit().unwrap();
        v.write_block(6, &vec![0x66; 512]).unwrap();
        // No commit: simulate crash by dropping and reopening.
        drop((p, v));
        let p2 =
            ThinPool::open(data, meta, PoolConfig::new(8), AllocStrategy::Sequential, 0).unwrap();
        let v2 = p2.open_volume(1).unwrap();
        assert_eq!(v2.read_block(5).unwrap(), vec![0x55; 512]);
        assert_eq!(v2.read_block(6).unwrap(), vec![0u8; 512], "uncommitted mapping gone");
        assert_eq!(p2.allocated_blocks(), 1, "uncommitted allocation released");
    }

    #[test]
    fn torn_commit_falls_back_to_previous_transaction() {
        let (data, _) = devices(256, 1);
        let meta_disk = Arc::new(MemDisk::with_default_timing(128, 512));
        let meta: SharedDevice = meta_disk.clone();
        let p = ThinPool::create(
            data.clone(),
            meta.clone(),
            PoolConfig::new(8),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(1, &vec![0x11; 512]).unwrap();
        p.commit().unwrap(); // tx 2, half 1

        // Make the *superblock* write fail: the payload lands in the
        // inactive half but the commit point is never reached.
        let mut faults = mobiceal_blockdev::FaultInjection::default();
        faults.failing_writes.insert(0);
        meta_disk.set_faults(faults);
        v.write_block(2, &vec![0x22; 512]).unwrap();
        assert!(p.commit().is_err(), "superblock write failure must surface");
        meta_disk.set_faults(mobiceal_blockdev::FaultInjection::default());
        drop((p, v));

        let p2 =
            ThinPool::open(data, meta, PoolConfig::new(8), AllocStrategy::Sequential, 0).unwrap();
        let v2 = p2.open_volume(1).unwrap();
        assert_eq!(v2.read_block(1).unwrap(), vec![0x11; 512]);
        assert_eq!(v2.read_block(2).unwrap(), vec![0u8; 512], "torn commit rolled back");
    }

    #[test]
    fn delete_volume_releases_space() {
        let p = pool(AllocStrategy::Sequential);
        let v = p.create_volume(1, 100).unwrap();
        for i in 0..10 {
            v.write_block(i, &vec![1u8; 512]).unwrap();
        }
        assert_eq!(p.allocated_blocks(), 10);
        p.delete_volume(1).unwrap();
        assert_eq!(p.allocated_blocks(), 0);
        assert!(v.read_block(0).is_err(), "handle to deleted volume errors");
        assert!(p.open_volume(1).is_err());
    }

    #[test]
    fn discard_releases_single_block() {
        let p = pool(AllocStrategy::Sequential);
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(3, &vec![1u8; 512]).unwrap();
        v.write_block(4, &vec![2u8; 512]).unwrap();
        p.discard(1, 3).unwrap();
        assert_eq!(p.allocated_blocks(), 1);
        assert_eq!(v.read_block(3).unwrap(), vec![0u8; 512]);
        assert_eq!(v.read_block(4).unwrap(), vec![2u8; 512]);
        p.discard(1, 99).unwrap(); // unmapped: no-op
        assert_eq!(p.allocated_blocks(), 1);
    }

    #[test]
    fn failed_batched_write_rolls_back_fresh_mappings() {
        // A device fault mid-batch must not leave virtual blocks mapped to
        // physical blocks whose data never landed (stale-data exposure).
        let data_disk = Arc::new(MemDisk::with_default_timing(256, 512));
        let (_, meta) = devices(1, 128);
        let p = ThinPool::create(
            data_disk.clone() as SharedDevice,
            meta,
            PoolConfig::new(8),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let v = p.create_volume(1, 100).unwrap();
        // Sequential allocator: the batch will land on physical 0, 1, 2.
        let mut faults = mobiceal_blockdev::FaultInjection::default();
        faults.failing_writes.insert(1);
        data_disk.set_faults(faults);
        let buf = vec![0xAAu8; 512];
        let err = v
            .write_blocks(&[(10, buf.as_slice()), (11, buf.as_slice()), (12, buf.as_slice())])
            .unwrap_err();
        assert!(matches!(err, BlockDeviceError::Io { .. }));
        data_disk.set_faults(mobiceal_blockdev::FaultInjection::default());
        // No mapping survives pointing at unwritten storage.
        assert_eq!(v.mapping(11), None, "failed block unmapped");
        assert_eq!(v.mapping(12), None, "suffix unmapped");
        assert_eq!(v.mapping(10), None, "rolled-back prefix unmapped");
        assert_eq!(p.allocated_blocks(), 0);
        for vb in [10u64, 11, 12] {
            assert_eq!(v.read_block(vb).unwrap(), vec![0u8; 512], "reads as hole");
        }
        // Appends and single-block writes roll back the same way (fault
        // every block: the allocator cursor has moved past the rolled-back
        // physicals).
        let mut faults = mobiceal_blockdev::FaultInjection::default();
        for b in 0..256 {
            faults.failing_writes.insert(b);
        }
        data_disk.set_faults(faults);
        assert!(p.append_blocks(1, &[buf.as_slice()]).is_err());
        assert!(v.write_block(20, &buf).is_err());
        data_disk.set_faults(mobiceal_blockdev::FaultInjection::default());
        assert_eq!(p.allocated_blocks(), 0);
        assert_eq!(v.mapping(20), None, "single-block failure unmapped");
        assert_eq!(v.read_block(0).unwrap(), vec![0u8; 512]);
        assert_eq!(v.read_block(20).unwrap(), vec![0u8; 512]);
    }

    #[test]
    fn two_volumes_map_batches_concurrently_without_aliasing() {
        // Both volumes' mapping passes run from separate threads. Whatever
        // the interleaving, the physical blocks stay disjoint, both volumes
        // read back their own data, and the pool's accounting matches the
        // per-volume sums.
        let (data, meta) = devices(4096, 128);
        let p = Arc::new(
            ThinPool::create(data, meta, PoolConfig::new(8), AllocStrategy::Random).unwrap(),
        );
        let a = p.create_volume(1, 2048).unwrap();
        let b = p.create_volume(2, 2048).unwrap();
        std::thread::scope(|s| {
            for (vol, fill) in [(a.clone(), 0xAAu8), (b.clone(), 0xBBu8)] {
                s.spawn(move || {
                    let data = vec![fill; 512];
                    for round in 0..8u64 {
                        let batch: Vec<(u64, &[u8])> =
                            (0..32).map(|i| (round * 32 + i, data.as_slice())).collect();
                        vol.write_blocks(&batch).unwrap();
                    }
                });
            }
        });
        for i in 0..256u64 {
            assert_eq!(a.read_block(i).unwrap(), vec![0xAA; 512], "a[{i}]");
            assert_eq!(b.read_block(i).unwrap(), vec![0xBB; 512], "b[{i}]");
        }
        let view = p.metadata_view();
        let pa: HashSet<u64> = view.volumes[&1].mappings.values().collect();
        let pb: HashSet<u64> = view.volumes[&2].mappings.values().collect();
        assert_eq!(pa.len(), 256);
        assert_eq!(pb.len(), 256);
        assert!(pa.is_disjoint(&pb), "volumes must never share a physical block");
        assert_eq!(p.allocated_blocks(), 512);
        // A commit taken now persists exactly this cut.
        p.commit().unwrap();
        assert_eq!(p.metadata_view().bitmap.allocated(), 512);
    }

    #[test]
    fn commit_races_with_batched_writers_consistently() {
        // A commit (under the pool lock) must always persist a bitmap that
        // covers every persisted mapping, no matter when it cuts into
        // concurrent writers.
        let (data, meta) = devices(4096, 128);
        let p = Arc::new(
            ThinPool::create(data, meta, PoolConfig::new(8), AllocStrategy::Random).unwrap(),
        );
        let v = p.create_volume(1, 2048).unwrap();
        std::thread::scope(|s| {
            let pool = Arc::clone(&p);
            s.spawn(move || {
                for _ in 0..10 {
                    pool.commit().unwrap();
                }
            });
            let vol = v.clone();
            s.spawn(move || {
                let data = vec![0x5Cu8; 512];
                for round in 0..16u64 {
                    let batch: Vec<(u64, &[u8])> =
                        (0..16).map(|i| (round * 16 + i, data.as_slice())).collect();
                    vol.write_blocks(&batch).unwrap();
                }
            });
        });
        p.commit().unwrap();
        let view = p.metadata_view();
        for phys in view.volumes[&1].mappings.values() {
            assert!(view.bitmap.get(phys), "mapping at {phys} must be accounted allocated");
        }
    }

    #[test]
    fn stale_handles_error_after_delete_and_allocate_nothing() {
        // A handle opened before delete_volume must not write into, read
        // from or allocate for the deleted volume: a block allocated after
        // the delete released the volume's blocks would leak into the
        // committed bitmap forever.
        let p = pool(AllocStrategy::Sequential);
        let stale = p.create_volume(1, 100).unwrap();
        let buf = vec![1u8; 512];
        stale.write_block(0, &buf).unwrap();
        p.delete_volume(1).unwrap();
        let deleted = |r: Result<(), BlockDeviceError>| {
            assert_eq!(r, Err(BlockDeviceError::Unsupported { what: "volume 1 deleted".into() }));
        };
        deleted(stale.read_block(0).map(drop));
        deleted(stale.read_blocks(&[0, 1]).map(drop));
        deleted(stale.write_block(0, &buf));
        deleted(stale.write_blocks(&[(0, buf.as_slice()), (1, buf.as_slice())]));
        let missing = Err(BlockDeviceError::Unsupported { what: "no volume 1".into() });
        assert_eq!(p.append_blocks(1, &[buf.as_slice()]), missing.clone().map(|()| 0));
        assert_eq!(p.discard_many(1, &[0]), missing);
        assert_eq!(p.append_headroom(1), 0);
        assert_eq!(stale.mapped_blocks(), 0);
        assert_eq!(p.allocated_blocks(), 0, "nothing may stay allocated after the delete");
        p.commit().unwrap();
        assert_eq!(p.allocated_blocks(), 0);
        assert_eq!(p.metadata_view().bitmap.allocated(), 0);
    }

    #[test]
    fn stale_handles_error_after_their_id_is_reused() {
        // A handle kept across delete_volume(1) + create_volume(1, 10)
        // still names the deleted volume, not the new one that took its
        // id: it must not write past the new volume's end or into its
        // blocks, and the committed pool must reopen.
        let (data, meta) = devices(256, 128);
        let p = ThinPool::create(
            data.clone(),
            meta.clone(),
            PoolConfig::new(8),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let stale = p.create_volume(1, 100).unwrap();
        let buf = vec![1u8; 512];
        stale.write_block(0, &buf).unwrap();
        p.delete_volume(1).unwrap();
        let reused = p.create_volume(1, 10).unwrap();
        reused.write_block(0, &[2u8; 512]).unwrap();
        let deleted = |r: Result<(), BlockDeviceError>| {
            assert_eq!(r, Err(BlockDeviceError::Unsupported { what: "volume 1 deleted".into() }));
        };
        deleted(stale.write_block(50, &buf));
        deleted(stale.write_block(0, &buf));
        deleted(stale.write_blocks(&[(1, buf.as_slice()), (50, buf.as_slice())]));
        deleted(stale.read_block(0).map(drop));
        deleted(stale.read_blocks(&[0, 1]).map(drop));
        assert_eq!(stale.mapped_blocks(), 0);
        assert_eq!(stale.mapping(0), None);
        assert_eq!(reused.read_block(0).unwrap(), vec![2u8; 512]);
        assert_eq!(p.mapped_vblocks(1), Some(vec![0]));
        p.commit().unwrap();
        drop((p, stale, reused));

        let p2 =
            ThinPool::open(data, meta, PoolConfig::new(8), AllocStrategy::Sequential, 0).unwrap();
        assert_eq!(p2.mapped_vblocks(1), Some(vec![0]));
        assert_eq!(p2.open_volume(1).unwrap().read_block(0).unwrap(), vec![2u8; 512]);
    }

    #[test]
    fn delete_racing_concurrent_writers_never_leaks() {
        // Writers hammer a volume while it is deleted. Whoever wins each interleaving, every allocated
        // physical block must end up released — the pool accounting
        // always returns to zero.
        for round in 0..8u64 {
            let (data, meta) = devices(512, 128);
            let p = Arc::new(
                ThinPool::create(data, meta, PoolConfig::new(4), AllocStrategy::Sequential)
                    .unwrap(),
            );
            let v = p.create_volume(1, 400).unwrap();
            std::thread::scope(|s| {
                for t in 0..2u64 {
                    let vol = v.clone();
                    s.spawn(move || {
                        let buf = vec![1u8; 512];
                        for i in 0..60u64 {
                            // Errors ("volume deleted", NoSpace) are the
                            // expected outcome once the delete lands.
                            let _ = vol.write_block(t * 60 + i, &buf);
                        }
                    });
                }
                let pool = Arc::clone(&p);
                s.spawn(move || {
                    let _ = pool.delete_volume(1);
                });
            });
            assert_eq!(p.allocated_blocks(), 0, "round {round}: leaked physical blocks");
            p.commit().unwrap();
            assert_eq!(p.metadata_view().bitmap.allocated(), 0, "round {round}: leak committed");
        }
    }

    #[test]
    fn one_block_appends_map_the_lowest_unmapped_index() {
        let p = pool(AllocStrategy::Random);
        p.create_volume(3, 10).unwrap();
        assert_eq!(p.append_blocks(3, &[&[0xAB; 512][..]]).unwrap(), 1);
        assert_eq!(p.append_blocks(3, &[&[0xCD; 512][..]]).unwrap(), 1);
        let v = p.open_volume(3).unwrap();
        assert_eq!(v.read_block(0).unwrap(), vec![0xAB; 512]);
        assert_eq!(v.read_block(1).unwrap(), vec![0xCD; 512]);
        // Fill the rest; the 11th append finds no virtual space and lands
        // nothing.
        for _ in 2..10 {
            assert_eq!(p.append_blocks(3, &[&[0u8; 512][..]]).unwrap(), 1);
        }
        assert_eq!(p.append_headroom(3), 0);
        assert_eq!(p.append_blocks(3, &[&[0u8; 512][..]]).unwrap(), 0);
        assert_eq!(v.mapped_blocks(), 10);
    }

    #[test]
    fn append_blocks_fill_the_lowest_holes_first() {
        // A dummy volume with holes: vblocks 0..12 written, then 2, 5 and 6
        // discarded. A 5-block burst fills 2, 5 and 6, then 12 and 13, and
        // takes the same physical blocks as per-block writes to those
        // vblocks, in that order, on a twin pool.
        let twin = || {
            let (data, meta) = devices(256, 128);
            let p =
                ThinPool::create_seeded(data, meta, PoolConfig::new(8), AllocStrategy::Random, 11)
                    .unwrap();
            let v = p.create_volume(4, 64).unwrap();
            for i in 0..12 {
                v.write_block(i, &vec![0xEE; 512]).unwrap();
            }
            for hole in [2, 5, 6] {
                p.discard(4, hole).unwrap();
            }
            (p, v)
        };
        let (burst_pool, burst_vol) = twin();
        let (ref_pool, ref_vol) = twin();
        let noise: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 512]).collect();
        let refs: Vec<&[u8]> = noise.iter().map(Vec::as_slice).collect();
        assert_eq!(burst_pool.append_blocks(4, &refs).unwrap(), 5);
        for (vblock, data) in [2u64, 5, 6, 12, 13].into_iter().zip(&noise) {
            ref_vol.write_block(vblock, data).unwrap();
            assert_eq!(&burst_vol.read_block(vblock).unwrap(), data, "vblock {vblock}");
        }
        assert_eq!(burst_vol.mapped_blocks(), 14);
        assert_eq!(burst_pool.metadata_view(), ref_pool.metadata_view());
    }

    #[test]
    fn volume_budget_enforced() {
        let (data, meta) = devices(64, 64);
        let p =
            ThinPool::create(data, meta, PoolConfig::new(2), AllocStrategy::Sequential).unwrap();
        p.create_volume(1, 10).unwrap();
        p.create_volume(2, 10).unwrap();
        assert!(p.create_volume(3, 10).is_err());
        assert!(p.create_volume(1, 10).is_err(), "duplicate id");
    }

    #[test]
    fn metadata_view_reflects_live_state() {
        let p = pool(AllocStrategy::Sequential);
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(0, &vec![1u8; 512]).unwrap();
        let view = p.metadata_view();
        assert_eq!(view.mapped_blocks(1), 1);
        assert_eq!(view.bitmap.allocated(), 1);
        assert_eq!(p.volume_ids(), vec![1]);
        assert_eq!(p.volume_mapped_blocks(1), 1);
        v.write_block(42, &vec![2u8; 512]).unwrap();
        v.write_block(17, &vec![3u8; 512]).unwrap();
        assert_eq!(p.mapped_vblocks(1), Some(vec![0, 17, 42]));
        assert_eq!(p.mapped_vblocks(2), None);
    }

    #[test]
    fn open_rejects_geometry_mismatch() {
        let (data, meta) = devices(256, 128);
        let p = ThinPool::create(data, meta.clone(), PoolConfig::new(4), AllocStrategy::Sequential)
            .unwrap();
        p.commit().unwrap();
        drop(p);
        let wrong_data: SharedDevice = Arc::new(MemDisk::with_default_timing(512, 512));
        assert!(matches!(
            ThinPool::open(wrong_data, meta, PoolConfig::new(4), AllocStrategy::Sequential, 0),
            Err(BlockDeviceError::CorruptMetadata { .. })
        ));
    }

    #[test]
    fn open_rejects_blank_device() {
        let (data, meta) = devices(64, 64);
        assert!(
            ThinPool::open(data, meta, PoolConfig::new(4), AllocStrategy::Sequential, 0).is_err()
        );
    }

    #[test]
    fn commit_io_proportional_to_transaction_size() {
        // The seed full-cut bug: committing one mapping rewrote the whole
        // metadata view. With the journal, a one-mapping commit must write
        // a bounded number of metadata blocks regardless of pool history.
        let data: SharedDevice = Arc::new(MemDisk::with_default_timing(4096, 512));
        let meta_disk = Arc::new(MemDisk::with_default_timing(128, 512));
        let p = ThinPool::create_seeded(
            data,
            meta_disk.clone() as SharedDevice,
            PoolConfig::new(4),
            AllocStrategy::Random, // fragmented: the full view is large
            7,
        )
        .unwrap();
        let v = p.create_volume(1, 2048).unwrap();
        let buf = vec![0x11u8; 512];
        for i in 0..512u64 {
            v.write_block(i, &buf).unwrap();
        }
        p.commit().unwrap();

        // One-mapping transaction: journal record + superblock only.
        v.write_block(1500, &buf).unwrap();
        let before = meta_disk.stats();
        p.commit().unwrap();
        let journaled = meta_disk.stats().delta_since(&before);
        assert!(
            journaled.bytes_written() <= 2 * 512,
            "one-mapping commit wrote {} bytes (expected ≤ 2 blocks)",
            journaled.bytes_written()
        );

        // The full cut of the same pool is an order of magnitude bigger.
        let before = meta_disk.stats();
        p.checkpoint().unwrap();
        let full_cut = meta_disk.stats().delta_since(&before);
        assert!(
            full_cut.bytes_written() >= 8 * journaled.bytes_written(),
            "full cut {} vs journaled {} bytes",
            full_cut.bytes_written(),
            journaled.bytes_written()
        );
    }

    #[test]
    fn journal_overflow_falls_back_to_checkpoint() {
        // Keep committing until the journal region fills: commit() must
        // fold into a checkpoint (journal reset) and every state survives
        // reopen at every step.
        let (data, meta) = devices(256, 64); // journal region: 7 blocks
        let p = ThinPool::create(
            data.clone(),
            meta.clone(),
            PoolConfig::new(4),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let v = p.create_volume(1, 200).unwrap();
        let buf = vec![0x42u8; 512];
        for i in 0..24u64 {
            v.write_block(i, &buf).unwrap();
            p.commit().unwrap();
            let p2 = ThinPool::open(
                data.clone(),
                meta.clone(),
                PoolConfig::new(4),
                AllocStrategy::Sequential,
                0,
            )
            .unwrap();
            assert_eq!(
                p2.volume_mapped_blocks(1),
                i + 1,
                "reopen after commit {i} must see every committed mapping"
            );
        }
    }

    #[test]
    fn journaled_volume_lifecycle_survives_reopen() {
        // Create/delete/re-create inside journaled transactions: replay
        // must reproduce the exact lifecycle, including freed blocks.
        let (data, meta) = devices(256, 128);
        let p = ThinPool::create(
            data.clone(),
            meta.clone(),
            PoolConfig::new(8),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let a = p.create_volume(1, 100).unwrap();
        a.write_block(0, &vec![0xAA; 512]).unwrap();
        a.write_block(1, &vec![0xAB; 512]).unwrap();
        p.commit().unwrap();
        // Delete the committed volume and re-create the id, all in one
        // transaction.
        p.delete_volume(1).unwrap();
        let b = p.create_volume(1, 50).unwrap();
        b.write_block(5, &vec![0xBB; 512]).unwrap();
        p.commit().unwrap();
        drop((p, a, b));

        let p2 = ThinPool::open(
            data.clone(),
            meta.clone(),
            PoolConfig::new(8),
            AllocStrategy::Sequential,
            0,
        )
        .unwrap();
        let v = p2.open_volume(1).unwrap();
        assert_eq!(v.num_blocks(), 50, "replay must surface the re-created volume");
        assert_eq!(v.read_block(5).unwrap(), vec![0xBB; 512]);
        assert_eq!(v.read_block(0).unwrap(), vec![0u8; 512], "old volume's data unmapped");
        assert_eq!(p2.allocated_blocks(), 1, "old volume's blocks freed by replay");
    }

    #[test]
    fn discard_of_committed_mapping_replays_as_free() {
        let (data, meta) = devices(256, 128);
        let p = ThinPool::create(
            data.clone(),
            meta.clone(),
            PoolConfig::new(4),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(3, &vec![1u8; 512]).unwrap();
        v.write_block(4, &vec![2u8; 512]).unwrap();
        p.commit().unwrap();
        p.discard(1, 3).unwrap();
        p.commit().unwrap();
        drop((p, v));
        let p2 =
            ThinPool::open(data, meta, PoolConfig::new(4), AllocStrategy::Sequential, 0).unwrap();
        let v2 = p2.open_volume(1).unwrap();
        assert_eq!(v2.read_block(3).unwrap(), vec![0u8; 512], "discard journaled");
        assert_eq!(v2.read_block(4).unwrap(), vec![2u8; 512]);
        assert_eq!(p2.allocated_blocks(), 1);
    }
}
