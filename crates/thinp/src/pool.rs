//! The thin pool and its volumes.

use crate::allocator::{AllocStrategy, Allocator, RandomAllocator, SequentialAllocator};
use crate::bitmap::Bitmap;
use crate::extent::{Extent, ExtentMap};
use crate::journal::{DeltaOp, JournalConfig, JournalRecord, TransactionManager};
use crate::meta::{encode_payload, MetadataView, Superblock, VolumeMeta};
use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, ReadDest, SharedDevice};
use mobiceal_crypto::sha256;
use mobiceal_sim::{SimClock, SimDuration};
use parking_lot::{Mutex, MutexGuard, RwLock};
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
    virtual_blocks: u64,
    mappings: ExtentMap,
    /// Mapping changes since the last commit, in application order.
    /// Cleared only after a commit has durably landed, so a failed commit
    /// retries the same delta.
    dirty: Vec<MapDelta>,
    /// Tombstone set by [`ThinPool::delete_volume`] under this state's
    /// lock. A caller that cloned the handle out of the directory *before*
    /// the delete must observe it after locking: without the flag, a
    /// racing writer could allocate a fresh physical block into the
    /// orphaned state after the delete drained it, and that block would
    /// leak into the committed bitmap forever. (The old single pool lock
    /// made exists-check and allocation atomic; the flag restores that.)
    deleted: bool,
}

impl VolumeState {
    /// Tombstone guard for pool-level APIs (their wording on a missing
    /// volume).
    fn check_live_pool(&self, id: VolumeId) -> Result<(), BlockDeviceError> {
        if self.deleted {
            Err(BlockDeviceError::Unsupported { what: format!("no volume {id}") })
        } else {
            Ok(())
        }
    }

    /// Tombstone guard for [`ThinVolume`] I/O paths (their wording for a
    /// handle that outlived its volume).
    fn check_live_volume(&self, id: VolumeId) -> Result<(), BlockDeviceError> {
        if self.deleted {
            Err(BlockDeviceError::Unsupported { what: format!("volume {id} deleted") })
        } else {
            Ok(())
        }
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

/// One volume's mapping state behind its own lock: two volumes map batches
/// concurrently, contending only on the allocator when they need fresh
/// physical blocks.
type VolumeHandle = Arc<Mutex<VolumeState>>;

/// The allocator/metadata half of the old single pool lock.
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
}

/// The pool state shared by the pool object and every volume handle.
///
/// # Lock order
///
/// `directory` → volume locks (ascending id when several are held) →
/// `alloc`. `read_overhead` is a leaf: it is never held across another
/// acquisition. Every path in this file follows that order, so the split
/// locks cannot deadlock.
struct PoolShared {
    /// Which volumes exist. Read-locked by every I/O (a `BTreeMap` lookup
    /// plus an `Arc` clone), write-locked only by create/delete — so
    /// volume lifetime changes still serialize, but steady-state I/O on
    /// different volumes proceeds in parallel.
    directory: RwLock<BTreeMap<VolumeId, VolumeHandle>>,
    /// Allocator, committed bitmap and open-transaction bookkeeping.
    alloc: Mutex<AllocState>,
    /// Optional per-read mapping-lookup cost. Real dm-thin walks a btree on
    /// the read path (the paper measures ~18 % sequential-read overhead
    /// from the thin layer, Fig. 4); the write path amortises its btree
    /// updates into the commit.
    read_overhead: RwLock<Option<(SimClock, SimDuration)>>,
}

impl PoolShared {
    /// Looks up a volume handle, erroring like the legacy single-lock code
    /// did for deleted/unknown volumes.
    fn volume(&self, id: VolumeId) -> Result<VolumeHandle, BlockDeviceError> {
        self.directory
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| BlockDeviceError::Unsupported { what: format!("no volume {id}") })
    }

    /// Charges the configured thin-lookup cost for `lookups` volume reads,
    /// mapped or not, in one clock advance.
    fn charge_read_overhead(&self, lookups: usize) {
        if let Some((clock, cost)) = self.read_overhead.read().as_ref() {
            clock.advance(*cost * lookups as u64);
        }
    }
}

/// A thin-provisioning pool over a data device and a metadata device.
///
/// See the crate docs for the role this plays in MobiCeal. All mutation is
/// internally synchronised; clones of volume handles may be used from
/// multiple threads. Since the lock split, synchronisation is sharded: an
/// allocator/metadata lock plus one mapping lock per volume, so volumes
/// serve I/O concurrently (see [`PoolShared`] for the lock order).
pub struct ThinPool {
    shared: Arc<PoolShared>,
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
            shared: Arc::new(PoolShared {
                directory: RwLock::new(BTreeMap::new()),
                alloc: Mutex::new(AllocState::new(
                    Bitmap::new(data.num_blocks()),
                    make_allocator(strategy, seed),
                )),
                read_overhead: RwLock::new(None),
            }),
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
        let volumes = view
            .volumes
            .into_iter()
            .map(|(id, v)| {
                (
                    id,
                    Arc::new(Mutex::new(VolumeState {
                        virtual_blocks: v.virtual_blocks,
                        mappings: v.mappings,
                        dirty: Vec::new(),
                        deleted: false,
                    })),
                )
            })
            .collect();
        Ok(ThinPool {
            shared: Arc::new(PoolShared {
                directory: RwLock::new(volumes),
                alloc: Mutex::new(AllocState {
                    transaction_id: sb.transaction_id,
                    active_half: sb.active_half,
                    journal_used: sb.journal_blocks,
                    checkpoint_txid: sb.checkpoint_txid,
                    checkpoint_payload_len: sb.payload_len,
                    checkpoint_digest: sb.payload_digest,
                    ..AllocState::new(view.bitmap, make_allocator(strategy, seed))
                }),
                read_overhead: RwLock::new(None),
            }),
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
    /// Holds the directory, every volume lock (in ascending id order) and
    /// the allocator lock for the duration: a commit is a global barrier,
    /// so the persisted bitmap and mapping tables are one consistent cut —
    /// a mapping never references a physical block the persisted bitmap
    /// does not account for.
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
        let directory = self.shared.directory.read();
        // BTreeMap iteration is ascending by id — the canonical volume
        // lock order.
        let mut volumes: Vec<(VolumeId, MutexGuard<'_, VolumeState>)> =
            directory.iter().map(|(&id, handle)| (id, handle.lock())).collect();
        let mut alloc = self.shared.alloc.lock();
        let mut ops: Vec<DeltaOp> = alloc.meta_ops.clone();
        for (id, vol) in volumes.iter() {
            Self::coalesce_deltas(*id, &vol.dirty, &mut ops);
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
                alloc.journal_used = new_used;
            }
            // Journal full (or record larger than the region): fold the
            // whole state into a fresh checkpoint and reset the journal.
            Err(BlockDeviceError::NoSpace) => {
                self.checkpoint_locked(&volumes, &mut alloc)?;
            }
            Err(e) => return Err(e),
        }
        Self::finish_commit(&mut volumes, &mut alloc);
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
        let directory = self.shared.directory.read();
        let mut volumes: Vec<(VolumeId, MutexGuard<'_, VolumeState>)> =
            directory.iter().map(|(&id, handle)| (id, handle.lock())).collect();
        let mut alloc = self.shared.alloc.lock();
        self.checkpoint_locked(&volumes, &mut alloc)?;
        Self::finish_commit(&mut volumes, &mut alloc);
        Ok(())
    }

    /// The full-cut path, under the commit barrier's locks. On success the
    /// superblock names the new half with an empty journal; the caller
    /// still runs [`ThinPool::finish_commit`].
    fn checkpoint_locked(
        &self,
        volumes: &[(VolumeId, MutexGuard<'_, VolumeState>)],
        alloc: &mut AllocState,
    ) -> Result<(), BlockDeviceError> {
        let mut payload = Vec::new();
        encode_payload(
            alloc.transaction_id + 1,
            &alloc.live_bitmap(),
            volumes.iter().map(|(id, v)| (*id, v.virtual_blocks, &v.mappings)),
            &mut payload,
        );
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
    fn finish_commit(
        volumes: &mut [(VolumeId, MutexGuard<'_, VolumeState>)],
        alloc: &mut AllocState,
    ) {
        alloc.transaction_id += 1;
        for (_, vol) in volumes.iter_mut() {
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
        let mut directory = self.shared.directory.write();
        if directory.len() as u32 >= self.config.max_volumes {
            return Err(BlockDeviceError::Unsupported {
                what: format!("pool limited to {} volumes", self.config.max_volumes),
            });
        }
        if directory.contains_key(&id) {
            return Err(BlockDeviceError::Unsupported { what: format!("volume {id} exists") });
        }
        directory.insert(
            id,
            Arc::new(Mutex::new(VolumeState {
                virtual_blocks,
                mappings: ExtentMap::new(),
                dirty: Vec::new(),
                deleted: false,
            })),
        );
        // Record the lifecycle event for the journal (directory write lock
        // → alloc is the canonical order).
        self.shared.alloc.lock().meta_ops.push(DeltaOp::CreateVolume { id, virtual_blocks });
        drop(directory);
        Ok(self.volume_handle(id, virtual_blocks))
    }

    /// Opens an existing volume.
    ///
    /// # Errors
    ///
    /// Fails if the volume does not exist.
    pub fn open_volume(&self, id: VolumeId) -> Result<ThinVolume, BlockDeviceError> {
        let handle = self.shared.volume(id)?;
        let virtual_blocks = {
            let vol = handle.lock();
            vol.check_live_pool(id)?;
            vol.virtual_blocks
        };
        Ok(self.volume_handle(id, virtual_blocks))
    }

    /// Deletes a volume, releasing its physical blocks.
    ///
    /// # Errors
    ///
    /// Fails if the volume does not exist.
    pub fn delete_volume(&self, id: VolumeId) -> Result<(), BlockDeviceError> {
        let handle = self
            .shared
            .directory
            .write()
            .remove(&id)
            .ok_or_else(|| BlockDeviceError::Unsupported { what: format!("no volume {id}") })?;
        // Tombstone + drain under the volume lock: a writer that cloned
        // the handle before the directory removal either finished its
        // mapping pass (its blocks are drained and released here) or will
        // observe `deleted` and error before allocating.
        let blocks: Vec<u64> = {
            let mut vol = handle.lock();
            vol.deleted = true;
            // The volume's pending deltas die with it: the journaled
            // DeleteVolume removes the whole volume on replay, and only
            // *committed* blocks produce Free ops (via `release`).
            vol.dirty.clear();
            std::mem::take(&mut vol.mappings).values().collect()
        };
        let mut alloc = self.shared.alloc.lock();
        alloc.meta_ops.push(DeltaOp::DeleteVolume { id });
        for p in blocks {
            alloc.release(p);
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
        let alloc = self.shared.alloc.lock();
        alloc.bitmap.allocated() + alloc.open_allocation_count()
    }

    /// Free physical blocks: those an allocation can take now. Blocks
    /// freed in the open transaction count only once their free commits.
    pub fn free_blocks(&self) -> u64 {
        self.shared.alloc.lock().allocatable()
    }

    /// The pool's volume budget.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Charges `cost` on `clock` for every volume block read, mapped or
    /// not, modelling dm-thin's mapping-btree lookups on the read path.
    pub fn set_read_overhead(&self, clock: SimClock, cost: SimDuration) {
        *self.shared.read_overhead.write() = Some((clock, cost));
    }

    /// Data-device geometry: block size in bytes.
    pub fn block_size(&self) -> usize {
        self.data.block_size()
    }

    /// The decoded metadata exactly as an adversary with device access would
    /// recover it (current in-memory transaction). Takes the same
    /// directory → volumes → allocator cut as [`ThinPool::commit`], so the
    /// view is consistent even while other threads write.
    pub fn metadata_view(&self) -> MetadataView {
        let directory = self.shared.directory.read();
        let volumes: Vec<(VolumeId, parking_lot::MutexGuard<'_, VolumeState>)> =
            directory.iter().map(|(&id, handle)| (id, handle.lock())).collect();
        let alloc = self.shared.alloc.lock();
        MetadataView {
            transaction_id: alloc.transaction_id,
            bitmap: alloc.live_bitmap(),
            volumes: volumes
                .iter()
                .map(|(id, v)| {
                    (
                        *id,
                        VolumeMeta {
                            id: *id,
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
        self.shared.directory.read().keys().copied().collect()
    }

    /// The virtual blocks volume `id` maps, ascending, read under that
    /// volume's lock alone (`None` if the volume does not exist).
    pub fn mapped_vblocks(&self, id: VolumeId) -> Option<Vec<u64>> {
        let handle = self.shared.directory.read().get(&id).cloned()?;
        let vol = handle.lock();
        (!vol.deleted).then(|| vol.mappings.keys().collect())
    }

    /// Physical blocks mapped by volume `id` (0 if absent).
    pub fn volume_mapped_blocks(&self, id: VolumeId) -> u64 {
        match self.shared.directory.read().get(&id) {
            Some(handle) => handle.lock().mappings.len() as u64,
            None => 0,
        }
    }

    /// How many more blocks [`ThinPool::append_blocks`] can currently land
    /// in volume `id`: the smaller of the pool's free space and the
    /// volume's unmapped virtual space (0 if the volume does not exist).
    pub fn append_headroom(&self, id: VolumeId) -> u64 {
        let Ok(handle) = self.shared.volume(id) else {
            return 0;
        };
        let vol = handle.lock();
        if vol.deleted {
            return 0;
        }
        let volume_free = vol.virtual_blocks - vol.mappings.len() as u64;
        self.shared.alloc.lock().allocatable().min(volume_free)
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
        let handle = self.shared.volume(id)?;
        let mut writes: Vec<(BlockIndex, &[u8])> = Vec::with_capacity(blocks.len());
        let mut staged: Vec<(u64, u64)> = Vec::with_capacity(blocks.len()); // (vblock, p)
        {
            let mut vol = handle.lock();
            vol.check_live_pool(id)?;
            let virtual_blocks = vol.virtual_blocks;
            // Walk the lowest unmapped virtual indices, allocating as we go;
            // each step resumes at the block just mapped.
            let mut vblock = 0u64;
            for &data in blocks {
                vblock = vol.mappings.first_unmapped_from(vblock);
                if vblock >= virtual_blocks {
                    break; // volume virtual space exhausted: drop the rest
                }
                let Ok(p) = Self::allocate_one(&self.shared) else {
                    break; // pool exhausted: drop the rest
                };
                vol.map(vblock, p);
                staged.push((vblock, p));
                writes.push((p, data));
            }
        }
        if let Err(e) = self.data.write_blocks(&writes) {
            Self::rollback_staged(&self.shared, id, &staged);
            return Err(e);
        }
        Ok(writes.len() as u64)
    }

    /// Removes mappings staged by a failed vectored write and releases
    /// their (uncommitted) physical reservations. Without this, a mid-batch
    /// device failure would leave virtual blocks pointing at physical
    /// blocks whose data never landed — reads would then expose whatever
    /// stale bytes sit there. (Volume lock first, allocator lock after —
    /// the canonical order.)
    ///
    /// A physical block is released only if this call actually removed its
    /// mapping: if a concurrent `delete_volume` already drained the volume
    /// (handle gone or tombstoned), the delete released the block, and
    /// releasing it again here could steal a reservation another volume
    /// acquired in the meantime.
    fn rollback_staged(shared: &Arc<PoolShared>, id: VolumeId, staged: &[(u64, u64)]) {
        let mut unstaged: Vec<u64> = Vec::with_capacity(staged.len());
        if let Ok(handle) = shared.volume(id) {
            let mut vol = handle.lock();
            for &(vblock, p) in staged {
                if vol.mappings.get(&vblock) == Some(p) {
                    vol.unmap(vblock);
                    unstaged.push(p);
                }
            }
        }
        let mut alloc = shared.alloc.lock();
        for p in unstaged {
            alloc.release(p);
        }
    }

    /// Vectored [`ThinPool::discard`]: releases the physical blocks backing
    /// many virtual blocks of one volume under a single acquisition of that
    /// volume's mapping lock. Unmapped entries are no-ops, exactly like the
    /// single-block form.
    ///
    /// # Errors
    ///
    /// Fails if the volume does not exist.
    pub fn discard_many(&self, id: VolumeId, vblocks: &[u64]) -> Result<(), BlockDeviceError> {
        let handle = self.shared.volume(id)?;
        let freed: Vec<u64> = {
            let mut vol = handle.lock();
            vol.check_live_pool(id)?;
            vblocks.iter().filter_map(|&v| vol.unmap(v)).collect()
        };
        let mut alloc = self.shared.alloc.lock();
        for p in freed {
            alloc.release(p);
        }
        Ok(())
    }

    /// Allocates one fresh physical block under the allocator lock. The
    /// caller holds the owning volume's lock, so two volumes allocating
    /// concurrently contend only for the duration of this call.
    fn allocate_one(shared: &PoolShared) -> Result<u64, BlockDeviceError> {
        let mut alloc = shared.alloc.lock();
        let AllocState { bitmap, allocator, reserved, .. } = &mut *alloc;
        // `reserved` also holds the blocks freed in the open transaction
        // (see `AllocState::pending_free`), so they stay off-limits until
        // their free commits with no per-allocation union of the two.
        let block = allocator.allocate(bitmap, reserved).ok_or(BlockDeviceError::NoSpace)?;
        debug_assert!(!bitmap.get(block), "allocator returned a committed block");
        let newly = reserved.set(block);
        debug_assert!(newly, "allocator returned a reserved block or a pending free");
        Ok(block)
    }

    fn volume_handle(&self, id: VolumeId, virtual_blocks: u64) -> ThinVolume {
        ThinVolume { shared: Arc::clone(&self.shared), data: self.data.clone(), id, virtual_blocks }
    }
}

/// A thin volume: a [`BlockDevice`] whose physical blocks are allocated on
/// first write from the pool's shared free space.
///
/// Each volume's mapping table sits behind its own lock, so clones of
/// different volumes map batches concurrently; they meet only at the
/// allocator (fresh blocks) and the data device (whose shard locks allow
/// parallel copies).
#[derive(Clone)]
pub struct ThinVolume {
    shared: Arc<PoolShared>,
    data: SharedDevice,
    id: VolumeId,
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

    /// This volume's mapping-lock handle, or the "deleted" error every
    /// I/O path surfaces once the volume is gone.
    fn handle(&self) -> Result<VolumeHandle, BlockDeviceError> {
        self.shared.directory.read().get(&self.id).cloned().ok_or_else(|| {
            BlockDeviceError::Unsupported { what: format!("volume {} deleted", self.id) }
        })
    }

    /// Physical blocks currently mapped.
    pub fn mapped_blocks(&self) -> u64 {
        match self.handle() {
            Ok(handle) => handle.lock().mappings.len() as u64,
            Err(_) => 0,
        }
    }

    /// The physical block backing `vblock`, if mapped.
    pub fn mapping(&self, vblock: u64) -> Option<u64> {
        self.handle().ok().and_then(|h| h.lock().mappings.get(&vblock))
    }

    /// Vectored [`ThinVolume::mapping`]: resolves many virtual blocks under
    /// one acquisition of the volume's mapping lock. Out-of-range indices
    /// resolve to `None`.
    pub fn mappings_many(&self, vblocks: &[u64]) -> Vec<Option<u64>> {
        match self.handle() {
            Ok(handle) => {
                let vol = handle.lock();
                vblocks.iter().map(|v| vol.mappings.get(v)).collect()
            }
            Err(_) => vec![None; vblocks.len()],
        }
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
        let handle = self.handle()?;
        let mapping = {
            let vol = handle.lock();
            vol.check_live_volume(self.id)?;
            vol.mappings.get(&index)
        };
        self.shared.charge_read_overhead(1);
        match mapping {
            Some(p) => self.data.read_block(p),
            // Unmapped thin blocks read as zeros without touching the medium.
            None => Ok(vec![0u8; self.data.block_size()]),
        }
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.check_index(index)?;
        self.check_buffer(data)?;
        let handle = self.handle()?;
        let (physical, fresh) = {
            let mut vol = handle.lock();
            vol.check_live_volume(self.id)?;
            match vol.mappings.get(&index) {
                Some(p) => (p, false),
                None => {
                    let p = ThinPool::allocate_one(&self.shared)?;
                    vol.map(index, p);
                    (p, true)
                }
            }
        };
        if let Err(e) = self.data.write_block(physical, data) {
            // Never leave a fresh mapping pointing at storage whose data
            // did not land (reads would expose stale bytes).
            if fresh {
                ThinPool::rollback_staged(&self.shared, self.id, &[(index, physical)]);
            }
            return Err(e);
        }
        Ok(())
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        mobiceal_blockdev::read_blocks_owned(self, indices)
    }

    /// Batched read: resolves every mapping under **one** acquisition of
    /// this volume's mapping lock (charging the per-lookup read overhead
    /// exactly as the single-block path does), then issues one vectored
    /// read on the data device for the mapped blocks, into `dest`, and
    /// spreads them out around zero blocks for the unmapped ones. Other
    /// volumes' batches resolve concurrently.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        mut dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        let bad = indices.iter().position(|&i| i >= self.virtual_blocks);
        let valid = &indices[..bad.unwrap_or(indices.len())];
        let handle = self.handle()?;
        let mappings: Vec<Option<u64>> = {
            let vol = handle.lock();
            vol.check_live_volume(self.id)?;
            valid.iter().map(|index| vol.mappings.get(index)).collect()
        };
        self.shared.charge_read_overhead(valid.len());
        let physical: Vec<u64> = mappings.iter().filter_map(|m| *m).collect();
        let mark = dest.mark();
        self.data.read_blocks_to(&physical, dest.reborrow())?;
        if let Some(pos) = bad {
            dest.truncate(mark);
            return Err(BlockDeviceError::OutOfRange {
                index: indices[pos],
                num_blocks: self.virtual_blocks,
            });
        }
        dest.fill_holes(mark, self.data.block_size(), mappings.iter().map(Option::is_some))
    }

    /// Batched write: resolves or allocates every mapping under **one**
    /// acquisition of this volume's mapping lock (consuming the allocator
    /// stream in batch order, exactly as the sequential loop would), then
    /// issues one vectored write on the data device. Two volumes run this
    /// concurrently, interleaving only on the allocator lock. On pool
    /// exhaustion mid-batch the already-mapped prefix is written before
    /// the error surfaces, preserving sequential fail-fast semantics; on a
    /// *device* error the mappings freshly allocated by this call are
    /// rolled back so no virtual block points at a physical block whose
    /// data never landed.
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        let mut staged: Vec<(BlockIndex, &[u8])> = Vec::with_capacity(writes.len());
        let mut fresh: Vec<(u64, u64)> = Vec::new(); // (vblock, p) allocated here
        let mut first_error = None;
        let handle = self.handle()?;
        {
            let mut vol = handle.lock();
            vol.check_live_volume(self.id)?;
            for &(index, data) in writes {
                if let Err(e) = self.check_index(index).and_then(|()| self.check_buffer(data)) {
                    first_error = Some(e);
                    break;
                }
                let physical = match vol.mappings.get(&index) {
                    Some(p) => p,
                    None => match ThinPool::allocate_one(&self.shared) {
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
        }
        if let Err(e) = self.data.write_blocks(&staged) {
            ThinPool::rollback_staged(&self.shared, self.id, &fresh);
            return Err(e);
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
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
                    let alloc = p.shared.alloc.lock();
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
        // The split locks: both volumes' mapping passes run from separate
        // threads. Whatever the interleaving, the physical blocks stay
        // disjoint, both volumes read back their own data, and the pool's
        // accounting matches the per-volume sums.
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
        // The commit barrier (all volume locks + allocator) must always
        // persist a bitmap that covers every persisted mapping, no matter
        // when it cuts into concurrent writers.
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
    fn delete_tombstone_blocks_stale_handles() {
        // The race the tombstone closes: a writer resolved its volume
        // handle from the directory *before* delete_volume landed. The
        // deleted flag — set and drained under the volume's own lock —
        // must stop it from allocating into the orphaned state (which
        // would leak the block into the committed bitmap forever).
        let p = pool(AllocStrategy::Sequential);
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(0, &vec![1u8; 512]).unwrap();
        let stale = p.shared.volume(1).unwrap(); // the pre-delete handle
        p.delete_volume(1).unwrap();
        {
            let vol = stale.lock();
            assert!(vol.deleted, "tombstone set under the volume lock");
            assert!(vol.mappings.is_empty(), "mappings drained by delete");
            assert!(vol.check_live_pool(1).is_err());
            assert!(vol.check_live_volume(1).is_err());
        }
        // Every public path errors and allocates nothing.
        assert!(v.write_block(0, &vec![1u8; 512]).is_err());
        assert!(v.write_blocks(&[(0, &vec![1u8; 512][..])]).is_err());
        assert!(v.read_block(0).is_err());
        assert!(p.append_blocks(1, &[&vec![1u8; 512][..]]).is_err());
        assert_eq!(p.append_headroom(1), 0);
        assert_eq!(p.allocated_blocks(), 0, "nothing may leak past the tombstone");
        p.commit().unwrap();
        assert_eq!(p.metadata_view().bitmap.allocated(), 0);
    }

    #[test]
    fn delete_racing_concurrent_writers_never_leaks() {
        // Stress the same race end-to-end: writers hammer a volume while
        // it is deleted. Whoever wins each interleaving, every allocated
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
    fn mappings_many_matches_single_lookups() {
        let p = pool(AllocStrategy::Random);
        let v = p.create_volume(1, 100).unwrap();
        v.write_block(3, &vec![1u8; 512]).unwrap();
        v.write_block(7, &vec![2u8; 512]).unwrap();
        let batch = v.mappings_many(&[3, 4, 7, 200]);
        assert_eq!(batch[0], v.mapping(3));
        assert_eq!(batch[1], None);
        assert_eq!(batch[2], v.mapping(7));
        assert_eq!(batch[3], None, "out of range resolves to None");
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
