//! [`MemDisk`]: the RAM-backed simulated eMMC device.
//!
//! # Concurrency architecture
//!
//! One mutex guards everything a command reads or changes: the medium's
//! bytes, the sequential/random classification (`last_block`), fault
//! injection, the op counter, the [`DeviceStats`] and the count of
//! registered host-queue slots. A batch takes it once, then classifies,
//! fault-checks, charges and copies every block before releasing it, so
//! batches from different threads apply whole and in some serial order,
//! and a snapshot is always a point-in-time cut. The [`SimClock`] is
//! advanced under the same lock.
//!
//! **Queue depth** has one source: the slots registered with
//! [`BlockDevice::host_queue_enter`], which a submission/completion
//! engine (`mobiceal_blockdev::engine`) holds for every
//! queued-but-unexecuted ring slot. A command is charged
//! [`CostModel::batch_cost_at_depth`] at depth `1 +` the registrations
//! held when it takes the lock (saturating at the profile's hardware
//! queue depth), so its depth is the ring occupancy it overlaps with. A
//! command without a ring charges depth 1, the pre-CQE cost bit for bit,
//! however many threads call the disk.

use crate::device::{read_blocks_owned, BlockDevice, BlockDeviceError, BlockIndex, ReadDest};
use crate::snapshot::DiskSnapshot;
use crate::stats::DeviceStats;
use mobiceal_sim::{CostModel, EmmcCostModel, OpKind, SimClock, SimDuration};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Fault-injection configuration: force specific blocks to fail.
///
/// Used by failure-path tests ("what happens when the medium dies under the
/// thin pool / under MobiCeal metadata?").
#[derive(Debug, Clone, Default)]
pub struct FaultInjection {
    /// Blocks whose reads fail.
    pub failing_reads: HashSet<BlockIndex>,
    /// Blocks whose writes fail.
    pub failing_writes: HashSet<BlockIndex>,
    /// Fail every operation after this many total ops (simulates device
    /// death). `None` disables.
    pub die_after_ops: Option<u64>,
}

/// Bytes per allocation of the medium. glibc's malloc maps every
/// allocation over 32 MiB fresh, so a large disk held in one buffer is
/// faulted in page by page every time one is made; buffers this size come
/// back from the heap when a dropped disk's memory is reused.
const CHUNK_BYTES: usize = 1 << 20;

/// Everything a command reads or changes, behind the disk's one lock.
struct DiskState {
    /// The medium, `chunk_blocks` contiguous blocks per buffer (the last
    /// buffer may hold fewer).
    chunks: Vec<Vec<u8>>,
    chunk_blocks: usize,
    block_size: usize,
    last_block: Option<BlockIndex>,
    faults: FaultInjection,
    total_ops: u64,
    stats: DeviceStats,
    /// Host-queue slots registered and not yet released
    /// ([`BlockDevice::host_queue_enter`]).
    queued: usize,
}

impl DiskState {
    /// The queue depth a command executing now is charged at: itself plus
    /// every registered host-queue slot.
    fn depth(&self) -> usize {
        1 + self.queued
    }

    fn block(&self, index: BlockIndex) -> &[u8] {
        let (chunk, offset) = self.locate(index);
        &self.chunks[chunk][offset..offset + self.block_size]
    }

    fn block_mut(&mut self, index: BlockIndex) -> &mut [u8] {
        let (chunk, offset) = self.locate(index);
        &mut self.chunks[chunk][offset..offset + self.block_size]
    }

    /// The buffer holding block `index` and the block's offset in it.
    fn locate(&self, index: BlockIndex) -> (usize, usize) {
        let index = index as usize;
        (index / self.chunk_blocks, (index % self.chunk_blocks) * self.block_size)
    }
}

/// An in-memory block device with eMMC timing, statistics, snapshots and
/// fault injection.
///
/// Cloning the wrapper is cheap and shares the same underlying storage
/// (mirroring how multiple dm targets can open one kernel block device).
///
/// # Example
///
/// ```
/// use mobiceal_blockdev::{BlockDevice, MemDisk};
/// use mobiceal_sim::SimClock;
///
/// let clock = SimClock::new();
/// let disk = MemDisk::new(64, 4096, clock.clone());
/// disk.write_block(0, &vec![1u8; 4096])?;
/// assert!(clock.now().as_nanos() > 0, "writes consume simulated time");
/// # Ok::<(), mobiceal_blockdev::BlockDeviceError>(())
/// ```
#[derive(Clone)]
pub struct MemDisk {
    state: Arc<Mutex<DiskState>>,
    num_blocks: u64,
    block_size: usize,
    clock: SimClock,
    cost: Arc<dyn CostModel>,
}

impl std::fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDisk")
            .field("num_blocks", &self.num_blocks)
            .field("block_size", &self.block_size)
            .finish_non_exhaustive()
    }
}

impl MemDisk {
    /// Creates a disk with Nexus 4 eMMC timing on `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks == 0` or `block_size == 0`.
    pub fn new(num_blocks: u64, block_size: usize, clock: SimClock) -> Self {
        Self::with_cost_model(num_blocks, block_size, clock, Arc::new(EmmcCostModel::nexus4()))
    }

    /// Creates a disk with Nexus 4 timing and a private clock — convenient
    /// for tests that do not inspect time.
    pub fn with_default_timing(num_blocks: u64, block_size: usize) -> Self {
        Self::new(num_blocks, block_size, SimClock::new())
    }

    /// Creates a disk with an explicit cost model.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks == 0` or `block_size == 0`.
    pub fn with_cost_model(
        num_blocks: u64,
        block_size: usize,
        clock: SimClock,
        cost: Arc<dyn CostModel>,
    ) -> Self {
        assert!(num_blocks > 0, "device must have at least one block");
        assert!(block_size > 0, "block size must be positive");
        #[expect(
            clippy::expect_used,
            reason = "constructor-time geometry guard beside the asserts above; fails at set-up, never on the I/O path"
        )]
        let count = usize::try_from(num_blocks)
            .ok()
            .filter(|n| n.checked_mul(block_size).is_some())
            .expect("device too large for memory simulation");
        let chunk_blocks = (CHUNK_BYTES / block_size).max(1);
        let chunks = (0..count)
            .step_by(chunk_blocks)
            .map(|first| vec![0u8; (count - first).min(chunk_blocks) * block_size])
            .collect();
        MemDisk {
            state: Arc::new(Mutex::new(DiskState {
                chunks,
                chunk_blocks,
                block_size,
                last_block: None,
                faults: FaultInjection::default(),
                total_ops: 0,
                stats: DeviceStats::default(),
                queued: 0,
            })),
            num_blocks,
            block_size,
            clock,
            cost,
        }
    }

    /// The clock this disk charges time to.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Snapshot of the I/O statistics.
    pub fn stats(&self) -> DeviceStats {
        self.state.lock().stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&self) {
        self.state.lock().stats = DeviceStats::default();
    }

    /// Installs a fault-injection configuration.
    pub fn set_faults(&self, faults: FaultInjection) {
        self.state.lock().faults = faults;
    }

    /// Replaces the entire medium with `image` without charging simulated
    /// time or touching statistics — the crash harness's "reboot from a
    /// captured power-cut image" primitive.
    ///
    /// # Panics
    ///
    /// Panics if the image's geometry differs from the device's.
    pub fn load_image(&self, image: &DiskSnapshot) {
        assert_eq!(image.block_size(), self.block_size, "image block size mismatch");
        assert_eq!(image.num_blocks(), self.num_blocks, "image block count mismatch");
        let mut rest = image.as_bytes();
        for chunk in &mut self.state.lock().chunks {
            let (head, tail) = rest.split_at(chunk.len());
            chunk.copy_from_slice(head);
            rest = tail;
        }
    }

    /// Takes a bit-exact image of the medium — what the paper's
    /// multi-snapshot adversary captures at a checkpoint (§III-A).
    pub fn snapshot(&self) -> DiskSnapshot {
        let bytes = self.state.lock().chunks.concat();
        DiskSnapshot::new(self.block_size, self.num_blocks, bytes)
    }

    /// Overwrites the whole medium with the given byte (e.g. secure wipe).
    pub fn fill(&self, byte: u8) {
        for chunk in &mut self.state.lock().chunks {
            chunk.fill(byte);
        }
    }

    /// Overwrites the whole medium with caller-provided content generator
    /// (used for the initialization step that fills the disk with
    /// randomness). A full-disk fill is the most amortizable transfer a
    /// real device sees — one maximal sequential write extent — so it is
    /// charged as a single multi-block command, like any other batch.
    /// Like every command it runs under the disk's one lock, so a
    /// concurrent observer sees the fill all-or-nothing.
    pub fn fill_with(&self, mut gen: impl FnMut(&mut [u8])) {
        let bs = self.block_size;
        let mut st = self.state.lock();
        let depth = st.depth();
        let mut command = (0usize, SimDuration::ZERO);
        let mut total = SimDuration::ZERO;
        for _ in 0..self.num_blocks {
            let t = self.batch_charge(OpKind::SequentialWrite, &mut command, depth);
            total += t;
            st.stats.record(OpKind::SequentialWrite, bs, t);
        }
        self.clock.advance(total);
        st.last_block = Some(self.num_blocks - 1);
        for block in st.chunks.iter_mut().flat_map(|chunk| chunk.chunks_mut(bs)) {
            gen(block);
        }
    }

    fn classify(last: Option<BlockIndex>, index: BlockIndex, write: bool) -> OpKind {
        let sequential = matches!(last, Some(prev) if index == prev + 1);
        match (write, sequential) {
            (false, true) => OpKind::SequentialRead,
            (false, false) => OpKind::RandomRead,
            (true, true) => OpKind::SequentialWrite,
            (true, false) => OpKind::RandomWrite,
        }
    }

    /// Incremental coster for one batched call: the blocks of a
    /// `read_blocks`/`write_blocks` batch merge into at most two simulated
    /// multi-block commands — one for the sequentially-merging blocks
    /// (CMD23 + CMD25/CMD18) and one packed command for the scattered rest —
    /// so each command's setup is charged once per batch instead of once
    /// per block, and (on queue-capable profiles) the command's latency
    /// overlaps the other `depth - 1` commands in flight. Each block's
    /// marginal charge telescopes, so the per-block times recorded in the
    /// statistics sum exactly to [`CostModel::batch_cost_at_depth`] per
    /// command, and a model without amortization (the default
    /// `batch_cost`, or `flat()`) driven at depth 1 reproduces the
    /// sequential loop's charges bit for bit.
    /// Each command tracks `(blocks so far, cumulative cost so far)` so the
    /// marginal charge needs one cost-model evaluation per block.
    fn batch_charge(
        &self,
        op: OpKind,
        command: &mut (usize, SimDuration),
        depth: usize,
    ) -> SimDuration {
        if op == OpKind::Flush {
            return self.cost.cost(OpKind::Flush, 0);
        }
        command.0 += 1;
        let cumulative =
            self.cost.batch_cost_at_depth(op, command.0, command.0 * self.block_size, depth);
        let marginal = cumulative - command.1;
        command.1 = cumulative;
        marginal
    }

    fn check_faults(
        st: &mut DiskState,
        index: BlockIndex,
        write: bool,
    ) -> Result<(), BlockDeviceError> {
        st.total_ops += 1;
        if let Some(limit) = st.faults.die_after_ops {
            if st.total_ops > limit {
                return Err(BlockDeviceError::Io {
                    reason: format!("device died after {limit} ops"),
                });
            }
        }
        let failing = if write { &st.faults.failing_writes } else { &st.faults.failing_reads };
        if failing.contains(&index) {
            return Err(BlockDeviceError::Io {
                reason: format!(
                    "injected {} fault at block {index}",
                    if write { "write" } else { "read" }
                ),
            });
        }
        Ok(())
    }

    /// Plans one batch under the disk lock: classifies, fault-checks and
    /// charges every block (at the current queue depth) until the first
    /// error, advancing the clock by the telescoped total. Returns how
    /// many blocks passed (the prefix the caller then copies, still under
    /// the lock) and the first error, if any.
    fn plan_batch<'a>(
        &self,
        st: &mut DiskState,
        blocks: impl Iterator<Item = (BlockIndex, Option<&'a [u8]>)>,
        write: bool,
    ) -> (usize, Result<(), BlockDeviceError>) {
        let depth = st.depth();
        let (mut seq, mut rand) = ((0, SimDuration::ZERO), (0, SimDuration::ZERO));
        let mut total = SimDuration::ZERO;
        let mut planned = 0usize;
        let mut result = Ok(());
        for (index, data) in blocks {
            let check = self
                .check_index(index)
                .and_then(|()| data.map_or(Ok(()), |d| self.check_buffer(d)))
                .and_then(|()| Self::check_faults(st, index, write));
            if let Err(e) = check {
                result = Err(e);
                break;
            }
            let op = Self::classify(st.last_block, index, write);
            st.last_block = Some(index);
            let command = match op {
                OpKind::SequentialRead | OpKind::SequentialWrite => &mut seq,
                _ => &mut rand,
            };
            let t = self.batch_charge(op, command, depth);
            total += t;
            st.stats.record(op, self.block_size, t);
            planned += 1;
        }
        self.clock.advance(total);
        (planned, result)
    }

    /// [`BlockDevice::write_blocks`] that also reports how many blocks of
    /// the batch reached the medium: the whole batch on success, the
    /// prefix before the first failing block otherwise.
    pub(crate) fn write_blocks_landed(
        &self,
        writes: &[(BlockIndex, &[u8])],
    ) -> (usize, Result<(), BlockDeviceError>) {
        let mut st = self.state.lock();
        let (planned, result) =
            self.plan_batch(&mut st, writes.iter().map(|&(index, data)| (index, Some(data))), true);
        for &(index, data) in &writes[..planned] {
            st.block_mut(index).copy_from_slice(data);
        }
        (planned, result)
    }
}

impl BlockDevice for MemDisk {
    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        let mut st = self.state.lock();
        self.plan_batch(&mut st, std::iter::once((index, None)), false).1?;
        Ok(st.block(index).to_vec())
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        let mut st = self.state.lock();
        self.plan_batch(&mut st, std::iter::once((index, Some(data))), true).1?;
        st.block_mut(index).copy_from_slice(data);
        Ok(())
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        read_blocks_owned(self, indices)
    }

    /// Batched read: one lock acquisition, one clock advance, and
    /// *amortized multi-command* costing for the whole batch — command
    /// setup is charged once per simulated multi-block command (see
    /// [`MemDisk::batch_charge`]) instead of once per block, and its
    /// latency overlaps other in-flight commands on queue-capable
    /// profiles. Bytes returned, statistics op mix/byte counts, fault
    /// checks and sequential/random classification are identical to
    /// issuing the reads one by one; charged time is less than or equal
    /// to the sequential loop's, with equality for single-block batches
    /// and for cost models without amortization. Each block is copied
    /// once, straight into `dest`. A failed batch charges its planned
    /// prefix and copies nothing.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        mut dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        let mut st = self.state.lock();
        self.plan_batch(&mut st, indices.iter().map(|&index| (index, None)), false).1?;
        dest.reserve(indices.len(), self.block_size);
        for &index in indices {
            dest.push(st.block(index));
        }
        Ok(())
    }

    /// Batched write: one lock acquisition, one clock advance, and
    /// *amortized multi-command* costing for the whole batch (see
    /// [`MemDisk::read_blocks_to`]); otherwise byte- and op-mix-identical
    /// to the equivalent sequence of single-block writes (fail-fast,
    /// prefix persists, the prefix's amortized time is charged).
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.write_blocks_landed(writes).1
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        let t = self.cost.cost(OpKind::Flush, 0);
        let mut st = self.state.lock();
        self.clock.advance(t);
        st.stats.record(OpKind::Flush, 0, t);
        Ok(())
    }

    /// A queued-but-unexecuted command (a submission-engine ring slot)
    /// occupies the host controller: commands that execute while it is
    /// registered overlap it and are charged one queue depth deeper.
    fn host_queue_enter(&self) {
        self.state.lock().queued += 1;
    }

    fn host_queue_leave(&self) {
        let mut st = self.state.lock();
        st.queued = st.queued.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let disk = MemDisk::with_default_timing(16, 512);
        let data = vec![0x5Au8; 512];
        disk.write_block(7, &data).unwrap();
        assert_eq!(disk.read_block(7).unwrap(), data);
        assert_eq!(disk.read_block(6).unwrap(), vec![0u8; 512]);
    }

    #[test]
    fn rejects_out_of_range_and_bad_buffers() {
        let disk = MemDisk::with_default_timing(4, 512);
        assert!(matches!(disk.read_block(4), Err(BlockDeviceError::OutOfRange { index: 4, .. })));
        assert!(matches!(
            disk.write_block(0, &[0u8; 100]),
            Err(BlockDeviceError::WrongBufferSize { got: 100, expected: 512 })
        ));
    }

    #[test]
    fn sequential_vs_random_classification() {
        let clock = SimClock::new();
        let disk = MemDisk::new(64, 4096, clock);
        let buf = vec![0u8; 4096];
        disk.write_block(0, &buf).unwrap(); // first op: random (no predecessor)
        disk.write_block(1, &buf).unwrap(); // sequential
        disk.write_block(2, &buf).unwrap(); // sequential
        disk.write_block(10, &buf).unwrap(); // random
        let s = disk.stats();
        assert_eq!(s.seq_writes.ops, 2);
        assert_eq!(s.rand_writes.ops, 2);
    }

    #[test]
    fn writes_cost_more_time_than_reads() {
        let clock = SimClock::new();
        let disk = MemDisk::new(64, 4096, clock.clone());
        let buf = vec![0u8; 4096];
        let (_, w) = clock.measure(|| disk.write_block(1, &buf).unwrap());
        let (_, r) = clock.measure(|| {
            disk.read_block(2).unwrap();
        });
        assert!(w > r, "write {w} should exceed read {r}");
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let disk = MemDisk::with_default_timing(8, 512);
        disk.write_block(3, &vec![9u8; 512]).unwrap();
        let snap = disk.snapshot();
        disk.write_block(3, &vec![7u8; 512]).unwrap();
        assert_eq!(snap.block(3), &vec![9u8; 512][..]);
        assert_eq!(disk.read_block(3).unwrap(), vec![7u8; 512]);
    }

    #[test]
    fn clone_shares_contents_and_stats() {
        let disk = MemDisk::with_default_timing(8, 512);
        let alias = disk.clone();
        disk.write_block(0, &vec![1u8; 512]).unwrap();
        assert_eq!(alias.read_block(0).unwrap(), vec![1u8; 512]);
        assert_eq!(alias.stats().total_writes(), 1);
    }

    #[test]
    fn fill_with_writes_everything_and_charges_time() {
        let clock = SimClock::new();
        let disk = MemDisk::new(32, 512, clock.clone());
        let mut counter = 0u8;
        disk.fill_with(|blk| {
            counter = counter.wrapping_add(1);
            blk.fill(counter);
        });
        assert_eq!(disk.read_block(0).unwrap()[0], 1);
        assert_eq!(disk.read_block(31).unwrap()[0], 32);
        assert!(clock.now().as_nanos() > 0);
        // fill_with counts 32 sequential writes plus the 2 verification reads.
        assert_eq!(disk.stats().total_writes(), 32);
    }

    #[test]
    fn injected_faults_fire() {
        let disk = MemDisk::with_default_timing(8, 512);
        let mut faults = FaultInjection::default();
        faults.failing_reads.insert(2);
        faults.failing_writes.insert(3);
        disk.set_faults(faults);
        assert!(disk.read_block(2).is_err());
        assert!(disk.read_block(1).is_ok());
        assert!(disk.write_block(3, &vec![0u8; 512]).is_err());
        assert!(disk.write_block(4, &vec![0u8; 512]).is_ok());
    }

    #[test]
    fn device_death_after_n_ops() {
        let disk = MemDisk::with_default_timing(8, 512);
        disk.set_faults(FaultInjection { die_after_ops: Some(2), ..Default::default() });
        assert!(disk.read_block(0).is_ok());
        assert!(disk.read_block(1).is_ok());
        assert!(disk.read_block(2).is_err());
        assert!(disk.write_block(0, &vec![0u8; 512]).is_err());
    }

    #[test]
    fn batched_ops_match_sequential_bytes_and_stats_amortizing_time() {
        let batched = MemDisk::with_default_timing(32, 512);
        let sequential = MemDisk::with_default_timing(32, 512);
        let pattern: Vec<(BlockIndex, Vec<u8>)> =
            [(0u64, 1u8), (1, 2), (2, 3), (17, 4), (5, 5), (6, 6)]
                .iter()
                .map(|&(b, v)| (b, vec![v; 512]))
                .collect();
        let writes: Vec<(BlockIndex, &[u8])> =
            pattern.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        batched.write_blocks(&writes).unwrap();
        for (b, d) in &pattern {
            sequential.write_block(*b, d).unwrap();
        }
        assert_eq!(
            batched.stats().without_time(),
            sequential.stats().without_time(),
            "same op mix and bytes"
        );
        // The six writes merge into two simulated commands (one sequential,
        // one packed random), so the batch is strictly cheaper than six
        // single-block commands, and the stats account for exactly the
        // charged time.
        assert!(batched.clock().now() < sequential.clock().now(), "amortization must show");
        assert_eq!(batched.stats().total_time().as_nanos(), batched.clock().now().as_nanos());
        assert_eq!(batched.snapshot().as_bytes(), sequential.snapshot().as_bytes());

        let indices = [2u64, 3, 9, 10, 11];
        let from_batch = batched.read_blocks(&indices).unwrap();
        let from_loop: Vec<Vec<u8>> =
            indices.iter().map(|&i| sequential.read_block(i).unwrap()).collect();
        assert_eq!(from_batch, from_loop);
        assert_eq!(batched.stats().without_time(), sequential.stats().without_time());
    }

    #[test]
    fn batch_of_one_charges_exactly_the_single_block_time() {
        let batched = MemDisk::with_default_timing(32, 512);
        let sequential = MemDisk::with_default_timing(32, 512);
        let d = vec![7u8; 512];
        batched.write_blocks(&[(3, d.as_slice())]).unwrap();
        sequential.write_block(3, &d).unwrap();
        assert_eq!(batched.clock().now(), sequential.clock().now());
        assert_eq!(batched.stats(), sequential.stats());
        batched.read_blocks(&[3]).unwrap();
        sequential.read_block(3).unwrap();
        assert_eq!(batched.clock().now(), sequential.clock().now());
        assert_eq!(batched.stats(), sequential.stats());
    }

    #[test]
    fn flat_cost_model_batches_charge_sequential_time() {
        // The control profile: without command-setup amortization the
        // batched path reproduces the sequential loop's charges exactly.
        let mk = || {
            MemDisk::with_cost_model(
                32,
                512,
                SimClock::new(),
                Arc::new(EmmcCostModel::flat(25_000)),
            )
        };
        let (batched, sequential) = (mk(), mk());
        let pattern: Vec<(BlockIndex, Vec<u8>)> = [(0u64, 1u8), (1, 2), (9, 3), (10, 4)]
            .iter()
            .map(|&(b, v)| (b, vec![v; 512]))
            .collect();
        let writes: Vec<(BlockIndex, &[u8])> =
            pattern.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        batched.write_blocks(&writes).unwrap();
        for (b, d) in &pattern {
            sequential.write_block(*b, d).unwrap();
        }
        assert_eq!(batched.clock().now(), sequential.clock().now());
        assert_eq!(batched.stats(), sequential.stats());
    }

    #[test]
    fn deeper_batches_charge_monotonically_more_time() {
        let mut last = 0u64;
        for depth in [1usize, 4, 16, 64] {
            let disk = MemDisk::with_default_timing(128, 512);
            let data = vec![1u8; 512];
            let writes: Vec<(BlockIndex, &[u8])> =
                (0..depth as u64).map(|b| (b, data.as_slice())).collect();
            disk.write_blocks(&writes).unwrap();
            let t = disk.clock().now().as_nanos();
            assert!(t > last, "depth {depth} must cost more than shallower batches");
            last = t;
        }
    }

    #[test]
    fn batched_write_failure_persists_prefix() {
        let disk = MemDisk::with_default_timing(8, 512);
        let mut faults = FaultInjection::default();
        faults.failing_writes.insert(2);
        disk.set_faults(faults);
        let a = vec![1u8; 512];
        let b = vec![2u8; 512];
        let c = vec![3u8; 512];
        let err = disk
            .write_blocks(&[(0, a.as_slice()), (1, b.as_slice()), (2, c.as_slice())])
            .unwrap_err();
        assert!(matches!(err, BlockDeviceError::Io { .. }));
        assert_eq!(disk.read_block(0).unwrap(), a, "prefix before the fault persisted");
        assert_eq!(disk.read_block(1).unwrap(), b);
        // Batched reads fail fast the same way.
        assert!(disk.read_blocks(&[0, 99]).is_err());
    }

    /// Runs `f` with `slots` host-queue registrations held on `disk`, so
    /// every command it makes is charged at depth `slots + 1`.
    fn with_queued<T>(disk: &MemDisk, slots: usize, f: impl FnOnce() -> T) -> T {
        for _ in 0..slots {
            disk.host_queue_enter();
        }
        let out = f();
        for _ in 0..slots {
            disk.host_queue_leave();
        }
        out
    }

    #[test]
    fn queued_slots_discount_only_queue_capable_profiles() {
        // The same batch, three ways: alone (depth 1), behind seven queued
        // slots (depth 8) on a CQE profile, and behind seven on the
        // synchronous nexus4 profile. Only the CQE device gets cheaper, and
        // its charge still telescopes exactly into the statistics.
        let mk = |model: EmmcCostModel| {
            MemDisk::with_cost_model(64, 4096, SimClock::new(), Arc::new(model))
        };
        let data = vec![7u8; 4096];
        let writes: Vec<(BlockIndex, &[u8])> =
            (0..16u64).map(|b| (b * 2, data.as_slice())).collect();

        let baseline = mk(EmmcCostModel::emmc51_cqe());
        baseline.write_blocks(&writes).unwrap();

        let queued = mk(EmmcCostModel::emmc51_cqe());
        with_queued(&queued, 7, || queued.write_blocks(&writes)).unwrap();
        assert!(
            queued.clock().now() < baseline.clock().now(),
            "overlapped commands must charge less on a CQE device"
        );
        assert_eq!(queued.stats().without_time(), baseline.stats().without_time());
        assert_eq!(queued.stats().total_time().as_nanos(), queued.clock().now().as_nanos());

        let synchronous = mk(EmmcCostModel::nexus4());
        with_queued(&synchronous, 7, || synchronous.write_blocks(&writes)).unwrap();
        let control = mk(EmmcCostModel::nexus4());
        control.write_blocks(&writes).unwrap();
        assert_eq!(
            synchronous.clock().now(),
            control.clock().now(),
            "a depth-1 medium ignores the queue"
        );
        assert_eq!(synchronous.stats(), control.stats());
    }

    #[test]
    fn host_queue_registrations_drive_charged_depth() {
        // Two queued (unexecuted) host-queue slots plus the executing
        // command itself make depth 3, so the 16 scattered blocks, one
        // packed random command, charge exactly the model's depth-3 price.
        let model = EmmcCostModel::emmc51_cqe();
        let mk = || MemDisk::with_cost_model(64, 4096, SimClock::new(), Arc::new(model.clone()));
        let data = vec![7u8; 4096];
        let writes: Vec<(BlockIndex, &[u8])> =
            (0..16u64).map(|b| (b * 2, data.as_slice())).collect();

        let queued = mk();
        queued.host_queue_enter();
        queued.host_queue_enter();
        queued.write_blocks(&writes).unwrap();
        queued.host_queue_leave();
        queued.host_queue_leave();
        let depth3 = model.batch_cost_at_depth(OpKind::RandomWrite, 16, 16 * 4096, 3);
        assert_eq!(queued.clock().now().as_nanos(), depth3.as_nanos());
        assert_eq!(queued.stats().rand_writes.ops, 16);
        assert_eq!(queued.stats().total_time(), depth3);

        // A balanced enter/leave pair leaves no residue: charges return
        // to the depth-1 baseline.
        let baseline = mk();
        baseline.write_blocks(&writes).unwrap();
        let released = mk();
        released.host_queue_enter();
        released.host_queue_leave();
        released.write_blocks(&writes).unwrap();
        assert_eq!(released.clock().now(), baseline.clock().now());
        assert_eq!(released.stats(), baseline.stats());
    }

    #[test]
    fn concurrent_batches_keep_accounting_exact() {
        // Two threads writing disjoint ranges at the same time on a CQE
        // profile: whatever depths the scheduler produces, the statistics
        // telescope exactly to the clock, the transfer volume matches the
        // sequential twin, and both writers' bytes land. (The charged
        // *time* is schedule-dependent — interleaving the writers' batches
        // can turn a batch head from sequential to random — so it is not
        // compared here. Threads add no queue depth:
        // concurrent_direct_callers_charge_the_serial_sum pins that.)
        let clock = SimClock::new();
        let disk = MemDisk::with_cost_model(
            256,
            4096,
            clock.clone(),
            Arc::new(EmmcCostModel::emmc51_cqe()),
        );
        let data = vec![3u8; 4096];
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let disk = disk.clone();
                let data = data.clone();
                s.spawn(move || {
                    for round in 0..4u64 {
                        let base = t * 128 + round * 16;
                        let writes: Vec<(BlockIndex, &[u8])> =
                            (0..16).map(|i| (base + i, data.as_slice())).collect();
                        disk.write_blocks(&writes).unwrap();
                    }
                });
            }
        });
        let sequential = MemDisk::with_cost_model(
            256,
            4096,
            SimClock::new(),
            Arc::new(EmmcCostModel::emmc51_cqe()),
        );
        for t in 0..2u64 {
            for round in 0..4u64 {
                let base = t * 128 + round * 16;
                let writes: Vec<(BlockIndex, &[u8])> =
                    (0..16).map(|i| (base + i, data.as_slice())).collect();
                sequential.write_blocks(&writes).unwrap();
            }
        }
        assert_eq!(disk.stats().total_time().as_nanos(), clock.now().as_nanos());
        assert_eq!(disk.stats().bytes_written(), sequential.stats().bytes_written());
        assert_eq!(disk.stats().total_writes(), sequential.stats().total_writes());
        assert_eq!(disk.snapshot().as_bytes(), sequential.snapshot().as_bytes());
    }

    #[test]
    fn concurrent_direct_callers_charge_the_serial_sum() {
        // Two threads write 300 single blocks each at even indices, so no
        // block ever follows its predecessor and every write is random
        // whatever the interleaving. Threads are not a queue-depth source,
        // so every trial charges what one thread charges for the same
        // writes.
        let cqe = || {
            MemDisk::with_cost_model(
                1200,
                512,
                SimClock::new(),
                Arc::new(EmmcCostModel::emmc51_cqe()),
            )
        };
        let data = vec![9u8; 512];
        let block = |t: u64, i: u64| 2 * (t * 300 + i);
        let serial = cqe();
        for t in 0..2 {
            for i in 0..300 {
                serial.write_block(block(t, i), &data).unwrap();
            }
        }
        for trial in 0..20 {
            let disk = cqe();
            std::thread::scope(|s| {
                for t in 0..2 {
                    let (disk, data) = (&disk, &data);
                    s.spawn(move || {
                        for i in 0..300 {
                            disk.write_block(block(t, i), data).unwrap();
                        }
                    });
                }
            });
            assert_eq!(disk.clock().now(), serial.clock().now(), "trial {trial}");
            assert_eq!(disk.stats(), serial.stats(), "trial {trial}");
        }
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_writers() {
        // Snapshots take the disk lock: a concurrent full-block writer can
        // never be seen half-applied at block granularity.
        let disk = MemDisk::with_default_timing(64, 512);
        std::thread::scope(|s| {
            let writer = disk.clone();
            s.spawn(move || {
                for i in 0..200u64 {
                    let fill = (i % 251) as u8;
                    writer.write_block(i % 64, &vec![fill; 512]).unwrap();
                }
            });
            for _ in 0..20 {
                let snap = disk.snapshot();
                for b in 0..64u64 {
                    let block = snap.block(b);
                    assert!(block.iter().all(|&x| x == block[0]), "torn block {b} in snapshot");
                }
            }
        });
    }

    #[test]
    fn blocks_on_either_side_of_a_buffer_boundary_stay_in_order() {
        // 4 KiB blocks: 256 per buffer, so this disk spans three buffers,
        // the last one short.
        let disk = MemDisk::with_default_timing(600, 4096);
        let mut counter = 0u64;
        disk.fill_with(|blk| {
            blk.fill((counter % 251) as u8);
            counter += 1;
        });
        let image = disk.snapshot();
        let edges = [0u64, 255, 256, 511, 512, 599];
        for b in edges {
            let expect = vec![(b % 251) as u8; 4096];
            assert_eq!(disk.read_block(b).unwrap(), expect, "block {b}");
            assert_eq!(image.block(b), &expect[..], "snapshot block {b}");
        }
        let data = vec![0xEEu8; 4096];
        let writes: Vec<(BlockIndex, &[u8])> = edges.iter().map(|&b| (b, &data[..])).collect();
        disk.write_blocks(&writes).unwrap();
        assert_eq!(disk.read_blocks(&edges).unwrap(), vec![data.clone(); edges.len()]);
        disk.load_image(&image);
        assert_eq!(disk.snapshot().as_bytes(), image.as_bytes());
    }

    #[test]
    fn load_image_replaces_contents_without_charging_time() {
        let clock = SimClock::new();
        let disk = MemDisk::new(8, 512, clock.clone());
        disk.write_block(2, &vec![9u8; 512]).unwrap();
        let image = disk.snapshot();
        disk.write_block(2, &vec![1u8; 512]).unwrap();
        let t = clock.now();
        let stats = disk.stats();
        disk.load_image(&image);
        assert_eq!(clock.now(), t, "load_image is free");
        assert_eq!(disk.stats(), stats);
        assert_eq!(disk.read_block(2).unwrap(), vec![9u8; 512]);
    }

    #[test]
    #[should_panic(expected = "block count mismatch")]
    fn load_image_rejects_wrong_geometry() {
        let disk = MemDisk::with_default_timing(8, 512);
        let other = MemDisk::with_default_timing(4, 512);
        disk.load_image(&other.snapshot());
    }

    #[test]
    fn reset_stats_clears_counters() {
        let disk = MemDisk::with_default_timing(8, 512);
        disk.write_block(0, &vec![0u8; 512]).unwrap();
        disk.reset_stats();
        assert_eq!(disk.stats().total_writes(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let _ = MemDisk::with_default_timing(0, 512);
    }
}
