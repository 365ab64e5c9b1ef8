//! [`MemDisk`]: the RAM-backed simulated eMMC device.
//!
//! # Concurrency architecture
//!
//! The medium is striped across shard locks so that batches from different
//! threads (e.g. two thin volumes writing at once) copy their bytes in
//! parallel:
//!
//! * **Shards** — the block array is partitioned into contiguous runs,
//!   each behind its own mutex. A block's bytes are only ever touched
//!   under its shard lock, so every single-block copy is atomic and
//!   writes to disjoint ranges are byte-equal to any sequential
//!   interleaving of the same batches.
//! * **Command state** — sequential/random classification (`last_block`),
//!   fault injection and the op counter are inherently serial device
//!   state: one short mutex guards them. Each batch *plans* under this
//!   lock — classifying, charging the clock and recording statistics —
//!   then releases it and performs the data copies under the shard locks.
//!   Single-threaded drives therefore charge bit-identically to the old
//!   single-lock device: the plan loop is the same loop.
//! * **Statistics and clock** — [`AtomicDeviceStats`] and the (already
//!   atomic) [`SimClock`] accumulate without locks, so per-op marginal
//!   charges telescope exactly to the clock advance no matter how many
//!   threads charge concurrently.
//! * **Queue depth** — an in-flight counter models the host keeping
//!   several commands outstanding: a batch submitted while `k` others are
//!   in flight charges [`CostModel::batch_cost_at_depth`] at depth `k+1`
//!   (saturating at the profile's hardware queue depth). The counter is
//!   fed two ways: executing commands register themselves for the
//!   duration of the call, and a submission/completion engine
//!   (`mobiceal_blockdev::engine`) registers every queued-but-unexecuted
//!   ring slot via [`BlockDevice::host_queue_enter`], so the depth a
//!   command is charged at equals the genuine ring occupancy it overlaps
//!   with. A lone command — every single-threaded caller without a ring —
//!   observes depth 1 and charges the pre-CQE cost bit for bit.

use crate::device::{read_blocks_owned, BlockDevice, BlockDeviceError, BlockIndex, ReadDest};
use crate::snapshot::DiskSnapshot;
use crate::stats::{AtomicDeviceStats, DeviceStats};
use mobiceal_sim::{CostModel, EmmcCostModel, OpKind, SimClock, SimDuration};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Tear one write mid-block and kill the device (simulates a power cut
    /// inside a program operation). `None` disables.
    pub torn_write: Option<TornWrite>,
}

/// A power cut in the middle of one block program operation: write number
/// `after_writes + 1` (counting every block of every write since
/// [`MemDisk::set_faults`]) persists only its first `keep_bytes` bytes,
/// the operation reports failure, and every subsequent operation fails —
/// the device is dead until the next `set_faults` resets it. The torn
/// write charges no simulated time (the device lost power mid-program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWrite {
    /// How many block writes complete untouched before the tear fires.
    pub after_writes: u64,
    /// Bytes of the torn block that reach the medium (clamped to the
    /// block size).
    pub keep_bytes: usize,
}

/// The serial "command engine" state: what a real device's single command
/// decoder sees. Classification and fault accounting depend on global
/// operation order, so they live behind one (short) lock; the data path
/// does not.
struct CmdState {
    last_block: Option<BlockIndex>,
    faults: FaultInjection,
    total_ops: u64,
    /// Block writes seen since the faults were installed (drives
    /// [`TornWrite::after_writes`]).
    writes_seen: u64,
    /// Set when a torn write fires: the device lost power and every
    /// subsequent operation fails until new faults are installed.
    dead: bool,
}

/// How one planned block failed: an ordinary injected error, or a torn
/// write whose partial bytes must still reach the medium.
enum PlannedFault {
    Fail(BlockDeviceError),
    Tear { keep_bytes: usize },
}

/// State shared by every clone of a [`MemDisk`].
struct DiskShared {
    /// The medium, striped into contiguous runs of blocks. Lock order:
    /// ascending shard index (whole-device operations); per-block copies
    /// take exactly one shard lock.
    shards: Box<[Mutex<Vec<u8>>]>,
    stats: AtomicDeviceStats,
    cmd: Mutex<CmdState>,
    /// Commands currently executing or occupying a host queue slot
    /// ([`BlockDevice::host_queue_enter`]), across all threads — the
    /// simulated host controller's occupancy.
    in_flight: AtomicUsize,
    /// Deterministic lower bound on the charged queue depth (default 1).
    /// Test-only: real overlap (threads or the submission engine) drives
    /// depth in production code.
    #[cfg(any(test, feature = "test-hooks"))]
    depth_floor: AtomicUsize,
}

/// How many shard locks to stripe the medium across. More shards mean
/// less false sharing between concurrent batches; 64 keeps the per-disk
/// footprint trivial while comfortably exceeding any realistic worker
/// count.
const SHARD_TARGET: u64 = 64;

/// Decrements the in-flight counter when a command completes (RAII so an
/// early return cannot leak occupancy).
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
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
    shared: Arc<DiskShared>,
    num_blocks: u64,
    block_size: usize,
    /// Blocks per shard (the last shard may be shorter).
    shard_blocks: u64,
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
        usize::try_from(num_blocks)
            .ok()
            .and_then(|n| n.checked_mul(block_size))
            // analyzer: allow(panic_freedom, reason = "constructor-time geometry guard beside the existing asserts; fails at setup, never on the I/O path")
            .expect("device too large for memory simulation");
        let shard_blocks = num_blocks.div_ceil(SHARD_TARGET).max(1);
        let shard_count = num_blocks.div_ceil(shard_blocks);
        let shards: Box<[Mutex<Vec<u8>>]> = (0..shard_count)
            .map(|i| {
                let blocks = shard_blocks.min(num_blocks - i * shard_blocks) as usize;
                Mutex::new(vec![0u8; blocks * block_size])
            })
            .collect();
        MemDisk {
            shared: Arc::new(DiskShared {
                shards,
                stats: AtomicDeviceStats::default(),
                cmd: Mutex::new(CmdState {
                    last_block: None,
                    faults: FaultInjection::default(),
                    total_ops: 0,
                    writes_seen: 0,
                    dead: false,
                }),
                in_flight: AtomicUsize::new(0),
                #[cfg(any(test, feature = "test-hooks"))]
                depth_floor: AtomicUsize::new(1),
            }),
            num_blocks,
            block_size,
            shard_blocks,
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
        self.shared.stats.snapshot()
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&self) {
        self.shared.stats.reset();
    }

    /// Installs a fault-injection configuration, restarting the torn-write
    /// counter and reviving a device a previous tear killed.
    pub fn set_faults(&self, faults: FaultInjection) {
        let mut cmd = self.shared.cmd.lock();
        cmd.faults = faults;
        cmd.writes_seen = 0;
        cmd.dead = false;
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
        let mut guards: Vec<_> = self.shared.shards.iter().map(|s| s.lock()).collect();
        let mut offset = 0usize;
        for g in guards.iter_mut() {
            let len = g.len();
            g.copy_from_slice(&image.as_bytes()[offset..offset + len]);
            offset += len;
        }
    }

    /// Pins the minimum queue depth every command is charged at, as if a
    /// driver always kept `floor` commands outstanding (clamped to at
    /// least 1; the cost model further saturates it at its hardware
    /// queue depth, so the default profiles are unaffected).
    ///
    /// **Test hook only** (`cfg(any(test, feature = "test-hooks"))`): it
    /// exists so properties can pin the depth-`d` charge a command *would*
    /// take and compare it against real overlap. Production depth comes
    /// from genuine occupancy — concurrent callers and the submission
    /// engine's ring slots (`mobiceal_blockdev::engine`).
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn set_queue_depth_floor(&self, floor: usize) {
        self.shared.depth_floor.store(floor.max(1), Ordering::SeqCst);
    }

    /// Takes a bit-exact image of the medium — what the paper's
    /// multi-snapshot adversary captures at a checkpoint (§III-A).
    /// Acquires every shard (in ascending order) so the image is a
    /// consistent point-in-time cut even under concurrent writers.
    pub fn snapshot(&self) -> DiskSnapshot {
        let guards: Vec<_> = self.shared.shards.iter().map(|s| s.lock()).collect();
        let mut bytes = Vec::with_capacity(self.num_blocks as usize * self.block_size);
        for g in &guards {
            bytes.extend_from_slice(g);
        }
        DiskSnapshot::new(self.block_size, self.num_blocks, bytes)
    }

    /// Overwrites the whole medium with the given byte (e.g. secure wipe).
    pub fn fill(&self, byte: u8) {
        let guards: Vec<_> = self.shared.shards.iter().map(|s| s.lock()).collect();
        for mut g in guards {
            g.fill(byte);
        }
    }

    /// Overwrites the whole medium with caller-provided content generator
    /// (used for the initialization step that fills the disk with
    /// randomness). A full-disk fill is the most amortizable transfer a
    /// real device sees — one maximal sequential write extent — so it is
    /// charged as a single multi-block command, like any other batch.
    /// Like [`MemDisk::fill`] and [`MemDisk::snapshot`], every shard is
    /// held for the whole operation, so a concurrent observer sees the
    /// fill all-or-nothing.
    pub fn fill_with(&self, mut gen: impl FnMut(&mut [u8])) {
        let bs = self.block_size;
        let _io = self.begin_command();
        let mut guards: Vec<_> = self.shared.shards.iter().map(|s| s.lock()).collect();
        {
            let depth = self.observed_depth();
            let mut cmd = self.shared.cmd.lock();
            let mut command = (0usize, SimDuration::ZERO);
            let mut total = SimDuration::ZERO;
            for _ in 0..self.num_blocks {
                let t = self.batch_charge(OpKind::SequentialWrite, &mut command, depth);
                total += t;
                self.shared.stats.record(OpKind::SequentialWrite, bs, t);
            }
            self.clock.advance(total);
            cmd.last_block = Some(self.num_blocks - 1);
        }
        for g in guards.iter_mut() {
            for block in g.chunks_mut(bs) {
                gen(block);
            }
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

    /// Registers one command with the simulated host controller for the
    /// duration of the returned guard.
    fn begin_command(&self) -> InFlight<'_> {
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        InFlight(&self.shared.in_flight)
    }

    /// The queue depth this command is charged at: the controller's
    /// current occupancy (including this command, plus any queued ring
    /// slots registered via [`BlockDevice::host_queue_enter`]). Call after
    /// [`MemDisk::begin_command`]. Test builds additionally respect the
    /// pinned floor.
    fn observed_depth(&self) -> usize {
        let occupancy = self.shared.in_flight.load(Ordering::SeqCst);
        #[cfg(any(test, feature = "test-hooks"))]
        let occupancy = occupancy.max(self.shared.depth_floor.load(Ordering::SeqCst));
        occupancy.max(1)
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
        cmd: &mut CmdState,
        index: BlockIndex,
        write: bool,
    ) -> Result<(), PlannedFault> {
        if cmd.dead {
            return Err(PlannedFault::Fail(BlockDeviceError::Io {
                reason: "device lost power (torn write)".into(),
            }));
        }
        cmd.total_ops += 1;
        if let Some(limit) = cmd.faults.die_after_ops {
            if cmd.total_ops > limit {
                return Err(PlannedFault::Fail(BlockDeviceError::Io {
                    reason: format!("device died after {limit} ops"),
                }));
            }
        }
        if write {
            cmd.writes_seen += 1;
            if let Some(tear) = cmd.faults.torn_write {
                if cmd.writes_seen == tear.after_writes + 1 {
                    cmd.dead = true;
                    return Err(PlannedFault::Tear { keep_bytes: tear.keep_bytes });
                }
            }
        }
        let failing = if write { &cmd.faults.failing_writes } else { &cmd.faults.failing_reads };
        if failing.contains(&index) {
            return Err(PlannedFault::Fail(BlockDeviceError::Io {
                reason: format!(
                    "injected {} fault at block {index}",
                    if write { "write" } else { "read" }
                ),
            }));
        }
        Ok(())
    }

    /// Plans one batch under the command lock: classifies, fault-checks
    /// and charges every block (at queue depth `depth`) until the first
    /// error, advancing the clock by the telescoped total. Returns the
    /// planned prefix length, the tear (if the batch hit a torn-write
    /// fault: only `keep_bytes` of the block after the prefix reach the
    /// medium, uncharged) and the first error, if any. The data copies
    /// happen *after* this, under the shard locks only; the caller holds
    /// its [`MemDisk::begin_command`] guard across both phases so the
    /// in-flight counter reflects commands whose data is still moving.
    fn plan_batch<'a>(
        &self,
        blocks: impl Iterator<Item = (BlockIndex, Option<&'a [u8]>)>,
        write: bool,
        depth: usize,
    ) -> (usize, Option<usize>, Option<BlockDeviceError>) {
        let mut cmd = self.shared.cmd.lock();
        let (mut seq, mut rand) = ((0, SimDuration::ZERO), (0, SimDuration::ZERO));
        let mut total = SimDuration::ZERO;
        let mut planned = 0usize;
        let mut torn = None;
        let mut error = None;
        for (index, data) in blocks {
            let check = self
                .check_index(index)
                .and_then(|()| data.map_or(Ok(()), |d| self.check_buffer(d)))
                .map_err(PlannedFault::Fail)
                .and_then(|()| Self::check_faults(&mut cmd, index, write));
            match check {
                Err(PlannedFault::Fail(e)) => {
                    error = Some(e);
                    break;
                }
                Err(PlannedFault::Tear { keep_bytes }) => {
                    torn = Some(keep_bytes);
                    error = Some(BlockDeviceError::Io {
                        reason: format!("power cut tore write at block {index}"),
                    });
                    break;
                }
                Ok(()) => {}
            }
            let op = Self::classify(cmd.last_block, index, write);
            cmd.last_block = Some(index);
            let command = match op {
                OpKind::SequentialRead | OpKind::SequentialWrite => &mut seq,
                _ => &mut rand,
            };
            let t = self.batch_charge(op, command, depth);
            total += t;
            self.shared.stats.record(op, self.block_size, t);
            planned += 1;
        }
        self.clock.advance(total);
        (planned, torn, error)
    }

    /// The shard holding `index` and the byte offset of the block inside
    /// that shard's buffer.
    fn locate(&self, index: BlockIndex) -> (usize, usize) {
        let shard = (index / self.shard_blocks) as usize;
        let offset = ((index % self.shard_blocks) as usize) * self.block_size;
        (shard, offset)
    }

    /// Copies `data` into block `index` under its shard lock.
    fn store_block(&self, index: BlockIndex, data: &[u8]) {
        let (shard, offset) = self.locate(index);
        let mut g = self.shared.shards[shard].lock();
        g[offset..offset + self.block_size].copy_from_slice(data);
    }

    /// Torn-write splice: only the first `keep` bytes of `data` reach the
    /// medium; the block's remaining bytes keep their prior content.
    fn store_partial(&self, index: BlockIndex, data: &[u8], keep: usize) {
        let keep = keep.min(self.block_size).min(data.len());
        let (shard, offset) = self.locate(index);
        let mut g = self.shared.shards[shard].lock();
        g[offset..offset + keep].copy_from_slice(&data[..keep]);
    }

    /// Copies block `index` out under its shard lock.
    fn load_block(&self, index: BlockIndex) -> Vec<u8> {
        let (shard, offset) = self.locate(index);
        let g = self.shared.shards[shard].lock();
        g[offset..offset + self.block_size].to_vec()
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
        let _io = self.begin_command();
        let depth = self.observed_depth();
        let (planned, _, error) = self.plan_batch(std::iter::once((index, None)), false, depth);
        match error {
            Some(e) => Err(e),
            None => {
                debug_assert_eq!(planned, 1);
                Ok(self.load_block(index))
            }
        }
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        let _io = self.begin_command();
        let depth = self.observed_depth();
        let (planned, torn, error) =
            self.plan_batch(std::iter::once((index, Some(data))), true, depth);
        if let Some(keep) = torn {
            self.store_partial(index, data, keep);
        }
        match error {
            Some(e) => Err(e),
            None => {
                debug_assert_eq!(planned, 1);
                self.store_block(index, data);
                Ok(())
            }
        }
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        read_blocks_owned(self, indices)
    }

    /// Batched read: one command-lock acquisition, one clock advance, and
    /// *amortized multi-command* costing for the whole batch — command
    /// setup is charged once per simulated multi-block command (see
    /// [`MemDisk::batch_charge`]) instead of once per block, and its
    /// latency overlaps other in-flight commands on queue-capable
    /// profiles. Bytes returned, statistics op mix/byte counts, fault
    /// checks and sequential/random classification are identical to
    /// issuing the reads one by one; charged time is less than or equal
    /// to the sequential loop's, with equality for single-block batches
    /// and for cost models without amortization. Each block is copied
    /// once, under its shard lock, straight into `dest`, concurrently with
    /// other threads' batches. A failed batch charges its planned prefix
    /// and copies nothing.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        mut dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        let _io = self.begin_command();
        let depth = self.observed_depth();
        let (_, _, error) =
            self.plan_batch(indices.iter().map(|&index| (index, None)), false, depth);
        if let Some(e) = error {
            return Err(e);
        }
        dest.reserve(indices.len(), self.block_size);
        for &index in indices {
            let (shard, offset) = self.locate(index);
            dest.push(&self.shared.shards[shard].lock()[offset..offset + self.block_size]);
        }
        Ok(())
    }

    /// Batched write: one command-lock acquisition, one clock advance, and
    /// *amortized multi-command* costing for the whole batch (see
    /// [`MemDisk::read_blocks`]); otherwise byte- and op-mix-identical to
    /// the equivalent sequence of single-block writes (fail-fast, prefix
    /// persists, the prefix's amortized time is charged).
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        let _io = self.begin_command();
        let depth = self.observed_depth();
        let (planned, torn, error) =
            self.plan_batch(writes.iter().map(|&(index, data)| (index, Some(data))), true, depth);
        for &(index, data) in &writes[..planned] {
            self.store_block(index, data);
        }
        if let Some(keep) = torn {
            let (index, data) = writes[planned];
            self.store_partial(index, data, keep);
        }
        match error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        if self.shared.cmd.lock().dead {
            return Err(BlockDeviceError::Io { reason: "device lost power (torn write)".into() });
        }
        let _io = self.begin_command();
        let t = self.cost.cost(OpKind::Flush, 0);
        self.clock.advance(t);
        self.shared.stats.record(OpKind::Flush, 0, t);
        Ok(())
    }

    /// A queued-but-unexecuted command (a submission-engine ring slot)
    /// occupies the host controller exactly like an executing one: later
    /// commands overlap it and are charged at the deeper queue depth.
    fn host_queue_enter(&self) {
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    fn host_queue_leave(&self) {
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
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

    #[test]
    fn queue_depth_floor_discounts_only_queue_capable_profiles() {
        // The same batch, three ways: depth floor 1 (the default), a deep
        // floor on a CQE profile, and a deep floor on the synchronous
        // nexus4 profile. Only the CQE device gets cheaper, and its charge
        // still telescopes exactly into the statistics.
        let mk = |model: EmmcCostModel| {
            MemDisk::with_cost_model(64, 4096, SimClock::new(), Arc::new(model))
        };
        let data = vec![7u8; 4096];
        let writes: Vec<(BlockIndex, &[u8])> =
            (0..16u64).map(|b| (b * 2, data.as_slice())).collect();

        let baseline = mk(EmmcCostModel::emmc51_cqe());
        baseline.write_blocks(&writes).unwrap();

        let queued = mk(EmmcCostModel::emmc51_cqe());
        queued.set_queue_depth_floor(8);
        queued.write_blocks(&writes).unwrap();
        assert!(
            queued.clock().now() < baseline.clock().now(),
            "overlapped commands must charge less on a CQE device"
        );
        assert_eq!(queued.stats().without_time(), baseline.stats().without_time());
        assert_eq!(queued.stats().total_time().as_nanos(), queued.clock().now().as_nanos());

        let synchronous = mk(EmmcCostModel::nexus4());
        synchronous.set_queue_depth_floor(8);
        synchronous.write_blocks(&writes).unwrap();
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
        // command itself make occupancy 3, so the direct write charges
        // exactly what a pinned depth floor of 3 charges.
        let mk = || {
            MemDisk::with_cost_model(
                64,
                4096,
                SimClock::new(),
                Arc::new(EmmcCostModel::emmc51_cqe()),
            )
        };
        let data = vec![7u8; 4096];
        let writes: Vec<(BlockIndex, &[u8])> =
            (0..16u64).map(|b| (b * 2, data.as_slice())).collect();

        let queued = mk();
        queued.host_queue_enter();
        queued.host_queue_enter();
        queued.write_blocks(&writes).unwrap();
        queued.host_queue_leave();
        queued.host_queue_leave();

        let floored = mk();
        floored.set_queue_depth_floor(3);
        floored.write_blocks(&writes).unwrap();
        assert_eq!(queued.clock().now(), floored.clock().now());
        assert_eq!(queued.stats(), floored.stats());

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
        // *time* is schedule-dependent in both directions — in-flight
        // overlap discounts latency, while interleaved classification can
        // turn a batch head sequential→random — so it is deliberately not
        // compared here; the deterministic depth discount is pinned by
        // queue_depth_floor_discounts_only_queue_capable_profiles and the
        // shard_props depth-floor properties.)
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
    fn snapshot_is_consistent_under_concurrent_writers() {
        // Snapshots hold every shard: a concurrent full-block writer can
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
    fn torn_write_persists_prefix_bytes_and_kills_the_device() {
        let clock = SimClock::new();
        let disk = MemDisk::new(8, 512, clock.clone());
        disk.write_block(3, &vec![0xAA; 512]).unwrap();
        let before = clock.now();
        disk.set_faults(FaultInjection {
            torn_write: Some(TornWrite { after_writes: 0, keep_bytes: 100 }),
            ..Default::default()
        });
        assert!(disk.write_block(3, &vec![0xBB; 512]).is_err());
        assert_eq!(clock.now(), before, "the torn write charges no time");
        let snap = disk.snapshot();
        assert_eq!(&snap.block(3)[..100], &[0xBB; 100][..], "kept prefix landed");
        assert_eq!(&snap.block(3)[100..], &[0xAA; 412][..], "tail keeps prior content");
        // The device is dead: reads, writes and flushes all fail.
        assert!(disk.read_block(0).is_err());
        assert!(disk.write_block(0, &vec![0u8; 512]).is_err());
        assert!(disk.flush().is_err());
        // Installing fresh faults revives it.
        disk.set_faults(FaultInjection::default());
        assert!(disk.read_block(0).is_ok());
    }

    #[test]
    fn torn_write_fires_mid_batch_after_counted_writes() {
        let disk = MemDisk::with_default_timing(8, 512);
        disk.set_faults(FaultInjection {
            torn_write: Some(TornWrite { after_writes: 2, keep_bytes: 1 }),
            ..Default::default()
        });
        let d = |v: u8| vec![v; 512];
        let bufs = [d(1), d(2), d(3), d(4)];
        let writes: Vec<(BlockIndex, &[u8])> =
            bufs.iter().enumerate().map(|(i, b)| (i as u64, b.as_slice())).collect();
        assert!(disk.write_blocks(&writes).is_err());
        let snap = disk.snapshot();
        assert_eq!(snap.block(0), &d(1)[..], "writes before the tear persist whole");
        assert_eq!(snap.block(1), &d(2)[..]);
        assert_eq!(snap.block(2)[0], 3, "torn block keeps only one byte");
        assert!(snap.block(2)[1..].iter().all(|&b| b == 0));
        assert!(snap.is_zero_block(3), "writes after the tear never reach the medium");
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
