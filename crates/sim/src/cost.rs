//! Cost models: how much simulated time each storage / CPU operation costs.
//!
//! The eMMC model is calibrated so that the *uninstrumented* stack reproduces
//! the absolute ballpark of the paper's Nexus 4 measurements (Fig. 4:
//! ~19.5 MB/s sequential Ext4 write, ~27 MB/s sequential read on raw FDE),
//! and so that every layer we add on top (thin provisioning indirection,
//! dm-crypt AES, dummy writes, ORAM write amplification) shifts throughput by
//! mechanism, not by hand-tuned fudge factors.

use crate::clock::SimDuration;
use serde::{Deserialize, Serialize};

/// The kind of a single block-device operation, used for cost lookup and
/// statistics bucketing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read of one block that directly follows the previously accessed block.
    SequentialRead,
    /// Read of one block anywhere else on the device.
    RandomRead,
    /// Write of one block that directly follows the previously accessed block.
    SequentialWrite,
    /// Write of one block anywhere else on the device.
    RandomWrite,
    /// A cache flush / barrier.
    Flush,
}

impl OpKind {
    /// Whether this op transfers data (i.e. is not a flush).
    pub fn is_transfer(self) -> bool {
        !matches!(self, OpKind::Flush)
    }

    /// Whether this op writes to the medium.
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::SequentialWrite | OpKind::RandomWrite | OpKind::Flush)
    }
}

/// A timing model for a block storage medium.
pub trait CostModel: Send + Sync + std::fmt::Debug {
    /// Cost of one operation on `bytes` bytes.
    fn cost(&self, op: OpKind, bytes: usize) -> SimDuration;

    /// Cost of one multi-block command covering `blocks` blocks of `op` for
    /// `bytes` total transferred bytes.
    ///
    /// Real eMMC amortizes command overhead across a batch: a CMD23-prefixed
    /// CMD25 (or a packed WRITE command) pays controller/command setup once
    /// for the whole transfer, then a per-block cost for each block moved.
    /// Models that capture this override `batch_cost`; the default
    /// implementation is the legacy per-block sum, so a plain model (or the
    /// [`EmmcCostModel::flat`] profile) charges a batch exactly like the
    /// equivalent sequence of single-block operations.
    ///
    /// Implementations must keep three properties the simulator relies on
    /// (pinned by `crates/sim/tests/cost_props.rs`):
    ///
    /// 1. `batch_cost(op, 1, b) == cost(op, b)` — a batch of one *is* a
    ///    single command;
    /// 2. `batch_cost(op, n, n*b) <= n * cost(op, b)` — batching never
    ///    costs more than going block-by-block;
    /// 3. monotonicity in both `blocks` and `bytes`.
    fn batch_cost(&self, op: OpKind, blocks: usize, bytes: usize) -> SimDuration {
        if blocks == 0 {
            return SimDuration::ZERO;
        }
        // Distribute the bytes across the blocks without dropping a
        // remainder: `rem` blocks carry one extra byte, so the sum covers
        // exactly `bytes` and stays monotone for non-uniform batches.
        let per = bytes / blocks;
        let rem = bytes % blocks;
        self.cost(op, per) * (blocks - rem) as u64 + self.cost(op, per + 1) * rem as u64
    }

    /// The number of commands this medium can keep in flight at once —
    /// eMMC 5.1 CQE or SATA NCQ style hardware queueing. Depth 1 (the
    /// default) means a strictly synchronous device: every command waits
    /// for the previous one to finish, and queue-depth charging never
    /// engages.
    fn queue_depth(&self) -> usize {
        1
    }

    /// Cost of one multi-block command when `depth` commands are in flight
    /// on the device concurrently (CQE/NCQ overlap).
    ///
    /// While one command's data moves on the bus, the controller can
    /// execute the latency phases (command setup, FTL lookup, seek
    /// penalty) of the other queued commands, so latency — never the
    /// transfer itself, the bus is shared — amortizes across the overlap.
    /// The default implementation ignores `depth` and charges
    /// [`CostModel::batch_cost`], so plain models and depth-1 media are
    /// bit-identical to the pre-CQE model.
    ///
    /// In production the `depth` argument comes from genuine host-side
    /// queueing: `mobiceal_blockdev::IoEngine` registers every occupied
    /// ring slot with the device (`BlockDevice::host_queue_enter`), and
    /// the device charges the executing command at the resulting slot
    /// occupancy. Draining a ring of `k` batches therefore charges a
    /// descending depth ladder `k, k-1, …, 1` — the shape pinned by the
    /// `drain_ladder_is_bounded_and_monotone` property.
    ///
    /// Implementations must keep (pinned by `crates/sim/tests/cost_props.rs`):
    ///
    /// 1. `batch_cost_at_depth(op, n, b, 1) == batch_cost(op, n, b)` —
    ///    a lone in-flight command is the pre-CQE model exactly;
    /// 2. monotone non-increasing in `depth` (overlap never hurts) and
    ///    never below the pure transfer cost (the bus is not parallel);
    /// 3. monotone in `blocks`/`bytes` at every fixed depth;
    /// 4. `depth` saturates at [`CostModel::queue_depth`] — a queue deeper
    ///    than the hardware's buys nothing.
    fn batch_cost_at_depth(
        &self,
        op: OpKind,
        blocks: usize,
        bytes: usize,
        depth: usize,
    ) -> SimDuration {
        let _ = depth;
        self.batch_cost(op, blocks, bytes)
    }
}

/// eMMC-like flash timing (as exposed through an FTL as a block device).
///
/// Defaults are calibrated for a 2012-2013 phone eMMC part (LG Nexus 4
/// class): ~27 MB/s sequential read, ~21 MB/s sequential write at 4 KiB
/// granularity, with random I/O paying an additional per-op penalty.
///
/// # Example
///
/// ```
/// use mobiceal_sim::{CostModel, EmmcCostModel, OpKind};
///
/// let emmc = EmmcCostModel::nexus4();
/// let seq = emmc.cost(OpKind::SequentialWrite, 4096);
/// let rnd = emmc.cost(OpKind::RandomWrite, 4096);
/// assert!(rnd > seq);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmmcCostModel {
    /// Fixed controller/command overhead per operation.
    pub per_op_ns: u64,
    /// The portion of [`EmmcCostModel::per_op_ns`] that is per-*command*
    /// setup (CMD23 block-count programming, command/response turnaround,
    /// interrupt handling): a multi-block command pays it once for the whole
    /// batch instead of once per block. Must not exceed `per_op_ns`; `0`
    /// disables amortization entirely (every block is its own command).
    pub cmd_setup_ns: u64,
    /// Extra seek-equivalent penalty for a non-sequential access.
    pub random_penalty_ns: u64,
    /// Hardware command-queue depth (eMMC 5.1 CQE / SATA NCQ). When the
    /// host keeps several commands in flight, their latency phases overlap
    /// up to this depth (see [`CostModel::batch_cost_at_depth`]); `1`
    /// models a strictly synchronous device and disables overlap entirely.
    /// Only queued ring slots raise the depth, so this field never moves
    /// a result driven without a ring.
    pub queue_depth: usize,
    /// Transfer cost per byte read.
    pub read_ns_per_byte: f64,
    /// Transfer cost per byte written.
    pub write_ns_per_byte: f64,
    /// Cost of a flush / cache barrier.
    pub flush_ns: u64,
}

impl EmmcCostModel {
    /// Calibration for the LG Nexus 4 internal eMMC (the paper's main
    /// evaluation device).
    ///
    /// Derived from Fig. 4: raw-FDE sequential write ≈ 19.5 MB/s and read
    /// ≈ 27 MB/s measured *through* dm-crypt; we budget the medium slightly
    /// faster so that the AES cost charged by the crypto layer lands the
    /// stack at the published figure.
    pub fn nexus4() -> Self {
        EmmcCostModel {
            per_op_ns: 28_000,
            // Roughly 40 % of the per-op overhead is command setup the
            // eMMC host controller pays once per CMD23/CMD25 batch; the
            // rest (FTL lookup, transfer-unit handling) stays per block.
            cmd_setup_ns: 12_000,
            // The FTL log-structures writes and flash has no seek, so the
            // random-access penalty at the block interface is modest.
            random_penalty_ns: 16_000,
            // The Nexus 4's eMMC 4.x part predates CQE: one command at a
            // time, no latency overlap. Keeping depth 1 here guarantees the
            // Fig. 4 / Table 1 calibration can never move, even when driven
            // through deep rings.
            queue_depth: 1,
            read_ns_per_byte: 29.0,
            write_ns_per_byte: 38.0,
            flush_ns: 400_000,
        }
    }

    /// A Nexus 4-class medium upgraded to an eMMC 5.1 command queue: the
    /// same per-block/transfer timing as [`EmmcCostModel::nexus4`], plus
    /// the CQE 32-slot task queue that lets the controller overlap the
    /// latency phases of queued commands. The benchmark suite's
    /// `multi_tenant` workload (`benchsuite/`) drives this profile through
    /// `IoEngine` rings so multi-volume concurrency shows up in *simulated*
    /// time; the paper's own (single-threaded, pre-CQE) figures keep using
    /// `nexus4()`.
    pub fn emmc51_cqe() -> Self {
        EmmcCostModel { queue_depth: 32, ..EmmcCostModel::nexus4() }
    }

    /// Calibration for a SATA SSD of the Samsung 840 EVO class — the device
    /// HIVE was evaluated on (Table I of the paper): ~216 MB/s sequential
    /// write, fast but not free random 4 KiB I/O, and an expensive flush
    /// (HIVE syncs per write, which dominates its overhead).
    pub fn ssd_840evo() -> Self {
        EmmcCostModel {
            per_op_ns: 4_000,
            // SATA command/completion overhead dominates the per-op cost;
            // NCQ amortizes most of it across a queued batch.
            cmd_setup_ns: 3_000,
            random_penalty_ns: 120_000,
            // SATA NCQ: 32 outstanding commands.
            queue_depth: 32,
            read_ns_per_byte: 2.5,
            write_ns_per_byte: 3.7,
            flush_ns: 1_800_000,
        }
    }

    /// Calibration for the `nandsim` MTD RAM-disk DEFY was evaluated on
    /// (Table I): the medium is nearly free, so cryptographic CPU work
    /// dominates any measured overhead — exactly the regime in which DEFY
    /// showed ~94 % slowdown.
    pub fn nandsim_ramdisk() -> Self {
        EmmcCostModel {
            per_op_ns: 1_500,
            // The MTD request path is mostly syscall/request-queue setup,
            // which vanishes when requests merge into one command.
            cmd_setup_ns: 1_000,
            random_penalty_ns: 500,
            // nandsim is a synchronous kernel thread: no hardware queue.
            queue_depth: 1,
            read_ns_per_byte: 0.9,
            write_ns_per_byte: 1.1,
            flush_ns: 2_000,
        }
    }

    /// A uniform "null" model where every transfer op costs `ns` and flushes
    /// are free. Useful for unit tests that only need relative ordering.
    ///
    /// `cmd_setup_ns` is zero, so a batch costs exactly the per-block sum:
    /// the flat model has no multi-block amortization, which makes it the
    /// control profile for tests isolating the amortization effect.
    pub fn flat(ns: u64) -> Self {
        EmmcCostModel {
            per_op_ns: ns,
            cmd_setup_ns: 0,
            random_penalty_ns: 0,
            // Depth 1: the flat model is the control for queue-depth
            // charging exactly as it is for setup amortization.
            queue_depth: 1,
            read_ns_per_byte: 0.0,
            write_ns_per_byte: 0.0,
            flush_ns: 0,
        }
    }

    /// The per-byte transfer rate for `op` (0 for flushes).
    fn ns_per_byte(&self, op: OpKind) -> f64 {
        match op {
            OpKind::SequentialRead | OpKind::RandomRead => self.read_ns_per_byte,
            OpKind::SequentialWrite | OpKind::RandomWrite => self.write_ns_per_byte,
            OpKind::Flush => 0.0,
        }
    }

    /// The per-block overhead that does *not* amortize: FTL lookup and
    /// transfer-unit handling, plus the seek-equivalent penalty for random
    /// accesses (a packed command still visits every scattered block).
    fn per_block_ns(&self, op: OpKind) -> u64 {
        let base = self.per_op_ns.saturating_sub(self.cmd_setup_ns);
        match op {
            OpKind::RandomRead | OpKind::RandomWrite => base + self.random_penalty_ns,
            _ => base,
        }
    }

    /// Nanoseconds of one single-block transfer command: full setup, one
    /// block's overhead, the transfer. The building block of both
    /// [`CostModel::cost`] and [`CostModel::batch_cost`].
    fn single_op_ns(&self, op: OpKind, bytes: usize) -> u64 {
        self.cmd_setup_ns + self.per_block_ns(op) + (self.ns_per_byte(op) * bytes as f64) as u64
    }
}

impl CostModel for EmmcCostModel {
    fn cost(&self, op: OpKind, bytes: usize) -> SimDuration {
        // A single-block operation is a command of one block: full setup
        // plus one block's overhead plus the transfer.
        self.batch_cost(op, 1, bytes)
    }

    /// One multi-block command: setup once, per-block overhead (and random
    /// penalty) per block, transfer per byte — computed as the legacy
    /// per-block sum minus `(blocks - 1) · cmd_setup_ns`. Subtracting from
    /// the per-block-truncated sum (instead of truncating one big float)
    /// keeps every documented invariant *exact*: equality with
    /// [`Self::cost`] at `blocks == 1`, equality with the sequential sum
    /// when `cmd_setup_ns == 0` (the [`Self::flat`] profile, or any model
    /// with amortization disabled) even under fractional per-byte rates,
    /// and never above the sequential sum otherwise.
    fn batch_cost(&self, op: OpKind, blocks: usize, bytes: usize) -> SimDuration {
        if blocks == 0 {
            return SimDuration::ZERO;
        }
        if op == OpKind::Flush {
            return SimDuration::from_nanos(self.flush_ns * blocks as u64);
        }
        let per = bytes / blocks;
        let rem = bytes % blocks;
        let sum = self.single_op_ns(op, per) * (blocks - rem) as u64
            + self.single_op_ns(op, per + 1) * rem as u64;
        SimDuration::from_nanos(sum - (blocks as u64 - 1) * self.cmd_setup_ns)
    }

    fn queue_depth(&self) -> usize {
        self.queue_depth.max(1)
    }

    /// CQE/NCQ overlap: the command's latency (one setup + per-block
    /// overhead and random penalties) divides across the `depth` commands
    /// concurrently in flight — while this command's data is not on the
    /// bus, the controller executes the others' latency phases — and the
    /// transfer charges full price (the bus is shared). `depth` saturates
    /// at [`EmmcCostModel::queue_depth`]; at (clamped) depth 1 the charge
    /// is [`CostModel::batch_cost`] to the nanosecond, because
    /// `transfer + ceil(latency / 1)` reassembles the exact decomposition.
    fn batch_cost_at_depth(
        &self,
        op: OpKind,
        blocks: usize,
        bytes: usize,
        depth: usize,
    ) -> SimDuration {
        if blocks == 0 {
            return SimDuration::ZERO;
        }
        let depth = depth.clamp(1, self.queue_depth.max(1)) as u64;
        let full = self.batch_cost(op, blocks, bytes);
        if depth == 1 || op == OpKind::Flush {
            return full;
        }
        // Exact latency/transfer split of `batch_cost`: everything except
        // the truncated per-byte transfer sums is latency.
        let latency = self.cmd_setup_ns + blocks as u64 * self.per_block_ns(op);
        let transfer = full.as_nanos() - latency;
        // div_ceil keeps the charge strictly positive for latency-only
        // commands and makes depth 1 the identity.
        SimDuration::from_nanos(transfer + latency.div_ceil(depth))
    }
}

/// CPU timing for cryptographic work on the simulated SoC.
///
/// The Snapdragon S4 Pro in the Nexus 4 has no AES instructions, so dm-crypt
/// runs table-based AES at roughly 55–80 MB/s per core; PBKDF2 with Android's
/// default iteration count takes tens of milliseconds per derivation.
///
/// This model is the *only* source of simulated encryption time: layers like
/// `DmCrypt` charge [`CpuCostModel::aes_cost`] to the virtual clock for the
/// bytes they process, regardless of how fast the host actually runs the
/// real cipher (T-tables, AES-NI, or the byte-wise reference core). Making
/// the real implementation faster therefore never moves a simulated result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuCostModel {
    /// AES-CBC/XTS bulk cost per byte (encrypt or decrypt).
    pub aes_ns_per_byte: f64,
    /// Fixed cost per AES call (key schedule reuse assumed).
    pub aes_call_ns: u64,
    /// Cost of one PBKDF2 derivation (full iteration count).
    pub pbkdf2_ns: u64,
    /// Cost per byte of CSPRNG output (dummy data generation).
    pub rng_ns_per_byte: f64,
    /// Cost of one SHA-256 compression-equivalent hash of a small input.
    pub hash_small_ns: u64,
}

impl CpuCostModel {
    /// Calibration for the Nexus 4's Snapdragon APQ8064. The kernel crypto
    /// layer overlaps AES with device DMA, so the *effective* per-byte cost
    /// on the dm-crypt path is small (Fig. 4 shows FDE within ~5 % of plain
    /// Ext4 on this device).
    pub fn nexus4() -> Self {
        CpuCostModel {
            aes_ns_per_byte: 2.5,
            aes_call_ns: 500,
            pbkdf2_ns: 45_000_000,
            rng_ns_per_byte: 4.0,
            hash_small_ns: 2_000,
        }
    }

    /// Calibration for DEFY's testbed: a single-processor PC running the
    /// whole cipher stack synchronously in Python/C on top of nandsim —
    /// no DMA overlap, so crypto costs full price per byte.
    pub fn pc_singlecore() -> Self {
        CpuCostModel {
            aes_ns_per_byte: 14.0,
            aes_call_ns: 1_500,
            pbkdf2_ns: 45_000_000,
            rng_ns_per_byte: 4.0,
            hash_small_ns: 2_000,
        }
    }

    /// Free CPU (for tests isolating device costs).
    pub fn free() -> Self {
        CpuCostModel {
            aes_ns_per_byte: 0.0,
            aes_call_ns: 0,
            pbkdf2_ns: 0,
            rng_ns_per_byte: 0.0,
            hash_small_ns: 0,
        }
    }

    /// Cost of encrypting or decrypting `bytes` bytes with AES.
    pub fn aes_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.aes_call_ns + (self.aes_ns_per_byte * bytes as f64) as u64)
    }

    /// Cost of one PBKDF2 password derivation.
    pub fn pbkdf2_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.pbkdf2_ns)
    }

    /// Cost of generating `bytes` bytes of CSPRNG output.
    pub fn rng_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((self.rng_ns_per_byte * bytes as f64) as u64)
    }

    /// Cost of hashing a small (<= one block) input.
    pub fn hash_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.hash_small_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_io_costs_more_than_sequential() {
        let m = EmmcCostModel::nexus4();
        for (r, s) in [
            (OpKind::RandomRead, OpKind::SequentialRead),
            (OpKind::RandomWrite, OpKind::SequentialWrite),
        ] {
            assert!(m.cost(r, 4096) > m.cost(s, 4096), "{r:?} should exceed {s:?}");
        }
    }

    #[test]
    fn write_costs_more_than_read_on_flash() {
        let m = EmmcCostModel::nexus4();
        assert!(m.cost(OpKind::SequentialWrite, 4096) > m.cost(OpKind::SequentialRead, 4096));
    }

    #[test]
    fn cost_scales_with_size() {
        let m = EmmcCostModel::nexus4();
        let small = m.cost(OpKind::SequentialRead, 512);
        let big = m.cost(OpKind::SequentialRead, 65536);
        assert!(big > small * 10);
    }

    #[test]
    fn nexus4_sequential_write_band() {
        // Sanity: the raw medium should land in the 20-30 MB/s band so the
        // full stack with AES lands near the paper's 19.5 MB/s.
        let m = EmmcCostModel::nexus4();
        let per_4k = m.cost(OpKind::SequentialWrite, 4096).as_nanos() as f64;
        let mbps = 4096.0 / per_4k * 1e9 / 1e6;
        assert!((20.0..=30.0).contains(&mbps), "raw write speed {mbps:.1} MB/s out of band");
    }

    #[test]
    fn flat_model_uniform() {
        let m = EmmcCostModel::flat(100);
        assert_eq!(m.cost(OpKind::SequentialRead, 4096), m.cost(OpKind::RandomWrite, 4096));
        assert_eq!(m.cost(OpKind::Flush, 0), SimDuration::ZERO);
    }

    #[test]
    fn op_kind_predicates() {
        assert!(OpKind::RandomWrite.is_write());
        assert!(OpKind::Flush.is_write());
        assert!(!OpKind::SequentialRead.is_write());
        assert!(OpKind::SequentialRead.is_transfer());
        assert!(!OpKind::Flush.is_transfer());
    }

    #[test]
    fn batch_of_one_is_a_single_command() {
        for m in [
            EmmcCostModel::nexus4(),
            EmmcCostModel::ssd_840evo(),
            EmmcCostModel::nandsim_ramdisk(),
            EmmcCostModel::flat(100),
        ] {
            for op in [
                OpKind::SequentialRead,
                OpKind::RandomRead,
                OpKind::SequentialWrite,
                OpKind::RandomWrite,
            ] {
                assert_eq!(m.batch_cost(op, 1, 4096), m.cost(op, 4096), "{m:?} {op:?}");
            }
        }
    }

    #[test]
    fn batch_amortizes_exactly_the_setup() {
        let m = EmmcCostModel::nexus4();
        for op in [OpKind::SequentialWrite, OpKind::RandomRead] {
            let single = m.cost(op, 4096).as_nanos();
            let batch = m.batch_cost(op, 64, 64 * 4096).as_nanos();
            // One setup + 64 × (everything but the setup).
            assert_eq!(batch, single * 64 - 63 * m.cmd_setup_ns, "{op:?}");
        }
    }

    #[test]
    fn flat_model_has_no_amortization() {
        let m = EmmcCostModel::flat(100);
        assert_eq!(
            m.batch_cost(OpKind::SequentialWrite, 64, 64 * 4096),
            m.cost(OpKind::SequentialWrite, 4096) * 64
        );
    }

    #[test]
    fn batch_cost_empty_and_flush() {
        let m = EmmcCostModel::nexus4();
        assert_eq!(m.batch_cost(OpKind::SequentialWrite, 0, 0), SimDuration::ZERO);
        assert_eq!(m.batch_cost(OpKind::Flush, 2, 0), m.cost(OpKind::Flush, 0) * 2);
    }

    #[test]
    fn default_batch_cost_is_the_per_block_sum() {
        // A model that does not override batch_cost charges the legacy sum.
        #[derive(Debug)]
        struct Plain;
        impl CostModel for Plain {
            fn cost(&self, op: OpKind, bytes: usize) -> SimDuration {
                SimDuration::from_nanos(1_000 + bytes as u64 + u64::from(op.is_write()))
            }
        }
        let p = Plain;
        assert_eq!(
            p.batch_cost(OpKind::RandomWrite, 7, 7 * 512),
            p.cost(OpKind::RandomWrite, 512) * 7
        );
        assert_eq!(p.batch_cost(OpKind::RandomWrite, 0, 0), SimDuration::ZERO);
    }

    #[test]
    fn depth_one_is_the_pre_cqe_model_exactly() {
        for m in [
            EmmcCostModel::nexus4(),
            EmmcCostModel::emmc51_cqe(),
            EmmcCostModel::ssd_840evo(),
            EmmcCostModel::nandsim_ramdisk(),
            EmmcCostModel::flat(25_000),
        ] {
            for op in [OpKind::SequentialWrite, OpKind::RandomRead, OpKind::Flush] {
                for blocks in [1usize, 7, 64] {
                    assert_eq!(
                        m.batch_cost_at_depth(op, blocks, blocks * 4096, 1),
                        m.batch_cost(op, blocks, blocks * 4096),
                        "{m:?} {op:?} depth 1 must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn depth_overlap_amortizes_latency_but_not_transfer() {
        let m = EmmcCostModel::emmc51_cqe();
        let op = OpKind::RandomWrite;
        let full = m.batch_cost_at_depth(op, 8, 8 * 4096, 1);
        let mut last = full;
        for depth in [2usize, 4, 8, 32] {
            let overlapped = m.batch_cost_at_depth(op, 8, 8 * 4096, depth);
            assert!(overlapped < full, "depth {depth} must amortize");
            assert!(overlapped <= last, "deeper queues never cost more");
            last = overlapped;
        }
        // The bus is shared: the transfer component always charges full.
        let latency = m.cmd_setup_ns + 8 * m.per_block_ns(op);
        let transfer = m.batch_cost(op, 8, 8 * 4096).as_nanos() - latency;
        assert!(last.as_nanos() > transfer, "charge stays above the pure transfer");
    }

    #[test]
    fn depth_saturates_at_the_hardware_queue() {
        let m = EmmcCostModel::emmc51_cqe();
        assert_eq!(CostModel::queue_depth(&m), 32);
        assert_eq!(
            m.batch_cost_at_depth(OpKind::SequentialWrite, 4, 4 * 4096, 32),
            m.batch_cost_at_depth(OpKind::SequentialWrite, 4, 4 * 4096, 1000),
            "depth beyond the hardware queue buys nothing"
        );
    }

    #[test]
    fn synchronous_profiles_ignore_depth() {
        // nexus4 (pre-CQE eMMC), nandsim and flat() all advertise depth 1,
        // so even a deep in-flight count charges the pre-CQE cost — the
        // control that pins Fig. 4 / Table 1 under concurrent driving.
        for m in
            [EmmcCostModel::nexus4(), EmmcCostModel::nandsim_ramdisk(), EmmcCostModel::flat(25_000)]
        {
            assert_eq!(CostModel::queue_depth(&m), 1, "{m:?}");
            assert_eq!(
                m.batch_cost_at_depth(OpKind::RandomWrite, 16, 16 * 4096, 8),
                m.batch_cost(OpKind::RandomWrite, 16, 16 * 4096),
                "{m:?}"
            );
        }
    }

    #[test]
    fn default_batch_cost_at_depth_ignores_depth() {
        #[derive(Debug)]
        struct Plain;
        impl CostModel for Plain {
            fn cost(&self, _op: OpKind, bytes: usize) -> SimDuration {
                SimDuration::from_nanos(1_000 + bytes as u64)
            }
        }
        let p = Plain;
        assert_eq!(p.queue_depth(), 1);
        assert_eq!(
            p.batch_cost_at_depth(OpKind::SequentialRead, 5, 5 * 512, 16),
            p.batch_cost(OpKind::SequentialRead, 5, 5 * 512)
        );
    }

    #[test]
    fn cpu_model_costs() {
        let cpu = CpuCostModel::nexus4();
        assert!(cpu.aes_cost(4096) > cpu.aes_cost(512));
        assert!(cpu.pbkdf2_cost() >= SimDuration::from_millis(10));
        assert_eq!(CpuCostModel::free().aes_cost(1 << 20), SimDuration::ZERO);
    }
}
