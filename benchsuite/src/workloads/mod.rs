//! The four workloads, each a fixed-shape *round* on a fresh device.
//!
//! A round sets up a device (timed as set-up), runs a measured phase and
//! records what happened in a [`Round`]. Every call into the stack that
//! the measured phase makes is timed on both clocks; phase wall and
//! simulated times are the sums of those calls, so the harness's own work
//! (input generation, comparisons) never counts. The workloads are written
//! here against the product's public API rather than borrowed from
//! `mobiceal_workloads`, so the benchmark's traffic only changes when this
//! package does.

pub mod dd_seq;
pub mod gc_tail;
pub mod multi_tenant;
pub mod rand_4k;

use crate::trace::{self, Capture, SpanDevice};
use mobiceal::{DummyStats, MobiCeal, MobiCealConfig, UnlockedVolume, VolumeRole};
use mobiceal_blockdev::{DeviceStats, MemDisk, SharedDevice};
use mobiceal_sim::{CostModel, EmmcCostModel, SimClock, SimInstant};
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

/// Block size of every device in the suite.
pub const BLOCK: usize = 4096;

/// The decoy (public) password.
pub const DECOY: &str = "decoy";

/// Layer names of the spans the suite records.
pub mod layer {
    pub const FS: &str = "fs.simfs";
    pub const ENGINE: &str = "blockdev.engine";
    /// The public volume's `UnlockedVolume`.
    pub const VOLUME: &str = "core.unlocked_volume";
    /// Unlocked hidden volumes, kept apart so the ladder can compare
    /// against public traffic alone.
    pub const HIDDEN_VOLUME: &str = "core.unlocked_volume.hidden";
    pub const MEMDISK: &str = "blockdev.memdisk";
    pub const COMMIT: &str = "core.commit";
    pub const GC: &str = "core.gc";
    pub const SETUP: &str = "core.setup";
}

/// A fresh medium of `blocks` blocks on `clock`: the Nexus 4 eMMC, or the
/// eMMC 5.1 CQE one. Its memory is touched before any timing starts (the
/// fill charges no simulated time and records no statistics), so measured
/// calls pay no host page faults for storage a real device simply has;
/// left to the measured phase, those faults made write throughput swing
/// by a tenth between runs.
pub fn medium(blocks: u64, clock: &SimClock, cqe: bool) -> Arc<MemDisk> {
    let cost: Arc<dyn CostModel> =
        if cqe { Arc::new(EmmcCostModel::emmc51_cqe()) } else { Arc::new(EmmcCostModel::nexus4()) };
    let disk = MemDisk::with_cost_model(blocks, BLOCK, clock.clone(), cost);
    disk.fill(0);
    Arc::new(disk)
}

/// The Fig. 4 MobiCeal configuration (`mobiceal_workloads::stacks`): six
/// volumes, 4 PBKDF2 iterations, 128 metadata blocks, no cache.
pub fn fig4_config() -> MobiCealConfig {
    MobiCealConfig {
        num_volumes: 6,
        pbkdf2_iterations: 4,
        metadata_blocks: 128,
        ..MobiCealConfig::default()
    }
}

/// The benchmark's own generator (splitmix64), so its inputs never change
/// when the product's RNGs do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Fills `buf` with the pattern named by `key`.
pub fn fill(buf: &mut [u8], key: u64) {
    let mut rng = Rng::new(key);
    for chunk in buf.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// The pattern key of version `version` of block `block` in a run seeded
/// `seed`.
pub fn block_key(seed: u64, block: u64, version: u64) -> u64 {
    let mut rng = Rng::new(seed ^ block.rotate_left(24) ^ version.rotate_left(48));
    rng.next_u64()
}

/// One block of the pattern for `(seed, block, version)`.
pub fn pattern_block(seed: u64, block: u64, version: u64) -> Vec<u8> {
    let mut buf = vec![0u8; BLOCK];
    fill(&mut buf, block_key(seed, block, version));
    buf
}

/// Wall and simulated duration of one call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Op {
    pub wall_ns: u64,
    pub sim_ns: u64,
}

/// Runs `f`, measuring it on the wall clock and on `clock`.
pub fn timed<T>(clock: &SimClock, f: impl FnOnce() -> T) -> (T, Op) {
    let sim_start = clock.now();
    let wall_start = Instant::now();
    let out = f();
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    (out, Op { wall_ns, sim_ns: (clock.now() - sim_start).as_nanos() })
}

/// Bytes moved and time spent by one direction of a measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phase {
    /// Plaintext bytes the workload moved.
    pub bytes: u64,
    pub wall_ns: u64,
    pub sim_ns: u64,
}

impl Phase {
    pub fn add(&mut self, bytes: u64, op: Op) {
        self.bytes += bytes;
        self.wall_ns += op.wall_ns;
        self.sim_ns += op.sim_ns;
    }
}

/// One garbage-collection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPass {
    pub op: Op,
    pub blocks_before: u64,
    pub blocks_reclaimed: u64,
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub seed: u64,
    /// The whole set-up (init, unlocks, format or prefill).
    pub setup: Op,
    pub init: Op,
    pub unlocks: Vec<Op>,
    pub write: Phase,
    pub read: Phase,
    /// Simulated time from the start to the end of the measured phase.
    pub sim_total_ns: u64,
    /// Foreground write calls (dd chunk, 4 KiB write, fs file write).
    pub write_ops: Vec<Op>,
    /// Foreground read calls.
    pub read_ops: Vec<Op>,
    /// Operations attempted and failed (an error, wrong bytes read back,
    /// or a lost hidden marker).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Medium statistics over the measured phase.
    pub medium: DeviceStats,
    /// Dummy-writer counters over the measured phase.
    pub dummy: DummyStats,
    /// `MobiCeal::commit` calls in the measured phase.
    pub commits: Vec<Op>,
    /// Medium bytes those commits wrote.
    pub commit_medium_bytes: u64,
    pub gc: Vec<GcPass>,
    /// gc_tail's open-loop work items: per foreground write, the simulated
    /// duration of the GC pass released with it (0 if none) and of the
    /// write itself.
    pub open_loop: Vec<(u64, u64)>,
    /// Sum and count of ring occupancy samples taken at each submit.
    pub inflight_sum: u64,
    pub inflight_samples: u64,
    /// Data blocks in use and blocks mapped by user (public or hidden)
    /// volumes at the end of the round.
    pub pool_used: u64,
    pub pool_live: u64,
}

impl Round {
    pub fn new(seed: u64) -> Self {
        Round { seed, ..Round::default() }
    }

    /// Counts one attempted operation and returns its value when it
    /// succeeded.
    pub fn check<T, E: Debug>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(why);
        }
    }

    /// Counts a read whose bytes differ from what was written.
    pub fn verify(&mut self, what: &str, ok: bool) {
        if !ok {
            self.fail(format!("{what}: read back different bytes"));
        }
    }

    /// Runs one timed, traced set-up step.
    pub fn setup_step<T, E: Debug>(
        &mut self,
        clock: &SimClock,
        step: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        let (result, op) = timed(clock, || trace::span(layer::SETUP, step, 0, f));
        match step {
            "init" => self.init = op,
            "unlock" => self.unlocks.push(op),
            _ => {}
        }
        result.map_err(|e| format!("{step}: {e:?}"))
    }

    /// Records the simulated total, the dummy-writer and medium deltas and
    /// the pool occupancy at the end of the measured phase, and checks that
    /// the phases' timed calls account for all of its simulated time.
    /// `hidden` are the device's hidden passwords: their volumes and the
    /// public one hold user data.
    pub fn finish(&mut self, mc: &MobiCeal, disk: &MemDisk, before: Before, hidden: &[&str]) {
        self.sim_total_ns = (disk.clock().now() - before.sim).as_nanos();
        self.attempted += 1;
        if self.write.sim_ns + self.read.sim_ns != self.sim_total_ns {
            self.fail(format!(
                "timed calls cover {} of {} simulated ns",
                self.write.sim_ns + self.read.sim_ns,
                self.sim_total_ns
            ));
        }
        self.medium = disk.stats().delta_since(&before.medium);
        let (now, then) = (mc.dummy_stats(), before.dummy);
        self.dummy = DummyStats {
            trigger_checks: now.trigger_checks - then.trigger_checks,
            bursts: now.bursts - then.bursts,
            blocks_written: now.blocks_written - then.blocks_written,
            blocks_dropped: now.blocks_dropped - then.blocks_dropped,
            refreshes: now.refreshes - then.refreshes,
        };
        let view = mc.metadata_view();
        self.pool_used = mc.layout().data_blocks - mc.free_blocks();
        let user_volumes = std::iter::once(1).chain(hidden.iter().map(|p| mc.volume_index_for(p)));
        self.pool_live = user_volumes.map(|v| view.mapped_blocks(v)).sum();
    }

    /// Whether two rounds simulated exactly the same thing: every
    /// simulated duration, byte count and counter agrees.
    pub fn same_simulation(&self, other: &Round) -> bool {
        let sims = |ops: &[Op]| ops.iter().map(|o| o.sim_ns).collect::<Vec<_>>();
        let gc = |r: &Round| {
            r.gc.iter()
                .map(|p| (p.op.sim_ns, p.blocks_before, p.blocks_reclaimed))
                .collect::<Vec<_>>()
        };
        self.setup.sim_ns == other.setup.sim_ns
            && self.sim_total_ns == other.sim_total_ns
            && (self.write.bytes, self.write.sim_ns) == (other.write.bytes, other.write.sim_ns)
            && (self.read.bytes, self.read.sim_ns) == (other.read.bytes, other.read.sim_ns)
            && sims(&self.write_ops) == sims(&other.write_ops)
            && sims(&self.read_ops) == sims(&other.read_ops)
            && sims(&self.commits) == sims(&other.commits)
            && (self.attempted, self.failed) == (other.attempted, other.failed)
            && self.medium == other.medium
            && self.dummy == other.dummy
            && self.commit_medium_bytes == other.commit_medium_bytes
            && gc(self) == gc(other)
            && self.open_loop == other.open_loop
            && (self.inflight_sum, self.inflight_samples)
                == (other.inflight_sum, other.inflight_samples)
            && (self.pool_used, self.pool_live) == (other.pool_used, other.pool_live)
    }
}

/// How a round attaches the tracer: plain rounds run the product stack
/// unwrapped; traced rounds wrap the medium and every unlocked volume in
/// span recorders, and may capture the public volume's calls for the
/// ladder.
#[derive(Clone, Default)]
pub struct Probe {
    pub traced: bool,
    pub capture: Option<Capture>,
}

impl Probe {
    /// The device handed to `MobiCeal::initialize`.
    pub fn disk(&self, disk: &Arc<MemDisk>) -> SharedDevice {
        if self.traced {
            Arc::new(SpanDevice::new(layer::MEMDISK, disk.clone()))
        } else {
            disk.clone()
        }
    }

    /// The device the workload drives for an unlocked volume.
    pub fn volume(&self, vol: UnlockedVolume) -> SharedDevice {
        if !self.traced {
            return Arc::new(vol);
        }
        match vol.role() {
            VolumeRole::Public => {
                Arc::new(SpanDevice::new(layer::VOLUME, vol).capturing(self.capture.clone()))
            }
            VolumeRole::Hidden => Arc::new(SpanDevice::new(layer::HIDDEN_VOLUME, vol)),
        }
    }
}

/// The counters a round reports as deltas over its measured phase, taken
/// when the phase starts.
pub struct Before {
    medium: DeviceStats,
    dummy: DummyStats,
    sim: SimInstant,
}

/// Takes the [`Before`] snapshot.
pub fn counters(mc: &MobiCeal, disk: &MemDisk) -> Before {
    Before { medium: disk.stats(), dummy: mc.dummy_stats(), sim: disk.clock().now() }
}

/// Reads back `indices` in batches of `batch` through `dev`, comparing each
/// block with `expected(index)`. Each batch is one timed read op.
pub fn verify_blocks(
    r: &mut Round,
    clock: &SimClock,
    dev: &SharedDevice,
    indices: &[u64],
    batch: usize,
    what: &str,
    expected: impl Fn(u64) -> Vec<u8>,
) {
    for part in indices.chunks(batch) {
        let (result, op) = timed(clock, || dev.read_blocks(part));
        r.read.add((part.len() * BLOCK) as u64, op);
        r.read_ops.push(op);
        if let Some(bufs) = r.check(what, result) {
            let ok = bufs.len() == part.len()
                && part.iter().zip(&bufs).all(|(&i, buf)| *buf == expected(i));
            r.verify(what, ok);
        }
    }
}

/// Writes version 0 of the pattern to `indices` in batches of `batch`
/// (set-up traffic: not timed as foreground ops).
pub fn write_pattern(
    dev: &SharedDevice,
    seed: u64,
    indices: &[u64],
    batch: usize,
) -> Result<(), String> {
    for part in indices.chunks(batch) {
        let blocks: Vec<Vec<u8>> = part.iter().map(|&i| pattern_block(seed, i, 0)).collect();
        let writes: Vec<(u64, &[u8])> =
            part.iter().zip(&blocks).map(|(&i, b)| (i, b.as_slice())).collect();
        dev.write_blocks(&writes).map_err(|e| format!("prefill: {e:?}"))?;
    }
    Ok(())
}
