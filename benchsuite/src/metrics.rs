//! The suite's metrics: the end-to-end set an untraced run reports and the
//! per-layer set a traced run reports, named and unitized exactly as
//! `BENCHMARK.json` lists them. Every workload reports every metric; a
//! per-layer metric of a layer a workload never crosses reads 0.
//!
//! Units prefixed `sim_` are simulated (the modelled Nexus 4 eMMC and CPU,
//! deterministic per seed); unprefixed time units are host wall clock.

use crate::ladder;
use crate::stats::{mean, median, percentile, supported_tail, Tail};
use crate::suite::{Run, Workload};
use crate::trace::{Agg, Key, Recorder, ROOT};
use crate::workloads::{layer, Op, Round};
use std::collections::BTreeMap;

/// One reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

const MIB: f64 = (1u64 << 20) as f64;

/// The end-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("write_MiBps", "MiB/s"),
    ("read_MiBps", "MiB/s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("sim_write_KBps", "KB/sim_s"),
    ("sim_read_KBps", "KB/sim_s"),
    ("sim_write_p99_us", "sim_us"),
    ("write_amp", "ratio"),
];

/// The per-layer metrics, in report order.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("trace.overhead_pct", "%"),
    ("bench.self_wall_share", "fraction"),
    ("bench.self_sim_share", "fraction"),
    ("fs.simfs.self_wall_share", "fraction"),
    ("fs.simfs.self_sim_share", "fraction"),
    ("blockdev.engine.self_wall_share", "fraction"),
    ("blockdev.engine.self_sim_share", "fraction"),
    ("core.unlocked_volume.self_wall_share", "fraction"),
    ("core.unlocked_volume.self_sim_share", "fraction"),
    ("blockdev.memdisk.self_wall_share", "fraction"),
    ("blockdev.memdisk.self_sim_share", "fraction"),
    ("core.commit.self_wall_share", "fraction"),
    ("core.commit.self_sim_share", "fraction"),
    ("core.gc.self_wall_share", "fraction"),
    ("core.gc.self_sim_share", "fraction"),
    ("core.unlocked_volume.self_wall_ns_per_block.write", "ns"),
    ("core.unlocked_volume.self_wall_ns_per_block.read", "ns"),
    ("core.unlocked_volume.self_sim_ns_per_block.write", "sim_ns"),
    ("core.unlocked_volume.self_sim_ns_per_block.read", "sim_ns"),
    ("blockdev.memdisk.self_wall_ns_per_block", "ns"),
    ("blockdev.memdisk.sim_ns_per_block.write", "sim_ns"),
    ("blockdev.memdisk.sim_ns_per_block.read", "sim_ns"),
    ("blockdev.memdisk.seq_write_ops_fraction", "fraction"),
    ("blockdev.memdisk.blocks_per_write_call", "blocks"),
    ("blockdev.memdisk.flushes_per_round", "count"),
    ("core.pde_volume.trigger_checks_per_round", "count"),
    ("core.pde_volume.dummy_blocks_per_public_alloc", "ratio"),
    ("core.pde_volume.dropped_bursts_per_round", "count"),
    ("core.commit.calls_per_round", "count"),
    ("core.commit.sim_us_p50", "sim_us"),
    ("core.commit.medium_bytes_per_call", "bytes"),
    ("core.gc.passes_per_round", "count"),
    ("core.gc.pass_sim_us_p50", "sim_us"),
    ("core.gc.pass_sim_us_max", "sim_us"),
    ("core.gc.blocks_reclaimed_per_pass", "blocks"),
    ("core.gc.reclaimed_fraction", "fraction"),
    ("core.gc.max_rate_wps", "1/sim_s"),
    ("core.gc.open_loop_p99_sim_us.r500", "sim_us"),
    ("core.gc.open_loop_p99_sim_us.r1000", "sim_us"),
    ("core.gc.open_loop_p99_sim_us.r2000", "sim_us"),
    ("core.gc.open_loop_p99_sim_us.r4000", "sim_us"),
    ("thinp.pool.used_blocks_per_live_block", "ratio"),
    ("blockdev.engine.inflight_mean", "slots"),
    ("blockdev.engine.submits_per_round", "count"),
    ("core.setup.init_wall_ms", "ms"),
    ("core.setup.unlock_wall_ms", "ms"),
    ("core.setup.init_sim_ms", "sim_ms"),
    ("core.setup.unlock_sim_ms", "sim_ms"),
    ("crypto.modes.essiv_encrypt_MiBps.b64", "MiB/s"),
    ("crypto.modes.essiv_encrypt_MiBps.b1", "MiB/s"),
    ("crypto.modes.essiv_decrypt_MiBps.b64", "MiB/s"),
    ("crypto.modes.essiv_decrypt_MiBps.b1", "MiB/s"),
    ("dm.linear.self_wall_ns_per_block.write", "ns"),
    ("dm.linear.self_wall_ns_per_block.read", "ns"),
    ("dm.linear.self_sim_ns_per_block.write", "sim_ns"),
    ("dm.linear.self_sim_ns_per_block.read", "sim_ns"),
    ("thinp.pool.self_wall_ns_per_block.write", "ns"),
    ("thinp.pool.self_wall_ns_per_block.read", "ns"),
    ("thinp.pool.self_sim_ns_per_block.write", "sim_ns"),
    ("thinp.pool.self_sim_ns_per_block.read", "sim_ns"),
    ("core.pde_volume.self_wall_ns_per_block.write", "ns"),
    ("core.pde_volume.self_wall_ns_per_block.read", "ns"),
    ("core.pde_volume.self_sim_ns_per_block.write", "sim_ns"),
    ("core.pde_volume.self_sim_ns_per_block.read", "sim_ns"),
    ("dm.crypt.self_wall_ns_per_block.write", "ns"),
    ("dm.crypt.self_wall_ns_per_block.read", "ns"),
    ("dm.crypt.self_sim_ns_per_block.write", "sim_ns"),
    ("dm.crypt.self_sim_ns_per_block.read", "sim_ns"),
    ("ladder.coverage_wall", "ratio"),
    ("ladder.coverage_sim", "ratio"),
];

/// The arrival rates gc_tail's open loop is replayed at, writes per
/// simulated second.
pub const RATES: [u64; 4] = [500, 1000, 2000, 4000];

/// The rate gc_tail's `sim_write_p99_us` is reported at.
pub const TAIL_RATE: u64 = 1000;

/// The p99 a rate must meet to count as sustained.
pub const LATENCY_LIMIT_NS: u64 = 5_000_000;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `amount` per second of `ns` nanoseconds.
fn per_second(amount: f64, ns: u64) -> f64 {
    ratio(amount, ns as f64 / 1e9)
}

fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

fn walls(ops: &[Op]) -> impl Iterator<Item = u64> + '_ {
    ops.iter().map(|o| o.wall_ns)
}

/// Simulated KB/s (1 KB = 1000 B) of a phase, computed as
/// `fig4_throughput` computes its dd columns.
fn sim_kbps(bytes: u64, sim_ns: u64) -> f64 {
    ratio(bytes as f64, sim_ns as f64 / 1e9) / 1000.0
}

/// Replays one round's open-loop work at `rate` writes per simulated
/// second. Write `i` is due at `i / rate`; a GC pass released with it and
/// then the write itself start when both their due time has come and the
/// previous work is done (the virtual busy cursor). Returns each write's
/// latency from its due time, and the utilization (total work over the
/// schedule's span; at 1 or more the backlog grows without bound).
pub fn open_loop(work: &[(u64, u64)], rate: u64) -> (Vec<u64>, f64) {
    let interval = 1_000_000_000 / rate;
    let mut busy = 0u64;
    let mut total_work = 0u64;
    let latencies = work
        .iter()
        .enumerate()
        .map(|(i, &(gc, write))| {
            let due = i as u64 * interval;
            if gc > 0 {
                busy = busy.max(due) + gc;
            }
            busy = busy.max(due) + write;
            total_work += gc + write;
            busy - due
        })
        .collect();
    (latencies, ratio(total_work as f64, (work.len() as u64 * interval) as f64))
}

/// One swept rate of gc_tail's open loop, pooled over the run's rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    pub rate: u64,
    pub p50_ns: u64,
    pub p99: Tail,
    pub utilization: f64,
}

impl RatePoint {
    /// Meets the latency limit without a growing backlog.
    pub fn sustained(&self) -> bool {
        self.p99.value <= LATENCY_LIMIT_NS && self.utilization < 1.0
    }
}

/// gc_tail's rate sweep; empty for workloads without open-loop work.
pub fn sweep(rounds: &[Round]) -> Vec<RatePoint> {
    if rounds.iter().all(|r| r.open_loop.is_empty()) {
        return Vec::new();
    }
    RATES
        .iter()
        .map(|&rate| {
            let (mut latencies, mut busy, mut span) = (Vec::new(), 0.0, 0.0);
            for r in rounds {
                let (lat, util) = open_loop(&r.open_loop, rate);
                let round_span = (r.open_loop.len() as u64 * (1_000_000_000 / rate)) as f64;
                busy += util * round_span;
                span += round_span;
                latencies.extend(lat);
            }
            latencies.sort_unstable();
            RatePoint {
                rate,
                p50_ns: percentile(&latencies, 50.0),
                p99: crate::stats::tail(&latencies, 99.0),
                utilization: ratio(busy, span),
            }
        })
        .collect()
}

/// The highest swept rate that is sustained; 0 if none is.
pub fn max_rate(points: &[RatePoint]) -> u64 {
    points.iter().filter(|p| p.sustained()).map(|p| p.rate).max().unwrap_or(0)
}

/// Simulated write latencies the end-to-end tail is taken over, sorted:
/// gc_tail's open-loop latencies at [`TAIL_RATE`], every other workload's
/// foreground write calls.
pub fn write_latencies(workload: Workload, rounds: &[Round]) -> Vec<u64> {
    match workload {
        Workload::GcTail => {
            sorted(rounds.iter().flat_map(|r| open_loop(&r.open_loop, TAIL_RATE).0))
        }
        _ => sorted(rounds.iter().flat_map(|r| r.write_ops.iter().map(|o| o.sim_ns))),
    }
}

/// The end-to-end metrics of a run's plain rounds.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let rounds = &run.rounds;
    let each = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let medium_written: u64 = rounds.iter().map(|r| r.medium.bytes_written()).sum();
    let plaintext_written: u64 = rounds.iter().map(|r| r.write.bytes).sum();
    let write_walls = sorted(rounds.iter().flat_map(|r| walls(&r.write_ops)));
    let read_walls = sorted(rounds.iter().flat_map(|r| walls(&r.read_ops)));
    let values = [
        median(&each(|r| r.setup.wall_ns as f64 / 1e9)),
        median(&each(|r| per_second(r.write.bytes as f64 / MIB, r.write.wall_ns))),
        median(&each(|r| per_second(r.read.bytes as f64 / MIB, r.read.wall_ns))),
        percentile(&write_walls, 50.0) as f64 / 1e3,
        percentile(&read_walls, 50.0) as f64 / 1e3,
        mean(&each(|r| sim_kbps(r.write.bytes, r.write.sim_ns))),
        mean(&each(|r| sim_kbps(r.read.bytes, r.read.sim_ns))),
        percentile(&write_latencies(run.config.workload, rounds), 99.0) as f64 / 1e3,
        ratio(medium_written as f64, plaintext_written as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Values that only the human-readable report prints.
pub fn extras(run: &Run) -> Vec<(String, f64, &'static str)> {
    let rounds = &run.rounds;
    let n = rounds.len() as f64;
    let latencies = write_latencies(run.config.workload, rounds);
    let tail = supported_tail(&latencies);
    let mut out = vec![
        ("rounds".to_string(), n, "count"),
        ("ops_per_round".to_string(), ratio(run.attempted() as f64, n), "count"),
        (
            "sim_total_s_per_round".to_string(),
            mean(&rounds.iter().map(|r| r.sim_total_ns as f64 / 1e9).collect::<Vec<_>>()),
            "sim_s",
        ),
        ("sim_write_p50_us".to_string(), percentile(&latencies, 50.0) as f64 / 1e3, "sim_us"),
        (format!("sim_write_tail_p{}_us", tail.pct), tail.value as f64 / 1e3, "sim_us"),
        ("sim_write_tail_samples".to_string(), tail.samples as f64, "count"),
        ("sim_write_tail_beyond".to_string(), tail.beyond as f64, "count"),
    ];
    let points = sweep(rounds);
    for p in &points {
        out.push((format!("open_loop_p50_us.r{}", p.rate), p.p50_ns as f64 / 1e3, "sim_us"));
        out.push((format!("open_loop_p99_us.r{}", p.rate), p.p99.value as f64 / 1e3, "sim_us"));
        out.push((format!("open_loop_utilization.r{}", p.rate), p.utilization, "ratio"));
    }
    if !points.is_empty() {
        out.push(("sim_max_rate_wps".to_string(), max_rate(&points) as f64, "1/sim_s"));
    }
    out
}

/// Per-layer values by name; names absent from [`PER_LAYER`] are a bug.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted metric {name}");
        self.0.insert(name, value);
    }
}

/// Self time of `agg` per block, wall and simulated.
fn per_block(agg: Agg, blocks: u64) -> (f64, f64) {
    (ratio(agg.self_wall_ns as f64, blocks as f64), ratio(agg.self_sim_ns as f64, blocks as f64))
}

fn is_volume(layer_name: &str) -> bool {
    layer_name == layer::VOLUME || layer_name == layer::HIDDEN_VOLUME
}

/// Whether a span serves the user's writes (syncs included) or reads.
fn serves(key: &Key, write: bool) -> bool {
    (key.class == "read") != write
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let mut v = Values::default();
    if let Some(rec) = &run.recorder {
        trace_metrics(run, rec, &mut v);
        ladder_metrics(run, rec, &mut v);
    }
    counter_metrics(run, &mut v);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric { name, unit, value: v.0.get(name).copied().unwrap_or(0.0) })
        .collect()
}

fn trace_metrics(run: &Run, rec: &Recorder, v: &mut Values) {
    let measured = |pred: &dyn Fn(&Key) -> bool| rec.sum(|k| k.phase == "run" && pred(k));
    let root = measured(&|k| k.layer == ROOT);
    let shares: [(&str, &str, &[&str]); 7] = [
        ("bench.self_wall_share", "bench.self_sim_share", &[ROOT]),
        ("fs.simfs.self_wall_share", "fs.simfs.self_sim_share", &[layer::FS]),
        ("blockdev.engine.self_wall_share", "blockdev.engine.self_sim_share", &[layer::ENGINE]),
        (
            "core.unlocked_volume.self_wall_share",
            "core.unlocked_volume.self_sim_share",
            &[layer::VOLUME, layer::HIDDEN_VOLUME],
        ),
        ("blockdev.memdisk.self_wall_share", "blockdev.memdisk.self_sim_share", &[layer::MEMDISK]),
        ("core.commit.self_wall_share", "core.commit.self_sim_share", &[layer::COMMIT]),
        ("core.gc.self_wall_share", "core.gc.self_sim_share", &[layer::GC]),
    ];
    for (wall_name, sim_name, layers) in shares {
        let agg = measured(&|k| layers.contains(&k.layer));
        v.set(wall_name, ratio(agg.self_wall_ns as f64, root.total_wall_ns as f64));
        v.set(sim_name, ratio(agg.self_sim_ns as f64, root.total_sim_ns as f64));
    }

    for (write, wall_name, sim_name) in [
        (
            true,
            "core.unlocked_volume.self_wall_ns_per_block.write",
            "core.unlocked_volume.self_sim_ns_per_block.write",
        ),
        (
            false,
            "core.unlocked_volume.self_wall_ns_per_block.read",
            "core.unlocked_volume.self_sim_ns_per_block.read",
        ),
    ] {
        let op = if write { "write" } else { "read" };
        let agg = measured(&|k| is_volume(k.layer) && serves(k, write));
        let blocks = measured(&|k| is_volume(k.layer) && k.op == op && serves(k, write)).blocks;
        let (wall, sim) = per_block(agg, blocks);
        v.set(wall_name, wall);
        v.set(sim_name, sim);
    }

    let medium = measured(&|k| k.layer == layer::MEMDISK);
    v.set("blockdev.memdisk.self_wall_ns_per_block", per_block(medium, medium.blocks).0);
    let medium_writes = measured(&|k| k.layer == layer::MEMDISK && k.op == "write");
    let medium_reads = measured(&|k| k.layer == layer::MEMDISK && k.op == "read");
    v.set(
        "blockdev.memdisk.sim_ns_per_block.write",
        per_block(medium_writes, medium_writes.blocks).1,
    );
    v.set("blockdev.memdisk.sim_ns_per_block.read", per_block(medium_reads, medium_reads.blocks).1);
    v.set(
        "blockdev.memdisk.blocks_per_write_call",
        ratio(medium_writes.blocks as f64, medium_writes.calls as f64),
    );

    let stack_wall = |r: &Round| (r.write.wall_ns + r.read.wall_ns) as f64;
    let plain = median(&run.rounds.iter().map(stack_wall).collect::<Vec<_>>());
    let traced = median(&run.traced.iter().map(stack_wall).collect::<Vec<_>>());
    v.set("trace.overhead_pct", (ratio(traced, plain) - 1.0) * 100.0);
}

fn ladder_metrics(run: &Run, rec: &Recorder, v: &mut Values) {
    let rung = |phase: &str, layer_name: &str, write: Option<bool>| {
        rec.sum(|k| k.phase == phase && k.layer == layer_name && write.is_none_or(|w| serves(k, w)))
    };
    let (write_blocks, read_blocks) = run.ladder_blocks;
    let names: [(&str, [&'static str; 4]); 4] = [
        (
            ladder::LINEAR,
            [
                "dm.linear.self_wall_ns_per_block.write",
                "dm.linear.self_wall_ns_per_block.read",
                "dm.linear.self_sim_ns_per_block.write",
                "dm.linear.self_sim_ns_per_block.read",
            ],
        ),
        (
            ladder::THIN,
            [
                "thinp.pool.self_wall_ns_per_block.write",
                "thinp.pool.self_wall_ns_per_block.read",
                "thinp.pool.self_sim_ns_per_block.write",
                "thinp.pool.self_sim_ns_per_block.read",
            ],
        ),
        (
            ladder::PDE,
            [
                "core.pde_volume.self_wall_ns_per_block.write",
                "core.pde_volume.self_wall_ns_per_block.read",
                "core.pde_volume.self_sim_ns_per_block.write",
                "core.pde_volume.self_sim_ns_per_block.read",
            ],
        ),
        (
            ladder::CRYPT,
            [
                "dm.crypt.self_wall_ns_per_block.write",
                "dm.crypt.self_wall_ns_per_block.read",
                "dm.crypt.self_sim_ns_per_block.write",
                "dm.crypt.self_sim_ns_per_block.read",
            ],
        ),
    ];
    for (rung_layer, [wall_w, wall_r, sim_w, sim_r]) in names {
        for (write, wall_name, sim_name, blocks) in
            [(true, wall_w, sim_w, write_blocks), (false, wall_r, sim_r, read_blocks)]
        {
            let (wall, sim) = match rung_layer {
                ladder::THIN => {
                    per_block(rung(ladder::PHASE_THIN, ladder::THIN, Some(write)), blocks)
                }
                ladder::PDE => {
                    let with_thin =
                        per_block(rung(ladder::PHASE, ladder::PDE, Some(write)), blocks);
                    let thin =
                        per_block(rung(ladder::PHASE_THIN, ladder::THIN, Some(write)), blocks);
                    (with_thin.0 - thin.0, with_thin.1 - thin.1)
                }
                _ => per_block(rung(ladder::PHASE, rung_layer, Some(write)), blocks),
            };
            v.set(wall_name, wall);
            v.set(sim_name, sim);
        }
    }
    let mirror = [ladder::LINEAR, ladder::PDE, ladder::CRYPT]
        .map(|l| rung(ladder::PHASE, l, None))
        .iter()
        .fold(Agg::default(), |mut acc, a| {
            acc.self_wall_ns += a.self_wall_ns;
            acc.self_sim_ns += a.self_sim_ns;
            acc
        });
    let public = rec.sum(|k| k.phase == "run" && k.layer == layer::VOLUME);
    v.set("ladder.coverage_wall", ratio(mirror.self_wall_ns as f64, public.self_wall_ns as f64));
    v.set("ladder.coverage_sim", ratio(mirror.self_sim_ns as f64, public.self_sim_ns as f64));
}

fn counter_metrics(run: &Run, v: &mut Values) {
    let rounds = &run.rounds;
    let n = rounds.len() as f64;
    let total = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;

    v.set(
        "blockdev.memdisk.seq_write_ops_fraction",
        ratio(total(|r| r.medium.seq_writes.ops), total(|r| r.medium.total_writes())),
    );
    v.set("blockdev.memdisk.flushes_per_round", ratio(total(|r| r.medium.flushes.ops), n));

    v.set("core.pde_volume.trigger_checks_per_round", ratio(total(|r| r.dummy.trigger_checks), n));
    v.set(
        "core.pde_volume.dummy_blocks_per_public_alloc",
        ratio(total(|r| r.dummy.blocks_written), total(|r| r.dummy.trigger_checks)),
    );
    v.set("core.pde_volume.dropped_bursts_per_round", ratio(total(|r| r.dummy.blocks_dropped), n));

    let commits = sorted(rounds.iter().flat_map(|r| r.commits.iter().map(|o| o.sim_ns)));
    v.set("core.commit.calls_per_round", ratio(commits.len() as f64, n));
    v.set("core.commit.sim_us_p50", percentile(&commits, 50.0) as f64 / 1e3);
    v.set(
        "core.commit.medium_bytes_per_call",
        ratio(total(|r| r.commit_medium_bytes), commits.len() as f64),
    );

    let passes = sorted(rounds.iter().flat_map(|r| r.gc.iter().map(|p| p.op.sim_ns)));
    v.set("core.gc.passes_per_round", ratio(passes.len() as f64, n));
    v.set("core.gc.pass_sim_us_p50", percentile(&passes, 50.0) as f64 / 1e3);
    v.set("core.gc.pass_sim_us_max", passes.last().copied().unwrap_or(0) as f64 / 1e3);
    let reclaimed = total(|r| r.gc.iter().map(|p| p.blocks_reclaimed).sum());
    v.set("core.gc.blocks_reclaimed_per_pass", ratio(reclaimed, passes.len() as f64));
    v.set(
        "core.gc.reclaimed_fraction",
        ratio(reclaimed, total(|r| r.gc.iter().map(|p| p.blocks_before).sum())),
    );
    let points = sweep(rounds);
    v.set("core.gc.max_rate_wps", max_rate(&points) as f64);
    for p in &points {
        let name = match p.rate {
            500 => "core.gc.open_loop_p99_sim_us.r500",
            1000 => "core.gc.open_loop_p99_sim_us.r1000",
            2000 => "core.gc.open_loop_p99_sim_us.r2000",
            _ => "core.gc.open_loop_p99_sim_us.r4000",
        };
        v.set(name, p.p99.value as f64 / 1e3);
    }

    v.set(
        "thinp.pool.used_blocks_per_live_block",
        mean(
            &rounds
                .iter()
                .map(|r| ratio(r.pool_used as f64, r.pool_live as f64))
                .collect::<Vec<_>>(),
        ),
    );
    v.set(
        "blockdev.engine.inflight_mean",
        ratio(total(|r| r.inflight_sum), total(|r| r.inflight_samples)),
    );
    v.set("blockdev.engine.submits_per_round", ratio(total(|r| r.inflight_samples), n));

    let inits: Vec<&Op> = rounds.iter().map(|r| &r.init).collect();
    let unlocks: Vec<&Op> = rounds.iter().flat_map(|r| &r.unlocks).collect();
    let ms = |ops: &[&Op], wall: bool| -> Vec<f64> {
        ops.iter().map(|o| if wall { o.wall_ns } else { o.sim_ns } as f64 / 1e6).collect()
    };
    v.set("core.setup.init_wall_ms", median(&ms(&inits, true)));
    v.set("core.setup.unlock_wall_ms", median(&ms(&unlocks, true)));
    v.set("core.setup.init_sim_ms", mean(&ms(&inits, false)));
    v.set("core.setup.unlock_sim_ms", mean(&ms(&unlocks, false)));

    if let Some(c) = run.crypto {
        v.set("crypto.modes.essiv_encrypt_MiBps.b64", c.encrypt_b64);
        v.set("crypto.modes.essiv_encrypt_MiBps.b1", c.encrypt_b1);
        v.set("crypto.modes.essiv_decrypt_MiBps.b64", c.decrypt_b64);
        v.set("crypto.modes.essiv_decrypt_MiBps.b1", c.decrypt_b1);
    }
}
