//! Running a workload: rounds until the budget is spent, and in a traced
//! run each round twice (plain, then traced with identical inputs) plus the
//! ladder replay of the traced round's public-volume calls.

use crate::ladder::{self, MirrorSpec};
use crate::micro;
use crate::trace::{self, Capture, Recorder};
use crate::workloads::{dd_seq, fig4_config, gc_tail, multi_tenant, rand_4k, Probe, Round};
use std::time::{Duration, Instant};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DdSeq,
    Rand4k,
    GcTail,
    MultiTenant,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::DdSeq, Workload::Rand4k, Workload::GcTail, Workload::MultiTenant];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DdSeq => "dd_seq",
            Workload::Rand4k => "rand_4k",
            Workload::GcTail => "gc_tail",
            Workload::MultiTenant => "multi_tenant",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One round on a device initialized with `seed`.
    pub fn round(self, seed: u64, quick: bool, probe: &Probe) -> Round {
        match self {
            Workload::DdSeq => dd_seq::round(seed, pick(quick, dd_seq::QUICK, dd_seq::FULL), probe),
            Workload::Rand4k => {
                rand_4k::round(seed, pick(quick, rand_4k::QUICK, rand_4k::FULL), probe)
            }
            Workload::GcTail => {
                gc_tail::round(seed, pick(quick, gc_tail::QUICK, gc_tail::FULL), probe)
            }
            Workload::MultiTenant => multi_tenant::round(
                seed,
                pick(quick, multi_tenant::QUICK, multi_tenant::FULL),
                probe,
            ),
        }
    }

    /// What the ladder's mirror must be built from to match a round.
    pub fn mirror(self, seed: u64, quick: bool) -> MirrorSpec {
        let (config, hidden, cqe) = match self {
            Workload::DdSeq => (fig4_config(), dd_seq::HIDDEN, false),
            Workload::Rand4k => (fig4_config(), rand_4k::HIDDEN, false),
            Workload::GcTail => (gc_tail::config(), gc_tail::HIDDEN, false),
            Workload::MultiTenant => (fig4_config(), multi_tenant::HIDDEN, true),
        };
        let disk_blocks = match self {
            Workload::DdSeq => pick(quick, dd_seq::QUICK, dd_seq::FULL).disk_blocks,
            Workload::Rand4k => pick(quick, rand_4k::QUICK, rand_4k::FULL).disk_blocks,
            Workload::GcTail => pick(quick, gc_tail::QUICK, gc_tail::FULL).disk_blocks,
            Workload::MultiTenant => {
                pick(quick, multi_tenant::QUICK, multi_tenant::FULL).disk_blocks
            }
        };
        MirrorSpec { seed, config, hidden, disk_blocks, cqe }
    }

    /// The fixed counts of one round, for the record.
    pub fn shape(self, quick: bool) -> Vec<(&'static str, u64)> {
        match self {
            Workload::DdSeq => {
                let s = pick(quick, dd_seq::QUICK, dd_seq::FULL);
                vec![
                    ("disk_blocks", s.disk_blocks),
                    ("file_bytes", s.file_bytes as u64),
                    ("chunk_bytes", s.chunk_bytes as u64),
                ]
            }
            Workload::Rand4k => {
                let s = pick(quick, rand_4k::QUICK, rand_4k::FULL);
                vec![
                    ("disk_blocks", s.disk_blocks),
                    ("prefill_blocks", s.prefill_blocks),
                    ("ops", s.ops as u64),
                ]
            }
            Workload::GcTail => {
                let s = pick(quick, gc_tail::QUICK, gc_tail::FULL);
                vec![
                    ("disk_blocks", s.disk_blocks),
                    ("warmup_blocks", s.warmup_blocks),
                    ("marker_blocks", s.marker_blocks),
                    ("writes", s.writes),
                    ("gc_every", s.gc_every),
                ]
            }
            Workload::MultiTenant => {
                let s = pick(quick, multi_tenant::QUICK, multi_tenant::FULL);
                vec![
                    ("disk_blocks", s.disk_blocks),
                    ("batches", s.batches),
                    ("batch_blocks", s.batch_blocks),
                    ("ring_depth", s.ring_depth as u64),
                ]
            }
        }
    }
}

/// The test shape when `quick`, the full one otherwise.
fn pick<T>(quick: bool, quick_shape: T, full: T) -> T {
    if quick {
        quick_shape
    } else {
        full
    }
}

/// How much a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole rounds until this many seconds have passed (at least
    /// [`MIN_ROUNDS`]).
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(u64),
}

/// Rounds a time-budgeted run makes at least, so medians have support.
pub const MIN_ROUNDS: u64 = 3;

/// Raw spans kept for the JSONL dump (from the first traced round).
const RAW_SPAN_CAP: usize = 100_000;

/// Sampling budget of each `crypto.modes` measurement.
const CRYPTO_BUDGET: Duration = Duration::from_millis(60);

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    pub workload: Workload,
    /// Round `i` initializes its device with `seed + i`.
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Test-sized rounds.
    pub quick: bool,
}

/// `crypto.modes` throughputs, MiB/s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CryptoRates {
    pub encrypt_b64: f64,
    pub encrypt_b1: f64,
    pub decrypt_b64: f64,
    pub decrypt_b1: f64,
}

/// Everything a run produced.
pub struct Run {
    pub config: Config,
    /// Plain rounds: the end-to-end numbers come from these.
    pub rounds: Vec<Round>,
    /// Traced twins of the plain rounds (traced runs only).
    pub traced: Vec<Round>,
    pub recorder: Option<Recorder>,
    /// User blocks written and read by the ladder replays.
    pub ladder_blocks: (u64, u64),
    pub crypto: Option<CryptoRates>,
    /// Checks of the traced run that failed.
    pub trace_failures: Vec<String>,
    pub elapsed: Duration,
}

impl Run {
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().chain(&self.traced).map(|r| r.attempted).sum::<u64>()
            + self.trace_failures.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().chain(&self.traced).map(|r| r.failed).sum::<u64>()
            + self.trace_failures.len() as u64
    }

    /// The first few failure messages.
    pub fn errors(&self) -> Vec<String> {
        let rounds = self.rounds.iter().chain(&self.traced).flat_map(|r| r.errors.iter());
        self.trace_failures.iter().chain(rounds).take(8).cloned().collect()
    }
}

/// Runs `config`.
pub fn run(config: &Config) -> Run {
    let start = Instant::now();
    let mut run = Run {
        config: *config,
        rounds: Vec::new(),
        traced: Vec::new(),
        recorder: None,
        ladder_blocks: (0, 0),
        crypto: None,
        trace_failures: Vec::new(),
        elapsed: Duration::ZERO,
    };
    if config.trace {
        trace::install(RAW_SPAN_CAP);
        run.crypto = Some(CryptoRates {
            encrypt_b64: micro::essiv_mibps(true, 64, CRYPTO_BUDGET),
            encrypt_b1: micro::essiv_mibps(true, 1, CRYPTO_BUDGET),
            decrypt_b64: micro::essiv_mibps(false, 64, CRYPTO_BUDGET),
            decrypt_b1: micro::essiv_mibps(false, 1, CRYPTO_BUDGET),
        });
    }
    for i in 0.. {
        let done = match config.budget {
            Budget::Rounds(n) => i >= n,
            Budget::Seconds(s) => i >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let seed = config.seed + i;
        let plain = config.workload.round(seed, config.quick, &Probe::default());
        if config.trace {
            let traced = traced_round(config, seed, &mut run);
            if !plain.same_simulation(&traced) {
                run.trace_failures.push(format!("round {i}: traced run simulated differently"));
            }
            run.traced.push(traced);
        }
        run.rounds.push(plain);
    }
    run.recorder = trace::take();
    if let Some(rec) = &run.recorder {
        run.trace_failures.extend(telescoping_failures(rec, &run.traced));
    }
    run.elapsed = start.elapsed();
    run
}

/// The traced twin of round `seed`, followed by the ladder replay of its
/// public-volume calls.
fn traced_round(config: &Config, seed: u64, run: &mut Run) -> Round {
    let capture = Capture::default();
    let probe = Probe { traced: true, capture: Some(capture.clone()) };
    trace::activate(true);
    let round = config.workload.round(seed, config.quick, &probe);
    let calls = std::mem::take(&mut *capture.lock().expect("capture lock"));
    let (w, r) = ladder::user_blocks(&calls);
    run.ladder_blocks.0 += w;
    run.ladder_blocks.1 += r;
    if let Err(e) = ladder::replay(&config.workload.mirror(seed, config.quick), &calls) {
        run.trace_failures.push(e);
    }
    trace::activate(false);
    trace::stop_raw();
    round
}

/// The traced run's accounting checks: the measured phases' per-layer self
/// simulated times sum exactly to their simulated total, and no simulated
/// time falls outside a layer span.
fn telescoping_failures(rec: &Recorder, traced: &[Round]) -> Vec<String> {
    let mut failures = Vec::new();
    let self_sim = rec.sum(|k| k.phase == "run").self_sim_ns;
    let total: u64 = traced.iter().map(|r| r.sim_total_ns).sum();
    if self_sim != total {
        failures.push(format!("per-layer self sim {self_sim} ns != sim total {total} ns"));
    }
    let unattributed = rec.sum(|k| k.phase == "run" && k.layer == trace::ROOT).self_sim_ns;
    if unattributed != 0 {
        failures.push(format!("{unattributed} simulated ns outside every layer span"));
    }
    failures
}
