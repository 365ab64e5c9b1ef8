//! `suite`: runs the benchmark's workloads and reports their metrics.
//!
//! ```text
//! suite [--workload dd_seq|rand_4k|gc_tail|multi_tenant|all] [--seed N]
//!       [--seconds S | --rounds N] [--trace 0|1] [--quick] [--out PATH]
//!       [--calibrate RUNS]
//! ```
//!
//! The last line of standard output is the result of the last workload
//! run: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics, or the per-layer ones under `--trace 1`. Each run
//! also writes its JSON record to `target/benchmark/<workload>.json`
//! (`--out` overrides) and, when traced, the first traced round's raw
//! spans to `target/benchmark/trace-<workload>.jsonl`. Paths are relative
//! to the working directory.
//!
//! `--calibrate RUNS` instead runs each workload RUNS times untraced, on
//! seeds far enough apart that no two runs share a round, and prints every
//! end-to-end metric's median, relative IQR and the regression bound the
//! spread implies.

use mobiceal_suite::host::{self, Host};
use mobiceal_suite::metrics;
use mobiceal_suite::report;
use mobiceal_suite::stats::{bound_for_spread, quartiles, relative_iqr};
use mobiceal_suite::suite::{self, Budget, Config, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: suite [--workload dd_seq|rand_4k|gc_tail|multi_tenant|all] \
                     [--seed N] [--seconds S | --rounds N] [--trace 0|1] [--quick] \
                     [--out PATH] [--calibrate RUNS]";

/// Seed distance between calibration runs: more rounds than any run makes.
const CALIBRATION_SEED_STRIDE: u64 = 100_000;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    budget: Budget,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    calibrate: Option<u64>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1000,
        budget: Budget::Seconds(10.0),
        trace: false,
        quick: false,
        out: None,
        calibrate: None,
    };
    let mut rounds = None;
    let mut seconds = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(&name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--seed" => parsed.seed = number(&value("--seed")?)?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--rounds" => rounds = Some(number(&value("--rounds")?)?),
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--calibrate" => parsed.calibrate = Some(number(&value("--calibrate")?)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.budget = match (rounds, seconds) {
        (Some(n), _) => Budget::Rounds(n),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) if parsed.quick => Budget::Rounds(2),
        (None, None) => parsed.budget,
    };
    Ok(parsed)
}

fn number(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("{s}: {e}"))
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(config: Config, out: Option<&Path>, host: &Host) -> Result<(), String> {
    let run = suite::run(&config);
    print!("{}", report::human(&run, host));
    let name = config.workload.name();
    let default_out = PathBuf::from("target/benchmark").join(format!("{name}.json"));
    write_file(out.unwrap_or(&default_out), &report::record(&run, host))?;
    if let Some(rec) = &run.recorder {
        let spans = PathBuf::from("target/benchmark").join(format!("trace-{name}.jsonl"));
        write_file(&spans, &report::spans_jsonl(rec))?;
    }
    println!("{}", report::result_line(&run));
    Ok(())
}

fn calibrate(args: &Args, runs: u64) {
    for &workload in &args.workloads {
        let values: Vec<Vec<metrics::Metric>> = (0..runs)
            .map(|k| {
                let config = Config {
                    workload,
                    seed: args.seed + k * CALIBRATION_SEED_STRIDE,
                    budget: args.budget,
                    trace: false,
                    quick: args.quick,
                };
                metrics::end_to_end(&suite::run(&config))
            })
            .collect();
        println!("{}: {runs} runs", workload.name());
        for (i, &(name, unit)) in metrics::END_TO_END.iter().enumerate() {
            let xs: Vec<f64> = values.iter().map(|m| m[i].value).collect();
            let (q1, med, q3) = quartiles(&xs);
            let spread = relative_iqr(&xs);
            println!(
                "  {name:<18} median {med:>14.4} {unit:<9} q1 {q1:.4} q3 {q3:.4} \
                 rel IQR {spread:.4} -> bound {:.3}",
                bound_for_spread(spread)
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("suite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.calibrate {
        calibrate(&args, runs);
        return ExitCode::SUCCESS;
    }
    let host = host::detect();
    for &workload in &args.workloads {
        let config = Config {
            workload,
            seed: args.seed,
            budget: args.budget,
            trace: args.trace,
            quick: args.quick,
        };
        if let Err(e) = run_one(config, args.out.as_deref(), &host) {
            eprintln!("suite: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
