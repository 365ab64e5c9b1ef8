//! The suite at test sizes: every workload runs clean, simulated results
//! repeat exactly per seed, the traced run matches the untraced one and
//! its per-layer accounting telescopes, and the metric tables match
//! `BENCHMARK.json`.

use mobiceal_suite::metrics::{self, Metric, END_TO_END, PER_LAYER};
use mobiceal_suite::report;
use mobiceal_suite::suite::{self, Budget, Config, Run, Workload};
use mobiceal_suite::trace::ROOT;

fn quick(workload: Workload, seed: u64, trace: bool) -> Run {
    suite::run(&Config { workload, seed, budget: Budget::Rounds(2), trace, quick: true })
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).map(|m| m.value).expect(name)
}

/// Everything simulated a run's plain rounds report: the simulated
/// end-to-end metrics, write amplification, operation counts and every
/// round's simulated totals.
fn simulated(run: &Run) -> Vec<u64> {
    let e2e = metrics::end_to_end(run);
    let mut out: Vec<u64> = ["sim_write_KBps", "sim_read_KBps", "sim_write_p99_us", "write_amp"]
        .iter()
        .map(|name| value(&e2e, name).to_bits())
        .collect();
    for r in &run.rounds {
        out.extend([r.attempted, r.setup.sim_ns, r.write.sim_ns, r.read.sim_ns, r.sim_total_ns]);
        out.push(r.medium.bytes_written());
    }
    out
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    for workload in Workload::ALL {
        let run = quick(workload, 1000, false);
        assert_eq!(run.failed(), 0, "{}: {:?}", workload.name(), run.errors());
        let e2e = metrics::end_to_end(&run);
        assert_eq!(e2e.len(), END_TO_END.len());
        for m in &e2e {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}: {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn simulated_results_repeat_exactly_per_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let a = simulated(&quick(workload, 1000, false));
        let b = simulated(&quick(workload, 1000, false));
        assert_eq!(a, b, "{}: same seed, same simulation", workload.name());
        let c = simulated(&quick(workload, 5000, false));
        assert_ne!(a, c, "{}: another seed, another simulation", workload.name());
    }
}

#[test]
fn traced_runs_match_untraced_and_telescope() {
    for workload in Workload::ALL {
        let plain = quick(workload, 1000, false);
        let traced = quick(workload, 1000, true);
        assert_eq!(traced.failed(), 0, "{}: {:?}", workload.name(), traced.errors());
        assert_eq!(simulated(&plain), simulated(&traced), "{}", workload.name());
        for (p, t) in plain.rounds.iter().zip(&traced.traced) {
            assert!(p.same_simulation(t), "{}: traced twin simulates alike", workload.name());
        }

        let rec = traced.recorder.as_ref().expect("traced runs keep their recorder");
        let measured = rec.sum(|k| k.phase == "run");
        let sim_total: u64 = traced.traced.iter().map(|r| r.sim_total_ns).sum();
        assert!(sim_total > 0);
        assert_eq!(measured.self_sim_ns, sim_total, "{}: self sim telescopes", workload.name());
        let unattributed = rec.sum(|k| k.phase == "run" && k.layer == ROOT);
        assert_eq!(unattributed.self_sim_ns, 0, "{}: no unattributed sim", workload.name());

        let layers = metrics::per_layer(&traced);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|m| m.value.is_finite()));
        let coverage = value(&layers, "ladder.coverage_sim");
        assert!((0.9..=1.1).contains(&coverage), "{}: coverage {coverage}", workload.name());
        for name in [
            "core.unlocked_volume.self_wall_ns_per_block.write",
            "core.unlocked_volume.self_wall_ns_per_block.read",
            "blockdev.memdisk.self_wall_ns_per_block",
            "dm.crypt.self_sim_ns_per_block.write",
            "crypto.modes.essiv_encrypt_MiBps.b64",
        ] {
            assert!(value(&layers, name) > 0.0, "{}: {name}", workload.name());
        }
    }
}

#[test]
fn dd_seq_reproduces_the_fig4_mc_p_row() {
    // `fig4_throughput` prints MC-P dd-Write 15950.03 and dd-Read
    // 21878.18 KB/s: means over devices seeded 1000..=1009.
    let config = Config {
        workload: Workload::DdSeq,
        seed: 1000,
        budget: Budget::Rounds(10),
        trace: false,
        quick: false,
    };
    let e2e = metrics::end_to_end(&suite::run(&config));
    assert_eq!(format!("{:.2}", value(&e2e, "sim_write_KBps")), "15950.03");
    assert_eq!(format!("{:.2}", value(&e2e, "sim_read_KBps")), "21878.18");
}

#[test]
fn result_line_has_the_contract_keys_in_order() {
    let run = quick(Workload::DdSeq, 1000, false);
    let line = report::result_line(&run);
    assert!(line.starts_with(r#"{"correct": true, "attempted": "#), "{line}");
    assert!(line.contains(r#", "failed": 0, "metrics": {"setup_s": {"value": "#), "{line}");
    assert!(!line.contains('\n'));
    for (name, unit) in END_TO_END {
        assert!(line.contains(&format!(r#""{name}": {{"value": "#)), "{name}");
        assert!(line.contains(&format!(r#""unit": "{unit}"}}"#)), "{unit}");
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(r#"{{"name": "{name}", "unit": "{unit}", "better": "#);
        assert_eq!(json.matches(&entry).count(), 1, "{name} ({unit}) listed once");
    }
    let listed = json.matches(r#"{"name": "#).count();
    let workloads = Workload::ALL.len();
    assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len(), "nothing else listed");
    for w in Workload::ALL {
        assert!(json.contains(&format!(r#"{{"name": "{}", "why": "#, w.name())));
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "names are unique");
}
