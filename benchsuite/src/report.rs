//! What a run prints and writes: the human-readable report, the one-line
//! result, the machine-written JSON record and the raw-span dump.

use crate::host::Host;
use crate::json::{self, array, Object};
use crate::metrics::{self, Metric};
use crate::suite::{Budget, Run};
use crate::trace::Recorder;

fn metric_object(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .fold(Object::new(), |o, m| {
            o.raw(m.name, Object::new().num("value", m.value).str("unit", m.unit).render())
        })
        .render()
}

/// The result line: correctness, operation counts and the metrics, the
/// per-layer ones for a traced run and the end-to-end ones otherwise.
pub fn result_line(run: &Run) -> String {
    let metrics = if run.config.trace { metrics::per_layer(run) } else { metrics::end_to_end(run) };
    Object::new()
        .bool("correct", run.failed() == 0)
        .int("attempted", run.attempted().max(1))
        .int("failed", run.failed())
        .raw("metrics", metric_object(&metrics))
        .render()
}

fn host_object(host: &Host) -> String {
    Object::new()
        .int("nproc", host.nproc as u64)
        .str("cpu_model", &host.cpu_model)
        .bool("aes_ni", host.aes_ni)
        .bool("pclmulqdq", host.pclmulqdq)
        .render()
}

/// The JSON record of a run: settings, host, shape, every metric and the
/// per-round values, all written by the run itself.
pub fn record(run: &Run, host: &Host) -> String {
    let config = run.config;
    let budget = match config.budget {
        Budget::Seconds(s) => Object::new().num("seconds", s),
        Budget::Rounds(n) => Object::new().int("rounds", n),
    };
    let shape = config
        .workload
        .shape(config.quick)
        .into_iter()
        .fold(Object::new(), |o, (k, v)| o.int(k, v))
        .render();
    let extras = metrics::extras(run)
        .into_iter()
        .fold(Object::new(), |o, (name, value, unit)| {
            o.raw(&name, Object::new().num("value", value).str("unit", unit).render())
        })
        .render();
    let per_round = array(run.rounds.iter().map(|r| {
        Object::new()
            .int("seed", r.seed)
            .num("setup_s", r.setup.wall_ns as f64 / 1e9)
            .int("write_bytes", r.write.bytes)
            .int("write_wall_ns", r.write.wall_ns)
            .int("write_sim_ns", r.write.sim_ns)
            .int("read_bytes", r.read.bytes)
            .int("read_wall_ns", r.read.wall_ns)
            .int("read_sim_ns", r.read.sim_ns)
            .int("sim_total_ns", r.sim_total_ns)
            .int("medium_bytes_written", r.medium.bytes_written())
            .int("attempted", r.attempted)
            .int("failed", r.failed)
            .render()
    }));
    let mut record = Object::new()
        .str("workload", config.workload.name())
        .int("seed", config.seed)
        .raw("budget", budget.render())
        .bool("trace", config.trace)
        .bool("quick", config.quick)
        .int("rounds", run.rounds.len() as u64)
        .num("elapsed_s", run.elapsed.as_secs_f64())
        .raw("host", host_object(host))
        .raw("shape", shape)
        .bool("correct", run.failed() == 0)
        .int("attempted", run.attempted())
        .int("failed", run.failed())
        .raw("errors", array(run.errors().iter().map(|e| json::string(e))))
        .raw("end_to_end", metric_object(&metrics::end_to_end(run)))
        .raw("extra", extras);
    if config.trace {
        record = record.raw("per_layer", metric_object(&metrics::per_layer(run)));
        if let Some(rec) = &run.recorder {
            record = record.int("raw_spans_dropped", rec.raw_dropped);
        }
    }
    record.raw("per_round", per_round).render()
}

/// The raw spans of a recorder, one JSON object per line.
pub fn spans_jsonl(rec: &Recorder) -> String {
    let mut out = String::new();
    for s in &rec.raw {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let line = Object::new()
            .int("id", s.id)
            .raw("parent", parent)
            .str("phase", s.phase)
            .str("layer", s.layer)
            .str("op", s.op)
            .int("blocks", s.blocks)
            .int("wall_start_ns", s.wall_start_ns)
            .int("wall_end_ns", s.wall_end_ns)
            .int("sim_start_ns", s.sim_start_ns)
            .int("sim_end_ns", s.sim_end_ns)
            .render();
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The human-readable report.
pub fn human(run: &Run, host: &Host) -> String {
    let config = run.config;
    let mut out = format!(
        "{}: seed {}, {} rounds{} in {:.2} s; host {} vCPU, {}, AES-NI {}, PCLMULQDQ {}\n",
        config.workload.name(),
        config.seed,
        run.rounds.len(),
        if config.trace { " (each also traced)" } else { "" },
        run.elapsed.as_secs_f64(),
        host.nproc,
        host.cpu_model,
        if host.aes_ni { "yes" } else { "no" },
        if host.pclmulqdq { "yes" } else { "no" },
    );
    let line = |name: &str, value: f64, unit: &str| format!("  {name:<52} {value:>16.4} {unit}\n");
    for m in metrics::end_to_end(run) {
        out.push_str(&line(m.name, m.value, m.unit));
    }
    for (name, value, unit) in metrics::extras(run) {
        out.push_str(&line(&name, value, unit));
    }
    if config.trace {
        out.push_str("  per-layer:\n");
        for m in metrics::per_layer(run) {
            out.push_str(&line(m.name, m.value, m.unit));
        }
    }
    out.push_str(&format!(
        "  attempted {} ops, failed {}{}\n",
        run.attempted(),
        run.failed(),
        if run.failed() == 0 { "" } else { " -- see errors below" }
    ));
    for e in run.errors() {
        out.push_str(&format!("  error: {e}\n"));
    }
    out
}
