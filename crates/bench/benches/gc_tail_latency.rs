//! Foreground write tail latency under GC pressure.
//!
//! The `gc_tail` workload drives an open-loop write stream (fixed
//! simulated-time arrival schedule) against the public volume while GC
//! passes fire mid-stream, two ways:
//!
//! - **inline** (the seed path): each pass re-verifies hidden mode (a
//!   full PBKDF2 unlock) and runs its discards + commit between two
//!   arrivals. The unlucky writes queue behind the whole pass.
//! - **session**: hidden mode is proven once per session before the
//!   measured phase, and each pass runs inline with only its in-memory
//!   victim sampling, discards and commit.
//!
//! The simulated-time distributions are deterministic; criterion times
//! the host-side cost of the runs themselves.
//!
//! Run with: `cargo bench -p mobiceal-bench --bench gc_tail_latency`

use criterion::{criterion_group, criterion_main, Criterion};
use mobiceal_workloads::GcTailWorkload;

fn bench_gc_tail(c: &mut Criterion) {
    let workload = GcTailWorkload::default();

    // The deterministic simulated-time report — this is what
    // EXPERIMENTS.md records and the workload's regression test pins.
    let inline = workload.run_inline().expect("inline run");
    let session = workload.run_session().expect("session run");
    for (name, r) in [("inline", &inline), ("session", &session)] {
        println!(
            "gc_tail/{name}: p50 {} ns, p99 {} ns, max {} ns, mean {:.0} ns \
             ({} writes, {} GC passes, {} blocks reclaimed)",
            r.p50_ns, r.p99_ns, r.max_ns, r.mean_ns, r.writes, r.gc_passes, r.blocks_reclaimed
        );
    }
    println!(
        "gc_tail/p99_drop: {:.1}x (inline {} ns -> session {} ns)",
        inline.p99_ns as f64 / session.p99_ns.max(1) as f64,
        inline.p99_ns,
        session.p99_ns
    );

    let mut group = c.benchmark_group("gc_tail");
    group.bench_function("inline", |b| b.iter(|| workload.run_inline().expect("inline run")));
    group.bench_function("session", |b| b.iter(|| workload.run_session().expect("session run")));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gc_tail
}
criterion_main!(benches);
