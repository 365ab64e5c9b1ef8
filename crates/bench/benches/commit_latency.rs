//! Commit-latency microbenches of the journaled thin-pool metadata.
//!
//! The journaled commit path writes one journal record plus the
//! superblock — I/O proportional to the *transaction*, not the metadata.
//! The seed behaviour (re-serialize and rewrite the full metadata payload
//! on every commit) survives as the checkpoint path, so the two are
//! directly comparable on the same pool state: a single-mapping commit and
//! a 64-extent random-shaped burst, journaled vs full-cut.
//!
//! Criterion times the real CPU work; the simulated report below the
//! groups shows what the metadata device itself charges (bytes written and
//! simulated time per commit), which is what the regression test
//! `commit_cost_scales_with_transaction_not_metadata` pins.
//!
//! Run with: `cargo bench -p mobiceal-bench --bench commit_latency`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobiceal_blockdev::{BlockDevice, MemDisk, SharedDevice};
use mobiceal_sim::SimClock;
use mobiceal_thinp::{AllocStrategy, PoolConfig, ThinPool};
use std::sync::Arc;

const BS: usize = 4096;

struct Setup {
    pool: ThinPool,
    clock: SimClock,
    meta: Arc<MemDisk>,
}

/// A pool carrying a baseline of committed state plus `mappings` fresh
/// dirty mappings at virtual `stride` (stride 2 keeps every mapping its
/// own extent: the virtual side never merges).
fn dirty_pool(mappings: u64, stride: u64) -> Setup {
    let clock = SimClock::new();
    let data = Arc::new(MemDisk::new(4096, BS, clock.clone()));
    let meta = Arc::new(MemDisk::new(64, BS, clock.clone()));
    let pool = ThinPool::create_seeded(
        data as SharedDevice,
        meta.clone() as SharedDevice,
        PoolConfig::new(1),
        AllocStrategy::Sequential,
        7,
    )
    .unwrap();
    pool.create_volume(1, 2048).unwrap();
    let vol = pool.open_volume(1).unwrap();
    let payload = vec![0xAB; BS];
    // Committed baseline of 512 *fragmented* mappings (virtual stride 2, so
    // nothing merges): the realistic worst case the random allocator
    // produces, and real payload for the full-cut path to rewrite.
    for i in 0..512u64 {
        vol.write_block(1024 + i * 2, &payload).unwrap();
    }
    pool.commit().unwrap();
    for i in 0..mappings {
        vol.write_block(i * stride, &payload).unwrap();
    }
    Setup { pool, clock, meta }
}

fn bench_commit_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_latency");
    // Each routine hands its `Setup` back, so dropping the pool and its
    // 16 MiB `MemDisk` happens after the sample's clock stops.
    for (name, mappings, stride, full_cut) in [
        ("single_mapping_journaled", 1, 1, false),
        ("burst_64_extents_journaled", 64, 2, false),
        ("single_mapping_full_cut", 1, 1, true),
        ("burst_64_extents_full_cut", 64, 2, true),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || dirty_pool(mappings, stride),
                |s| {
                    if full_cut {
                        s.pool.checkpoint().unwrap();
                    } else {
                        s.pool.commit().unwrap();
                    }
                    s
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // Simulated device cost of the same four commits, deterministic.
    println!();
    println!("commit_latency: simulated metadata-device cost per commit");
    println!("{:<28} {:>10} {:>14} {:>14}", "variant", "path", "meta bytes", "simulated us");
    for (label, mappings, stride) in [("single_mapping", 1u64, 1u64), ("burst_64_extents", 64, 2)] {
        for (path, full_cut) in [("journal", false), ("full-cut", true)] {
            let s = dirty_pool(mappings, stride);
            let before = s.meta.stats();
            let t0 = s.clock.now();
            if full_cut {
                s.pool.checkpoint().unwrap();
            } else {
                s.pool.commit().unwrap();
            }
            let micros = (s.clock.now() - t0).as_nanos() as f64 / 1_000.0;
            let bytes = s.meta.stats().delta_since(&before).bytes_written();
            println!("{label:<28} {path:>10} {bytes:>14} {micros:>14.1}");
        }
    }
}

criterion_group!(benches, bench_commit_latency);
criterion_main!(benches);
