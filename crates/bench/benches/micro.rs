//! Criterion micro-benchmarks of the substrate primitives: AES sector
//! modes, SHA-256/PBKDF2, ChaCha20 noise generation, bitmap allocation and
//! the two allocators, the thin mapping table, and WoORAM write
//! amplification.
//!
//! These measure *real* CPU time of this implementation (unlike the
//! table/figure benches, which measure simulated device time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mobiceal_crypto::{
    pbkdf2_hmac_sha256, sha256, Aes256, CbcEssiv, ChaCha20Rng, SectorCipher, Xts,
};
use mobiceal_thinp::{Allocator, Bitmap, ExtentMap, RandomAllocator, SequentialAllocator};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let sector = vec![0xABu8; 4096];
    group.throughput(Throughput::Bytes(4096));

    let essiv = CbcEssiv::with_essiv_key(Aes256::new(&[1u8; 32]), &sha256(&[1u8; 32]));
    group.bench_function("aes256_cbc_essiv_encrypt_4k", |b| {
        b.iter(|| essiv.encrypt_sector(7, &sector))
    });

    let xts = Xts::new(Aes256::new(&[2u8; 32]), Aes256::new(&[3u8; 32]));
    group.bench_function("aes256_xts_encrypt_4k", |b| b.iter(|| xts.encrypt_sector(7, &sector)));

    group.bench_function("sha256_4k", |b| b.iter(|| sha256(&sector)));

    group.bench_function("chacha20_noise_4k", |b| {
        let mut rng = ChaCha20Rng::from_u64_seed(1);
        let mut buf = vec![0u8; 4096];
        b.iter(|| rng.fill_bytes(&mut buf))
    });

    // A thin-pool checkpoint digests its whole payload (about 124 KB on
    // the suite's `gc_tail` pool) on every journal wrap.
    let checkpoint = vec![0x5Au8; 128 * 1024];
    group.throughput(Throughput::Bytes(checkpoint.len() as u64));
    group.bench_function("sha256_checkpoint_128k", |b| b.iter(|| sha256(&checkpoint)));
    group.finish();

    // Dummy bursts draw their noise as one buffer of `blocks` 4 KiB blocks,
    // right after the trigger's small draws left the generator's 64-byte
    // buffer partly used: an 8-byte draw first, so most fills end in a
    // tail of part of a group (`crypto/chacha20_noise_4k` above starts on
    // a block boundary and has none).
    let mut group = c.benchmark_group("chacha20_noise");
    for blocks in [1usize, 4, 16] {
        group.throughput(Throughput::Bytes(4096 * blocks as u64));
        group.bench_function(&format!("burst_{blocks}x4k_after_draw"), |b| {
            let mut rng = ChaCha20Rng::from_u64_seed(1);
            let mut buf = vec![0u8; 4096 * blocks];
            b.iter(|| {
                rng.next_u64();
                rng.fill_bytes(&mut buf)
            })
        });
    }
    group.finish();

    c.bench_function("pbkdf2_sha256_2000iters", |b| {
        let mut out = [0u8; 32];
        b.iter(|| pbkdf2_hmac_sha256(b"password", b"salt", 2000, &mut out))
    });
}

fn bench_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    let make_bitmap = || {
        let mut bm = Bitmap::new(65536);
        for i in (0..65536).step_by(3) {
            bm.set(i);
        }
        bm
    };
    // The pool keeps its committed and reservation bitmaps across
    // allocations, so both cases draw from one long-lived pair; picks are
    // not marked, so the state does not drift between iterations.
    let committed = make_bitmap();
    let reserved = Bitmap::new(65536);
    group.bench_function("sequential_allocate", |b| {
        let mut alloc = SequentialAllocator::new();
        b.iter(|| alloc.allocate(&committed, &reserved))
    });
    group.bench_function("random_allocate", |b| {
        let mut alloc = RandomAllocator::with_seed(5);
        b.iter(|| alloc.allocate(&committed, &reserved))
    });
    group.bench_function("bitmap_nth_free", |b| {
        // The suite's pool size, a third allocated, and `n` drawn
        // uniformly over the free blocks as random allocation draws it.
        let mut bm = Bitmap::new(16_384);
        for i in (0..16_384).step_by(3) {
            bm.set(i);
        }
        let mut rng = ChaCha20Rng::from_u64_seed(11);
        let draws: Vec<u64> = (0..4096).map(|_| rng.next_below(bm.free())).collect();
        let mut n = draws.iter().cycle();
        b.iter(|| bm.nth_free(*n.next().expect("cycle never ends")))
    });
    group.finish();
}

/// The thin mapping table in MobiCeal's shape: 4096 one-block runs, the
/// virtual blocks ascending and each backed by a random physical block, as
/// random allocation leaves a public or dummy volume.
fn bench_extent_map(c: &mut Criterion) {
    const RUNS: u64 = 4096;
    let mut rng = ChaCha20Rng::from_u64_seed(13);
    let pairs: Vec<(u64, u64)> = (0..RUNS).map(|v| (v, rng.next_below(16_384))).collect();
    let map: ExtentMap = pairs.iter().copied().collect();
    let mut group = c.benchmark_group("extent_map");
    group.throughput(Throughput::Elements(RUNS));
    group.bench_function("insert_fresh", |b| {
        b.iter_batched(
            ExtentMap::new,
            |mut fresh| {
                for &(v, p) in &pairs {
                    fresh.insert(v, p);
                }
                fresh
            },
            BatchSize::SmallInput,
        )
    });
    group.throughput(Throughput::Elements(1));
    group.bench_function("get_random", |b| {
        let draws: Vec<u64> = (0..4096).map(|_| rng.next_below(RUNS)).collect();
        let mut v = draws.iter().cycle();
        b.iter(|| map.get(v.next().expect("cycle never ends")))
    });
    // A dummy burst's first append walks from block 0 over every mapping.
    group.bench_function("first_unmapped_from", |b| b.iter(|| map.first_unmapped_from(0)));
    group.finish();
}

fn bench_oram(c: &mut Criterion) {
    use mobiceal_baselines::HiveWoOram;
    use mobiceal_blockdev::{BlockDevice, MemDisk};
    use mobiceal_sim::SimClock;
    use std::sync::Arc;

    c.bench_function("hive_woram_logical_write_4k", |b| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(600, 4096, clock.clone()));
        let oram = HiveWoOram::new(disk, clock, 256, [9u8; 64], 1).expect("oram");
        let buf = vec![1u8; 4096];
        let mut i = 0u64;
        b.iter(|| {
            oram.write_block(i % 256, &buf).expect("write");
            i += 1;
        })
    });
}

/// The batched-vs-single delta of the vectored I/O pipeline: the same 64
/// 4 KiB blocks (one dd chunk) pushed through the full unlocked MobiCeal
/// stack as one `write_blocks` batch vs. 64 `write_block` calls.
fn bench_batched_io(c: &mut Criterion) {
    use mobiceal::{MobiCeal, MobiCealConfig, UnlockedVolume};
    use mobiceal_blockdev::{BlockDevice, MemDisk};
    use mobiceal_sim::SimClock;
    use std::sync::Arc;

    fn unlocked(seed: u64) -> UnlockedVolume {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(16384, 4096, clock.clone()));
        let config = MobiCealConfig {
            num_volumes: 5,
            pbkdf2_iterations: 4,
            metadata_blocks: 64,
            ..MobiCealConfig::default()
        };
        let mc = MobiCeal::initialize(disk, clock, config, "decoy", &["hidden"], seed)
            .expect("initialize");
        mc.unlock_public("decoy").expect("unlock")
    }

    let mut group = c.benchmark_group("stack_write_64x4k");
    group.throughput(Throughput::Bytes(64 * 4096));
    group.bench_function("batched_write_blocks", |b| {
        let vol = unlocked(1);
        let data = vec![0xA5u8; 4096];
        let mut base = 0u64;
        b.iter(|| {
            let writes: Vec<(u64, &[u8])> =
                (0..64).map(|i| ((base + i) % 8000, data.as_slice())).collect();
            vol.write_blocks(&writes).expect("batched write");
            base += 64;
        })
    });
    group.bench_function("sequential_write_block", |b| {
        let vol = unlocked(2);
        let data = vec![0xA5u8; 4096];
        let mut base = 0u64;
        b.iter(|| {
            for i in 0..64 {
                vol.write_block((base + i) % 8000, &data).expect("single write");
            }
            base += 64;
        })
    });
    group.finish();
}

/// The batched-vs-single delta of the *baseline* stacks: one HIVE shuffle
/// pass over 16 logical writes vs. 16 single-write passes, and one DEFY
/// 64-append extent vs. 64 single appends (real CPU time; the simulated
/// per-batch savings are recorded in EXPERIMENTS.md, "Baseline batching").
fn bench_baseline_batch(c: &mut Criterion) {
    use mobiceal_baselines::{DefyLite, HiveWoOram};
    use mobiceal_blockdev::{BlockDevice, MemDisk};
    use mobiceal_sim::SimClock;
    use std::sync::Arc;

    let mut group = c.benchmark_group("baseline_batch");
    group.throughput(Throughput::Bytes(16 * 4096));
    group.bench_function("hive_batched_16x4k", |b| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(600, 4096, clock.clone()));
        let oram = HiveWoOram::new(disk, clock, 256, [9u8; 64], 1).expect("oram");
        let data = vec![1u8; 4096];
        let mut base = 0u64;
        b.iter(|| {
            let batch: Vec<(u64, &[u8])> =
                (0..16).map(|i| ((base + i) % 256, data.as_slice())).collect();
            oram.write_blocks(&batch).expect("batched write");
            base += 16;
        })
    });
    group.bench_function("hive_sequential_16x4k", |b| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(600, 4096, clock.clone()));
        let oram = HiveWoOram::new(disk, clock, 256, [9u8; 64], 2).expect("oram");
        let data = vec![1u8; 4096];
        let mut base = 0u64;
        b.iter(|| {
            for i in 0..16 {
                oram.write_block((base + i) % 256, &data).expect("single write");
            }
            base += 16;
        })
    });
    group.finish();

    let mut group = c.benchmark_group("baseline_batch_defy");
    group.throughput(Throughput::Bytes(64 * 4096));
    group.bench_function("defy_batched_64x4k", |b| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(16384, 4096, clock.clone()));
        let defy = DefyLite::new(disk, clock, 4096, [5u8; 32]).expect("defy");
        let data = vec![1u8; 4096];
        let mut base = 0u64;
        b.iter(|| {
            let batch: Vec<(u64, &[u8])> =
                (0..64).map(|i| ((base + i) % 4096, data.as_slice())).collect();
            defy.write_blocks(&batch).expect("batched write");
            base += 64;
        })
    });
    group.bench_function("defy_sequential_64x4k", |b| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(16384, 4096, clock.clone()));
        let defy = DefyLite::new(disk, clock, 4096, [5u8; 32]).expect("defy");
        let data = vec![1u8; 4096];
        let mut base = 0u64;
        b.iter(|| {
            for i in 0..64 {
                defy.write_block((base + i) % 4096, &data).expect("single write");
            }
            base += 64;
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_crypto, bench_allocators, bench_extent_map, bench_oram, bench_batched_io,
        bench_baseline_batch
}
criterion_main!(benches);
