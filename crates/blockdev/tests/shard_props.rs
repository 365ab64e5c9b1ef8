//! Property tests of MemDisk under threads: parallel batches to disjoint
//! ranges are byte-equal to sequential execution, statistics and clock
//! still telescope under concurrency, and depth-1 / `flat()` charges stay
//! bit-identical to the sequential single-block loop.

// Test binary: aborting on an unexpected error is the point.
#![allow(clippy::unwrap_used)]

use mobiceal_blockdev::{BlockDevice, BlockIndex, MemDisk};
use mobiceal_sim::{EmmcCostModel, SimClock};
use proptest::prelude::*;
use std::sync::Arc;

const BS: usize = 512;
const DISK_BLOCKS: u64 = 256;

/// Runs `f` with `slots` host-queue registrations held on `disk`, so every
/// command it makes is charged at depth `slots + 1`.
fn with_queued<T>(disk: &MemDisk, slots: usize, f: impl FnOnce() -> T) -> T {
    for _ in 0..slots {
        disk.host_queue_enter();
    }
    let out = f();
    for _ in 0..slots {
        disk.host_queue_leave();
    }
    out
}

/// A per-thread write plan: each thread owns a disjoint slice of the disk
/// (thread `t` owns blocks `[t * span, (t + 1) * span)`) and writes a
/// proptest-chosen pattern of batches inside it.
fn thread_batches(threads: usize) -> impl Strategy<Value = Vec<Vec<Vec<(u64, u8)>>>> {
    let span = DISK_BLOCKS / threads as u64;
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec((0u64..span, any::<u8>()), 1..12), 1..6),
        threads..=threads,
    )
    .prop_map(move |per_thread| {
        per_thread
            .into_iter()
            .enumerate()
            .map(|(t, batches)| {
                batches
                    .into_iter()
                    .map(|batch| {
                        batch.into_iter().map(|(b, fill)| (t as u64 * span + b, fill)).collect()
                    })
                    .collect()
            })
            .collect()
    })
}

fn run_parallel(disk: &MemDisk, plans: &[Vec<Vec<(u64, u8)>>]) {
    std::thread::scope(|s| {
        for plan in plans {
            let disk = disk.clone();
            s.spawn(move || {
                for batch in plan {
                    let bufs: Vec<(u64, Vec<u8>)> =
                        batch.iter().map(|&(b, fill)| (b, vec![fill; BS])).collect();
                    let writes: Vec<(BlockIndex, &[u8])> =
                        bufs.iter().map(|(b, d)| (*b, d.as_slice())).collect();
                    disk.write_blocks(&writes).unwrap();
                }
            });
        }
    });
}

fn run_sequential(disk: &MemDisk, plans: &[Vec<Vec<(u64, u8)>>]) {
    for plan in plans {
        for batch in plan {
            let bufs: Vec<(u64, Vec<u8>)> =
                batch.iter().map(|&(b, fill)| (b, vec![fill; BS])).collect();
            let writes: Vec<(BlockIndex, &[u8])> =
                bufs.iter().map(|(b, d)| (*b, d.as_slice())).collect();
            disk.write_blocks(&writes).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Parallel batched writes to disjoint per-thread ranges land exactly
    /// the bytes any sequential interleaving of the same batches lands,
    /// and the per-op statistics still sum exactly to the clock advance
    /// (the telescoping invariant survives concurrency).
    #[test]
    fn parallel_disjoint_writes_equal_sequential(plans in thread_batches(4)) {
        let clock = SimClock::new();
        let parallel = MemDisk::new(DISK_BLOCKS, BS, clock.clone());
        run_parallel(&parallel, &plans);

        let sequential = MemDisk::with_default_timing(DISK_BLOCKS, BS);
        run_sequential(&sequential, &plans);

        prop_assert_eq!(
            parallel.snapshot().as_bytes(),
            sequential.snapshot().as_bytes(),
            "disjoint ranges: bytes must be interleaving-independent"
        );
        // Telescoping: every nanosecond charged to the clock is accounted
        // in exactly one stats bucket, even under contention.
        prop_assert_eq!(
            parallel.stats().total_time().as_nanos(),
            clock.now().as_nanos()
        );
        // Same transfer volume; op *mix* (seq/random split) legitimately
        // depends on the interleaving, byte totals do not.
        prop_assert_eq!(parallel.stats().bytes_written(), sequential.stats().bytes_written());
        prop_assert_eq!(
            parallel.stats().total_writes(),
            sequential.stats().total_writes()
        );
    }

    /// Concurrent readers see only fully-written blocks (block-atomic
    /// copies) while writers hammer a disjoint region.
    #[test]
    fn reads_are_block_atomic_under_concurrent_writes(
        writes in prop::collection::vec((0u64..128, any::<u8>()), 1..40),
    ) {
        let disk = MemDisk::with_default_timing(DISK_BLOCKS, BS);
        // Pre-fill the read region with a known pattern.
        let setup: Vec<(u64, Vec<u8>)> =
            (128..DISK_BLOCKS).map(|b| (b, vec![b as u8; BS])).collect();
        let batch: Vec<(BlockIndex, &[u8])> =
            setup.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        disk.write_blocks(&batch).unwrap();

        std::thread::scope(|s| {
            let writer = disk.clone();
            let writes = writes.clone();
            s.spawn(move || {
                for (b, fill) in writes {
                    writer.write_block(b, &vec![fill; BS]).unwrap();
                }
            });
            let indices: Vec<u64> = (128..DISK_BLOCKS).collect();
            for _ in 0..4 {
                let bufs = disk.read_blocks(&indices).unwrap();
                for (b, buf) in indices.iter().zip(bufs) {
                    assert_eq!(buf, vec![*b as u8; BS], "read region untouched by writers");
                }
            }
        });
    }

    /// The device driven single-threaded charges bit-identically to the
    /// sequential single-block loop under `flat()` (the amortization-free
    /// control), and a deep host queue changes nothing on a depth-1
    /// medium: both controls hold.
    #[test]
    fn flat_and_depth1_charges_survive_sharding(
        writes in prop::collection::vec((0u64..64, any::<u8>()), 1..40),
        depth in 1usize..16,
    ) {
        let mk = || MemDisk::with_cost_model(
            64, BS, SimClock::new(), Arc::new(EmmcCostModel::flat(25_000)),
        );
        let batched = mk();
        let sequential = mk();
        let bufs: Vec<(u64, Vec<u8>)> =
            writes.iter().map(|&(b, fill)| (b, vec![fill; BS])).collect();
        let batch: Vec<(BlockIndex, &[u8])> =
            bufs.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        with_queued(&batched, depth - 1, || batched.write_blocks(&batch)).unwrap();
        for (b, d) in &bufs {
            sequential.write_block(*b, d).unwrap();
        }
        prop_assert_eq!(batched.clock().now(), sequential.clock().now(),
            "flat() batches at any queue depth charge the sequential sum");
        prop_assert_eq!(batched.stats(), sequential.stats());
    }

    /// On a CQE medium a deeper host queue discounts monotonically while
    /// preserving bytes and op mix, and the stats always telescope.
    #[test]
    fn queued_slots_discount_monotonically_on_cqe(
        writes in prop::collection::vec((0u64..64, any::<u8>()), 2..40),
    ) {
        let run = |depth: usize| {
            let disk = MemDisk::with_cost_model(
                64, BS, SimClock::new(), Arc::new(EmmcCostModel::emmc51_cqe()),
            );
            let bufs: Vec<(u64, Vec<u8>)> =
                writes.iter().map(|&(b, fill)| (b, vec![fill; BS])).collect();
            let batch: Vec<(BlockIndex, &[u8])> =
                bufs.iter().map(|(b, d)| (*b, d.as_slice())).collect();
            with_queued(&disk, depth - 1, || disk.write_blocks(&batch)).unwrap();
            (disk.clock().now(), disk.stats())
        };
        let (t1, s1) = run(1);
        let mut last = t1;
        for depth in [2usize, 8, 32] {
            let (t, s) = run(depth);
            prop_assert!(t <= last, "deeper queues never charge more");
            prop_assert_eq!(s.without_time(), s1.without_time(), "op mix is depth-independent");
            prop_assert_eq!(s.total_time().as_nanos(), t.as_nanos(), "telescopes at any depth");
            last = t;
        }
        prop_assert!(last < t1, "a deep queue must discount a multi-block batch");
    }
}
