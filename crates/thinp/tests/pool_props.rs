//! Property-based tests of the thin pool: random operation sequences
//! against a reference model, for both allocators.

// Test binary: aborting on an unexpected error is the point.
#![allow(clippy::unwrap_used)]

use mobiceal_blockdev::{BlockDevice, MemDisk, SharedDevice};
use mobiceal_thinp::{AllocStrategy, PoolConfig, ThinPool};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum PoolOp {
    Write { vol: u32, vblock: u64, fill: u8 },
    Read { vol: u32, vblock: u64 },
    Discard { vol: u32, vblock: u64 },
    Commit,
}

fn op_strategy(vols: u32, vblocks: u64) -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        3 => (1..=vols, 0..vblocks, any::<u8>())
            .prop_map(|(vol, vblock, fill)| PoolOp::Write { vol, vblock, fill }),
        2 => (1..=vols, 0..vblocks).prop_map(|(vol, vblock)| PoolOp::Read { vol, vblock }),
        1 => (1..=vols, 0..vblocks).prop_map(|(vol, vblock)| PoolOp::Discard { vol, vblock }),
        1 => Just(PoolOp::Commit),
    ]
}

fn strategies() -> [AllocStrategy; 2] {
    [AllocStrategy::Sequential, AllocStrategy::Random]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random interleavings of writes, reads, discards and commits across
    /// three volumes behave exactly like independent HashMaps, under both
    /// allocation strategies.
    #[test]
    fn pool_matches_reference_model(
        ops in prop::collection::vec(op_strategy(3, 64), 1..80),
        seed in 0u64..500,
    ) {
        for strategy in strategies() {
            let data: SharedDevice = Arc::new(MemDisk::with_default_timing(512, 512));
            let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(128, 512));
            let pool =
                ThinPool::create_seeded(data, meta, PoolConfig::new(3), strategy, seed).unwrap();
            let vols: Vec<_> = (1..=3).map(|v| pool.create_volume(v, 64).unwrap()).collect();
            let mut model: HashMap<(u32, u64), u8> = HashMap::new();
            for op in &ops {
                match *op {
                    PoolOp::Write { vol, vblock, fill } => {
                        vols[vol as usize - 1].write_block(vblock, &vec![fill; 512]).unwrap();
                        model.insert((vol, vblock), fill);
                    }
                    PoolOp::Read { vol, vblock } => {
                        let expect = model.get(&(vol, vblock)).copied().unwrap_or(0);
                        prop_assert_eq!(
                            vols[vol as usize - 1].read_block(vblock).unwrap(),
                            vec![expect; 512]
                        );
                    }
                    PoolOp::Discard { vol, vblock } => {
                        pool.discard(vol, vblock).unwrap();
                        model.remove(&(vol, vblock));
                    }
                    PoolOp::Commit => pool.commit().unwrap(),
                }
            }
            // Mapped block count equals model size; all contents match.
            let mapped: u64 = (1..=3).map(|v| pool.volume_mapped_blocks(v)).sum();
            prop_assert_eq!(mapped, model.len() as u64);
            for (&(vol, vblock), &fill) in &model {
                prop_assert_eq!(
                    vols[vol as usize - 1].read_block(vblock).unwrap(),
                    vec![fill; 512]
                );
            }
        }
    }

    /// No physical block is ever shared between volumes or double-mapped,
    /// whatever the operation sequence.
    #[test]
    fn physical_blocks_never_alias(
        ops in prop::collection::vec(op_strategy(3, 64), 1..80),
        seed in 0u64..500,
    ) {
        for strategy in strategies() {
            let data: SharedDevice = Arc::new(MemDisk::with_default_timing(512, 512));
            let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(128, 512));
            let pool =
                ThinPool::create_seeded(data, meta, PoolConfig::new(3), strategy, seed).unwrap();
            let vols: Vec<_> = (1..=3).map(|v| pool.create_volume(v, 64).unwrap()).collect();
            for op in &ops {
                match *op {
                    PoolOp::Write { vol, vblock, fill } => {
                        let _ = vols[vol as usize - 1].write_block(vblock, &vec![fill; 512]);
                    }
                    PoolOp::Discard { vol, vblock } => {
                        pool.discard(vol, vblock).unwrap();
                    }
                    _ => {}
                }
            }
            let view = pool.metadata_view();
            let mut seen = HashSet::new();
            for vol in view.volumes.values() {
                for p in vol.mappings.values() {
                    prop_assert!(seen.insert(p), "physical block {} double-mapped", p);
                    prop_assert!(view.bitmap.get(p), "mapped block {} not marked allocated", p);
                }
            }
        }
    }

    /// A vectored thin-volume write is equivalent to the sequence of
    /// single-block writes: same allocator stream, same mappings, same
    /// bytes on the data device, same metadata an adversary would recover.
    /// Under the amortized multi-command cost model the batch's charged
    /// device time is at most the sequential loop's — equal for a single
    /// write, strictly below once three or more blocks share the batch —
    /// because the thin layer hands the whole mapped batch to the data
    /// device in one vectored call instead of splitting it into singles.
    #[test]
    fn write_blocks_equivalent_to_sequential(
        writes in prop::collection::vec((0u64..64, any::<u8>()), 0..80),
        seed in 0u64..500,
    ) {
        for strategy in strategies() {
            let mk = || {
                let data = Arc::new(MemDisk::with_default_timing(512, 512));
                let shared: SharedDevice = data.clone();
                let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(128, 512));
                let pool = ThinPool::create_seeded(
                    shared, meta, PoolConfig::new(1), strategy, seed,
                ).unwrap();
                let vol = pool.create_volume(1, 64).unwrap();
                (data, pool, vol)
            };
            let (data_a, pool_a, vol_a) = mk();
            let (data_b, pool_b, vol_b) = mk();
            let buffers: Vec<(u64, Vec<u8>)> =
                writes.iter().map(|&(b, fill)| (b, vec![fill; 512])).collect();
            let batch: Vec<(u64, &[u8])> =
                buffers.iter().map(|(b, d)| (*b, d.as_slice())).collect();
            vol_a.write_blocks(&batch).unwrap();
            for (b, d) in &buffers {
                vol_b.write_block(*b, d).unwrap();
            }
            prop_assert_eq!(pool_a.metadata_view(), pool_b.metadata_view());
            prop_assert_eq!(pool_a.allocated_blocks(), pool_b.allocated_blocks());
            let (snap_a, snap_b) = (data_a.snapshot(), data_b.snapshot());
            prop_assert_eq!(
                snap_a.as_bytes(),
                snap_b.as_bytes(),
                "identical physical placement and bytes"
            );
            prop_assert_eq!(
                data_a.stats().without_time(),
                data_b.stats().without_time(),
                "same op mix and bytes on the data device"
            );
            let (batched_t, sequential_t) = (data_a.clock().now(), data_b.clock().now());
            prop_assert!(batched_t <= sequential_t, "batched must not exceed sequential");
            if writes.len() == 1 {
                prop_assert_eq!(batched_t, sequential_t, "a batch of one is a single command");
            }
            if writes.len() > 2 {
                prop_assert!(batched_t < sequential_t, "deep batches must amortize");
            }
            for b in 0..64 {
                prop_assert_eq!(vol_a.read_block(b).unwrap(), vol_b.read_block(b).unwrap());
            }
        }
    }

    /// A vectored thin-volume read returns exactly what the sequential
    /// loop returns, holes included; charged device time is amortized
    /// (never above the sequential loop, equal when at most one block
    /// touches the medium).
    #[test]
    fn read_blocks_equivalent_to_sequential(
        writes in prop::collection::vec((0u64..64, any::<u8>()), 0..40),
        reads in prop::collection::vec(0u64..64, 0..60),
        seed in 0u64..500,
    ) {
        let mk = || {
            let data = Arc::new(MemDisk::with_default_timing(512, 512));
            let shared: SharedDevice = data.clone();
            let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(128, 512));
            let pool = ThinPool::create_seeded(
                shared, meta, PoolConfig::new(1), AllocStrategy::Random, seed,
            ).unwrap();
            let vol = pool.create_volume(1, 64).unwrap();
            (data, vol)
        };
        let (data_a, vol_a) = mk();
        let (data_b, vol_b) = mk();
        for &(b, fill) in &writes {
            vol_a.write_block(b, &vec![fill; 512]).unwrap();
            vol_b.write_block(b, &vec![fill; 512]).unwrap();
        }
        let (before_a, before_b) = (data_a.clock().now(), data_b.clock().now());
        let from_batch = vol_a.read_blocks(&reads).unwrap();
        let from_loop: Vec<Vec<u8>> =
            reads.iter().map(|&b| vol_b.read_block(b).unwrap()).collect();
        prop_assert_eq!(from_batch, from_loop);
        let batched_t = data_a.clock().now() - before_a;
        let sequential_t = data_b.clock().now() - before_b;
        prop_assert!(batched_t <= sequential_t);
        // Only mapped blocks touch the medium; holes read as zeros for
        // free, so amortization kicks in from three device reads up.
        let written: HashSet<u64> = writes.iter().map(|&(b, _)| b).collect();
        let mapped_reads = reads.iter().filter(|b| written.contains(b)).count();
        if mapped_reads <= 1 {
            prop_assert_eq!(batched_t, sequential_t);
        }
        if mapped_reads > 2 {
            prop_assert!(batched_t < sequential_t, "deep batches must amortize");
        }
    }

    /// A batched append lands exactly the blocks a loop of one-element
    /// [`ThinPool::append_blocks`] calls would land — same count, same
    /// virtual indices, same physical placement — including the
    /// partial-append behaviour when the pool or volume fills up.
    #[test]
    fn append_blocks_equivalent_to_sequential(
        count in 0u64..40,
        prefill in 0u64..16,
        seed in 0u64..500,
    ) {
        for strategy in strategies() {
            // A deliberately small pool so larger batches hit NoSpace.
            let mk = || {
                let data: SharedDevice = Arc::new(MemDisk::with_default_timing(32, 512));
                let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(128, 512));
                let pool = ThinPool::create_seeded(
                    data, meta, PoolConfig::new(1), strategy, seed,
                ).unwrap();
                // Virtual space larger than the 32-block data device, so
                // exhaustion comes from the pool itself.
                pool.create_volume(1, 64).unwrap();
                pool
            };
            let pool_a = mk();
            let pool_b = mk();
            let blocks: Vec<Vec<u8>> =
                (0..count).map(|i| vec![i as u8; 512]).collect();
            for pool in [&pool_a, &pool_b] {
                for i in 0..prefill {
                    // Interior mappings so the lowest-unmapped walk skips.
                    pool.open_volume(1).unwrap()
                        .write_block(i * 2, &vec![0xEE; 512]).unwrap();
                }
            }
            let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
            let batched = pool_a.append_blocks(1, &refs).unwrap();
            let mut sequential = 0u64;
            for b in &blocks {
                if pool_b.append_blocks(1, &[b.as_slice()]).unwrap() == 0 {
                    break;
                }
                sequential += 1;
            }
            prop_assert_eq!(batched, sequential);
            prop_assert_eq!(pool_a.metadata_view(), pool_b.metadata_view());
            let va = pool_a.open_volume(1).unwrap();
            let vb = pool_b.open_volume(1).unwrap();
            for b in 0..64 {
                prop_assert_eq!(va.read_block(b).unwrap(), vb.read_block(b).unwrap());
            }
        }
    }

    /// Batched discards release exactly what the sequential loop releases.
    #[test]
    fn discard_many_equivalent_to_sequential(
        writes in prop::collection::vec(0u64..64, 0..40),
        discards in prop::collection::vec(0u64..64, 0..40),
        seed in 0u64..500,
    ) {
        let mk = || {
            let data: SharedDevice = Arc::new(MemDisk::with_default_timing(512, 512));
            let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(128, 512));
            let pool = ThinPool::create_seeded(
                data, meta, PoolConfig::new(1), AllocStrategy::Random, seed,
            ).unwrap();
            let vol = pool.create_volume(1, 64).unwrap();
            (pool, vol)
        };
        let (pool_a, vol_a) = mk();
        let (pool_b, vol_b) = mk();
        for &b in &writes {
            vol_a.write_block(b, &vec![1u8; 512]).unwrap();
            vol_b.write_block(b, &vec![1u8; 512]).unwrap();
        }
        pool_a.discard_many(1, &discards).unwrap();
        for &b in &discards {
            pool_b.discard(1, b).unwrap();
        }
        prop_assert_eq!(pool_a.metadata_view(), pool_b.metadata_view());
        prop_assert_eq!(pool_a.allocated_blocks(), pool_b.allocated_blocks());
    }

    /// Commit + reopen restores exactly the committed state under both
    /// allocators.
    #[test]
    fn reopen_reflects_last_commit(
        writes in prop::collection::vec((1u32..=2, 0u64..32, any::<u8>()), 1..30),
        seed in 0u64..500,
    ) {
        for strategy in strategies() {
            let data: SharedDevice = Arc::new(MemDisk::with_default_timing(256, 512));
            let meta: SharedDevice = Arc::new(MemDisk::with_default_timing(128, 512));
            let pool = ThinPool::create_seeded(
                data.clone(), meta.clone(), PoolConfig::new(2), strategy, seed,
            ).unwrap();
            let v1 = pool.create_volume(1, 32).unwrap();
            let v2 = pool.create_volume(2, 32).unwrap();
            let mut model: HashMap<(u32, u64), u8> = HashMap::new();
            for &(vol, vblock, fill) in &writes {
                let v = if vol == 1 { &v1 } else { &v2 };
                v.write_block(vblock, &vec![fill; 512]).unwrap();
                model.insert((vol, vblock), fill);
            }
            pool.commit().unwrap();
            drop((pool, v1, v2));

            let pool2 =
                ThinPool::open(data, meta, PoolConfig::new(2), strategy, seed + 1).unwrap();
            for (&(vol, vblock), &fill) in &model {
                let v = pool2.open_volume(vol).unwrap();
                prop_assert_eq!(v.read_block(vblock).unwrap(), vec![fill; 512]);
            }
        }
    }
}
