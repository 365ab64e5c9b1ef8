//! Integration: deniability end-to-end — the coercion story, the empirical
//! security game, and the side channel.

use mobiceal_adversary::{
    run_distinguisher_game, ChangedFreeSpaceDistinguisher, Distinguisher, DummyBudgetDistinguisher,
    GameConfig, SequentialRunDistinguisher, SideChannelDistinguisher,
};
use mobiceal_baselines::worlds::{MobiCealWorld, MobiPlutoWorld, WORLD_DISK_BLOCKS};

fn quick_game() -> GameConfig {
    GameConfig {
        rounds: 24,
        events_per_round: 8,
        public_blocks: (4, 16),
        hidden_blocks: (2, 10),
        hidden_event_prob: 0.5,
    }
}

#[test]
fn mobiceal_blinds_all_standard_distinguishers() {
    let cfg = quick_game();
    let distinguishers: Vec<Box<dyn Distinguisher>> = vec![
        Box::new(ChangedFreeSpaceDistinguisher {
            public_volume: 1,
            data_region_start: MobiCealWorld::data_region_start(),
            data_region_blocks: MobiCealWorld::data_region_blocks(),
        }),
        Box::new(DummyBudgetDistinguisher {
            public_volume: 1,
            lambda: MobiCealWorld::lambda(),
            safety_sigmas: 4.0,
        }),
        Box::new(SequentialRunDistinguisher {
            public_volume: 1,
            data_region_start: MobiCealWorld::data_region_start(),
            min_run: 8,
        }),
    ];
    for d in &distinguishers {
        let result = run_distinguisher_game(MobiCealWorld::build, d.as_ref(), &cfg, 7);
        assert!(result.advantage < 0.25, "{} should be blind against MobiCeal: {result}", d.name());
    }
}

#[test]
fn snapshot_differencing_breaks_the_legacy_baseline() {
    let cfg = quick_game();
    let d = ChangedFreeSpaceDistinguisher {
        public_volume: 1,
        data_region_start: 64,
        data_region_blocks: WORLD_DISK_BLOCKS - 64 - 4,
    };
    let result = run_distinguisher_game(MobiPlutoWorld::build, &d, &cfg, 7);
    assert!(result.accuracy > 0.85, "MobiPluto must be broken: {result}");
    assert!(!result.is_blind());
}

#[test]
fn coerced_disclosure_reveals_only_the_public_volume() {
    let mut world = MobiCealWorld::build(42, true);
    use mobiceal_adversary::GameWorld;
    world.public_write(50);
    world.hidden_write(30);
    let obs = world.observe();
    // The adversary knows the decoy password was disclosed -> can account
    // for the public volume. All remaining volumes look alike: each is
    // non-empty (headers + dummy/hidden data), none is decryptable.
    let ids = obs.volume_ids();
    assert_eq!(ids.len(), 6);
    for id in ids {
        assert!(obs.mapped_blocks(id) >= 1, "volume {id} has a footprint");
    }
}

#[test]
fn side_channel_grep_finds_nothing_after_protected_session() {
    use mobiceal::MobiCealConfig;
    use mobiceal_android::AndroidPhone;
    use mobiceal_sim::SimClock;

    let cfg = MobiCealConfig { pbkdf2_iterations: 4, metadata_blocks: 64, ..Default::default() };
    let mut phone = AndroidPhone::new(SimClock::new(), 4096, 4096, cfg);
    phone.initialize_mobiceal("decoy", &["hidden"], 8).unwrap();
    phone.enter_boot_password("decoy").unwrap();
    phone.switch_to_hidden("hidden").unwrap();
    phone.record_activity("hidden document edited");
    phone.exit_hidden_mode();

    let grep = SideChannelDistinguisher::default();
    let obs = mobiceal_adversary::Observation {
        snapshot: phone.snapshot(),
        metadata: None,
        logs: phone.logs().persistent().to_vec(),
    };
    assert!(!grep.decide(&[obs]));
}

#[test]
fn hidden_volume_headers_and_dummy_headers_are_indistinguishable_noise() {
    // Compare header blocks across non-public volumes at the raw-disk
    // level: all are high-entropy, none carries a recognizable marker.
    let world = MobiCealWorld::build(99, true);
    use mobiceal_adversary::GameWorld;
    let obs = world.observe();
    let meta = obs.metadata.as_ref().unwrap();
    let offset = MobiCealWorld::data_region_start();
    for (&id, vol) in &meta.volumes {
        if id == 1 {
            continue;
        }
        let phys = vol.mappings.get(&0).unwrap() + offset;
        let entropy = obs.snapshot.block_entropy(phys);
        assert!(entropy > 7.0, "volume {id} header entropy {entropy}");
        let block = obs.snapshot.block(phys);
        assert!(
            !block.windows(8).any(|w| w == b"MCVOLHDR"),
            "header magic must never appear in plaintext on disk"
        );
    }
}

#[test]
fn dummy_budget_distinguisher_catches_reckless_hidden_bulk_writes() {
    // The paper's own caveat (§IV-B): a very large hidden file with no
    // public cover traffic IS detectable by budget accounting. Verify the
    // reproduction preserves this documented limitation.
    let cfg = GameConfig {
        rounds: 24,
        events_per_round: 6,
        public_blocks: (1, 2),   // almost no public traffic
        hidden_blocks: (64, 96), // huge hidden writes
        hidden_event_prob: 1.0,
    };
    let d = DummyBudgetDistinguisher {
        public_volume: 1,
        lambda: MobiCealWorld::lambda(),
        safety_sigmas: 4.0,
    };
    let result = run_distinguisher_game(MobiCealWorld::build, &d, &cfg, 11);
    assert!(
        result.accuracy > 0.85,
        "reckless hidden usage must be detectable, as the paper admits: {result}"
    );
}

#[test]
fn cover_discipline_restores_deniability_for_bulk_hidden_writes() {
    // Same reckless pattern as above, but following the paper's §IV-B
    // advice (equal-sized public cover after each hidden write): the
    // budget distinguisher goes blind again.
    use mobiceal_baselines::worlds::CoveredMobiCealWorld;
    let cfg = GameConfig {
        rounds: 24,
        events_per_round: 6,
        public_blocks: (1, 2),
        hidden_blocks: (64, 96),
        hidden_event_prob: 1.0,
    };
    let d = DummyBudgetDistinguisher {
        public_volume: 1,
        lambda: MobiCealWorld::lambda(),
        safety_sigmas: 4.0,
    };
    let result = run_distinguisher_game(CoveredMobiCealWorld::build, &d, &cfg, 11);
    assert!(result.advantage < 0.25, "cover writes must blind the budget distinguisher: {result}");
}

/// The batch shapes a file system typically emits: singles, small bursts
/// and deep dd-style chunks, at stride so every write allocates fresh.
const TRACE_SHAPES: [usize; 5] = [1, 4, 16, 32, 2];

/// Writes one batch per shape through `vol` and returns the simulated time
/// the whole trace charged.
fn run_write_trace(
    vol: &dyn mobiceal_blockdev::BlockDevice,
    clock: &mobiceal_sim::SimClock,
) -> mobiceal_sim::SimDuration {
    let data = vec![0xC3u8; 4096];
    let t0 = clock.now();
    let mut base = 0u64;
    for &shape in &TRACE_SHAPES {
        let batch: Vec<(u64, &[u8])> =
            (0..shape as u64).map(|i| (base + i, data.as_slice())).collect();
        vol.write_blocks(&batch).unwrap();
        base += shape as u64;
    }
    clock.now() - t0
}

#[test]
fn batch_amortization_opens_no_timing_channel() {
    // The amortized multi-command cost model charges time from batch
    // shapes, op classification and the (volume-independent) allocation
    // stream only — never from which volume received a batch. An adversary
    // who can time the device therefore cannot distinguish worlds whose
    // write traces have identical block counts and batch shapes.
    use mobiceal::{MobiCeal, MobiCealConfig};
    use mobiceal_blockdev::{MemDisk, SharedDevice};
    use mobiceal_sim::SimClock;
    use std::sync::Arc;

    let config = || MobiCealConfig {
        num_volumes: 6,
        pbkdf2_iterations: 4,
        metadata_blocks: 64,
        ..Default::default()
    };
    let fresh = |seed: u64| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(8192, 4096, clock.clone()));
        let mc = MobiCeal::initialize(
            disk as SharedDevice,
            clock.clone(),
            config(),
            "decoy",
            &["hidden-a", "hidden-b"],
            seed,
        )
        .unwrap();
        (clock, mc)
    };

    // (1) Two hidden volumes with different passwords land on different
    // thin-volume indices, yet an identically-shaped trace charges exactly
    // the same time: volume identity leaves no timing trace.
    let (clock_a, mc_a) = fresh(9);
    let (clock_b, mc_b) = fresh(9);
    let va = mc_a.unlock_hidden("hidden-a").unwrap();
    let vb = mc_b.unlock_hidden("hidden-b").unwrap();
    assert_ne!(va.volume_id(), vb.volume_id(), "distinct volumes by construction");
    assert_eq!(run_write_trace(&va, &clock_a), run_write_trace(&vb, &clock_b));

    // (2) Public world vs hidden world. The dummy-write trigger is part of
    // the public path, so quiesce it deterministically with x = 1 (the
    // threshold `stored_rand mod 1` is always 0, and `rand >= 1` never
    // fires): with the deniability mechanism silent, any residual
    // public/hidden timing difference would be a channel opened by the
    // cost model itself.
    let fresh_quiet = |seed: u64| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(8192, 4096, clock.clone()));
        let mc = MobiCeal::initialize(
            disk as SharedDevice,
            clock.clone(),
            MobiCealConfig { x: 1, ..config() },
            "decoy",
            &["hidden-a", "hidden-b"],
            seed,
        )
        .unwrap();
        (clock, mc)
    };
    for seed in [3u64, 27, 91] {
        let (clock_p, mc_p) = fresh_quiet(seed);
        let public = mc_p.unlock_public("decoy").unwrap();
        let public_time = run_write_trace(&public, &clock_p);
        let stats = mc_p.dummy_stats();
        assert_eq!(
            stats.trigger_checks,
            TRACE_SHAPES.iter().sum::<usize>() as u64,
            "every fresh public block consults the trigger"
        );
        assert_eq!(stats.bursts, 0, "x = 1 must never fire");
        let (clock_h, mc_h) = fresh_quiet(seed);
        let hidden = mc_h.unlock_hidden("hidden-a").unwrap();
        let hidden_time = run_write_trace(&hidden, &clock_h);
        assert_eq!(
            public_time, hidden_time,
            "identical shapes must charge identical time (seed {seed})"
        );
    }
}

#[test]
fn pipelined_crypto_charges_are_world_independent() {
    // PR 10 rebuilt the crypto hot path around pipelined AES lanes and a
    // precomputed carry-less tweak ladder — all *real-time* machinery. The
    // virtual clock must not notice: `DmCrypt` charges `aes_cost(bytes)`
    // from byte counts alone, before any real crypto runs. Two traces with
    // identical batch shapes but disjoint physical placements — a hidden
    // volume's sectors sit at different indices, so every XTS tweak
    // sequence and ESSIV IV the ladder precomputes is a different value —
    // must charge identical simulated time and leave identical device op
    // mixes, for both cipher modes, across batch depths that fill the
    // 8-wide, 4-wide and single-block lanes and the interleaved ESSIV
    // encrypt groups differently. A second leg drives the single-block
    // `write_block`/`read_block` entry points, which take a 4 KiB block as
    // eight 512-byte sectors in one batch call (under ESSIV, eight CBC
    // chains in one lane call): the path every random 4 KiB overwrite and
    // every foreground write under GC takes.
    use mobiceal_blockdev::{BlockDevice, DeviceStats, MemDisk};
    use mobiceal_dm::DmCrypt;
    use mobiceal_sim::{CpuCostModel, SimClock};
    use std::sync::Arc;

    let stack = |xts: bool| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
        let crypt = if xts {
            DmCrypt::new_xts(disk.clone(), &[0x42; 64])
        } else {
            DmCrypt::new_essiv(disk.clone(), &[0x42; 32])
        }
        .with_timing(clock.clone(), CpuCostModel::nexus4());
        (clock, disk, crypt)
    };
    let run_trace = |base: u64, xts: bool| -> (u64, DeviceStats) {
        let (clock, disk, crypt) = stack(xts);
        let data = vec![0xC3u8; 4096];
        let t0 = clock.now();
        let mut cursor = base;
        // 7, 8, 9 and 64 blocks: every 4 KiB block is eight 512-byte
        // sectors, one full eight-lane ESSIV group, so these are batches of
        // 7, 8, 9 and 64 lane calls.
        for &shape in TRACE_SHAPES.iter().chain(&[7, 8, 9, 64]) {
            let batch: Vec<(u64, &[u8])> =
                (0..shape as u64).map(|i| (cursor + i, data.as_slice())).collect();
            crypt.write_blocks(&batch).unwrap();
            cursor += shape as u64;
        }
        // Read the trace back so the decrypt ladders (the pipelined
        // CBC-ESSIV path and the XTS decrypt lanes) are in the window too.
        let indices: Vec<u64> = (base..cursor).collect();
        crypt.read_blocks(&indices).unwrap();
        ((clock.now() - t0).as_nanos(), disk.stats())
    };
    // Scattered single-block overwrites with a read-back after every third
    // write, the rand_4k mix, at the same offsets from each world's base.
    let run_singles = |base: u64, xts: bool| -> (u64, DeviceStats) {
        let (clock, disk, crypt) = stack(xts);
        let data = vec![0x3Cu8; 4096];
        let t0 = clock.now();
        for i in 0..96u64 {
            let index = base + (i * 37) % 1024;
            crypt.write_block(index, &data).unwrap();
            if i % 3 == 0 {
                assert_eq!(crypt.read_block(index).unwrap(), data);
            }
        }
        ((clock.now() - t0).as_nanos(), disk.stats())
    };

    for xts in [false, true] {
        for (leg, run) in
            [("batched", &run_trace as &dyn Fn(u64, bool) -> _), ("single", &run_singles)]
        {
            let (public_time, public_stats) = run(0, xts);
            let (hidden_time, hidden_stats) = run(2048, xts);
            assert_eq!(
                public_time, hidden_time,
                "identical shapes must charge identical time wherever the sectors live \
                 ({leg}, xts={xts})"
            );
            assert_eq!(
                public_stats, hidden_stats,
                "identical shapes must leave identical op mixes wherever the sectors live \
                 ({leg}, xts={xts})"
            );
        }
    }
}

#[test]
fn sharded_queue_depth_charging_is_world_independent() {
    // PR 5's new machinery — shard locks and CQE queue-depth charging —
    // must open no timing channel: identical batch shapes driven at an
    // identical queue depth charge identical time and op mix whether the
    // trace targets the public world or a hidden world. The depth floor
    // pins the queue deterministically (the in-flight counter depends on
    // scheduling, the charge rule does not); the trigger is quiesced with
    // x = 1 exactly as in batch_amortization_opens_no_timing_channel.
    use mobiceal::{MobiCeal, MobiCealConfig};
    use mobiceal_blockdev::{DeviceStats, MemDisk, SharedDevice};
    use mobiceal_sim::{EmmcCostModel, SimClock};
    use std::sync::Arc;

    let run_world = |hidden_world: bool, depth_floor: usize, seed: u64| -> (u64, DeviceStats) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::with_cost_model(
            8192,
            4096,
            clock.clone(),
            Arc::new(EmmcCostModel::emmc51_cqe()),
        ));
        disk.set_queue_depth_floor(depth_floor);
        let mc = MobiCeal::initialize(
            disk.clone() as SharedDevice,
            clock.clone(),
            MobiCealConfig {
                num_volumes: 6,
                pbkdf2_iterations: 4,
                metadata_blocks: 64,
                x: 1, // quiesce the dummy trigger deterministically
                ..Default::default()
            },
            "decoy",
            &["hidden-a", "hidden-b"],
            seed,
        )
        .unwrap();
        let vol: Box<dyn mobiceal_blockdev::BlockDevice> = if hidden_world {
            Box::new(mc.unlock_hidden("hidden-a").unwrap())
        } else {
            Box::new(mc.unlock_public("decoy").unwrap())
        };
        disk.reset_stats();
        let elapsed = run_write_trace(vol.as_ref(), &clock);
        (elapsed.as_nanos(), disk.stats())
    };

    for depth_floor in [1usize, 4, 32] {
        for seed in [5u64, 41] {
            let (public_time, public_stats) = run_world(false, depth_floor, seed);
            let (hidden_time, hidden_stats) = run_world(true, depth_floor, seed);
            assert_eq!(
                public_time, hidden_time,
                "identical shapes at depth {depth_floor} must charge identical time (seed {seed})"
            );
            assert_eq!(
                public_stats, hidden_stats,
                "identical shapes at depth {depth_floor} must leave identical op mixes"
            );
        }
    }
    // And the depth dimension itself only discounts — deeper queues never
    // make a world's trace dearer (no inverse channel either).
    let (shallow, _) = run_world(false, 1, 5);
    let (deep, _) = run_world(false, 32, 5);
    assert!(deep < shallow, "CQE overlap must discount the batched trace");
}

#[test]
fn engine_completion_and_reordering_are_world_independent() {
    // The submission/completion engine adds new timing machinery — slot
    // occupancy drives the charged queue depth, and execution is deferred
    // until completions are reaped. None of it may depend on which world a
    // ring serves: identical batch shapes pushed through identically sized
    // rings charge identical simulated time and leave identical op mixes
    // whether the volume is public or hidden, at every ring depth. The
    // trigger is quiesced with x = 1 exactly as in
    // batch_amortization_opens_no_timing_channel.
    use mobiceal::{MobiCeal, MobiCealConfig};
    use mobiceal_blockdev::{DeviceStats, IoEngine, MemDisk, SharedDevice};
    use mobiceal_sim::{EmmcCostModel, SimClock};
    use std::sync::Arc;

    let run_world = |hidden_world: bool, ring_depth: usize, seed: u64| -> (u64, DeviceStats) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::with_cost_model(
            8192,
            4096,
            clock.clone(),
            Arc::new(EmmcCostModel::emmc51_cqe()),
        ));
        let mc = MobiCeal::initialize(
            disk.clone() as SharedDevice,
            clock.clone(),
            MobiCealConfig {
                num_volumes: 6,
                pbkdf2_iterations: 4,
                metadata_blocks: 64,
                x: 1, // quiesce the dummy trigger deterministically
                ..Default::default()
            },
            "decoy",
            &["hidden-a", "hidden-b"],
            seed,
        )
        .unwrap();
        let vol = if hidden_world {
            mc.unlock_hidden("hidden-a").unwrap()
        } else {
            mc.unlock_public("decoy").unwrap()
        };
        disk.reset_stats();
        let engine = IoEngine::new(vol, ring_depth);
        let data = vec![0xC3u8; 4096];
        let t0 = clock.now();
        // Submit the whole trace before reaping anything: the ring holds
        // up to `ring_depth` batches in flight (a full ring self-serves
        // the oldest slot), then `drain` retires the rest out of order
        // with respect to the submissions still queued.
        let mut base = 0u64;
        for &shape in &TRACE_SHAPES {
            let batch: Vec<(u64, &[u8])> =
                (0..shape as u64).map(|i| (base + i, data.as_slice())).collect();
            engine.submit_write_blocks(&batch);
            base += shape as u64;
        }
        for (_, result) in engine.drain() {
            result.unwrap();
        }
        ((clock.now() - t0).as_nanos(), disk.stats())
    };

    for ring_depth in [1usize, 8, 32] {
        for seed in [5u64, 41] {
            let (public_time, public_stats) = run_world(false, ring_depth, seed);
            let (hidden_time, hidden_stats) = run_world(true, ring_depth, seed);
            assert_eq!(
                public_time, hidden_time,
                "identical shapes through a depth-{ring_depth} ring must charge identical time (seed {seed})"
            );
            assert_eq!(
                public_stats, hidden_stats,
                "identical shapes through a depth-{ring_depth} ring must leave identical op mixes"
            );
        }
    }
    // Ring occupancy is genuine queueing: the deep ring discounts the
    // trace relative to the synchronous ring, in both worlds equally.
    let (shallow, _) = run_world(false, 1, 5);
    let (deep, _) = run_world(false, 32, 5);
    assert!(deep < shallow, "ring overlap must discount the batched trace");
}

#[test]
fn baseline_batch_shapes_are_world_independent() {
    // Batching must not open a *new* timing channel in the baselines: the
    // device-visible shape of a batched HIVE shuffle or DEFY append run —
    // op mix, byte counts and charged time — depends only on the trace
    // shape plus, for HIVE, the set of position-map blocks the trace
    // touches (one 512-entry map block covers the whole logical space
    // here). It never depends on the payload data, and not on *which*
    // logical blocks were addressed within a map block's span. The
    // map-block granularity itself is a pre-existing exposure of this
    // HIVE model, not something batching added: the per-entry write-
    // through already revealed which map block each pass rewrote (real
    // HIVE hides it by recursing the position map into the ORAM); the
    // companion test below pins that known residual leak explicitly.
    use mobiceal_baselines::{DefyLite, HiveWoOram};
    use mobiceal_blockdev::{BlockDevice, DeviceStats, MemDisk};
    use mobiceal_sim::SimClock;
    use std::sync::Arc;

    let hive_trace = |base: u64, fill: u8| -> (mobiceal_sim::SimInstant, DeviceStats) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(600, 4096, clock.clone()));
        let oram = HiveWoOram::new(disk.clone(), clock.clone(), 256, [7u8; 64], 21).unwrap();
        let data = vec![fill; 4096];
        let mut cursor = base;
        for &shape in &TRACE_SHAPES {
            let batch: Vec<(u64, &[u8])> =
                (0..shape as u64).map(|i| (cursor + i, data.as_slice())).collect();
            oram.write_blocks(&batch).unwrap();
            cursor += shape as u64;
        }
        (clock.now(), disk.stats())
    };
    // Same shapes, different data: identical — the payload leaves no trace.
    let (time_a, stats_a) = hive_trace(0, 0xAA);
    let (time_b, stats_b) = hive_trace(0, 0x55);
    assert_eq!(time_a, time_b, "HIVE batch timing must be data-independent");
    assert_eq!(stats_a, stats_b, "HIVE op mix must be data-independent");
    // Same shapes, disjoint logical ranges within one map block's span:
    // identical — the addresses leave no trace at sub-map-block
    // granularity.
    let (time_b, stats_b) = hive_trace(100, 0x55);
    assert_eq!(time_a, time_b, "HIVE batch shapes must charge world-independent time");
    assert_eq!(stats_a, stats_b, "HIVE batch shapes must leave a world-independent op mix");

    let defy_trace = |base: u64, fill: u8| -> (mobiceal_sim::SimInstant, DeviceStats) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(512, 4096, clock.clone()));
        let defy = DefyLite::new(disk.clone(), clock.clone(), 256, [3u8; 32]).unwrap();
        let data = vec![fill; 4096];
        let mut cursor = base;
        for &shape in &TRACE_SHAPES {
            let batch: Vec<(u64, &[u8])> =
                (0..shape as u64).map(|i| (cursor + i, data.as_slice())).collect();
            defy.write_blocks(&batch).unwrap();
            cursor += shape as u64;
        }
        (clock.now(), disk.stats())
    };
    let (time_a, stats_a) = defy_trace(0, 0xAA);
    let (time_b, stats_b) = defy_trace(100, 0x55);
    assert_eq!(time_a, time_b, "DEFY batch shapes must charge world-independent time");
    assert_eq!(stats_a, stats_b, "DEFY batch shapes must leave a world-independent op mix");
}

#[test]
fn hive_map_block_granularity_is_the_documented_residual_leak() {
    // The flip side of the test above, pinned so the limitation stays
    // documented rather than rediscovered: this HIVE model persists its
    // position map as plain write-through blocks, so a trace's device
    // shape reveals *how many* (and which) 512-entry map blocks it
    // touched — with coalescing, a batch spanning a map-block boundary
    // charges one extra read-modify-write compared to an identically
    // shaped batch inside one block. Real HIVE closes this by recursing
    // the map into the ORAM itself; the per-entry write-through this
    // repo had before batching leaked the same granularity through which
    // block each pass rewrote. MobiCeal is unaffected (its thin-pool
    // metadata commits are volume-independent, see
    // batch_amortization_opens_no_timing_channel).
    use mobiceal_baselines::HiveWoOram;
    use mobiceal_blockdev::{BlockDevice, MemDisk};
    use mobiceal_sim::SimClock;
    use std::sync::Arc;

    let trace = |base: u64| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(8300, 4096, clock.clone()));
        let oram = HiveWoOram::new(disk, clock.clone(), 4096, [7u8; 64], 33).unwrap();
        let data = vec![1u8; 4096];
        let batch: Vec<(u64, &[u8])> = (0..16u64).map(|i| (base + i, data.as_slice())).collect();
        oram.write_blocks(&batch).unwrap();
        clock.now()
    };
    let inside_one_map_block = trace(0); // logicals 0..16, map block 0
    let across_a_boundary = trace(504); // logicals 504..520, map blocks 0 and 1
    assert!(
        across_a_boundary > inside_one_map_block,
        "crossing a map-block boundary must cost exactly the extra map RMW ({} vs {} ns)",
        across_a_boundary.as_nanos(),
        inside_one_map_block.as_nanos()
    );
}

#[test]
fn journal_replay_is_world_independent() {
    // PR 7's journaled metadata adds a recovery path, and recovery runs
    // while the adversary may be watching (a coerced reboot): replaying
    // the metadata journal must not reveal which world produced it. Two
    // worlds whose traces have identical batch shapes and block counts —
    // one writing the public volume, one a hidden volume — leave journals
    // of identical shape (volume ids differ only in value, never in
    // encoded size), so remounting must charge identical simulated time
    // and an identical device op mix. The dummy trigger is quiesced with
    // x = 1 exactly as in batch_amortization_opens_no_timing_channel.
    use mobiceal::{MobiCeal, MobiCealConfig};
    use mobiceal_blockdev::{BlockDevice, DeviceStats, MemDisk, SharedDevice};
    use mobiceal_sim::SimClock;
    use std::sync::Arc;

    let config = || MobiCealConfig {
        num_volumes: 6,
        pbkdf2_iterations: 4,
        metadata_blocks: 64,
        x: 1,
        ..Default::default()
    };
    let run_world = |hidden_world: bool, seed: u64| -> (u64, DeviceStats) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(8192, 4096, clock.clone()));
        let mc = MobiCeal::initialize(
            disk.clone() as SharedDevice,
            clock.clone(),
            config(),
            "decoy",
            &["hidden-a", "hidden-b"],
            seed,
        )
        .unwrap();
        let vol: Box<dyn BlockDevice> = if hidden_world {
            Box::new(mc.unlock_hidden("hidden-a").unwrap())
        } else {
            Box::new(mc.unlock_public("decoy").unwrap())
        };
        // Two committed transactions so the remount replays a multi-record
        // journal, not just the checkpoint.
        run_write_trace(vol.as_ref(), &clock);
        mc.commit().unwrap();
        let data = vec![0x5A; 4096];
        let batch: Vec<(u64, &[u8])> = (64..80u64).map(|i| (i, data.as_slice())).collect();
        vol.write_blocks(&batch).unwrap();
        mc.commit().unwrap();
        drop((vol, mc));

        // The measured window is the remount itself: superblock read,
        // checkpoint load, journal replay.
        disk.reset_stats();
        let t0 = clock.now();
        let reopened =
            MobiCeal::open(disk.clone() as SharedDevice, clock.clone(), config(), seed + 1)
                .unwrap();
        let elapsed = (clock.now() - t0).as_nanos();
        drop(reopened);
        (elapsed, disk.stats())
    };

    for seed in [13u64, 77] {
        let (public_time, public_stats) = run_world(false, seed);
        let (hidden_time, hidden_stats) = run_world(true, seed);
        assert_eq!(
            public_time, hidden_time,
            "journal replay must charge world-independent time (seed {seed})"
        );
        assert_eq!(
            public_stats, hidden_stats,
            "journal replay must leave a world-independent op mix (seed {seed})"
        );
    }
}

#[test]
fn raw_device_is_uniformly_ciphertextlike() {
    let mut world = MobiCealWorld::build(3, true);
    use mobiceal_adversary::GameWorld;
    world.public_write(100);
    world.hidden_write(40);
    let obs = world.observe();
    let start = MobiCealWorld::data_region_start();
    let mut written = 0u64;
    for b in start..start + MobiCealWorld::data_region_blocks() {
        if !obs.snapshot.is_zero_block(b) {
            assert!(obs.snapshot.block_entropy(b) > 7.0, "block {b}");
            written += 1;
        }
    }
    assert!(written > 140, "public + hidden + dummy blocks present");
}
