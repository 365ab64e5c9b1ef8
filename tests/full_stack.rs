//! Integration: the full stack — file systems over MobiCeal volumes over
//! thin provisioning over dm-crypt over the simulated eMMC.

use mobiceal::{DummyStats, MobiCeal, MobiCealConfig};
use mobiceal_blockdev::{BlockDevice, MemDisk, SharedDevice};
use mobiceal_fs::{FatFs, FileSystem, SimFs};
use mobiceal_sim::SimClock;
use mobiceal_thinp::Superblock;
use mobiceal_workloads::{build_stack, StackConfig};
use std::sync::Arc;

fn fast_config() -> MobiCealConfig {
    MobiCealConfig {
        num_volumes: 6,
        pbkdf2_iterations: 4,
        metadata_blocks: 64,
        ..Default::default()
    }
}

fn fresh(seed: u64) -> (Arc<MemDisk>, SimClock, MobiCeal) {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(8192, 4096, clock.clone()));
    let mc = MobiCeal::initialize(
        disk.clone() as SharedDevice,
        clock.clone(),
        fast_config(),
        "decoy",
        &["hidden"],
        seed,
    )
    .unwrap();
    (disk, clock, mc)
}

#[test]
fn simfs_on_public_volume_survives_reboot() {
    let (disk, clock, mc) = fresh(1);
    {
        let public = mc.unlock_public("decoy").unwrap();
        let mut fs = SimFs::format(Arc::new(public) as SharedDevice).unwrap();
        fs.create("persistent.bin").unwrap();
        fs.write("persistent.bin", 0, &vec![0x3C; 100_000]).unwrap();
        fs.sync().unwrap();
        mc.commit().unwrap();
    }
    drop(mc);
    // Reboot: reopen from disk.
    let mc2 = MobiCeal::open(disk as SharedDevice, clock, fast_config(), 999).unwrap();
    let public = mc2.unlock_public("decoy").unwrap();
    let mut fs = SimFs::mount(Arc::new(public) as SharedDevice).unwrap();
    assert_eq!(fs.read("persistent.bin", 0, 100_000).unwrap(), vec![0x3C; 100_000]);
}

#[test]
fn separate_file_systems_on_public_and_hidden() {
    let (_disk, _clock, mc) = fresh(2);
    let public = mc.unlock_public("decoy").unwrap();
    let hidden = mc.unlock_hidden("hidden").unwrap();
    let mut pub_fs = SimFs::format(Arc::new(public) as SharedDevice).unwrap();
    let mut hid_fs = SimFs::format(Arc::new(hidden) as SharedDevice).unwrap();
    pub_fs.create("public.txt").unwrap();
    pub_fs.write("public.txt", 0, b"cat pictures").unwrap();
    hid_fs.create("secret.txt").unwrap();
    hid_fs.write("secret.txt", 0, b"sources").unwrap();
    pub_fs.sync().unwrap();
    hid_fs.sync().unwrap();
    // The two namespaces never bleed into each other.
    assert_eq!(pub_fs.list(), vec!["public.txt".to_string()]);
    assert_eq!(hid_fs.list(), vec!["secret.txt".to_string()]);
    assert_eq!(pub_fs.read("public.txt", 0, 12).unwrap(), b"cat pictures");
    assert_eq!(hid_fs.read("secret.txt", 0, 7).unwrap(), b"sources");
}

#[test]
fn fatfs_works_on_mobiceal_too() {
    // "Any block-based file system can be deployed on top of it" (§I).
    let (_disk, _clock, mc) = fresh(3);
    let hidden = mc.unlock_hidden("hidden").unwrap();
    let mut fs = FatFs::format(Arc::new(hidden) as SharedDevice).unwrap();
    fs.create("fat-file.dat").unwrap();
    fs.write("fat-file.dat", 0, &vec![0xFA; 50_000]).unwrap();
    fs.sync().unwrap();
    assert_eq!(fs.read("fat-file.dat", 0, 50_000).unwrap(), vec![0xFA; 50_000]);
}

#[test]
fn file_systems_mount_on_all_figure4_stacks() {
    for config in StackConfig::all() {
        let stack = build_stack(config, 8192, 17).unwrap();
        let mut fs = SimFs::format(stack.device.clone()).unwrap();
        fs.create("probe").unwrap();
        fs.write("probe", 0, &vec![0x11; 20_000]).unwrap();
        fs.sync().unwrap();
        assert_eq!(
            fs.read("probe", 0, 20_000).unwrap(),
            vec![0x11; 20_000],
            "stack {}",
            config.label()
        );
    }
}

#[test]
fn heavy_mixed_usage_with_commit_cycles() {
    let (disk, clock, mc) = fresh(4);
    let public = mc.unlock_public("decoy").unwrap();
    let hidden = mc.unlock_hidden("hidden").unwrap();
    for round in 0..5u8 {
        for i in 0..80u64 {
            public.write_block(round as u64 * 80 + i, &vec![round; 4096]).unwrap();
        }
        for i in 0..20u64 {
            hidden.write_block(round as u64 * 20 + i, &vec![round ^ 0xFF; 4096]).unwrap();
        }
        mc.commit().unwrap();
    }
    drop((public, hidden, mc));
    let mc2 = MobiCeal::open(disk as SharedDevice, clock, fast_config(), 1234).unwrap();
    let public = mc2.unlock_public("decoy").unwrap();
    let hidden = mc2.unlock_hidden("hidden").unwrap();
    for round in 0..5u8 {
        assert_eq!(public.read_block(round as u64 * 80).unwrap(), vec![round; 4096]);
        assert_eq!(hidden.read_block(round as u64 * 20).unwrap(), vec![round ^ 0xFF; 4096]);
    }
}

#[test]
fn dummy_traffic_appears_on_disk_as_ciphertextlike_noise() {
    let (disk, _clock, mc) = fresh(5);
    let public = mc.unlock_public("decoy").unwrap();
    for i in 0..600 {
        public.write_block(i, &vec![0u8; 4096]).unwrap();
    }
    let stats = mc.dummy_stats();
    assert!(stats.blocks_written > 0, "this seed's regime should fire: {stats:?}");
    // Every written block in the data region is indistinguishable from
    // randomness, whether it is encrypted zeros or dummy noise.
    let snap = disk.snapshot();
    let layout = mc.layout();
    let mut nonzero = 0;
    for b in layout.metadata_blocks..layout.metadata_blocks + layout.data_blocks {
        if !snap.is_zero_block(b) {
            assert!(snap.block_entropy(b) > 7.0, "block {b}");
            nonzero += 1;
        }
    }
    assert!(nonzero as u64 > 600);
}

#[test]
fn batched_stack_writes_amortize_simulated_device_time_end_to_end() {
    // The acceptance check for the amortized multi-command cost model: a
    // 64×4 KiB batch through the full unlocked stack (UnlockedVolume →
    // dm-crypt → thin volume → dm-linear → MemDisk) must charge strictly
    // less simulated time than the same 64 blocks written one by one,
    // because the batch reaches the device as one vectored call whose
    // command setup is paid once. A batch of one must charge exactly the
    // single-block time. The hidden volume isolates the device effect
    // (no probabilistic dummy traffic differing between the two runs).
    let measure = |batched: bool| {
        let (_disk, clock, mc) = fresh(42);
        let hidden = mc.unlock_hidden("hidden").unwrap();
        let data = vec![0xA5u8; 4096];
        let blocks: Vec<(u64, &[u8])> = (0..64u64).map(|b| (b, data.as_slice())).collect();
        let t0 = clock.now();
        if batched {
            hidden.write_blocks(&blocks).unwrap();
        } else {
            for &(b, d) in &blocks {
                hidden.write_block(b, d).unwrap();
            }
        }
        let write_time = clock.now() - t0;
        let t1 = clock.now();
        let indices: Vec<u64> = (0..64u64).collect();
        if batched {
            hidden.read_blocks(&indices).unwrap();
        } else {
            for &i in &indices {
                hidden.read_block(i).unwrap();
            }
        }
        (write_time, clock.now() - t1)
    };
    let (w_batched, r_batched) = measure(true);
    let (w_sequential, r_sequential) = measure(false);
    assert!(
        w_batched < w_sequential,
        "batched write {w_batched} must be strictly below sequential {w_sequential}"
    );
    assert!(
        r_batched < r_sequential,
        "batched read {r_batched} must be strictly below sequential {r_sequential}"
    );

    // Depth 1: the batched pipeline collapses to the single-block cost.
    let (_d1, clock_a, mc_a) = fresh(43);
    let (_d2, clock_b, mc_b) = fresh(43);
    let va = mc_a.unlock_hidden("hidden").unwrap();
    let vb = mc_b.unlock_hidden("hidden").unwrap();
    let data = vec![0x5Au8; 4096];
    let (t_a, t_b) = (clock_a.now(), clock_b.now());
    assert_eq!(t_a, t_b, "twin devices start aligned");
    va.write_blocks(&[(7, data.as_slice())]).unwrap();
    vb.write_block(7, &data).unwrap();
    assert_eq!(clock_a.now() - t_a, clock_b.now() - t_b, "batch of one ≡ single block");
}

#[test]
fn pool_exhaustion_surfaces_cleanly_through_the_whole_stack() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(512, 4096, clock.clone()));
    let mc = MobiCeal::initialize(
        disk as SharedDevice,
        clock,
        MobiCealConfig {
            num_volumes: 3,
            pbkdf2_iterations: 4,
            metadata_blocks: 32,
            ..Default::default()
        },
        "decoy",
        &[],
        6,
    )
    .unwrap();
    let public = mc.unlock_public("decoy").unwrap();
    let mut fs = SimFs::format(Arc::new(public) as SharedDevice).unwrap();
    fs.create("filler").unwrap();
    let mut off = 0u64;
    let err = loop {
        match fs.write("filler", off, &vec![1u8; 4096]) {
            Ok(()) => off += 4096,
            Err(e) => break e,
        }
    };
    assert!(matches!(err, mobiceal_fs::FsError::NoSpace | mobiceal_fs::FsError::Device(_)));
    // Previously written data is still intact.
    assert_eq!(fs.read("filler", 0, 16).unwrap(), vec![1u8; 16]);
}

/// The fixed-seed dd-shaped trace both golden pins below run: sequential
/// 64×4 KiB batches on the public volume, then a commit.
fn dd_public_write_trace() -> (Arc<MemDisk>, SimClock, MobiCeal) {
    let (disk, clock, mc) = fresh(5);
    let public = mc.unlock_public("decoy").unwrap();
    let chunk: Vec<Vec<u8>> = (0..64u64).map(|i| vec![i as u8 ^ 0xA5; 4096]).collect();
    for batch in 0..8u64 {
        let writes: Vec<(u64, &[u8])> = chunk
            .iter()
            .enumerate()
            .map(|(i, d)| (1 + batch * 64 + i as u64, d.as_slice()))
            .collect();
        public.write_blocks(&writes).unwrap();
    }
    mc.commit().unwrap();
    let stats = mc.dummy_stats();
    assert!(stats.blocks_written > 0, "this seed's regime should fire: {stats:?}");
    (disk, clock, mc)
}

#[test]
fn dd_public_write_trace_pins_the_medium_image() {
    // Golden pin for the dummy-write path: the dd trace must leave exactly
    // these bytes on the raw medium and charge exactly this much simulated
    // time. The image covers the footer, the dummy volumes' noise headers,
    // the dm-crypt ciphertext, the thin-pool metadata and every dummy
    // burst's CSPRNG noise at its placement, so any change to the noise
    // stream, its placement or the allocation order moves the digest.
    let (disk, clock, mc) = dd_public_write_trace();
    let digest = mobiceal_crypto::to_hex(&mobiceal_crypto::sha256(disk.snapshot().as_bytes()));
    assert_eq!(
        digest,
        "0121e1ad9c3f5a53908f41bfd3def69dc9ab9ce044e3911e277484a8128992e3",
        "dummy stats {:?}",
        mc.dummy_stats()
    );
    assert_eq!(clock.now().as_nanos(), 303_283_888);
}

#[test]
fn dd_public_write_trace_pins_the_medium_outside_public_data() {
    // The same trace with every raw block the public volume maps zeroed
    // out. What is left is the footer, the dummy volumes' noise headers,
    // the thin-pool metadata and every dummy burst's noise at its
    // placement: none of it depends on how dm-crypt lays the public
    // volume's sectors out, so this pin holds across a change of
    // ciphertext layout that moves the raw digest above.
    let (disk, _clock, mc) = dd_public_write_trace();
    let layout = mc.layout();
    let public = &mc.metadata_view().volumes[&1];
    let mut image = disk.snapshot().as_bytes().to_vec();
    for physical in public.mappings.values() {
        let start = (layout.metadata_blocks + physical) as usize * layout.block_size;
        image[start..start + layout.block_size].fill(0);
    }
    let digest = mobiceal_crypto::to_hex(&mobiceal_crypto::sha256(&image));
    assert_eq!(
        digest,
        "4a5411c6f8981dc620fb38aaddc40ecc9cccc44b3ddb574b00f73a43aae8925c",
        "{} public blocks masked, dummy stats {:?}",
        public.mappings.len(),
        mc.dummy_stats()
    );
}

#[test]
fn gc_and_checkpoint_trace_pins_the_medium_image() {
    // Golden pin for the metadata write path: fresh public writes with a
    // GC session pass every third round, and enough commits to wrap the
    // 7-block journal region several times. It pins the allocation
    // stream, the GC victims, every journal record and checkpoint payload
    // (and their digests) on the raw medium, and the simulated time.
    let (disk, clock, mc) = fresh(7);
    let public = mc.unlock_public("decoy").unwrap();
    let session = mc.begin_gc_session(&["hidden"]).unwrap();
    let mut reports = Vec::new();
    let mut checkpoints = 0;
    for round in 0..24u64 {
        let data = vec![round as u8 ^ 0x3C; 4096];
        for i in 0..40 {
            public.write_block(round * 40 + i, &data).unwrap();
        }
        if round % 3 == 2 {
            reports.push(mc.garbage_collect_in_session(&session, 900 + round).unwrap());
        } else {
            mc.commit().unwrap();
        }
        // A checkpoint resets the committed journal extent to zero; a
        // journaled commit always leaves at least one block in it.
        let sb = Superblock::decode(disk.snapshot().block(0)).unwrap();
        if sb.journal_blocks == 0 {
            checkpoints += 1;
        }
    }
    assert!(checkpoints >= 2, "{checkpoints} checkpoints: the journal must wrap twice");
    let pinned: [(u64, u64, f64); 8] = [
        (30, 17, 0.5886837766995178),
        (21, 11, 0.5453216458961208),
        (27, 25, 0.9546158042424434),
        (23, 9, 0.41057824479267346),
        (22, 19, 0.9010464623684022),
        (16, 15, 0.9941118894935589),
        (26, 17, 0.6640494741739019),
        (31, 27, 0.874755082673856),
    ];
    let got: Vec<(u64, u64, f64)> =
        reports.iter().map(|r| (r.blocks_before, r.blocks_reclaimed, r.fraction)).collect();
    assert_eq!(got, pinned);
    assert!(reports.iter().all(|r| r.dummy_volumes == 4), "{reports:?}");
    assert_eq!(
        mc.dummy_stats(),
        DummyStats {
            trigger_checks: 960,
            bursts: 149,
            blocks_written: 144,
            blocks_dropped: 0,
            refreshes: 0
        }
    );
    assert_eq!(clock.now().as_nanos(), 492_722_848);
    let digest = mobiceal_crypto::to_hex(&mobiceal_crypto::sha256(disk.snapshot().as_bytes()));
    assert_eq!(digest, "c84a899763e2f18d598e7cdf310624c660fda576f7076aad8ac2f040e47577f5");
}
