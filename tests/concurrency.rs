//! Integration: concurrent access. The kernel block layer is inherently
//! concurrent — Vold, the file system, and the dummy-write path all touch
//! the pool at once — so the MobiCeal stack must be `Send + Sync` and keep
//! its invariants under parallel load.

use mobiceal::{MobiCeal, MobiCealConfig, UnlockedVolume};
use mobiceal_blockdev::{BlockDevice, MemDisk, SharedDevice};
use mobiceal_sim::SimClock;
use std::sync::Arc;
use std::thread;

fn fast_config() -> MobiCealConfig {
    MobiCealConfig {
        num_volumes: 6,
        pbkdf2_iterations: 4,
        metadata_blocks: 64,
        ..Default::default()
    }
}

fn fresh(seed: u64, blocks: u64) -> MobiCeal {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(blocks, 4096, clock.clone()));
    MobiCeal::initialize(disk as SharedDevice, clock, fast_config(), "decoy", &["hidden"], seed)
        .unwrap()
}

#[test]
fn types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MobiCeal>();
    assert_send_sync::<UnlockedVolume>();
    assert_send_sync::<mobiceal_blockdev::MemDisk>();
    assert_send_sync::<mobiceal_thinp::ThinPool>();
    assert_send_sync::<mobiceal_thinp::ThinVolume>();
}

#[test]
fn parallel_public_and_hidden_writers() {
    let mc = Arc::new(fresh(1, 16384));
    let public = mc.unlock_public("decoy").unwrap();
    let hidden = mc.unlock_hidden("hidden").unwrap();

    let pub_handle = {
        let public = public.clone();
        thread::spawn(move || {
            for i in 0..300u64 {
                public.write_block(i, &vec![0xAA; 4096]).unwrap();
            }
        })
    };
    let hid_handle = {
        let hidden = hidden.clone();
        thread::spawn(move || {
            for i in 0..300u64 {
                hidden.write_block(i, &vec![0xBB; 4096]).unwrap();
            }
        })
    };
    pub_handle.join().unwrap();
    hid_handle.join().unwrap();

    for i in 0..300u64 {
        assert_eq!(public.read_block(i).unwrap(), vec![0xAA; 4096], "public {i}");
        assert_eq!(hidden.read_block(i).unwrap(), vec![0xBB; 4096], "hidden {i}");
    }
    // No aliasing despite interleaved allocation.
    let view = mc.metadata_view();
    let mut seen = std::collections::HashSet::new();
    for vol in view.volumes.values() {
        for p in vol.mappings.values() {
            assert!(seen.insert(p), "physical block {p} double-mapped");
        }
    }
}

#[test]
fn many_threads_hammer_one_volume() {
    let mc = Arc::new(fresh(2, 16384));
    let public = mc.unlock_public("decoy").unwrap();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let vol = public.clone();
        handles.push(thread::spawn(move || {
            // Disjoint block ranges per thread.
            for i in 0..150u64 {
                let block = t * 150 + i;
                vol.write_block(block, &vec![t as u8 + 1; 4096]).unwrap();
                assert_eq!(vol.read_block(block).unwrap(), vec![t as u8 + 1; 4096]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..4u64 {
        for i in 0..150u64 {
            assert_eq!(public.read_block(t * 150 + i).unwrap(), vec![t as u8 + 1; 4096]);
        }
    }
}

#[test]
fn parallel_batched_volumes_match_sequential_execution() {
    // The thread acceptance pin: two volumes pushing *batched* writes
    // concurrently through the full stack (dm-crypt → PDE → thin pool →
    // MemDisk) land exactly the plaintext a sequential execution of the
    // same batches lands, with no physical aliasing and with the same
    // write volume reaching the medium.
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(16384, 4096, clock.clone()));
    let mc = Arc::new(
        MobiCeal::initialize(
            disk.clone() as SharedDevice,
            clock.clone(),
            fast_config(),
            "decoy",
            &["hidden"],
            21,
        )
        .unwrap(),
    );
    let public = mc.unlock_public("decoy").unwrap();
    let hidden = mc.unlock_hidden("hidden").unwrap();

    let drive = |vol: UnlockedVolume, fill: u8| {
        move || {
            let data = vec![fill; 4096];
            for round in 0..10u64 {
                let batch: Vec<(u64, &[u8])> =
                    (0..32).map(|i| (round * 32 + i, data.as_slice())).collect();
                vol.write_blocks(&batch).unwrap();
            }
        }
    };
    let handles = vec![
        thread::spawn(drive(public.clone(), 0xAA)),
        thread::spawn(drive(hidden.clone(), 0xBB)),
    ];
    for h in handles {
        h.join().unwrap();
    }

    // Sequential twin with the same seed and batches.
    let seq_clock = SimClock::new();
    let seq_disk = Arc::new(MemDisk::new(16384, 4096, seq_clock.clone()));
    let seq_mc = MobiCeal::initialize(
        seq_disk.clone() as SharedDevice,
        seq_clock.clone(),
        fast_config(),
        "decoy",
        &["hidden"],
        21,
    )
    .unwrap();
    let seq_public = seq_mc.unlock_public("decoy").unwrap();
    let seq_hidden = seq_mc.unlock_hidden("hidden").unwrap();
    drive(seq_public.clone(), 0xAA)();
    drive(seq_hidden.clone(), 0xBB)();

    // Identical plaintext on both executions.
    let indices: Vec<u64> = (0..320u64).collect();
    assert_eq!(
        public.read_blocks(&indices).unwrap(),
        seq_public.read_blocks(&indices).unwrap(),
        "public plaintext is schedule-independent"
    );
    assert_eq!(
        hidden.read_blocks(&indices).unwrap(),
        seq_hidden.read_blocks(&indices).unwrap(),
        "hidden plaintext is schedule-independent"
    );
    // Same write volume reached the medium, and the disk's stats account
    // for every charged nanosecond.
    assert_eq!(disk.stats().bytes_written(), seq_disk.stats().bytes_written());
    // No physical block serves two volumes, whatever the interleaving.
    let view = mc.metadata_view();
    let mut seen = std::collections::HashSet::new();
    for vol in view.volumes.values() {
        for p in vol.mappings.values() {
            assert!(seen.insert(p), "physical block {p} double-mapped");
        }
    }
    mc.commit().unwrap();
}

#[test]
fn commits_race_with_writers_safely() {
    let mc = Arc::new(fresh(3, 16384));
    let public = mc.unlock_public("decoy").unwrap();
    let committer = {
        let mc = Arc::clone(&mc);
        thread::spawn(move || {
            for _ in 0..20 {
                mc.commit().unwrap();
            }
        })
    };
    let writer = {
        let public = public.clone();
        thread::spawn(move || {
            for i in 0..400u64 {
                public.write_block(i, &vec![0x5C; 4096]).unwrap();
            }
        })
    };
    committer.join().unwrap();
    writer.join().unwrap();
    mc.commit().unwrap();
    for i in 0..400u64 {
        assert_eq!(public.read_block(i).unwrap(), vec![0x5C; 4096]);
    }
}
