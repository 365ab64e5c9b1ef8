//! Integration: failure injection — crashes, torn commits, device faults,
//! wrong passwords at every stage, plus the systematic crash-point sweep:
//! a power cut at *every* metadata write boundary (clean and torn) must
//! recover exactly the last committed transaction.

use mobiceal::{MobiCeal, MobiCealConfig, MobiCealError};
use mobiceal_blockdev::{
    BlockDevice, BlockDeviceError, CrashDisk, DiskSnapshot, FaultInjection, MemDisk, SharedDevice,
};
use mobiceal_sim::SimClock;
use mobiceal_thinp::{AllocStrategy, MetadataView, PoolConfig, ThinPool};
use std::sync::Arc;

const META_BLOCKS: u64 = 64;
const DATA_BLOCKS: u64 = 512;
const BS: usize = 4096;

/// Runs a deterministic multi-transaction workload against a pool whose
/// metadata device records every write boundary. Returns the crash log
/// plus, for each committed transaction, the number of metadata writes
/// that had fully landed when its commit returned and the exact metadata
/// view it left behind.
fn crashable_workload(seed: u64) -> (Arc<CrashDisk>, Vec<(usize, MetadataView)>) {
    let clock = SimClock::new();
    let data = Arc::new(MemDisk::new(DATA_BLOCKS, BS, clock.clone()));
    let meta = Arc::new(CrashDisk::new(MemDisk::new(META_BLOCKS, BS, clock.clone())));
    let pool = ThinPool::create_seeded(
        data.clone() as SharedDevice,
        meta.clone() as SharedDevice,
        PoolConfig::new(2),
        AllocStrategy::Sequential,
        seed,
    )
    .unwrap();
    let mut commits = vec![(meta.write_points(), pool.metadata_view())];

    pool.create_volume(1, 128).unwrap();
    pool.create_volume(2, 128).unwrap();
    pool.commit().unwrap();
    commits.push((meta.write_points(), pool.metadata_view()));

    let v1 = pool.open_volume(1).unwrap();
    let v2 = pool.open_volume(2).unwrap();
    // A sequential burst, a commit, scattered single writes with commits
    // between them, a discard, and a final burst: single-record and
    // multi-op transactions alike.
    for b in 0..16u64 {
        v1.write_block(b, &vec![b as u8; BS]).unwrap();
    }
    pool.commit().unwrap();
    commits.push((meta.write_points(), pool.metadata_view()));

    for (i, b) in [3u64, 40, 7, 99].into_iter().enumerate() {
        v2.write_block(b, &vec![i as u8; BS]).unwrap();
        pool.commit().unwrap();
        commits.push((meta.write_points(), pool.metadata_view()));
    }

    pool.discard(1, 4).unwrap();
    for b in 16..40u64 {
        v1.write_block(b, &vec![0xCC; BS]).unwrap();
    }
    pool.commit().unwrap();
    commits.push((meta.write_points(), pool.metadata_view()));

    (meta, commits)
}

/// Boots a fresh metadata device from `image` and opens the pool on it.
fn reopen_from(image: &DiskSnapshot, seed: u64) -> Result<MetadataView, BlockDeviceError> {
    let clock = SimClock::new();
    let data = Arc::new(MemDisk::new(DATA_BLOCKS, BS, clock.clone()));
    let meta = Arc::new(MemDisk::new(META_BLOCKS, BS, clock.clone()));
    meta.load_image(image);
    let pool = ThinPool::open(
        data as SharedDevice,
        meta as SharedDevice,
        PoolConfig::new(2),
        AllocStrategy::Sequential,
        seed,
    )?;
    Ok(pool.metadata_view())
}

/// The last transaction whose commit had fully landed after `k` complete
/// metadata writes.
fn expected_after(commits: &[(usize, MetadataView)], k: usize) -> Option<&MetadataView> {
    commits.iter().rev().find(|(boundary, _)| *boundary <= k).map(|(_, view)| view)
}

#[test]
fn power_cut_at_every_write_boundary_recovers_last_committed_transaction() {
    let (meta, commits) = crashable_workload(21);
    let total = meta.write_points();
    assert!(total > 10, "workload must generate a real write stream, got {total}");
    assert!(commits.len() >= 7, "workload must span several transactions");
    for k in 0..=total {
        let image = meta.image_at(k);
        match expected_after(&commits, k) {
            // Before the format's first commit landed there is no valid
            // metadata; open must fail cleanly, never invent state.
            None => assert!(
                reopen_from(&image, 50).is_err(),
                "open before first commit (k={k}) must fail"
            ),
            Some(view) => {
                let recovered = reopen_from(&image, 50)
                    .unwrap_or_else(|e| panic!("open at write boundary {k}: {e:?}"));
                assert_eq!(
                    &recovered, view,
                    "crash after {k} writes must recover txid {}",
                    view.transaction_id
                );
            }
        }
    }
}

#[test]
fn torn_write_at_every_boundary_recovers_or_detects_never_invents() {
    let (meta, commits) = crashable_workload(22);
    let total = meta.write_points();
    for k in 0..total {
        for keep in [37usize, BS / 2] {
            let image = meta.image_at_torn(k, keep);
            let result = reopen_from(&image, 60);
            if meta.write_target(k) == 0 {
                // The torn write is the commit point itself (superblock).
                // Acceptable outcomes: the previous transaction, the new
                // one (the tear preserved the whole 77-byte superblock),
                // or a clean corruption error — never a third state.
                match result {
                    Err(_) => {}
                    Ok(recovered) => {
                        let prev = expected_after(&commits, k);
                        let next = expected_after(&commits, k + 1);
                        let matches_adjacent = prev.is_some_and(|v| v == &recovered)
                            || next.is_some_and(|v| v == &recovered);
                        assert!(
                            matches_adjacent,
                            "torn superblock at k={k} keep={keep} recovered txid {} \
                             which is neither adjacent transaction",
                            recovered.transaction_id
                        );
                    }
                }
            } else {
                // A torn journal append or checkpoint-payload write sits
                // outside the extent the (old) superblock names: recovery
                // must land exactly on the last committed transaction.
                match expected_after(&commits, k) {
                    None => assert!(result.is_err(), "k={k} keep={keep}"),
                    Some(view) => {
                        let recovered = result.unwrap_or_else(|e| {
                            panic!("torn non-superblock write k={k} keep={keep}: {e:?}")
                        });
                        assert_eq!(&recovered, view, "k={k} keep={keep}");
                    }
                }
            }
        }
    }
}

/// Like [`crashable_workload`], but with enough single-write transactions
/// that the journal region (7 blocks at this geometry) overflows and
/// `commit()` falls back to the checkpoint path — shadow-half payload
/// writes plus the superblock flip — several times mid-stream.
fn overflowing_workload(seed: u64) -> (Arc<CrashDisk>, Vec<(usize, MetadataView)>) {
    let clock = SimClock::new();
    let data = Arc::new(MemDisk::new(DATA_BLOCKS, BS, clock.clone()));
    let meta = Arc::new(CrashDisk::new(MemDisk::new(META_BLOCKS, BS, clock.clone())));
    let pool = ThinPool::create_seeded(
        data.clone() as SharedDevice,
        meta.clone() as SharedDevice,
        PoolConfig::new(2),
        AllocStrategy::Sequential,
        seed,
    )
    .unwrap();
    let mut commits = vec![(meta.write_points(), pool.metadata_view())];

    pool.create_volume(1, 128).unwrap();
    pool.commit().unwrap();
    commits.push((meta.write_points(), pool.metadata_view()));

    let v1 = pool.open_volume(1).unwrap();
    // 30 one-op transactions: journal appends with periodic discards, so
    // the overflow fallback captures Free ops mid-flight too.
    for i in 0..30u64 {
        if i % 7 == 6 {
            pool.discard(1, i - 3).unwrap();
        } else {
            v1.write_block(i, &vec![i as u8; BS]).unwrap();
        }
        pool.commit().unwrap();
        commits.push((meta.write_points(), pool.metadata_view()));
    }
    (meta, commits)
}

/// First block of the checkpoint shadow halves for the sweep geometry
/// (block 0 superblock, 7 journal blocks, then the halves).
const HALF_FIRST: u64 = 8;

#[test]
fn journal_overflow_checkpoint_survives_crash_at_every_boundary() {
    let (meta, commits) = overflowing_workload(23);
    let total = meta.write_points();
    // The fallback must actually have fired: after the format, only a
    // checkpoint writes into the shadow halves.
    let format_end = commits[0].0;
    assert!(
        (format_end..total).any(|k| meta.write_target(k) >= HALF_FIRST),
        "workload never overflowed into the checkpoint fallback"
    );
    for k in 0..=total {
        let image = meta.image_at(k);
        match expected_after(&commits, k) {
            None => assert!(reopen_from(&image, 70).is_err(), "k={k}"),
            Some(view) => {
                let recovered = reopen_from(&image, 70)
                    .unwrap_or_else(|e| panic!("open at overflow boundary {k}: {e:?}"));
                assert_eq!(
                    &recovered, view,
                    "crash after {k} writes must recover txid {}",
                    view.transaction_id
                );
            }
        }
    }
}

#[test]
fn journal_overflow_checkpoint_survives_torn_write_at_every_boundary() {
    let (meta, commits) = overflowing_workload(24);
    let total = meta.write_points();
    for k in 0..total {
        let image = meta.image_at_torn(k, BS / 2);
        let result = reopen_from(&image, 80);
        if meta.write_target(k) == 0 {
            // Torn superblock (journaled commit or checkpoint flip):
            // previous transaction, next transaction, or a clean error.
            if let Ok(recovered) = result {
                let prev = expected_after(&commits, k);
                let next = expected_after(&commits, k + 1);
                assert!(
                    prev.is_some_and(|v| v == &recovered) || next.is_some_and(|v| v == &recovered),
                    "torn superblock at k={k} recovered txid {}",
                    recovered.transaction_id
                );
            }
        } else {
            // Torn journal append or shadow-half payload write: the old
            // superblock never references it (the payload digest guards
            // the half), so recovery lands exactly on the last commit.
            match expected_after(&commits, k) {
                None => assert!(result.is_err(), "k={k}"),
                Some(view) => {
                    let recovered =
                        result.unwrap_or_else(|e| panic!("torn non-superblock write k={k}: {e:?}"));
                    assert_eq!(&recovered, view, "k={k}");
                }
            }
        }
    }
}

#[test]
fn freed_blocks_are_not_reused_before_the_free_commits() {
    // The crash-window bug the sweep work surfaced: `discard` cleared the
    // committed bitmap immediately, so the allocator could hand the freed
    // physical block to a new write before the free was durable. A crash
    // then replayed the old mapping against clobbered data. The freed
    // block must stay held out until the commit.
    let clock = SimClock::new();
    let data = Arc::new(MemDisk::new(32, BS, clock.clone()));
    let meta = Arc::new(MemDisk::new(META_BLOCKS, BS, clock.clone()));
    let pool = ThinPool::create_seeded(
        data.clone() as SharedDevice,
        meta.clone() as SharedDevice,
        PoolConfig::new(2),
        AllocStrategy::Sequential,
        25,
    )
    .unwrap();
    pool.create_volume(1, 64).unwrap();
    let v1 = pool.open_volume(1).unwrap();
    // Fill the whole data device with committed, distinct plaintext.
    for b in 0..32u64 {
        v1.write_block(b, &vec![b as u8 + 1; BS]).unwrap();
    }
    pool.commit().unwrap();

    // Free a few committed blocks, then try to write fresh vblocks. The
    // pool is otherwise full, so any successful write could only come
    // from reusing a not-yet-durably-freed block.
    pool.discard(1, 5).unwrap();
    pool.discard(1, 11).unwrap();
    pool.discard(1, 23).unwrap();
    for (i, v) in (40u64..48).enumerate() {
        let r = v1.write_block(v, &vec![0xEE + i as u8; BS]);
        assert!(
            matches!(r, Err(BlockDeviceError::NoSpace)),
            "write to vblock {v} must not steal an uncommitted free"
        );
    }

    // Crash before the discard commits; reopen on the same media.
    drop((v1, pool));
    let pool = ThinPool::open(
        data as SharedDevice,
        meta as SharedDevice,
        PoolConfig::new(2),
        AllocStrategy::Sequential,
        26,
    )
    .unwrap();
    let v1 = pool.open_volume(1).unwrap();
    for b in 0..32u64 {
        assert_eq!(
            v1.read_block(b).unwrap(),
            vec![b as u8 + 1; BS],
            "committed vblock {b} must replay with its committed contents"
        );
    }
}

fn fast_config() -> MobiCealConfig {
    MobiCealConfig {
        num_volumes: 5,
        pbkdf2_iterations: 4,
        metadata_blocks: 64,
        ..Default::default()
    }
}

#[test]
fn crash_without_commit_rolls_back_to_last_transaction() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
    let mc = MobiCeal::initialize(
        disk.clone() as SharedDevice,
        clock.clone(),
        fast_config(),
        "decoy",
        &["hidden"],
        1,
    )
    .unwrap();
    let public = mc.unlock_public("decoy").unwrap();
    public.write_block(0, &vec![0xAA; 4096]).unwrap();
    mc.commit().unwrap();
    public.write_block(1, &vec![0xBB; 4096]).unwrap();
    // Crash: no commit.
    drop((public, mc));

    let mc2 = MobiCeal::open(disk as SharedDevice, clock, fast_config(), 2).unwrap();
    let public = mc2.unlock_public("decoy").unwrap();
    assert_eq!(public.read_block(0).unwrap(), vec![0xAA; 4096], "committed data survives");
    // The uncommitted mapping is gone: the thin layer reads zeros, which
    // dm-crypt "decrypts" into garbage — exactly like reading unwritten
    // space on a real dm-crypt device. The written value must NOT survive.
    let rolled_back = public.read_block(1).unwrap();
    assert_ne!(rolled_back, vec![0xBB; 4096], "uncommitted write must not survive a crash");
}

#[test]
fn footer_corruption_is_detected_at_open() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
    let mc = MobiCeal::initialize(
        disk.clone() as SharedDevice,
        clock.clone(),
        fast_config(),
        "decoy",
        &[],
        3,
    )
    .unwrap();
    mc.commit().unwrap();
    drop(mc);
    // Wipe the footer region (last 4 blocks of a 16 KiB footer at 4 KiB).
    for b in (4096 - 4)..4096 {
        disk.write_block(b, &vec![0u8; 4096]).unwrap();
    }
    assert!(matches!(
        MobiCeal::open(disk as SharedDevice, clock, fast_config(), 4),
        Err(MobiCealError::NotInitialized { .. })
    ));
}

#[test]
fn metadata_region_corruption_is_detected_at_open() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
    let mc = MobiCeal::initialize(
        disk.clone() as SharedDevice,
        clock.clone(),
        fast_config(),
        "decoy",
        &[],
        5,
    )
    .unwrap();
    mc.commit().unwrap();
    drop(mc);
    // Zero the pool superblock (block 0 of the metadata region).
    disk.write_block(0, &vec![0u8; 4096]).unwrap();
    assert!(matches!(
        MobiCeal::open(disk as SharedDevice, clock, fast_config(), 6),
        Err(MobiCealError::NotInitialized { .. })
    ));
}

#[test]
fn device_write_faults_surface_as_errors_not_corruption() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
    let mc = MobiCeal::initialize(
        disk.clone() as SharedDevice,
        clock,
        fast_config(),
        "decoy",
        &["hidden"],
        7,
    )
    .unwrap();
    let public = mc.unlock_public("decoy").unwrap();
    public.write_block(0, &vec![0x11; 4096]).unwrap();

    // Make a specific physical block fail on write; retries on other
    // blocks keep working.
    let mut faults = FaultInjection::default();
    for b in 100..4096 {
        faults.failing_writes.insert(b);
    }
    disk.set_faults(faults);
    let mut failures = 0;
    for i in 1..50 {
        if public.write_block(i, &vec![0x22; 4096]).is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "with nearly all blocks failing, some writes must error");
    disk.set_faults(FaultInjection::default());
    // Previously written data still reads back.
    assert_eq!(public.read_block(0).unwrap(), vec![0x11; 4096]);
}

#[test]
fn device_death_mid_session() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
    let mc =
        MobiCeal::initialize(disk.clone() as SharedDevice, clock, fast_config(), "decoy", &[], 8)
            .unwrap();
    let public = mc.unlock_public("decoy").unwrap();
    public.write_block(0, &vec![1u8; 4096]).unwrap();
    disk.set_faults(FaultInjection { die_after_ops: Some(0), ..Default::default() });
    assert!(public.write_block(1, &vec![2u8; 4096]).is_err());
    assert!(public.read_block(0).is_err());
    assert!(mc.commit().is_err(), "commit must not pretend to succeed on a dead device");
}

#[test]
fn wrong_password_attempts_do_not_perturb_state() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
    let mc = MobiCeal::initialize(
        disk.clone() as SharedDevice,
        clock,
        fast_config(),
        "decoy",
        &["hidden"],
        9,
    )
    .unwrap();
    let before = disk.snapshot();
    for guess in ["a", "b", "decoyx", "hidden1", ""] {
        assert!(mc.unlock_public(guess).is_err());
        assert!(mc.unlock_hidden(guess).is_err());
    }
    let after = disk.snapshot();
    assert!(before.changed_blocks(&after).is_empty(), "failed unlocks must not write anything");
}

#[test]
fn reopen_with_wrong_volume_count_is_rejected() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
    let mc = MobiCeal::initialize(
        disk.clone() as SharedDevice,
        clock.clone(),
        fast_config(),
        "decoy",
        &[],
        10,
    )
    .unwrap();
    mc.commit().unwrap();
    drop(mc);
    let wrong = MobiCealConfig { num_volumes: 9, ..fast_config() };
    assert!(matches!(
        MobiCeal::open(disk as SharedDevice, clock, wrong, 11),
        Err(MobiCealError::NotInitialized { .. })
    ));
}
