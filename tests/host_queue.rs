//! Host-queue forwarding audit. `host_queue_enter`/`host_queue_leave`
//! register a queued-but-unexecuted command slot with the device so the CQE
//! cost model charges concurrent work at the real queue depth. Every
//! wrapper in the tree must forward the pair untouched to its backing
//! device — a wrapper that swallows it silently flattens the charged depth
//! to 1 and the queue-depth experiments stop measuring anything.
//!
//! MemDisk exposes no public in-flight getter, so the audit is
//! charge-based: under `EmmcCostModel::emmc51_cqe`, holding two queue slots
//! while a batch executes discounts the charge (occupancy 3 instead of 1).
//! For each wrapper we run the identical batch twice on identically
//! constructed stacks — once holding the slots *through the wrapper*, once
//! holding them *directly on the MemDisk* — and require bit-identical
//! simulated time. A wrapper that drops the calls would charge the unheld
//! (more expensive) time instead and fail the equality.

use mobiceal_baselines::{AndroidFde, DefyLite, HiveWoOram};
use mobiceal_blockdev::{BlockDevice, CrashDisk, EngineDevice, IoEngine, MemDisk, SharedDevice};
use mobiceal_dm::{DmCrypt, DmLinear};
use mobiceal_sim::{EmmcCostModel, SimClock};
use mobiceal_thinp::{AllocStrategy, PoolConfig, ThinPool};
use std::sync::Arc;

const BS: usize = 4096;

fn cqe_disk(blocks: u64, clock: &SimClock) -> Arc<MemDisk> {
    Arc::new(MemDisk::with_cost_model(
        blocks,
        BS,
        clock.clone(),
        Arc::new(EmmcCostModel::emmc51_cqe()),
    ))
}

/// Runs a 16-block batched write through `dev` while two host-queue slots
/// are held on `hold_on`, returning the simulated nanoseconds charged.
fn charged_while_held(
    dev: &dyn BlockDevice,
    hold_on: &dyn BlockDevice,
    clock: &SimClock,
    holds: usize,
) -> u64 {
    let data = vec![0xA7u8; BS];
    let writes: Vec<(u64, &[u8])> = (0..16u64).map(|b| (b, data.as_slice())).collect();
    for _ in 0..holds {
        hold_on.host_queue_enter();
    }
    let t0 = clock.now();
    dev.write_blocks(&writes).unwrap();
    let elapsed = (clock.now() - t0).as_nanos();
    for _ in 0..holds {
        hold_on.host_queue_leave();
    }
    elapsed
}

/// The audit itself: `build` constructs a fresh stack over a fresh CQE
/// MemDisk and returns `(wrapper, disk, clock)`. The wrapper-held charge
/// must equal the disk-held charge, and both must be cheaper than the
/// unheld run (proving the held runs actually reached the depth counter —
/// if the discount never fired, the equality would be vacuous).
fn audit_forwarding<F>(name: &str, build: F)
where
    F: Fn() -> (Box<dyn BlockDevice>, Arc<MemDisk>, SimClock),
{
    let (dev, disk, clock) = build();
    let via_wrapper = charged_while_held(dev.as_ref(), dev.as_ref(), &clock, 2);
    let (dev, disk2, clock) = build();
    let via_disk = charged_while_held(dev.as_ref(), disk2.as_ref(), &clock, 2);
    let (dev, _, clock) = build();
    let unheld = charged_while_held(dev.as_ref(), disk.as_ref(), &clock, 0);
    assert_eq!(
        via_wrapper, via_disk,
        "{name}: holding through the wrapper must charge exactly like holding on the MemDisk"
    );
    assert!(
        via_wrapper < unheld,
        "{name}: held queue slots must discount the batch ({via_wrapper} !< {unheld} ns)"
    );
}

#[test]
fn dm_linear_forwards_host_queue_holds() {
    audit_forwarding("DmLinear", || {
        let clock = SimClock::new();
        let disk = cqe_disk(128, &clock);
        let lin = DmLinear::new(disk.clone() as SharedDevice, 16, 64).unwrap();
        (Box::new(lin), disk, clock)
    });
}

#[test]
fn dm_crypt_forwards_host_queue_holds() {
    audit_forwarding("DmCrypt", || {
        let clock = SimClock::new();
        let disk = cqe_disk(128, &clock);
        let crypt = DmCrypt::new_essiv(disk.clone() as SharedDevice, &[9u8; 32]);
        (Box::new(crypt), disk, clock)
    });
}

#[test]
fn thin_volume_forwards_host_queue_holds() {
    audit_forwarding("ThinVolume", || {
        let clock = SimClock::new();
        let disk = cqe_disk(256, &clock);
        let meta = Arc::new(MemDisk::new(64, BS, clock.clone()));
        let pool = ThinPool::create(
            disk.clone() as SharedDevice,
            meta as SharedDevice,
            PoolConfig::new(4),
            AllocStrategy::Sequential,
        )
        .unwrap();
        let vol = pool.create_volume(1, 128).unwrap();
        // Leak the pool so the volume handle stays live for the audit.
        std::mem::forget(pool);
        (Box::new(vol), disk, clock)
    });
}

#[test]
fn crash_disk_forwards_host_queue_holds() {
    // CrashDisk owns its MemDisk by value, so this audit holds the control
    // leg via `inner()` instead of an external Arc handle.
    let build = || {
        let clock = SimClock::new();
        let inner =
            MemDisk::with_cost_model(128, BS, clock.clone(), Arc::new(EmmcCostModel::emmc51_cqe()));
        (CrashDisk::new(inner), clock)
    };
    let (crash, clock) = build();
    let via_wrapper = charged_while_held(&crash, &crash, &clock, 2);
    let (crash, clock) = build();
    let via_disk = charged_while_held(&crash, crash.inner(), &clock, 2);
    let (crash, clock) = build();
    let unheld = charged_while_held(&crash, crash.inner(), &clock, 0);
    assert_eq!(via_wrapper, via_disk, "CrashDisk must forward host-queue holds");
    assert!(via_wrapper < unheld, "held slots must discount ({via_wrapper} !< {unheld} ns)");
}

#[test]
fn engine_device_forwards_host_queue_holds() {
    audit_forwarding("EngineDevice", || {
        let clock = SimClock::new();
        let disk = cqe_disk(128, &clock);
        let engine = Arc::new(IoEngine::new(disk.clone() as SharedDevice, 1));
        (Box::new(EngineDevice(engine)), disk, clock)
    });
}

#[test]
fn fde_unlocked_volume_forwards_host_queue_holds() {
    // `AndroidFde::unlock` returns dm-linear over dm-crypt over dm-linear.
    audit_forwarding("AndroidFde unlocked volume", || {
        let clock = SimClock::new();
        let disk = cqe_disk(256, &clock);
        let fde =
            AndroidFde::initialize(disk.clone() as SharedDevice, clock.clone(), "pwd", 3).unwrap();
        let vol = fde.unlock("pwd").unwrap();
        (Box::new(vol), disk, clock)
    });
}

#[test]
fn hive_forwards_host_queue_holds() {
    audit_forwarding("HiveWoOram", || {
        let clock = SimClock::new();
        let disk = cqe_disk(600, &clock);
        let oram = HiveWoOram::new(disk.clone() as SharedDevice, clock.clone(), 256, [7u8; 64], 21)
            .unwrap();
        (Box::new(oram), disk, clock)
    });
}

#[test]
fn defy_forwards_host_queue_holds() {
    audit_forwarding("DefyLite", || {
        let clock = SimClock::new();
        let disk = cqe_disk(512, &clock);
        let defy =
            DefyLite::new(disk.clone() as SharedDevice, clock.clone(), 128, [3u8; 32]).unwrap();
        (Box::new(defy), disk, clock)
    });
}

#[test]
fn full_mobiceal_stack_forwards_host_queue_holds() {
    // The deepest path: UnlockedVolume → DmCrypt → PdeVolume → ThinVolume
    // → ThinPool → DmLinear → MemDisk. A hold taken at the very top must
    // reach the bottom counter.
    use mobiceal::{MobiCeal, MobiCealConfig};
    audit_forwarding("MobiCeal", || {
        let clock = SimClock::new();
        let disk = cqe_disk(8192, &clock);
        let mc = MobiCeal::initialize(
            disk.clone() as SharedDevice,
            clock.clone(),
            MobiCealConfig {
                num_volumes: 5,
                pbkdf2_iterations: 4,
                metadata_blocks: 64,
                x: 1, // deterministic: the dummy trigger never fires
                ..Default::default()
            },
            "decoy",
            &["hidden"],
            7,
        )
        .unwrap();
        let vol = mc.unlock_public("decoy").unwrap();
        std::mem::forget(mc);
        (Box::new(vol), disk, clock)
    });
}
