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
//!
//! `engine_trace_pins_clock_stats_and_medium` pins the depth the rings
//! themselves produce: a fixed trace through `IoEngine` rings of depth 1,
//! 4 and 32 must charge exactly the recorded clock and statistics.

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

/// The fixed engine trace the golden pin below replays at one ring depth:
/// a block tenant's ring on the first half of a CQE disk submits mixed
/// write and read batches, reaped with `poll`, `wait` and `drain`, while a
/// `SimFs` tenant on the second half rides a ring of its own through an
/// `EngineDevice`. Returns the clock in ns, the disk's statistics and the
/// SHA-256 of the medium.
fn engine_trace(ring_depth: usize) -> (u64, mobiceal_blockdev::DeviceStats, String) {
    use mobiceal_blockdev::{Completion, IoOutput, Ticket};
    use mobiceal_fs::{FileSystem, SimFs};

    let clock = SimClock::new();
    let disk = cqe_disk(1024, &clock);
    let ring = IoEngine::new(disk.clone() as SharedDevice, ring_depth);
    let fs_region = DmLinear::new(disk.clone() as SharedDevice, 512, 512).unwrap();
    let fs_ring = Arc::new(IoEngine::new(fs_region, ring_depth));
    let mut fs = SimFs::format(Arc::new(EngineDevice(fs_ring)) as SharedDevice).unwrap();

    // What each block holds once every write submitted so far executes;
    // a read must return the contents current at its submission.
    let mut medium = vec![vec![0u8; BS]; 512];
    let mut reads: Vec<(Ticket, Vec<Vec<u8>>)> = Vec::new();
    let check = |(ticket, result): Completion, reads: &mut Vec<(Ticket, Vec<Vec<u8>>)>| {
        let out = result.unwrap();
        match reads.iter().position(|(t, _)| *t == ticket) {
            Some(i) => assert_eq!(out, IoOutput::Read(reads.remove(i).1)),
            None => assert_eq!(out, IoOutput::Write),
        }
    };
    for step in 0..24u64 {
        // Mixed shapes: a sequential run, a scattered pair, a single block.
        let base = (step * 37) % 480;
        let indices: Vec<u64> = match step % 3 {
            0 => (base..base + 1 + step % 6).collect(),
            1 => vec![base, (base + 200) % 512],
            _ => vec![base + 3],
        };
        let owned: Vec<(u64, Vec<u8>)> =
            indices.iter().map(|&b| (b, vec![(b * 7 + step * 13) as u8 | 1; BS])).collect();
        for (b, d) in &owned {
            medium[*b as usize] = d.clone();
        }
        let batch: Vec<(u64, &[u8])> = owned.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        ring.submit_write_blocks(&batch);
        if step % 4 == 1 {
            let span: Vec<u64> = (base..base + 4).collect();
            let want = span.iter().map(|&b| medium[b as usize].clone()).collect();
            reads.push((ring.submit_read_blocks(&span), want));
        }
        if step % 2 == 0 {
            if let Some(done) = ring.poll() {
                check(done, &mut reads);
            }
        }
        if step % 5 == 4 && !reads.is_empty() {
            let ticket = reads[0].0;
            check((ticket, ring.wait(ticket)), &mut reads);
        }
        if step % 3 == 2 {
            let name = format!("f{step}");
            let data: Vec<u8> = (0..3 * BS).map(|i| (i as u64 * 31 + step) as u8).collect();
            fs.create(&name).unwrap();
            fs.write(&name, 0, &data).unwrap();
            if step % 6 == 5 {
                fs.sync().unwrap();
            }
            assert_eq!(fs.read(&name, 0, data.len()).unwrap(), data);
        }
    }
    for done in ring.drain() {
        check(done, &mut reads);
    }
    assert!(reads.is_empty(), "every read was reaped");
    assert_eq!(ring.in_flight(), 0);
    fs.sync().unwrap();
    let digest = mobiceal_crypto::to_hex(&mobiceal_crypto::sha256(disk.snapshot().as_bytes()));
    assert_eq!(disk.read_blocks(&(0..512).collect::<Vec<u64>>()).unwrap(), medium);
    (clock.now().as_nanos(), disk.stats(), digest)
}

#[test]
fn engine_trace_pins_clock_stats_and_medium() {
    // Golden pin: the trace above at ring depths 1, 4 and 32 must charge
    // exactly this simulated time, leave exactly these statistics — per
    // class (sequential reads, random reads, sequential writes, random
    // writes, flushes) ops, bytes and ns — and exactly these bytes on the
    // medium. Deeper rings overlap more queued commands, so they charge
    // less; at depth 32 the block tenant's writes also execute later
    // relative to the fs tenant's, which moves two writes from random to
    // sequential.
    const MEDIUM: &str = "052d6a5079a0ac660554a5cd292198f459c9b9b20e375023957849ea0dbeca0b";
    let pins: [(usize, u64, [[u64; 3]; 5]); 3] = [
        (
            1,
            95_292_544,
            [
                [545, 2_232_320, 73_461_280],
                [15, 61_440, 2_265_760],
                [53, 217_088, 8_941_344],
                [45, 184_320, 8_624_160],
                [5, 0, 2_000_000],
            ],
        ),
        (
            4,
            93_198_413,
            [
                [545, 2_232_320, 73_096_547],
                [15, 61_440, 1_971_694],
                [53, 217_088, 8_551_211],
                [45, 184_320, 7_578_961],
                [5, 0, 2_000_000],
            ],
        ),
        (
            32,
            92_847_930,
            [
                [545, 2_232_320, 73_046_199],
                [15, 61_440, 1_928_394],
                [55, 225_280, 8_786_475],
                [43, 176_128, 7_086_862],
                [5, 0, 2_000_000],
            ],
        ),
    ];
    for (depth, ns, classes) in pins {
        let (got_ns, stats, digest) = engine_trace(depth);
        let got =
            [stats.seq_reads, stats.rand_reads, stats.seq_writes, stats.rand_writes, stats.flushes]
                .map(|c| [c.ops, c.bytes, c.time_nanos]);
        assert_eq!((got_ns, got), (ns, classes), "ring depth {depth}");
        assert_eq!(digest, MEDIUM, "ring depth {depth}");
    }
}
