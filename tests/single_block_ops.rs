//! Golden pins for the single-block ops of the wrappers off the `rand_4k`
//! path: `DefyLite`, the volume `AndroidFde::unlock` returns, `CrashDisk`
//! and `EngineDevice`. Their `read_block`/`write_block` are the trait's
//! one-element batches, so a charge, a statistic or a medium byte that
//! differed from a hand-written single-block body would move a pin here.
//! The values were taken while each of them still had hand-written
//! single-block methods. HIVE's pin is
//! `hive::tests::mixed_trace_pins_the_medium_image`.
//!
//! Each pin drives one fixed xorshift trace of single-block writes and
//! reads. The reads land on written, never-written and out-of-range
//! blocks, and some writes go out of range too. Each pin then checks the
//! SHA-256 of every read's outcome and of the medium, the simulated clock
//! and the medium's `DeviceStats`.

// Test binary: aborting on an unexpected error is the point.
#![allow(clippy::unwrap_used)]

use mobiceal_baselines::{AndroidFde, DefyLite};
use mobiceal_blockdev::{
    BlockDevice, BlockDeviceError, CrashDisk, DeviceStats, EngineDevice, IoEngine, MemDisk,
    SharedDevice,
};
use mobiceal_crypto::{sha256, to_hex};
use mobiceal_sim::SimClock;
use std::sync::Arc;

const BS: usize = 4096;

/// Runs `ops` single-block ops on `dev` and returns the SHA-256 of every
/// read's outcome: the block's bytes, or the index of an out-of-range
/// read. A read of a written block must return what was written, and only
/// an index past the end may fail, with `OutOfRange`.
fn mixed_trace(dev: &dyn BlockDevice, ops: usize, unwritten_reads_zero: bool) -> String {
    let n = dev.num_blocks();
    let mut written: Vec<Option<u8>> = vec![None; n as usize];
    let mut reads = Vec::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // About one index in nine is past the end.
        let index = (x >> 8) % (n + n / 8);
        let fill = (x >> 40) as u8;
        let out_of_range = BlockDeviceError::OutOfRange { index, num_blocks: n };
        if x % 5 < 2 {
            match dev.write_block(index, &vec![fill; BS]) {
                Ok(()) => written[index as usize] = Some(fill),
                Err(e) => assert_eq!(e, out_of_range),
            }
            continue;
        }
        match dev.read_block(index) {
            Ok(block) => {
                let expect = written[index as usize].or(unwritten_reads_zero.then_some(0));
                if let Some(fill) = expect {
                    assert_eq!(block, vec![fill; BS], "block {index}");
                }
                reads.extend_from_slice(&block);
            }
            Err(e) => {
                assert_eq!(e, out_of_range);
                reads.extend_from_slice(&index.to_le_bytes());
            }
        }
    }
    to_hex(&sha256(&reads))
}

fn medium_digest(disk: &MemDisk) -> String {
    to_hex(&sha256(disk.snapshot().as_bytes()))
}

/// `(ops, bytes, time_nanos)` of each op class, in `DeviceStats` order.
fn counters(stats: DeviceStats) -> [[u64; 3]; 5] {
    [stats.seq_reads, stats.rand_reads, stats.seq_writes, stats.rand_writes, stats.flushes]
        .map(|c| [c.ops, c.bytes, c.time_nanos])
}

#[test]
fn defy_single_block_trace_pins_the_medium() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(128, BS, clock.clone()));
    let defy = DefyLite::new(disk.clone(), clock.clone(), 64, [0x3C; 32]).unwrap();
    let reads = mixed_trace(&defy, 400, true);
    defy.flush().unwrap();
    assert!(defy.cleanings() > 0, "the trace fills the log at least once");
    assert_eq!(reads, "f28f844dc6f31d1d0fc770a08d8b10a35463be8a0c43f7e9222073302ceeee9a");
    assert_eq!(
        medium_digest(&disk),
        "3ca05e936e67118840e6d12eadb2c1c01c9f9e3d7b41afbe7db6ae6335035be3"
    );
    assert_eq!(clock.now().as_nanos(), 101_857_680);
    assert_eq!(
        counters(disk.stats()),
        [
            [1, 4096, 146784],
            [170, 696320, 27013280],
            [142, 581632, 25418016],
            [52, 212992, 10381696],
            [2, 0, 800000],
        ]
    );
}

#[test]
fn fde_single_block_trace_pins_the_medium() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(128, BS, clock.clone()));
    let fde =
        AndroidFde::initialize(disk.clone() as SharedDevice, clock.clone(), "pwd", 5).unwrap();
    let vol = fde.unlock("pwd").unwrap();
    let reads = mixed_trace(vol.as_ref(), 400, false);
    vol.flush().unwrap();
    assert_eq!(reads, "08807098ecf953169b5912bf54e749025cf4f3bc9c2e0fbeb81cdef3b69152d1");
    assert_eq!(
        medium_digest(&disk),
        "78fdf0675af550920f804763ddefbd86259a61a0d608528dde4ba7bc72ba935b"
    );
    assert_eq!(clock.now().as_nanos(), 157_824_232);
    assert_eq!(
        counters(disk.stats()),
        [
            [5, 20480, 733920],
            [203, 831488, 33045152],
            [5, 20480, 894240],
            [145, 593920, 28948960],
            [1, 0, 400000],
        ]
    );
}

#[test]
fn crash_disk_single_block_trace_pins_every_write_point() {
    let clock = SimClock::new();
    let crash = CrashDisk::new(MemDisk::new(64, BS, clock.clone()));
    let reads = mixed_trace(&crash, 400, true);
    crash.flush().unwrap();
    assert_eq!(reads, "f28f844dc6f31d1d0fc770a08d8b10a35463be8a0c43f7e9222073302ceeee9a");
    assert_eq!(
        medium_digest(crash.inner()),
        "c287a9166e2567c34390ad3892341ece5179487ed53cc62b8158cb79cf0e7eb1"
    );
    assert_eq!(clock.now().as_nanos(), 62_133_984);
    assert_eq!(
        counters(crash.inner().stats()),
        [
            [6, 24576, 880704],
            [206, 843776, 33533504],
            [2, 8192, 367296],
            [135, 552960, 26952480],
            [1, 0, 400000],
        ]
    );
    assert_eq!(crash.write_points(), 137);
    let mid = crash.image_at(crash.write_points() / 2);
    assert_eq!(
        to_hex(&sha256(mid.as_bytes())),
        "dbcf9809ecf4052cbdec872d9327558f648b91ca793a61607caaf9121301d4d7"
    );
    let last = crash.image_at(crash.write_points());
    assert_eq!(last.as_bytes(), crash.inner().snapshot().as_bytes());
}

#[test]
fn engine_device_single_block_trace_pins_the_medium() {
    let clock = SimClock::new();
    let disk = MemDisk::new(64, BS, clock.clone());
    let engine = Arc::new(IoEngine::new(disk.clone(), 4));
    let dev = EngineDevice(engine.clone());
    let reads = mixed_trace(&dev, 400, true);
    dev.flush().unwrap();
    assert_eq!(engine.in_flight(), 0, "every single-block op is reaped inline");
    assert_eq!(reads, "f28f844dc6f31d1d0fc770a08d8b10a35463be8a0c43f7e9222073302ceeee9a");
    assert_eq!(
        medium_digest(&disk),
        "c287a9166e2567c34390ad3892341ece5179487ed53cc62b8158cb79cf0e7eb1"
    );
    assert_eq!(clock.now().as_nanos(), 62_133_984);
    assert_eq!(
        counters(disk.stats()),
        [
            [6, 24576, 880704],
            [206, 843776, 33533504],
            [2, 8192, 367296],
            [135, 552960, 26952480],
            [1, 0, 400000],
        ]
    );
}
