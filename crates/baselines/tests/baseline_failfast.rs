//! The fail-fast-with-prefix invariant for the baselines' batched paths: on
//! a mid-batch device error, at most the landed prefix is visible on the
//! medium and no position map, log head or hidden cursor is advanced past
//! it. The naive "update map, then write the batch" ordering loses exactly
//! this — the map would point at blocks whose data never landed, turning a
//! device error into silent corruption.

use mobiceal_baselines::{DefyLite, HiveWoOram, MobiPluto};
use mobiceal_blockdev::{
    BlockDevice, BlockDeviceError, BlockIndex, FaultInjection, MemDisk, SharedDevice,
};
use mobiceal_sim::SimClock;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const BS: usize = 4096;

/// HIVE: a failed shuffle batch advances neither the position map nor the
/// stash pops — every write of the batch stays in the stash, so reads keep
/// returning the newest data and the batch can simply be retried.
#[test]
fn hive_failed_batch_keeps_writes_in_the_stash_and_map_unadvanced() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(600, BS, clock.clone()));
    let oram = HiveWoOram::new(disk.clone(), clock, 256, [9u8; 64], 7).unwrap();
    oram.write_block(0, &vec![0x11; BS]).unwrap();
    oram.write_block(9, &vec![0x99; BS]).unwrap();

    // Kill the device a few operations into the next batch: the shuffle's
    // vectored write (~12 slot writes + map) dies mid-batch.
    let s = disk.stats();
    let ops_so_far = s.total_reads() + s.total_writes();
    disk.set_faults(FaultInjection { die_after_ops: Some(ops_so_far + 5), ..Default::default() });

    let payloads: Vec<(u64, Vec<u8>)> = (0..4u64).map(|i| (i, vec![0xA0 + i as u8; BS])).collect();
    let batch: Vec<(u64, &[u8])> = payloads.iter().map(|(l, d)| (*l, d.as_slice())).collect();
    let err = oram.write_blocks(&batch).unwrap_err();
    assert!(matches!(err, mobiceal_blockdev::BlockDeviceError::Io { .. }), "{err}");
    disk.set_faults(FaultInjection::default());

    // No data lost: the failed batch is retained in the stash, so every
    // logical block reads its newest value; untouched blocks are intact.
    assert!(oram.stash_len() >= 4, "failed batch must stay stashed: {}", oram.stash_len());
    for (l, d) in &payloads {
        assert_eq!(oram.read_block(*l).unwrap(), *d, "block {l} reads the enqueued value");
    }
    assert_eq!(oram.read_block(9).unwrap(), vec![0x99; BS], "unrelated block untouched");
    assert_eq!(oram.read_block(100).unwrap(), vec![0u8; BS], "never-written reads zero");

    // Retrying the batch succeeds and eventually drains the stash.
    oram.write_blocks(&batch).unwrap();
    for (l, d) in &payloads {
        assert_eq!(oram.read_block(*l).unwrap(), *d);
    }
    for i in 0..8u64 {
        oram.write_block(100 + i, &vec![1u8; BS]).unwrap();
    }
    assert!(oram.stash_len() <= 4, "stash drains after retries: {}", oram.stash_len());
}

/// DEFY: a mid-extent device error leaves log head and mapping exactly
/// where they were — the landed prefix sits unreferenced on the medium and
/// the whole run can be retried.
#[test]
fn defy_failed_extent_leaves_head_and_map_unadvanced() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(256, BS, clock.clone()));
    let defy = DefyLite::new(disk.clone(), clock, 64, [5u8; 32]).unwrap();
    defy.write_block(0, &vec![0x0A; BS]).unwrap(); // log position 0

    // Fail the third block of the next extent (log positions 1..=4).
    let mut faults = FaultInjection::default();
    faults.failing_writes.insert(3);
    disk.set_faults(faults);
    let payloads: Vec<(u64, Vec<u8>)> = (0..4u64).map(|i| (i, vec![0xB0 + i as u8; BS])).collect();
    let batch: Vec<(u64, &[u8])> = payloads.iter().map(|(l, d)| (*l, d.as_slice())).collect();
    let err = defy.write_blocks(&batch).unwrap_err();
    assert!(matches!(err, mobiceal_blockdev::BlockDeviceError::Io { .. }), "{err}");

    // Head and mapping not advanced: reads show the pre-batch state, never
    // garbage from the partially landed extent.
    assert_eq!(defy.read_block(0).unwrap(), vec![0x0A; BS], "pre-batch value preserved");
    for l in 1..4u64 {
        assert_eq!(defy.read_block(l).unwrap(), vec![0u8; BS], "block {l} still unwritten");
    }

    // Retrying the run lands it whole.
    disk.set_faults(FaultInjection::default());
    defy.write_blocks(&batch).unwrap();
    for (l, d) in &payloads {
        assert_eq!(defy.read_block(*l).unwrap(), *d, "block {l} lands on retry");
    }
}

/// MobiPluto: a failed hidden extent leaves the hidden cursor unmoved, so
/// the retry lands at the same password-derived offsets.
#[test]
fn mobipluto_failed_hidden_extent_leaves_cursor_unadvanced() {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(2048, BS, clock.clone()));
    let mp =
        MobiPluto::initialize(disk.clone() as SharedDevice, clock, "decoy", Some("h"), 11).unwrap();

    // Locate the hidden region's first sector by diffing one probe write.
    let before = disk.snapshot();
    mp.hidden_write(&vec![0xC1; BS]).unwrap();
    let after = disk.snapshot();
    let changed = before.changed_blocks(&after);
    assert_eq!(changed.len(), 1);
    let first = changed[0];

    // Fail the second block of a three-block extent (sectors first+1..=3).
    let mut faults = FaultInjection::default();
    faults.failing_writes.insert(first + 2);
    disk.set_faults(faults);
    let blocks: Vec<Vec<u8>> = (0..3u8).map(|i| vec![0xD0 + i; BS]).collect();
    let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
    assert!(mp.hidden_write_blocks(&refs).is_err());
    disk.set_faults(FaultInjection::default());

    // The cursor did not advance: a retry (fresh payloads, so every sector
    // visibly changes — the failed attempt's landed prefix holds the old
    // ciphertext for the same sectors) targets exactly the same extent.
    let retry_blocks: Vec<Vec<u8>> = (0..3u8).map(|i| vec![0xE0 + i; BS]).collect();
    let retry_refs: Vec<&[u8]> = retry_blocks.iter().map(Vec::as_slice).collect();
    let before_retry = disk.snapshot();
    mp.hidden_write_blocks(&retry_refs).unwrap();
    let after_retry = disk.snapshot();
    let landed = before_retry.changed_blocks(&after_retry);
    assert_eq!(landed, vec![first + 1, first + 2, first + 3], "retry reuses the same extent");
}

/// A pass-through device that counts the empty read batches it is handed
/// and, once `drop_last` is set, answers every read with its last block
/// missing.
struct ShortReads {
    inner: SharedDevice,
    empty_reads: AtomicUsize,
    drop_last: AtomicBool,
}

impl ShortReads {
    fn new(inner: MemDisk) -> Arc<Self> {
        Arc::new(ShortReads {
            inner: Arc::new(inner),
            empty_reads: AtomicUsize::new(0),
            drop_last: AtomicBool::new(false),
        })
    }
}

impl BlockDevice for ShortReads {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        if indices.is_empty() {
            self.empty_reads.fetch_add(1, Ordering::SeqCst);
        }
        let mut bufs = self.inner.read_blocks(indices)?;
        if self.drop_last.load(Ordering::SeqCst) {
            bufs.pop();
        }
        Ok(bufs)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.inner.write_blocks(writes)
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.inner.flush()
    }

    fn host_queue_enter(&self) {
        self.inner.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.inner.host_queue_leave();
    }
}

/// A read that needs nothing from the device makes no device call, and a
/// device that answers with too few blocks is an `Io` error, never a panic
/// or a zero block the baseline never read.
#[test]
fn baseline_reads_skip_empty_batches_and_refuse_short_ones() {
    let clock = SimClock::new();
    let hive_dev = ShortReads::new(MemDisk::new(600, BS, clock.clone()));
    let oram = HiveWoOram::new(hive_dev.clone(), clock.clone(), 256, [9u8; 64], 7).unwrap();
    let defy_dev = ShortReads::new(MemDisk::new(256, BS, clock.clone()));
    let defy = DefyLite::new(defy_dev.clone(), clock, 64, [5u8; 32]).unwrap();

    for l in 0..10u64 {
        assert_eq!(oram.read_block(100 + l).unwrap(), vec![0u8; BS]);
        assert_eq!(defy.read_block(40 + l).unwrap(), vec![0u8; BS]);
    }
    assert_eq!(hive_dev.empty_reads.load(Ordering::SeqCst), 0, "HIVE empty batches");
    assert_eq!(defy_dev.empty_reads.load(Ordering::SeqCst), 0, "DEFY empty batches");

    let payloads: Vec<(u64, Vec<u8>)> = (0..8u64).map(|l| (l, vec![0x40 + l as u8; BS])).collect();
    let batch: Vec<(u64, &[u8])> = payloads.iter().map(|(l, d)| (*l, d.as_slice())).collect();
    oram.write_blocks(&batch).unwrap();
    defy.write_blocks(&batch).unwrap();
    assert!(oram.stash_len() < payloads.len(), "some block must sit on the medium");
    let logical: Vec<u64> = payloads.iter().map(|(l, _)| *l).collect();
    let expect: Vec<Vec<u8>> = payloads.iter().map(|(_, d)| d.clone()).collect();
    assert_eq!(oram.read_blocks(&logical).unwrap(), expect);
    assert_eq!(defy.read_blocks(&logical).unwrap(), expect);

    hive_dev.drop_last.store(true, Ordering::SeqCst);
    defy_dev.drop_last.store(true, Ordering::SeqCst);
    assert!(matches!(oram.read_blocks(&logical), Err(BlockDeviceError::Io { .. })));
    assert!(matches!(defy.read_blocks(&logical), Err(BlockDeviceError::Io { .. })));
    assert!(matches!(defy.read_block(0), Err(BlockDeviceError::Io { .. })));
}
