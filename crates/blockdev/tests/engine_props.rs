//! Property tests of the submission/completion engine (`IoEngine`): the
//! ring bound holds under any submit/poll interleaving, execution in
//! submission order makes results reap-order-independent and equal to the
//! direct sequential path, a depth-1 ring charges bit-identically to
//! direct calls, faulted batches stay confined to their own ticket, and
//! engine-driven queue depth equals real slot occupancy (pinned against
//! the deterministic depth floor, which is now a test hook only).

// Test binary: aborting on an unexpected error is the point.
#![allow(clippy::unwrap_used)]

use mobiceal_blockdev::{
    BlockDevice, BlockDeviceError, BlockIndex, FaultInjection, IoEngine, IoOutput, MemDisk,
};
use mobiceal_sim::{EmmcCostModel, SimClock};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

const BS: usize = 512;
const DISK_BLOCKS: u64 = 256;

/// A proptest-generated batch: `(write?, [(block, fill)])`. Reads reuse the
/// block list and ignore the fills.
type Batch = (bool, Vec<(u64, u8)>);

fn batches_strategy(max_batches: usize) -> impl Strategy<Value = Vec<Batch>> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec((0u64..64, any::<u8>()), 1..8)),
        1..max_batches,
    )
}

fn cqe_disk() -> MemDisk {
    MemDisk::with_cost_model(
        DISK_BLOCKS,
        BS,
        SimClock::new(),
        Arc::new(EmmcCostModel::emmc51_cqe()),
    )
}

/// Submits one batch (blocking) and returns its ticket.
fn submit(engine: &IoEngine<impl BlockDevice>, batch: &Batch) -> mobiceal_blockdev::Ticket {
    let (write, blocks) = batch;
    if *write {
        let bufs: Vec<(u64, Vec<u8>)> =
            blocks.iter().map(|&(b, fill)| (b, vec![fill; BS])).collect();
        let writes: Vec<(BlockIndex, &[u8])> =
            bufs.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        engine.submit_write_blocks(&writes)
    } else {
        let indices: Vec<u64> = blocks.iter().map(|&(b, _)| b).collect();
        engine.submit_read_blocks(&indices)
    }
}

/// Runs one batch directly on `dev`, mirroring what the engine executes.
fn run_direct(dev: &impl BlockDevice, batch: &Batch) -> Result<IoOutput, BlockDeviceError> {
    let (write, blocks) = batch;
    if *write {
        let bufs: Vec<(u64, Vec<u8>)> =
            blocks.iter().map(|&(b, fill)| (b, vec![fill; BS])).collect();
        let writes: Vec<(BlockIndex, &[u8])> =
            bufs.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        dev.write_blocks(&writes).map(|()| IoOutput::Write)
    } else {
        let indices: Vec<u64> = blocks.iter().map(|&(b, _)| b).collect();
        dev.read_blocks(&indices).map(IoOutput::Read)
    }
}

/// A pass-through device that counts concurrent host-queue registrations
/// (plus its own executing commands) and remembers the high-water mark.
#[derive(Clone)]
struct CountingDevice {
    inner: MemDisk,
    holds: Arc<AtomicUsize>,
    max_holds: Arc<AtomicUsize>,
}

impl CountingDevice {
    fn new(inner: MemDisk) -> Self {
        CountingDevice {
            inner,
            holds: Arc::new(AtomicUsize::new(0)),
            max_holds: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn max_holds(&self) -> usize {
        self.max_holds.load(Ordering::SeqCst)
    }
}

impl BlockDevice for CountingDevice {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        self.inner.read_blocks(indices)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.inner.write_blocks(writes)
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.inner.flush()
    }

    fn host_queue_enter(&self) {
        let now = self.holds.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_holds.fetch_max(now, Ordering::SeqCst);
        self.inner.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.holds.fetch_sub(1, Ordering::SeqCst);
        self.inner.host_queue_leave();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Under any submit/poll interleaving the ring keeps at most
    /// `ring_depth` commands in flight — both by the engine's own count
    /// and by the host-queue registrations the device sees.
    #[test]
    fn ring_never_exceeds_depth_in_flight(
        batches in batches_strategy(24),
        ring in 1usize..9,
        poll_every in 1usize..5,
    ) {
        let device = CountingDevice::new(MemDisk::with_default_timing(DISK_BLOCKS, BS));
        let counter = device.clone();
        let engine = IoEngine::new(device, ring);
        for (i, batch) in batches.iter().enumerate() {
            submit(&engine, batch);
            prop_assert!(engine.in_flight() <= ring, "slot table is bounded");
            prop_assert!(counter.max_holds() <= ring, "device never sees more than the ring");
            if i % poll_every == 0 {
                engine.poll();
            }
        }
        engine.drain();
        prop_assert_eq!(engine.in_flight(), 0);
        prop_assert!(counter.max_holds() <= ring);
    }

    /// For any batch set and any reap order, the engine produces the same
    /// bytes, per-ticket outputs, op mix *and charged time* as running the
    /// batches sequentially on the direct path (on the paper's nexus4
    /// medium, whose charges are depth-insensitive — so this isolates
    /// ordering semantics from the CQE discount).
    #[test]
    fn engine_matches_sequential_for_any_reap_order(
        batches in batches_strategy(12),
        reap_keys in prop::collection::vec(any::<u64>(), 12),
        ring in 1usize..9,
    ) {
        // Reap in the order given by sorting ticket indices by their
        // generated key — an arbitrary permutation of the submissions.
        let mut reap_order: Vec<usize> = (0..batches.len()).collect();
        reap_order.sort_by_key(|&i| reap_keys.get(i).copied().unwrap_or(u64::MAX));
        let engine_disk = MemDisk::with_default_timing(DISK_BLOCKS, BS);
        let direct_disk = MemDisk::with_default_timing(DISK_BLOCKS, BS);
        let engine = IoEngine::new(engine_disk.clone(), ring);

        let tickets: Vec<_> = batches.iter().map(|b| submit(&engine, b)).collect();
        let mut engine_results: Vec<Option<Result<IoOutput, BlockDeviceError>>> =
            (0..batches.len()).map(|_| None).collect();
        for &i in &reap_order {
            engine_results[i] = Some(engine.wait(tickets[i]));
        }

        let direct_results: Vec<_> = batches.iter().map(|b| run_direct(&direct_disk, b)).collect();
        for (got, want) in engine_results.iter().zip(&direct_results) {
            prop_assert_eq!(got.as_ref().expect("reaped"), want, "per-ticket results match");
        }
        prop_assert_eq!(engine_disk.snapshot().as_bytes(), direct_disk.snapshot().as_bytes());
        prop_assert_eq!(engine_disk.stats(), direct_disk.stats(), "op mix and time identical");
        prop_assert_eq!(engine_disk.clock().now(), direct_disk.clock().now());
    }

    /// A depth-1 ring on the queue-capable CQE medium charges bit-identically
    /// to the direct path: with one slot there is never overlap, so the
    /// engine must not manufacture a depth discount.
    #[test]
    fn depth1_ring_charges_bit_identical_to_direct(batches in batches_strategy(12)) {
        let engine_disk = cqe_disk();
        let direct_disk = cqe_disk();
        let engine = IoEngine::new(engine_disk.clone(), 1);
        let tickets: Vec<_> = batches.iter().map(|b| submit(&engine, b)).collect();
        for t in tickets {
            // Already-completed tickets (retired by backpressure) just
            // return their parked result.
            let _ = engine.wait(t);
        }
        for batch in &batches {
            let _ = run_direct(&direct_disk, batch);
        }
        prop_assert_eq!(engine_disk.clock().now(), direct_disk.clock().now(),
            "one slot: charges are bit-identical to the direct path");
        prop_assert_eq!(engine_disk.stats(), direct_disk.stats());
        prop_assert_eq!(engine_disk.snapshot().as_bytes(), direct_disk.snapshot().as_bytes());
    }

    /// Fault-injected batches surface their fail-fast error on the owning
    /// ticket only: every other slot completes exactly as the direct
    /// sequential path would, and the persisted prefix matches too.
    #[test]
    fn faulted_batches_stay_confined_to_their_ticket(
        batches in batches_strategy(12),
        fail_block in 0u64..64,
        fail_writes in any::<bool>(),
    ) {
        let mk = || {
            let disk = MemDisk::with_default_timing(DISK_BLOCKS, BS);
            let mut faults = FaultInjection::default();
            if fail_writes {
                faults.failing_writes.insert(fail_block);
            } else {
                faults.failing_reads.insert(fail_block);
            }
            disk.set_faults(faults);
            disk
        };
        let engine_disk = mk();
        let direct_disk = mk();
        let engine = IoEngine::new(engine_disk.clone(), 4);
        let tickets: Vec<_> = batches.iter().map(|b| submit(&engine, b)).collect();
        let direct_results: Vec<_> = batches.iter().map(|b| run_direct(&direct_disk, b)).collect();
        for (t, want) in tickets.into_iter().zip(&direct_results) {
            prop_assert_eq!(&engine.wait(t), want, "errors confined to the owning ticket");
        }
        prop_assert_eq!(engine_disk.snapshot().as_bytes(), direct_disk.snapshot().as_bytes(),
            "fail-fast prefixes persist identically");
        prop_assert_eq!(engine_disk.stats(), direct_disk.stats());
    }

    /// Engine-driven queue depth equals real slot occupancy — no floor
    /// involved: draining `k` queued batches charges batch `i` at depth
    /// `k - i`, bit-identical to the (test-hook) depth floor pinned to
    /// the same ladder on the direct path.
    #[test]
    fn engine_depth_equals_slot_occupancy(k in 2usize..9, n in 2usize..9) {
        let engine_disk = cqe_disk();
        let floored_disk = cqe_disk();
        let engine = IoEngine::new(engine_disk.clone(), k);
        let data = vec![0x6Bu8; BS];
        // Spaced bases keep each batch head a random op on both paths.
        let batch_at = |i: usize| -> Vec<(BlockIndex, Vec<u8>)> {
            let base = (i * (n + 2)) as u64;
            (0..n as u64).map(|j| (base + j, data.clone())).collect()
        };
        for i in 0..k {
            let owned = batch_at(i);
            let writes: Vec<(BlockIndex, &[u8])> =
                owned.iter().map(|(b, d)| (*b, d.as_slice())).collect();
            engine.submit_write_blocks(&writes);
        }
        for (_, result) in engine.drain() {
            prop_assert!(result.is_ok());
        }
        for i in 0..k {
            // When the engine executed batch i, batches i..k occupied the
            // ring: occupancy k - i. The floor reproduces that exactly.
            floored_disk.set_queue_depth_floor(k - i);
            let owned = batch_at(i);
            let writes: Vec<(BlockIndex, &[u8])> =
                owned.iter().map(|(b, d)| (*b, d.as_slice())).collect();
            floored_disk.write_blocks(&writes).unwrap();
        }
        prop_assert_eq!(engine_disk.clock().now(), floored_disk.clock().now(),
            "slot occupancy is the charged depth");
        prop_assert_eq!(engine_disk.stats(), floored_disk.stats());
    }
}

/// A device whose writes block on an external gate — lets a test hold the
/// engine mid-execution to line up waiters deterministically.
#[derive(Clone)]
struct GatedDevice {
    inner: MemDisk,
    gate: Arc<(Mutex<bool>, Condvar)>,
    execution_blocked: Arc<AtomicBool>,
}

impl GatedDevice {
    fn new(inner: MemDisk) -> Self {
        GatedDevice {
            inner,
            gate: Arc::new((Mutex::new(false), Condvar::new())),
            execution_blocked: Arc::new(AtomicBool::new(false)),
        }
    }

    fn open_gate(&self) {
        *self.gate.0.lock().unwrap() = true;
        self.gate.1.notify_all();
    }

    fn block_on_gate(&self) {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            self.execution_blocked.store(true, Ordering::SeqCst);
            open = cvar.wait(open).unwrap();
        }
    }
}

impl BlockDevice for GatedDevice {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        self.inner.read_blocks(indices)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.block_on_gate();
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

/// Backpressure grants slots in FIFO arrival order: tickets are allocated
/// at grant time, so the earlier-arriving blocked submitter must hold the
/// smaller ticket. Arrival is serialized deterministically — the gate
/// holds the head waiter mid-execution (the engine lock is released
/// during device I/O), and each later thread is spawned only once the
/// previous one is visibly parked in the waiter queue.
#[test]
fn backpressure_grants_slots_in_arrival_order() {
    let device = GatedDevice::new(MemDisk::with_default_timing(DISK_BLOCKS, BS));
    let gate = device.clone();
    let engine = Arc::new(IoEngine::new(device, 1));
    let data = vec![1u8; BS];
    // Plug the single slot; nothing executes at submit time.
    let plug = engine.submit_write_blocks(&[(0, data.as_slice())]);

    let grants = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for id in 0..3u64 {
            let engine_ref = Arc::clone(&engine);
            let grants = Arc::clone(&grants);
            let data = data.clone();
            s.spawn(move || {
                let ticket = engine_ref.submit_write_blocks(&[(1 + id, data.as_slice())]);
                grants.lock().unwrap().push((id, ticket));
            });
            if id == 0 {
                // Thread 0 joins the waiter queue, becomes head, and gets
                // stuck executing the plug behind the gate.
                while !gate.execution_blocked.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            } else {
                // Threads 1, 2 park behind it; wait until each is queued
                // before admitting the next.
                while engine.backpressured() < id as usize + 1 {
                    std::thread::yield_now();
                }
            }
        }
        gate.open_gate();
    });

    let granted = grants.lock().unwrap().clone();
    assert_eq!(granted.len(), 3, "every blocked submitter was woken");
    let mut by_arrival = granted.clone();
    by_arrival.sort_by_key(|&(id, _)| id);
    let tickets: Vec<_> = by_arrival.iter().map(|&(_, t)| t).collect();
    let mut sorted = tickets.clone();
    sorted.sort();
    assert_eq!(tickets, sorted, "slots granted in FIFO arrival order: {granted:?}");

    engine.wait(plug).unwrap();
    for (_, r) in engine.drain() {
        r.unwrap();
    }
}

/// Stress: concurrent submitters over a tiny ring all make progress, the
/// bound holds throughout, and every batch lands.
#[test]
fn concurrent_submitters_all_complete_within_bound() {
    let device = CountingDevice::new(MemDisk::with_default_timing(DISK_BLOCKS, BS));
    let counter = device.clone();
    let engine = Arc::new(IoEngine::new(device, 2));
    let threads = 4u64;
    let per_thread = 16u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                let data = vec![t as u8 + 1; BS];
                for i in 0..per_thread {
                    engine.submit_write_blocks(&[(t * 32 + i, data.as_slice())]);
                }
            });
        }
    });
    let leftovers = engine.drain();
    assert!(leftovers.iter().all(|(_, r)| r.is_ok()));
    assert!(counter.max_holds() <= 2, "bound held under contention");
    assert_eq!(
        counter.inner.stats().total_writes(),
        threads * per_thread,
        "every submitted batch executed exactly once"
    );
}
