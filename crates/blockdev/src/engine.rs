//! [`IoEngine`]: a bounded submission/completion engine over any
//! [`BlockDevice`].
//!
//! Modeled on the AHCI command-list / io_uring design: a fixed **slot
//! table** of `ring_depth` entries holds the commands a thread has
//! submitted but not yet reaped, exactly like an AHCI port's command list
//! holds one command header per slot. Submitting occupies a slot and
//! registers the command with the device's host queue
//! ([`BlockDevice::host_queue_enter`]); the device therefore *sees* the
//! ring occupancy and charges commands that execute alongside `k` queued
//! slots at queue depth `k` ([`mobiceal_sim::CostModel::batch_cost_at_depth`],
//! saturating at the profile's hardware queue depth). This is how one
//! thread sustains QD32 on an eMMC 5.1 CQE medium: the depth discount
//! comes from genuine slot overlap, not from worker threads or test
//! hooks.
//!
//! # Execution and completion order
//!
//! Commands **execute in submission order**, strictly one at a time — the
//! device retires its queue oldest-first, as a single flash channel would
//! — while results are **reaped in any order** the caller likes:
//! [`IoEngine::poll`] surfaces the oldest unreaped completion,
//! [`IoEngine::wait`] a specific ticket (completing everything older
//! first, as the device must), and [`IoEngine::drain`] everything
//! outstanding. Because execution order is the submission order
//! regardless of reap order, the bytes on disk, the op mix and the
//! per-ticket results equal the plain sequential
//! `read_blocks`/`write_blocks` loop for any batch set, and a ring of
//! depth 1 charges bit-identically to the direct path. Device I/O runs
//! with the engine's internal lock released, so other threads can submit
//! or reap while a command executes; executions themselves never overlap
//! each other.
//!
//! # Backpressure
//!
//! With every slot in flight, [`IoEngine::submit_read_blocks`] /
//! [`IoEngine::submit_write_blocks`] **block** until a slot frees, and
//! blocked submitters are granted slots in FIFO arrival order. The head
//! waiter frees a slot itself by retiring the device's oldest in-flight
//! command — a full ring always has one queued or executing — so a single
//! thread can never deadlock on its own ring.
//!
//! # Example
//!
//! ```
//! use mobiceal_blockdev::{IoEngine, IoOutput, MemDisk};
//!
//! let engine = IoEngine::new(MemDisk::with_default_timing(64, 4096), 8);
//! let w = engine.submit_write_blocks(&[(3, &[0xAB; 4096])]);
//! let r = engine.submit_read_blocks(&[3]);
//! engine.wait(w)?; // writes land in submission order, before the read
//! match engine.wait(r)? {
//!     IoOutput::Read(bufs) => assert_eq!(bufs[0][0], 0xAB),
//!     IoOutput::Write => unreachable!(),
//! }
//! # Ok::<(), mobiceal_blockdev::BlockDeviceError>(())
//! ```

use crate::device::{read_blocks_via_batch, BlockDevice, BlockDeviceError, BlockIndex, ReadDest};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Identifies one submitted batch. Reap its result exactly once via
/// [`IoEngine::wait`], [`IoEngine::poll`] or [`IoEngine::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

/// The successful payload of a completed submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOutput {
    /// The buffers of a `submit_read_blocks` batch, in batch order.
    Read(Vec<Vec<u8>>),
    /// A `submit_write_blocks` batch landed.
    Write,
}

/// A reaped completion: which submission, and what it produced. Errors
/// carry the same value the direct `read_blocks`/`write_blocks` call
/// would have returned (fail-fast, prefix persisted), confined to the
/// owning ticket — other slots are unaffected.
pub type Completion = (Ticket, Result<IoOutput, BlockDeviceError>);

/// One queued batch, owned until it executes.
enum Request {
    Read(Vec<BlockIndex>),
    Write(Vec<(BlockIndex, Vec<u8>)>),
}

/// A slot table entry: the AHCI command-list analogue. Present while the
/// command is submitted-but-unexecuted.
struct Slot {
    ticket: Ticket,
    request: Request,
}

struct EngineState {
    /// The slot table; `None` = free (or currently executing — the slot
    /// index stays allocated until the I/O finishes).
    slots: Vec<Option<Slot>>,
    /// Free slot indices, reused FIFO.
    free: VecDeque<usize>,
    /// Occupied slot indices in submission order — the device's queue; the
    /// front is the oldest in-flight command and always executes next.
    issued: VecDeque<usize>,
    /// The command currently executing on the device, if any. Executions
    /// are strictly serial; everyone else parks until it completes.
    executing: Option<Ticket>,
    /// Executed-but-unreaped results, in device (execution) order.
    completed: VecDeque<Completion>,
    next_ticket: u64,
    /// FIFO queue of submitters blocked on a full ring (by arrival
    /// sequence number); only the front may take the next free slot.
    waiters: VecDeque<u64>,
    next_waiter: u64,
}

/// A bounded submission/completion ring over a [`BlockDevice`]. See the
/// [module docs](self) for the model.
pub struct IoEngine<D: BlockDevice> {
    device: D,
    ring_depth: usize,
    state: Mutex<EngineState>,
    /// Signaled whenever a slot frees, an execution completes or a waiter
    /// is granted — every parked loop re-checks on it.
    progress: Condvar,
}

impl<D: BlockDevice> IoEngine<D> {
    /// Creates an engine with `ring_depth` slots over `device`.
    ///
    /// # Panics
    ///
    /// Panics if `ring_depth == 0`.
    pub fn new(device: D, ring_depth: usize) -> Self {
        assert!(ring_depth > 0, "ring must have at least one slot");
        IoEngine {
            device,
            ring_depth,
            state: Mutex::new(EngineState {
                slots: (0..ring_depth).map(|_| None).collect(),
                free: (0..ring_depth).collect(),
                issued: VecDeque::with_capacity(ring_depth),
                executing: None,
                completed: VecDeque::new(),
                next_ticket: 0,
                waiters: VecDeque::new(),
                next_waiter: 0,
            }),
            progress: Condvar::new(),
        }
    }

    /// The device the ring feeds. Direct calls on it bypass the ring (but
    /// still overlap the queued slots in the device's depth accounting).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Number of slots in the ring.
    pub fn ring_depth(&self) -> usize {
        self.ring_depth
    }

    /// Commands submitted but not yet completed (queued or executing).
    pub fn in_flight(&self) -> usize {
        let st = self.lock();
        st.issued.len() + usize::from(st.executing.is_some())
    }

    /// Completions executed but not yet reaped.
    pub fn pending_completions(&self) -> usize {
        self.lock().completed.len()
    }

    /// Submitters currently blocked waiting for a slot.
    pub fn backpressured(&self) -> usize {
        self.lock().waiters.len()
    }

    /// Submits a vectored read of `indices`; blocks while the ring is
    /// full. The batch executes with [`BlockDevice::read_blocks`]
    /// semantics when its turn in the device queue comes.
    pub fn submit_read_blocks(&self, indices: &[BlockIndex]) -> Ticket {
        self.submit(Request::Read(indices.to_vec()))
    }

    /// Submits a vectored write; blocks while the ring is full. The data
    /// is copied into the slot (the ring owns it until execution); the
    /// batch executes with [`BlockDevice::write_blocks`] semantics.
    pub fn submit_write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Ticket {
        self.submit(Request::Write(writes.iter().map(|&(i, d)| (i, d.to_vec())).collect()))
    }

    /// Surfaces the oldest unreaped completion, executing the device's
    /// oldest in-flight command if none is ready (and waiting out another
    /// thread's in-progress execution). `None` when the engine is idle.
    pub fn poll(&self) -> Option<Completion> {
        let mut st = self.lock();
        loop {
            if let Some(done) = st.completed.pop_front() {
                return Some(done);
            }
            if st.issued.is_empty() {
                st.executing?;
                st = self.park(st);
                continue;
            }
            if st.executing.is_some() {
                st = self.park(st);
                continue;
            }
            let (_st, done) = self.execute_oldest(st);
            return Some(done);
        }
    }

    /// Reaps `ticket`, executing every older in-flight command first (the
    /// device retires its queue in order); their results stay parked for
    /// later [`IoEngine::poll`]/[`IoEngine::wait`]/[`IoEngine::drain`]
    /// calls.
    ///
    /// # Errors
    ///
    /// The error the batch's direct `read_blocks`/`write_blocks` call
    /// produced, if any.
    ///
    /// # Panics
    ///
    /// Panics if `ticket` was never issued by this engine or was already
    /// reaped.
    pub fn wait(&self, ticket: Ticket) -> Result<IoOutput, BlockDeviceError> {
        let mut st = self.lock();
        loop {
            if let Some(pos) = st.completed.iter().position(|(t, _)| *t == ticket) {
                let (_, result) = st.completed.remove(pos).ok_or_else(|| BlockDeviceError::Io {
                    reason: "completion vanished under the engine lock".to_string(),
                })?;
                return result;
            }
            if st.executing == Some(ticket) {
                st = self.park(st);
                continue;
            }
            let queued =
                st.issued.iter().any(|&i| st.slots[i].as_ref().is_some_and(|s| s.ticket == ticket));
            assert!(
                queued || st.executing.is_some(),
                "ticket not in flight: never issued by this engine or already reaped"
            );
            if st.executing.is_some() {
                st = self.park(st);
                continue;
            }
            let (st2, done) = self.execute_oldest(st);
            st = st2;
            if done.0 == ticket {
                return done.1;
            }
            st.completed.push_back(done);
        }
    }

    /// Executes everything in flight and returns every unreaped
    /// completion, in device (execution) order.
    pub fn drain(&self) -> Vec<Completion> {
        let mut st = self.lock();
        loop {
            if st.executing.is_some() {
                st = self.park(st);
                continue;
            }
            if st.issued.is_empty() {
                break;
            }
            let (st2, done) = self.execute_oldest(st);
            st = st2;
            st.completed.push_back(done);
        }
        st.completed.drain(..).collect()
    }

    fn lock(&self) -> MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn park<'a>(&'a self, st: MutexGuard<'a, EngineState>) -> MutexGuard<'a, EngineState> {
        self.progress.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    fn submit(&self, request: Request) -> Ticket {
        let mut st = self.lock();
        let idx = if st.waiters.is_empty() { st.free.pop_front() } else { None };
        let idx = match idx {
            Some(idx) => idx,
            None => {
                let my = st.next_waiter;
                st.next_waiter += 1;
                st.waiters.push_back(my);
                let idx = loop {
                    if st.waiters.front() != Some(&my) {
                        st = self.park(st);
                        continue;
                    }
                    if let Some(idx) = st.free.pop_front() {
                        st.waiters.pop_front();
                        break idx;
                    }
                    if st.executing.is_some() {
                        // The in-progress execution will free its slot.
                        st = self.park(st);
                        continue;
                    }
                    // Head waiter with a full ring: free a slot by retiring
                    // the device's oldest in-flight command and parking its
                    // result. Guarantees progress even single-threaded — a
                    // full, idle ring always has a queued command.
                    let (st2, done) = self.execute_oldest(st);
                    st = st2;
                    st.completed.push_back(done);
                };
                // A freed slot may remain for the next waiter in line.
                self.progress.notify_all();
                idx
            }
        };
        self.occupy(&mut st, idx, request)
    }

    /// Installs `request` in the already-claimed free slot `idx` and
    /// registers it with the device's host queue.
    fn occupy(&self, st: &mut EngineState, idx: usize, request: Request) -> Ticket {
        let ticket = Ticket(st.next_ticket);
        st.next_ticket += 1;
        // From submission until execution the command occupies a host
        // queue slot: commands that execute meanwhile overlap it and are
        // charged at the deeper queue depth.
        self.device.host_queue_enter();
        st.slots[idx] = Some(Slot { ticket, request });
        st.issued.push_back(idx);
        ticket
    }

    /// Executes the device's oldest in-flight command, releasing the
    /// engine lock for the duration of the device I/O (executions stay
    /// strictly serial via `executing`). Caller guarantees a command is
    /// queued and none is executing. Returns the reacquired guard and the
    /// completion; the slot is freed and `progress` notified.
    fn execute_oldest<'a>(
        &'a self,
        mut st: MutexGuard<'a, EngineState>,
    ) -> (MutexGuard<'a, EngineState>, Completion) {
        debug_assert!(st.executing.is_none(), "executions never overlap");
        // analyzer: allow(panic_freedom, reason = "every caller checks `issued` is non-empty under the same lock acquisition")
        let idx = st.issued.pop_front().expect("an in-flight command");
        // analyzer: allow(panic_freedom, reason = "slots[idx] is installed by occupy() and taken only here; `issued` holds each idx exactly once")
        let slot = st.slots[idx].take().expect("issued slot occupied");
        st.executing = Some(slot.ticket);
        drop(st);
        // The command leaves the host queue to execute; the device's own
        // in-flight accounting takes over, so it is charged at exactly
        // the ring occupancy it overlapped with (its own slot included).
        self.device.host_queue_leave();
        let result = match &slot.request {
            Request::Read(indices) => self.device.read_blocks(indices).map(IoOutput::Read),
            Request::Write(writes) => {
                let refs: Vec<(BlockIndex, &[u8])> =
                    writes.iter().map(|(i, d)| (*i, d.as_slice())).collect();
                self.device.write_blocks(&refs).map(|()| IoOutput::Write)
            }
        };
        let mut st = self.lock();
        st.executing = None;
        st.free.push_back(idx);
        self.progress.notify_all();
        (st, (slot.ticket, result))
    }
}

impl<D: BlockDevice> Drop for IoEngine<D> {
    /// Dropping the engine abandons in-flight commands: they are released
    /// from the host queue without executing or charging time. Reap (or
    /// [`IoEngine::drain`]) before dropping if the I/O must land.
    fn drop(&mut self) {
        let st = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        for _ in 0..st.issued.len() {
            self.device.host_queue_leave();
        }
    }
}

impl<D: BlockDevice> std::fmt::Debug for IoEngine<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEngine").field("ring_depth", &self.ring_depth).finish_non_exhaustive()
    }
}

/// A synchronous façade over a shared ring: every `read_blocks`/
/// `write_blocks` call is submitted and waited on inline, so the I/O of a
/// layer that only speaks [`BlockDevice`] (a file system, a baseline
/// stack) executes at whatever queue depth the ring's *other* in-flight
/// slots create. Single-block calls ride one-element batches.
#[derive(Debug)]
pub struct EngineDevice<D: BlockDevice>(pub std::sync::Arc<IoEngine<D>>);

impl<D: BlockDevice> BlockDevice for EngineDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.0.device().num_blocks()
    }

    fn block_size(&self) -> usize {
        self.0.device().block_size()
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        match self.0.wait(self.0.submit_read_blocks(indices))? {
            IoOutput::Read(bufs) => Ok(bufs),
            IoOutput::Write => {
                Err(BlockDeviceError::Io { reason: "read ticket completed as a write".to_string() })
            }
        }
    }

    /// The ring's completions own their buffers, so these are moved or
    /// copied out of one ring read.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        read_blocks_via_batch(self, indices, dest)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        let ticket = self.0.submit_write_blocks(writes);
        self.0.wait(ticket).map(|_| ())
    }

    /// Flushes the backing device directly. This façade waits out each of
    /// its own submissions inline, so it never has ring slots of its own
    /// in flight to order against.
    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.0.device().flush()
    }

    fn host_queue_enter(&self) {
        self.0.device().host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.0.device().host_queue_leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::{FaultInjection, MemDisk};
    use mobiceal_sim::{EmmcCostModel, SimClock};
    use std::sync::Arc;

    fn cqe_disk(blocks: u64) -> MemDisk {
        MemDisk::with_cost_model(
            blocks,
            512,
            SimClock::new(),
            Arc::new(EmmcCostModel::emmc51_cqe()),
        )
    }

    #[test]
    fn submit_wait_round_trips_data() {
        let engine = IoEngine::new(MemDisk::with_default_timing(16, 512), 4);
        let data = vec![0x5Au8; 512];
        let w = engine.submit_write_blocks(&[(3, data.as_slice()), (4, data.as_slice())]);
        let r = engine.submit_read_blocks(&[3, 4]);
        assert_eq!(engine.in_flight(), 2);
        assert_eq!(engine.wait(r).unwrap(), IoOutput::Read(vec![data.clone(), data.clone()]));
        // Waiting on the read executed the older write first; its result
        // is parked.
        assert_eq!(engine.in_flight(), 0);
        assert_eq!(engine.pending_completions(), 1);
        assert_eq!(engine.wait(w).unwrap(), IoOutput::Write);
        assert_eq!(engine.pending_completions(), 0);
    }

    #[test]
    fn poll_surfaces_completions_in_device_order() {
        let engine = IoEngine::new(MemDisk::with_default_timing(16, 512), 4);
        let data = vec![1u8; 512];
        let t0 = engine.submit_write_blocks(&[(0, data.as_slice())]);
        let t1 = engine.submit_read_blocks(&[0]);
        let t2 = engine.submit_read_blocks(&[1]);
        assert_eq!(engine.poll().unwrap().0, t0);
        assert_eq!(engine.poll().unwrap().0, t1);
        assert_eq!(engine.poll().unwrap().0, t2);
        assert!(engine.poll().is_none(), "idle engine polls None");
    }

    #[test]
    fn drain_returns_everything_outstanding() {
        let engine = IoEngine::new(MemDisk::with_default_timing(16, 512), 8);
        let data = vec![2u8; 512];
        let tickets: Vec<Ticket> =
            (0..5u64).map(|i| engine.submit_write_blocks(&[(i, data.as_slice())])).collect();
        let done = engine.drain();
        assert_eq!(done.iter().map(|(t, _)| *t).collect::<Vec<_>>(), tickets);
        assert!(done.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(engine.in_flight(), 0);
        assert!(engine.drain().is_empty());
    }

    #[test]
    fn blocking_submit_self_serves_on_full_ring() {
        // Single-threaded: a blocking submit on a full ring retires the
        // oldest command itself instead of deadlocking.
        let engine = IoEngine::new(cqe_disk(64), 2);
        let data = vec![4u8; 512];
        let t0 = engine.submit_write_blocks(&[(0, data.as_slice())]);
        let _t1 = engine.submit_write_blocks(&[(1, data.as_slice())]);
        let _t2 = engine.submit_write_blocks(&[(2, data.as_slice())]);
        assert_eq!(engine.in_flight(), 2, "oldest command was retired to make room");
        assert_eq!(engine.pending_completions(), 1);
        assert_eq!(engine.poll().unwrap().0, t0);
        engine.drain();
    }

    #[test]
    #[should_panic(expected = "ticket not in flight")]
    fn waiting_twice_panics() {
        let engine = IoEngine::new(MemDisk::with_default_timing(16, 512), 2);
        let t = engine.submit_read_blocks(&[0]);
        engine.wait(t).unwrap();
        let _ = engine.wait(t);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_ring_panics() {
        let _ = IoEngine::new(MemDisk::with_default_timing(16, 512), 0);
    }

    #[test]
    fn dropping_engine_releases_host_queue_holds() {
        let disk = cqe_disk(64);
        let data = vec![5u8; 512];
        {
            let engine = IoEngine::new(disk.clone(), 8);
            engine.submit_write_blocks(&[(0, data.as_slice())]);
            engine.submit_write_blocks(&[(1, data.as_slice())]);
            // Dropped with two commands in flight: abandoned, unexecuted.
        }
        assert_eq!(disk.clock().now().as_nanos(), 0, "abandoned commands charge nothing");
        // No residual holds: a fresh direct write charges the depth-1 cost.
        let twin = cqe_disk(64);
        disk.write_blocks(&[(2, data.as_slice())]).unwrap();
        twin.write_blocks(&[(2, data.as_slice())]).unwrap();
        assert_eq!(disk.clock().now(), twin.clock().now());
    }

    #[test]
    fn errors_surface_on_the_owning_ticket_only() {
        let disk = MemDisk::with_default_timing(16, 512);
        let mut faults = FaultInjection::default();
        faults.failing_writes.insert(5);
        disk.set_faults(faults);
        let engine = IoEngine::new(disk, 4);
        let data = vec![6u8; 512];
        let ok_before = engine.submit_write_blocks(&[(0, data.as_slice())]);
        let bad = engine.submit_write_blocks(&[(4, data.as_slice()), (5, data.as_slice())]);
        let ok_after = engine.submit_write_blocks(&[(1, data.as_slice())]);
        assert_eq!(engine.wait(ok_before).unwrap(), IoOutput::Write);
        assert!(matches!(engine.wait(bad), Err(BlockDeviceError::Io { .. })));
        assert_eq!(engine.wait(ok_after).unwrap(), IoOutput::Write, "other slots unpoisoned");
        // Fail-fast prefix of the bad batch persisted, like the direct path.
        let r = engine.submit_read_blocks(&[4]);
        assert_eq!(engine.wait(r).unwrap(), IoOutput::Read(vec![data.clone()]));
    }

    #[test]
    fn engine_device_facade_round_trips() {
        let engine = Arc::new(IoEngine::new(MemDisk::with_default_timing(16, 512), 4));
        let dev = EngineDevice(engine.clone());
        let data = vec![7u8; 512];
        dev.write_block(2, &data).unwrap();
        assert_eq!(dev.read_block(2).unwrap(), data);
        dev.write_blocks(&[(3, data.as_slice()), (4, data.as_slice())]).unwrap();
        assert_eq!(dev.read_blocks(&[3, 4]).unwrap(), vec![data.clone(), data.clone()]);
        dev.flush().unwrap();
        assert_eq!(dev.num_blocks(), 16);
        assert_eq!(dev.block_size(), 512);
        assert_eq!(engine.in_flight(), 0, "the façade reaps everything inline");
    }
}
