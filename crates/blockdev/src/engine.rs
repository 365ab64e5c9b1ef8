//! [`IoEngine`]: a bounded submission/completion engine over any
//! [`BlockDevice`].
//!
//! Modeled on the AHCI command-list / io_uring design: a ring of
//! `ring_depth` slots holds the commands a thread has submitted but the
//! device has not yet executed, exactly like an AHCI port's command list
//! holds one command header per slot. Submitting queues a command and
//! registers it with the device's host queue
//! ([`BlockDevice::host_queue_enter`]); the device therefore *sees* the
//! ring occupancy and charges a command that executes with `k` slots still
//! queued at queue depth `k + 1`
//! ([`mobiceal_sim::CostModel::batch_cost_at_depth`], saturating at the
//! profile's hardware queue depth). Registered slots are the only source
//! of queue depth: this is how one thread sustains QD32 on an eMMC 5.1 CQE
//! medium.
//!
//! # Execution and completion order
//!
//! Commands **execute in submission order**, one at a time with the ring's
//! lock held — the device retires its queue oldest-first, as a single
//! flash channel would — while results are **reaped in any order** the
//! caller likes: [`IoEngine::poll`] surfaces the oldest unreaped
//! completion, [`IoEngine::wait`] a specific ticket (executing everything
//! older first, as the device must), and [`IoEngine::drain`] everything
//! outstanding. Because execution order is the submission order
//! regardless of reap order, the bytes on disk, the op mix and the
//! per-ticket results equal the plain sequential
//! `read_blocks`/`write_blocks` loop for any batch set, and a ring of
//! depth 1 charges bit-identically to the direct path. Nothing below the
//! engine calls back into a ring, so holding the lock across device I/O
//! cannot deadlock.
//!
//! # A full ring
//!
//! [`IoEngine::submit_read_blocks`] / [`IoEngine::submit_write_blocks`] on
//! a full ring first execute the oldest queued command inline and park its
//! result for a later reap, so a submit never waits and one thread can
//! never deadlock on its own ring.
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
use parking_lot::Mutex;
use std::collections::VecDeque;

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

struct Ring {
    /// Submitted, unexecuted commands in submission order — the device's
    /// queue; the front executes next.
    queued: VecDeque<(Ticket, Request)>,
    /// Executed-but-unreaped results, in execution order.
    completed: VecDeque<Completion>,
    next_ticket: u64,
}

/// A bounded submission/completion ring over a [`BlockDevice`]. See the
/// [module docs](self) for the model.
pub struct IoEngine<D: BlockDevice> {
    device: D,
    ring_depth: usize,
    ring: Mutex<Ring>,
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
            ring: Mutex::new(Ring {
                queued: VecDeque::with_capacity(ring_depth),
                completed: VecDeque::new(),
                next_ticket: 0,
            }),
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

    /// Commands submitted but not yet executed.
    pub fn in_flight(&self) -> usize {
        self.ring.lock().queued.len()
    }

    /// Completions executed but not yet reaped.
    pub fn pending_completions(&self) -> usize {
        self.ring.lock().completed.len()
    }

    /// Submits a vectored read of `indices`. The batch executes with
    /// [`BlockDevice::read_blocks`] semantics when its turn in the device
    /// queue comes.
    pub fn submit_read_blocks(&self, indices: &[BlockIndex]) -> Ticket {
        self.submit(Request::Read(indices.to_vec()))
    }

    /// Submits a vectored write. The data is copied into the slot (the
    /// ring owns it until execution); the batch executes with
    /// [`BlockDevice::write_blocks`] semantics.
    pub fn submit_write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Ticket {
        self.submit(Request::Write(writes.iter().map(|&(i, d)| (i, d.to_vec())).collect()))
    }

    /// Surfaces the oldest unreaped completion, executing the device's
    /// oldest queued command if none is ready. `None` when the engine is
    /// idle.
    pub fn poll(&self) -> Option<Completion> {
        let mut ring = self.ring.lock();
        match ring.completed.pop_front() {
            Some(done) => Some(done),
            None => self.execute_oldest(&mut ring),
        }
    }

    /// Reaps `ticket`, executing every older queued command first (the
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
        let mut ring = self.ring.lock();
        if let Some(pos) = ring.completed.iter().position(|(t, _)| *t == ticket) {
            let Some((_, result)) = ring.completed.remove(pos) else {
                return Err(vanished());
            };
            return result;
        }
        assert!(
            ring.queued.iter().any(|(t, _)| *t == ticket),
            "ticket not in flight: never issued by this engine or already reaped"
        );
        while let Some(done) = self.execute_oldest(&mut ring) {
            if done.0 == ticket {
                return done.1;
            }
            ring.completed.push_back(done);
        }
        Err(vanished())
    }

    /// Executes everything queued and returns every unreaped completion,
    /// in device (execution) order.
    pub fn drain(&self) -> Vec<Completion> {
        let mut ring = self.ring.lock();
        while let Some(done) = self.execute_oldest(&mut ring) {
            ring.completed.push_back(done);
        }
        ring.completed.drain(..).collect()
    }

    fn submit(&self, request: Request) -> Ticket {
        let mut ring = self.ring.lock();
        if ring.queued.len() == self.ring_depth {
            // A full ring: retire the oldest command to free its slot.
            if let Some(done) = self.execute_oldest(&mut ring) {
                ring.completed.push_back(done);
            }
        }
        let ticket = Ticket(ring.next_ticket);
        ring.next_ticket += 1;
        // From submission until execution the command holds a host-queue
        // slot: commands that execute meanwhile overlap it and are
        // charged one queue depth deeper.
        self.device.host_queue_enter();
        ring.queued.push_back((ticket, request));
        ticket
    }

    /// Executes the oldest queued command, if any, with the ring locked.
    fn execute_oldest(&self, ring: &mut Ring) -> Option<Completion> {
        let (ticket, request) = ring.queued.pop_front()?;
        // The command leaves the host queue to execute, so the device
        // charges it at the depth of the slots still queued, plus one.
        self.device.host_queue_leave();
        let result = match request {
            Request::Read(indices) => self.device.read_blocks(&indices).map(IoOutput::Read),
            Request::Write(writes) => {
                let refs: Vec<(BlockIndex, &[u8])> =
                    writes.iter().map(|(i, d)| (*i, d.as_slice())).collect();
                self.device.write_blocks(&refs).map(|()| IoOutput::Write)
            }
        };
        Some((ticket, result))
    }
}

/// The error for a ticket that left the ring between two checks under
/// one lock acquisition — impossible, but reported rather than panicking
/// on the I/O path.
fn vanished() -> BlockDeviceError {
    BlockDeviceError::Io { reason: "completion vanished under the engine lock".to_string() }
}

impl<D: BlockDevice> Drop for IoEngine<D> {
    /// Dropping the engine abandons queued commands: they are released
    /// from the host queue without executing or charging time. Reap (or
    /// [`IoEngine::drain`]) before dropping if the I/O must land.
    fn drop(&mut self) {
        for _ in 0..self.ring.get_mut().queued.len() {
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
    fn submit_on_full_ring_runs_the_oldest_inline() {
        // A submit on a full ring executes the oldest command itself and
        // parks its result.
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
