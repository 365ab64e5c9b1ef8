//! Span recording for the traced run.
//!
//! A span covers one call across a layer boundary: its layer, operation,
//! block count, and wall and simulated start and end. Spans nest through a
//! thread-local stack, so a span's self time is its duration minus the
//! part its child spans cover, and the self times of one tree sum exactly
//! to its root's duration. Aggregates are kept in memory per
//! [`Key`]; raw spans are kept up to a cap for the JSONL dump.
//!
//! Recording is off unless [`activate`] switched it on for this thread, and
//! then [`span`] is a plain call. Devices are wrapped in [`SpanDevice`] only
//! in traced rounds, so untraced rounds run the product stack unwrapped.
//!
//! The [`SpanDevice`] impl lives here, in the benchmark's own package, and
//! not in a product crate: the repository's analyzer audits every
//! `impl BlockDevice` under the product crates' `src/` trees.

use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex};
use mobiceal_sim::SimClock;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layer name of the root span the harness opens around each measured
/// phase; its self time is the time no layer span covers.
pub const ROOT: &str = "bench";

/// What aggregates are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// `setup`, `run`, `ladder` or `ladder.thin`.
    pub phase: &'static str,
    /// The layer the span wraps.
    pub layer: &'static str,
    /// The span's own operation.
    pub op: &'static str,
    /// The user-level operation the span serves: the operation of the
    /// outermost enclosing read, write or flush span (the span itself
    /// included); the span's own operation when there is none.
    pub class: &'static str,
}

/// Sums over every span with one [`Key`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Blocks the spans carried.
    pub blocks: u64,
    /// Wall time not covered by child spans.
    pub self_wall_ns: u64,
    /// Simulated time not covered by child spans.
    pub self_sim_ns: u64,
    /// Whole span durations, wall.
    pub total_wall_ns: u64,
    /// Whole span durations, simulated.
    pub total_sim_ns: u64,
}

impl Agg {
    fn add(&mut self, other: &Agg) {
        self.calls += other.calls;
        self.blocks += other.blocks;
        self.self_wall_ns += other.self_wall_ns;
        self.self_sim_ns += other.self_sim_ns;
        self.total_wall_ns += other.total_wall_ns;
        self.total_sim_ns += other.total_sim_ns;
    }
}

/// One recorded span, as written to the JSONL dump. Times are
/// nanoseconds: wall since the recorder was installed, simulated since the
/// round's clock started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    pub id: u64,
    pub parent: Option<u64>,
    pub phase: &'static str,
    pub layer: &'static str,
    pub op: &'static str,
    pub blocks: u64,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

struct Open {
    id: u64,
    layer: &'static str,
    op: &'static str,
    class: &'static str,
    blocks: u64,
    wall_start: Instant,
    sim_start: u64,
    child_wall_ns: u64,
    child_sim_ns: u64,
}

/// The in-memory span store of one thread.
pub struct Recorder {
    origin: Instant,
    clock: SimClock,
    phase: &'static str,
    stack: Vec<Open>,
    next_id: u64,
    raw_cap: usize,
    /// Aggregates per key.
    pub agg: BTreeMap<Key, Agg>,
    /// Raw spans, up to the cap.
    pub raw: Vec<RawSpan>,
    /// Spans not kept in `raw` because the cap was reached.
    pub raw_dropped: u64,
}

impl Recorder {
    /// Sums the aggregates whose key satisfies `pred`.
    pub fn sum(&self, pred: impl Fn(&Key) -> bool) -> Agg {
        let mut total = Agg::default();
        for (_, agg) in self.agg.iter().filter(|(k, _)| pred(k)) {
            total.add(agg);
        }
        total
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs an empty recorder on this thread (inactive) that keeps at most
/// `raw_cap` raw spans.
pub fn install(raw_cap: usize) {
    let recorder = Recorder {
        origin: Instant::now(),
        clock: SimClock::new(),
        phase: "setup",
        stack: Vec::new(),
        next_id: 0,
        raw_cap,
        agg: BTreeMap::new(),
        raw: Vec::new(),
        raw_dropped: 0,
    };
    RECORDER.with_borrow_mut(|r| *r = Some(recorder));
}

/// Switches recording on or off for this thread.
pub fn activate(on: bool) {
    ACTIVE.with(|a| a.set(on));
}

/// Whether spans are being recorded on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Names the phase later spans belong to and the clock they read.
pub fn set_phase(phase: &'static str, clock: &SimClock) {
    RECORDER.with_borrow_mut(|r| {
        if let Some(r) = r {
            r.phase = phase;
            r.clock = clock.clone();
        }
    });
}

/// Stops keeping raw spans (aggregation continues).
pub fn stop_raw() {
    RECORDER.with_borrow_mut(|r| {
        if let Some(r) = r {
            r.raw_cap = r.raw.len();
        }
    });
}

/// Removes and returns this thread's recorder, deactivating recording.
pub fn take() -> Option<Recorder> {
    activate(false);
    RECORDER.with_borrow_mut(Option::take)
}

fn is_io(op: &str) -> bool {
    matches!(op, "read" | "write" | "flush")
}

/// The [`Key::class`] of a span of `op` opened on top of `stack`.
fn class_of(stack: &[Open], op: &'static str) -> &'static str {
    stack
        .iter()
        .filter(|o| o.layer != ROOT)
        .map(|o| o.op)
        .chain(std::iter::once(op))
        .find(|op| is_io(op))
        .unwrap_or(op)
}

/// The phase spans are currently recorded in, and the class a span of
/// `op` opened now would get; `None` when recording is off.
fn context(op: &'static str) -> Option<(&'static str, &'static str)> {
    if !is_active() {
        return None;
    }
    RECORDER.with_borrow(|r| r.as_ref().map(|r| (r.phase, class_of(&r.stack, op))))
}

/// Runs `f` inside a span of `layer`/`op` carrying `blocks` blocks.
pub fn span<T>(layer: &'static str, op: &'static str, blocks: u64, f: impl FnOnce() -> T) -> T {
    if !is_active() {
        return f();
    }
    enter(layer, op, blocks);
    let out = f();
    exit();
    out
}

fn enter(layer: &'static str, op: &'static str, blocks: u64) {
    RECORDER.with_borrow_mut(|r| {
        let Some(r) = r else { return };
        let class = class_of(&r.stack, op);
        let id = r.next_id;
        r.next_id += 1;
        let sim_start = r.clock.now().as_nanos();
        r.stack.push(Open {
            id,
            layer,
            op,
            class,
            blocks,
            wall_start: Instant::now(),
            sim_start,
            child_wall_ns: 0,
            child_sim_ns: 0,
        });
    });
}

fn exit() {
    RECORDER.with_borrow_mut(|r| {
        let Some(r) = r else { return };
        let Some(open) = r.stack.pop() else { return };
        let wall_end = Instant::now();
        let sim_end = r.clock.now().as_nanos();
        let wall = wall_end.duration_since(open.wall_start).as_nanos() as u64;
        let sim = sim_end - open.sim_start;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_wall_ns += wall;
            parent.child_sim_ns += sim;
        }
        let key = Key { phase: r.phase, layer: open.layer, op: open.op, class: open.class };
        let agg = r.agg.entry(key).or_default();
        agg.calls += 1;
        agg.blocks += open.blocks;
        agg.self_wall_ns += wall.saturating_sub(open.child_wall_ns);
        agg.self_sim_ns += sim - open.child_sim_ns;
        agg.total_wall_ns += wall;
        agg.total_sim_ns += sim;
        if r.raw.len() < r.raw_cap {
            let since = |t: Instant| t.duration_since(r.origin).as_nanos() as u64;
            let span = RawSpan {
                id: open.id,
                parent: r.stack.last().map(|p| p.id),
                phase: r.phase,
                layer: open.layer,
                op: open.op,
                blocks: open.blocks,
                wall_start_ns: since(open.wall_start),
                wall_end_ns: since(wall_end),
                sim_start_ns: open.sim_start,
                sim_end_ns: sim_end,
            };
            r.raw.push(span);
        } else {
            r.raw_dropped += 1;
        }
    });
}

/// A volume-level call, as captured for the ladder's replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeCall {
    Read(Vec<BlockIndex>),
    Write(Vec<BlockIndex>),
    Flush,
}

impl VolumeCall {
    fn op(&self) -> &'static str {
        match self {
            VolumeCall::Read(_) => "read",
            VolumeCall::Write(_) => "write",
            VolumeCall::Flush => "flush",
        }
    }
}

/// A captured call and the context it was made in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captured {
    pub call: VolumeCall,
    /// Made during a measured phase (`run`), not during set-up.
    pub measured: bool,
    /// The [`Key::class`] its span got.
    pub class: &'static str,
}

/// Where a [`SpanDevice`] appends the calls it sees while recording.
pub type Capture = Arc<Mutex<Vec<Captured>>>;

/// A [`BlockDevice`] wrapper that records a span around every I/O call and
/// forwards every trait method, queue-depth registration included, so the
/// wrapped stack charges exactly what it charges unwrapped.
pub struct SpanDevice<D> {
    layer: &'static str,
    inner: D,
    capture: Option<Capture>,
}

impl<D: BlockDevice> SpanDevice<D> {
    /// Wraps `inner` as layer `layer`.
    pub fn new(layer: &'static str, inner: D) -> Self {
        SpanDevice { layer, inner, capture: None }
    }

    /// Also appends every call made while recording to `capture`.
    pub fn capturing(mut self, capture: Option<Capture>) -> Self {
        self.capture = capture;
        self
    }

    fn record(&self, call: impl FnOnce() -> VolumeCall) {
        let Some(capture) = &self.capture else { return };
        let call = call();
        let Some((phase, class)) = context(call.op()) else { return };
        let captured = Captured { call, measured: phase == "run", class };
        capture.lock().expect("capture lock poisoned by a panicking workload").push(captured);
    }
}

impl<D: BlockDevice> BlockDevice for SpanDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        self.record(|| VolumeCall::Read(vec![index]));
        span(self.layer, "read", 1, || self.inner.read_block(index))
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.record(|| VolumeCall::Write(vec![index]));
        span(self.layer, "write", 1, || self.inner.write_block(index, data))
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        self.record(|| VolumeCall::Read(indices.to_vec()));
        span(self.layer, "read", indices.len() as u64, || self.inner.read_blocks(indices))
    }

    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.record(|| VolumeCall::Write(writes.iter().map(|&(i, _)| i).collect()));
        span(self.layer, "write", writes.len() as u64, || self.inner.write_blocks(writes))
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.record(|| VolumeCall::Flush);
        span(self.layer, "flush", 0, || self.inner.flush())
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn check_index(&self, index: BlockIndex) -> Result<(), BlockDeviceError> {
        self.inner.check_index(index)
    }

    fn check_buffer(&self, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.inner.check_buffer(data)
    }

    fn host_queue_enter(&self) {
        self.inner.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.inner.host_queue_leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::MemDisk;

    #[test]
    fn self_times_telescope_and_classes_follow_the_user_op() {
        let clock = SimClock::new();
        install(16);
        set_phase("run", &clock);
        activate(true);
        let disk = SpanDevice::new("blockdev.memdisk", MemDisk::new(64, 4096, clock.clone()));
        span(ROOT, "write", 0, || {
            span("fs.simfs", "write", 2, || {
                disk.write_blocks(&[(0, &[1u8; 4096]), (1, &[2u8; 4096])]).unwrap();
                disk.read_block(0).unwrap();
            });
        });
        let rec = take().unwrap();
        assert!(!is_active());
        let all = rec.sum(|k| k.phase == "run");
        let root = rec.sum(|k| k.layer == ROOT);
        assert_eq!(all.self_sim_ns, root.total_sim_ns, "self sim telescopes to the root");
        assert!(root.total_sim_ns > 0);
        assert_eq!(root.self_sim_ns, 0, "every charge sits inside a layer span");
        // The read under the fs write is classed as part of the write.
        let md_read = rec.sum(|k| k.layer == "blockdev.memdisk" && k.op == "read");
        assert_eq!((md_read.calls, md_read.blocks), (1, 1));
        assert!(rec.agg.keys().all(|k| k.layer == ROOT || k.class == "write"));
        assert_eq!(rec.raw.len(), 4);
        assert_eq!(rec.raw.last().map(|s| s.parent), Some(None));
    }

    #[test]
    fn devices_capture_recorded_calls_with_phase_and_class() {
        let clock = SimClock::new();
        install(16);
        let capture: Capture = Arc::default();
        let disk = SpanDevice::new("x", MemDisk::new(8, 512, clock.clone()))
            .capturing(Some(capture.clone()));
        disk.write_block(3, &[0u8; 512]).unwrap(); // not recording: no span, no capture
        set_phase("setup", &clock);
        activate(true);
        disk.write_block(3, &[0u8; 512]).unwrap();
        set_phase("run", &clock);
        span("fs.simfs", "write", 0, || disk.read_blocks(&[3, 4]).unwrap());
        disk.flush().unwrap();
        let rec = take().unwrap();
        assert_eq!(rec.sum(|k| k.layer == "x").calls, 3);
        let captured = |call, measured, class| Captured { call, measured, class };
        assert_eq!(
            *capture.lock().unwrap(),
            vec![
                captured(VolumeCall::Write(vec![3]), false, "write"),
                captured(VolumeCall::Read(vec![3, 4]), true, "write"),
                captured(VolumeCall::Flush, true, "flush"),
            ]
        );
    }
}
