//! `BlockDevice::read_blocks_to` pinned to `read_blocks` at every layer of
//! the public read path — the medium, dm-linear, the thin volume, the PDE
//! hook, dm-crypt and the unlocked volume — for both destinations, and
//! through `SimFs::read`: the same bytes, the same simulated time and the
//! same medium statistics, across thin holes, file holes, unaligned pieces,
//! an out-of-range index mid-batch and injected read faults.
//!
//! Each case drives two identical twins side by side. Twin `a` answers
//! every layer read with `read_blocks` and mounts its file system through
//! [`ReadBlocksOnly`], a wrapper shaped like the benchmark's span recorder
//! that leaves `read_blocks_to` to the trait default; twin `b` takes the
//! native `read_blocks_to` everywhere.

// Test binary: aborting on an unexpected error is the point.
#![allow(clippy::unwrap_used)]

use mobiceal::{DummyWriter, MobiCeal, MobiCealConfig, PdeVolume, THIN_READ_LOOKUP};
use mobiceal_blockdev::{
    BlockDevice, BlockDeviceError, BlockIndex, DeviceStats, FaultInjection, MemDisk, ReadDest,
    SharedDevice,
};
use mobiceal_crypto::ChaCha20Rng;
use mobiceal_dm::{DmCrypt, DmLinear};
use mobiceal_fs::{FileSystem, FsError, SimFs};
use mobiceal_sim::{CpuCostModel, SimClock};
use mobiceal_thinp::{AllocStrategy, PoolConfig, ThinPool, ThinVolume};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const BS: usize = 4096;
/// Blocks of each of a twin's two media.
const DISK: u64 = 1024;
/// The pool-metadata region at the front of both media.
const META: u64 = 64;
/// Virtual blocks the cases write and read; the rest of a volume is never
/// touched.
const SPAN: u64 = 96;
/// Where the raw blocks of the unlocked volume start, clear of the file
/// system that shares the volume.
const RAW_BASE: u64 = 512;
const FILE: &str = "f";

fn config() -> MobiCealConfig {
    MobiCealConfig {
        num_volumes: 4,
        pbkdf2_iterations: 4,
        metadata_blocks: META,
        ..Default::default()
    }
}

/// The content written to virtual block `v`.
fn block(v: u64) -> Vec<u8> {
    (0..BS).map(|i| (v as usize * 31 + i * 7) as u8).collect()
}

/// A wrapper shaped like the benchmark's span recorder: it forwards every
/// trait method except `read_blocks_to`, which it leaves to the default.
struct ReadBlocksOnly<D>(D);

impl<D: BlockDevice> BlockDevice for ReadBlocksOnly<D> {
    fn num_blocks(&self) -> u64 {
        self.0.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.0.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        self.0.read_block(index)
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.0.write_block(index, data)
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        self.0.read_blocks(indices)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.0.write_blocks(writes)
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.0.flush()
    }

    fn host_queue_enter(&self) {
        self.0.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.0.host_queue_leave();
    }
}

/// One of the two identical stacks a case drives.
struct Twin {
    clock: SimClock,
    /// The hand-built stack's medium, then the `MobiCeal` device's.
    disks: [Arc<MemDisk>; 2],
    /// Every layer of the public read path, bottom up, with the virtual
    /// block a case's index 0 means there.
    layers: Vec<(&'static str, SharedDevice, u64)>,
    thin: ThinVolume,
    mc: MobiCeal,
    fs: SimFs,
}

impl Twin {
    /// Builds both stacks, writes `file` into the file system and then the
    /// blocks of `written` through the hand-built stack's dm-crypt and the
    /// unlocked volume. `shaped` mounts the file system through
    /// [`ReadBlocksOnly`].
    fn new(written: &[u64], file: &[(u64, usize, u8)], shaped: bool) -> Twin {
        let clock = SimClock::new();
        let cpu = CpuCostModel::nexus4();
        let cfg = config();

        // The hand-built stack, assembled as `MobiCeal::unlock_public` does.
        let disk = Arc::new(MemDisk::new(DISK, BS, clock.clone()));
        let medium: SharedDevice = disk.clone();
        let meta: SharedDevice = Arc::new(DmLinear::new(medium.clone(), 0, META).unwrap());
        let linear: SharedDevice =
            Arc::new(DmLinear::new(medium.clone(), META, DISK - META).unwrap());
        let pool = Arc::new(
            ThinPool::create_seeded(
                linear.clone(),
                meta,
                PoolConfig::new(cfg.num_volumes),
                AllocStrategy::Random,
                7,
            )
            .unwrap(),
        );
        pool.set_read_overhead(clock.clone(), THIN_READ_LOOKUP);
        for v in 1..=cfg.num_volumes {
            pool.create_volume(v, DISK - META).unwrap();
        }
        let thin = pool.open_volume(1).unwrap();
        let dummy = DummyWriter::new(
            ChaCha20Rng::from_u64_seed(11),
            clock.clone(),
            cfg.x,
            cfg.lambda,
            cfg.num_volumes,
            cfg.stored_rand_refresh,
        );
        let pde: SharedDevice = Arc::new(PdeVolume::new(
            thin.clone(),
            pool,
            Arc::new(Mutex::new(dummy)),
            cpu.clone(),
            clock.clone(),
        ));
        let crypt: SharedDevice =
            Arc::new(DmCrypt::new_essiv(pde.clone(), &[0x4D; 32]).with_timing(clock.clone(), cpu));

        // The assembled device, with the file system on its public volume.
        let mc_disk = Arc::new(MemDisk::new(DISK, BS, clock.clone()));
        let mc = MobiCeal::initialize(mc_disk.clone(), clock.clone(), cfg, "decoy", &["hidden"], 5)
            .unwrap();
        let unlocked: SharedDevice = Arc::new(mc.unlock_public("decoy").unwrap());
        let fs_dev: SharedDevice =
            if shaped { Arc::new(ReadBlocksOnly(unlocked.clone())) } else { unlocked.clone() };
        let mut fs = SimFs::format(fs_dev).unwrap();
        fs.create(FILE).unwrap();
        for &(offset, len, fill) in file {
            fs.write(FILE, offset, &vec![fill; len]).unwrap();
        }
        fs.sync().unwrap();

        let data: Vec<Vec<u8>> = written.iter().map(|&v| block(v)).collect();
        let writes = |base: u64| -> Vec<(u64, &[u8])> {
            written.iter().zip(&data).map(|(&v, d)| (base + v, d.as_slice())).collect()
        };
        crypt.write_blocks(&writes(0)).unwrap();
        unlocked.write_blocks(&writes(RAW_BASE)).unwrap();

        let layers = vec![
            ("blockdev.memdisk", medium, 0),
            ("dm.linear", linear, 0),
            ("thinp.volume", Arc::new(thin.clone()) as SharedDevice, 0),
            ("core.pde_volume", pde, 0),
            ("dm.crypt", crypt, 0),
            ("core.unlocked_volume", unlocked, RAW_BASE),
        ];
        Twin { clock, disks: [disk, mc_disk], layers, thin, mc, fs }
    }

    /// Fails every medium read under virtual block `v` of either stack's
    /// public volume (and under block `v` of the medium and of dm-linear),
    /// and under block `d` of the unlocked volume for each `d` in
    /// `unlocked`.
    fn fail_reads(&self, under: &[u64], unlocked: &[u64]) {
        let mut own = FaultInjection::default();
        let mut mc = FaultInjection::default();
        let view = self.mc.metadata_view();
        let mc_block = |d: u64| view.volumes[&1].mappings.get(&(d + 1)).map(|p| META + p);
        for &v in under {
            own.failing_reads.extend([v, META + v]);
            own.failing_reads.extend(self.thin.mapping(v).map(|p| META + p));
            mc.failing_reads.extend(mc_block(RAW_BASE + v));
        }
        mc.failing_reads.extend(unlocked.iter().filter_map(|&d| mc_block(d)));
        self.disks[0].set_faults(own);
        self.disks[1].set_faults(mc);
    }

    fn stats(&self) -> [DeviceStats; 2] {
        [self.disks[0].stats(), self.disks[1].stats()]
    }
}

/// One case: the twins' history, the reads, and the faults they run under.
#[derive(Debug, Clone)]
struct Case {
    /// Virtual blocks written; the rest of `0..SPAN` are thin holes.
    written: Vec<u64>,
    /// `(offset, len, fill)` file writes, leaving file holes between them.
    file: Vec<(u64, usize, u8)>,
    /// One layer read, as offsets from the layer's base.
    batch: Vec<u64>,
    /// Position in `batch` that reads past the layer's end, if in range.
    out_of_range_at: usize,
    /// Virtual blocks whose medium blocks fail to read.
    faults: Vec<u64>,
    /// Unlocked-volume blocks (file-system territory) that fail to read.
    fs_faults: Vec<u64>,
    /// `(offset, len)` file reads.
    reads: Vec<(u64, usize)>,
    /// `Append` rather than `Owned`.
    append: bool,
    /// What the destination holds before the call.
    prefix: usize,
}

/// What a case saw, so fixed cases can show they reached each path.
#[derive(Debug, Default)]
struct Seen {
    ok_layer_reads: usize,
    out_of_range: usize,
    faulted: usize,
    fs_reads: usize,
}

/// Runs `case` on a fresh pair of twins and checks every layer read and
/// every file read against its twin.
fn check(case: &Case) -> Result<Seen, String> {
    let mut a = Twin::new(&case.written, &case.file, true);
    let mut b = Twin::new(&case.written, &case.file, false);
    for twin in [&a, &b] {
        twin.fail_reads(&case.faults, &case.fs_faults);
    }
    let mut seen = Seen::default();
    same_charges(&a, &b, "set-up")?;

    for ((name, dev_a, base), (_, dev_b, _)) in a.layers.iter().zip(&b.layers) {
        let mut batch: Vec<u64> = case.batch.iter().map(|&i| base + i).collect();
        if let Some(slot) = batch.get_mut(case.out_of_range_at) {
            *slot = dev_a.num_blocks() + case.out_of_range_at as u64;
        }
        let expect = dev_a.read_blocks(&batch);
        // Whatever the destination held must stay in front; a failed read
        // must leave nothing behind it.
        let got = if case.append {
            let held = vec![0xEEu8; case.prefix * 100];
            let mut buf = held.clone();
            let result = dev_b.read_blocks_to(&batch, ReadDest::Append(&mut buf));
            let (before, after) = buf.split_at(held.len().min(buf.len()));
            if before != held
                || (result.is_err() && !after.is_empty())
                || !after.len().is_multiple_of(BS)
            {
                return Err(format!(
                    "{name}: Append left {} bytes after {}",
                    buf.len(),
                    held.len()
                ));
            }
            result.map(|()| after.chunks(BS).map(<[u8]>::to_vec).collect::<Vec<_>>())
        } else {
            let held = vec![vec![0xEEu8; 7]; case.prefix];
            let mut bufs = held.clone();
            let result = dev_b.read_blocks_to(&batch, ReadDest::Owned(&mut bufs));
            let after = bufs.split_off(held.len().min(bufs.len()));
            if bufs != held || (result.is_err() && !after.is_empty()) {
                return Err(format!(
                    "{name}: Owned left {} buffers after {}",
                    after.len(),
                    held.len()
                ));
            }
            result.map(|()| after)
        };
        if got != expect {
            return Err(format!("{name}: read_blocks_to {got:?} != read_blocks {expect:?}"));
        }
        same_charges(&a, &b, name)?;
        match expect {
            Ok(_) => seen.ok_layer_reads += 1,
            Err(BlockDeviceError::OutOfRange { .. }) => seen.out_of_range += 1,
            Err(_) => seen.faulted += 1,
        }
    }

    let model = file_model(&case.file);
    for &(offset, len) in &case.reads {
        let expect = a.fs.read(FILE, offset, len);
        let got = b.fs.read(FILE, offset, len);
        if got != expect {
            return Err(format!("SimFs::read({offset}, {len}): {got:?} != {expect:?}"));
        }
        same_charges(&a, &b, "SimFs::read")?;
        match got {
            Ok(bytes) => {
                let end = (offset as usize + len).min(model.len());
                if bytes != model[offset as usize..end] {
                    return Err(format!("SimFs::read({offset}, {len}) misplaced the file's bytes"));
                }
                seen.fs_reads += 1;
            }
            Err(FsError::BadOffset { .. }) if offset as usize > model.len() => {}
            Err(FsError::Device(_)) if !case.fs_faults.is_empty() => seen.faulted += 1,
            Err(e) => return Err(format!("SimFs::read({offset}, {len}): {e}")),
        }
    }
    Ok(seen)
}

/// The twins' simulated clocks and media statistics agree.
fn same_charges(a: &Twin, b: &Twin, what: &str) -> Result<(), String> {
    if a.clock.now() != b.clock.now() {
        return Err(format!("{what}: simulated time {:?} != {:?}", a.clock.now(), b.clock.now()));
    }
    if a.stats() != b.stats() {
        return Err(format!("{what}: medium statistics differ"));
    }
    Ok(())
}

/// The file's bytes: each write in order over zeros.
fn file_model(file: &[(u64, usize, u8)]) -> Vec<u8> {
    let size = file.iter().map(|&(o, l, _)| o as usize + l).max().unwrap_or(0);
    let mut bytes = vec![0u8; size];
    for &(offset, len, fill) in file {
        bytes[offset as usize..offset as usize + len].fill(fill);
    }
    bytes
}

fn fixed(append: bool) -> Case {
    Case {
        // Blocks 0..40 with gaps: thin holes at 3, 4, 9 and beyond 40.
        written: (0..40).filter(|v| ![3, 4, 9].contains(v)).collect(),
        // A head piece at an unaligned offset, a hole of whole blocks, a
        // write past the ten direct pointers, and one into the indirect
        // range that leaves a ragged tail.
        file: vec![
            (100, 5000, 0xA1),
            (6 * BS as u64, 2 * BS, 0xB2),
            (14 * BS as u64 + 7, 3000, 0xC3),
        ],
        batch: vec![0, 1, 2, 3, 4, 5, 5, 40, 41, 8, 9, 10],
        out_of_range_at: usize::MAX,
        faults: vec![],
        fs_faults: vec![],
        // Aligned, unaligned head and tail, across holes, past the end.
        reads: vec![
            (0, 16 * BS),
            (100, 5000),
            (4090, 12 * BS),
            (6 * BS as u64 + 1, 1),
            (14 * BS as u64 + 3000, 9000),
            (20 * BS as u64, 1),
        ],
        append,
        prefix: 2,
    }
}

#[test]
fn read_blocks_to_matches_read_blocks_on_fixed_cases() {
    for append in [true, false] {
        let ctx = if append { "Append" } else { "Owned" };
        let clean = check(&fixed(append)).unwrap();
        assert_eq!(clean.ok_layer_reads, 6, "{ctx}: {clean:?}");
        assert_eq!(clean.fs_reads, 5, "{ctx}: {clean:?}");

        // An out-of-range index mid-batch: the prefix is read and charged,
        // then the error, at every layer.
        let seen = check(&Case { out_of_range_at: 6, ..fixed(append) }).unwrap();
        assert_eq!(seen.out_of_range, 6, "{ctx}: {seen:?}");

        // A read fault under block 8: every layer above the medium fails
        // fast after the blocks before it, and the file system's reads fail
        // over the blocks under the file.
        let seen = check(&Case { faults: vec![8], fs_faults: (0..24).collect(), ..fixed(append) })
            .unwrap();
        assert!(seen.faulted >= 6, "{ctx}: {seen:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn read_blocks_to_matches_read_blocks_at_every_layer(
        written in prop::collection::hash_set(0u64..SPAN, 0..48),
        file in prop::collection::vec((0u64..(40 * BS) as u64, 1usize..(3 * BS), any::<u8>()), 1..5),
        batch in prop::collection::vec(0u64..SPAN, 0..24),
        out_of_range_at in 0usize..40,
        faults in prop::collection::vec(0u64..SPAN, 0..3),
        fs_fault in 0u64..48,
        reads in prop::collection::vec((0u64..(44 * BS) as u64, 0usize..(4 * BS)), 1..4),
        append in any::<bool>(),
        prefix in 0usize..3,
    ) {
        let mut written: Vec<u64> = written.into_iter().collect();
        written.sort_unstable();
        // Some cases fail one block of the file system's territory.
        let fs_faults = if fs_fault < 24 { vec![fs_fault] } else { vec![] };
        let case = Case {
            written, file, batch, out_of_range_at, faults, fs_faults, reads, append, prefix,
        };
        let result = check(&case);
        prop_assert!(result.is_ok(), "{:?}", result.err());
    }
}

#[test]
fn a_wrapper_that_only_overrides_read_blocks_charges_what_the_native_read_charges() {
    // The benchmark's traced rounds wrap the medium and the unlocked volume
    // in span recorders that implement `read_blocks` but not
    // `read_blocks_to`. A dd-shaped file write and read-back must charge
    // the same simulated time, leave the same medium statistics and read
    // the same bytes with those wrappers as without them.
    let run = |shaped: bool| {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(4096, BS, clock.clone()));
        let medium: SharedDevice =
            if shaped { Arc::new(ReadBlocksOnly(disk.clone())) } else { disk.clone() };
        let mc =
            MobiCeal::initialize(medium, clock.clone(), config(), "decoy", &["hidden"], 9).unwrap();
        let public: SharedDevice = if shaped {
            Arc::new(ReadBlocksOnly(mc.unlock_public("decoy").unwrap()))
        } else {
            Arc::new(mc.unlock_public("decoy").unwrap())
        };
        let mut fs = SimFs::format(public).unwrap();
        fs.create(FILE).unwrap();
        let chunk: Vec<u8> = (0..64 * BS).map(|i| (i % 253) as u8).collect();
        for i in 0..4u64 {
            fs.write(FILE, i * chunk.len() as u64, &chunk).unwrap();
        }
        fs.sync().unwrap();
        let t0 = clock.now();
        let mut back = Vec::new();
        for i in 0..4u64 {
            back.push(fs.read(FILE, i * chunk.len() as u64, chunk.len()).unwrap());
        }
        back.push(fs.read(FILE, 1000, 3 * BS).unwrap());
        assert!(back[..4].iter().all(|b| *b == chunk));
        (clock.now() - t0, clock.now(), disk.stats(), back)
    };
    let (native_read, native_total, native_stats, native_bytes) = run(false);
    let (shaped_read, shaped_total, shaped_stats, shaped_bytes) = run(true);
    assert!(native_read.as_nanos() > 0);
    assert_eq!(shaped_read, native_read, "the read-back charges the same");
    assert_eq!(shaped_total, native_total, "and so does the whole run");
    assert_eq!(shaped_stats, native_stats);
    assert_eq!(shaped_bytes, native_bytes);
}
