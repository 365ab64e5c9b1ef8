//! `dd_seq`: the paper's Fig. 4 dd run on the MobiCeal public volume.
//!
//! Closed loop, one client. Each round formats a fresh `SimFs` on the
//! public volume of a fresh Fig. 4 device, writes one file in 256 KiB
//! chunks, syncs (dd's `conv=fdatasync`), then reads it all back and
//! compares every byte. The file's 64-block batches of fresh public
//! allocations make dm-crypt's serial ESSIV encrypt, the dummy writer and
//! random allocation do most of the work; the read phase drives the
//! pipelined decrypt. With the same seeds, the per-round simulated
//! throughputs are exactly the `MC-P` dd numbers `fig4_throughput` prints.

use super::{counters, fill, layer, timed, Probe, Round, BLOCK, DECOY};
use crate::trace;
use mobiceal::MobiCeal;
use mobiceal_fs::{FileSystem, SimFs};
use mobiceal_sim::SimClock;

/// Shape of one round.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub disk_blocks: u64,
    pub file_bytes: usize,
    pub chunk_bytes: usize,
}

/// The Fig. 4 dd shape: a 64 MiB disk, an 8 MiB file, 256 KiB chunks.
pub const FULL: Size = Size { disk_blocks: 16_384, file_bytes: 8 << 20, chunk_bytes: 256 << 10 };

/// The test shape.
pub const QUICK: Size = Size { disk_blocks: 4096, file_bytes: 1 << 20, chunk_bytes: 256 << 10 };

/// The hidden password the device is initialized with.
pub const HIDDEN: &[&str] = &["hidden"];
const FILE: &str = "test.dbf";

/// Runs one round on a device initialized with `seed`.
pub fn round(seed: u64, size: Size, probe: &Probe) -> Round {
    let mut r = Round::new(seed);
    if let Err(e) = body(&mut r, seed, size, probe) {
        r.attempted += 1;
        r.fail(e);
    }
    r
}

fn body(r: &mut Round, seed: u64, size: Size, probe: &Probe) -> Result<(), String> {
    let mut file = vec![0u8; size.file_bytes];
    fill(&mut file, seed);

    let clock = SimClock::new();
    let disk = super::medium(size.disk_blocks, &clock, false);
    trace::set_phase("setup", &clock);
    let (setup, op) = timed(&clock, || -> Result<_, String> {
        let mc = r.setup_step(&clock, "init", || {
            MobiCeal::initialize(
                probe.disk(&disk),
                clock.clone(),
                super::fig4_config(),
                DECOY,
                HIDDEN,
                seed,
            )
        })?;
        let public = r.setup_step(&clock, "unlock", || mc.unlock_public(DECOY))?;
        let fs = r.setup_step(&clock, "format", || {
            let mut fs = SimFs::format(probe.volume(public))?;
            fs.create(FILE).map(|()| fs)
        })?;
        Ok((mc, fs))
    });
    r.setup = op;
    let (mc, mut fs) = setup?;

    trace::set_phase("run", &clock);
    let before = counters(&mc, &disk);
    let chunk_blocks = size.chunk_bytes.div_ceil(BLOCK) as u64;
    trace::span(trace::ROOT, "write", 0, || {
        for (i, chunk) in file.chunks(size.chunk_bytes).enumerate() {
            let offset = (i * size.chunk_bytes) as u64;
            let (result, op) = timed(&clock, || {
                trace::span(layer::FS, "write", chunk_blocks, || fs.write(FILE, offset, chunk))
            });
            r.write.add(chunk.len() as u64, op);
            r.write_ops.push(op);
            r.check("fs write", result);
        }
        let (result, op) = timed(&clock, || trace::span(layer::FS, "flush", 0, || fs.sync()));
        r.write.add(0, op);
        r.check("fs sync", result);
    });
    trace::span(trace::ROOT, "read", 0, || {
        for (i, chunk) in file.chunks(size.chunk_bytes).enumerate() {
            let offset = (i * size.chunk_bytes) as u64;
            let (result, op) = timed(&clock, || {
                trace::span(layer::FS, "read", chunk_blocks, || fs.read(FILE, offset, chunk.len()))
            });
            r.read.add(chunk.len() as u64, op);
            r.read_ops.push(op);
            if let Some(back) = r.check("fs read", result) {
                r.verify("dd file", back == chunk);
            }
        }
    });
    r.finish(&mc, &disk, before, HIDDEN);
    Ok(())
}
