//! `gc_tail`: fresh public writes on an open-loop schedule, with inline
//! dummy-space GC passes.
//!
//! Each round warms a fresh device's public volume up (accruing the dummy
//! blocks GC reclaims), commits, writes marker blocks to the hidden
//! volume and opens one GC session (set-up). The measured phase writes
//! fresh public blocks one at a time and runs `garbage_collect_in_session`
//! every `gc_every` writes. The configuration is the default: no cache,
//! inline copier. After the writes, every public block and every hidden
//! marker is read back and compared; GC must never reclaim hidden data.
//!
//! It is the only workload that runs GC. Its tail is measured as an open
//! loop: writes arrive on a fixed simulated schedule, and a write's
//! latency counts from its due time through a virtual busy cursor (as in
//! `mobiceal_workloads::gc_tail`), so a GC pass stalls the writes queued
//! behind it. The device work does not depend on the arrival rate, so a
//! round records each item's simulated duration once and the rate sweep
//! replays them (see `metrics::open_loop`).

use super::{
    counters, layer, pattern_block, timed, verify_blocks, GcPass, Probe, Round, BLOCK, DECOY,
};
use crate::trace;
use mobiceal::{MobiCeal, MobiCealConfig};
use mobiceal_sim::SimClock;

/// Shape of one round.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub disk_blocks: u64,
    /// Public blocks written before measuring.
    pub warmup_blocks: u64,
    /// Hidden-volume marker blocks that must survive every GC pass.
    pub marker_blocks: u64,
    /// Fresh public writes in the measured phase.
    pub writes: u64,
    /// A GC pass runs before every `gc_every`-th write (never the first).
    pub gc_every: u64,
}

pub const FULL: Size = Size {
    disk_blocks: 16_384,
    warmup_blocks: 600,
    marker_blocks: 256,
    writes: 4000,
    gc_every: 100,
};

/// The test shape.
pub const QUICK: Size =
    Size { disk_blocks: 8192, warmup_blocks: 100, marker_blocks: 32, writes: 400, gc_every: 50 };

/// The hidden password; its volume holds the markers.
pub const HIDDEN: &[&str] = &["hidden-a"];
/// Verification reads go down in batches of this many blocks.
const VERIFY_BATCH: usize = 64;

/// `mobiceal_workloads::gc_tail`'s configuration with the cache off.
pub fn config() -> MobiCealConfig {
    MobiCealConfig {
        num_volumes: 5,
        pbkdf2_iterations: 4,
        metadata_blocks: 128,
        ..MobiCealConfig::default()
    }
}

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
    let clock = SimClock::new();
    let disk = super::medium(size.disk_blocks, &clock, false);
    let markers: Vec<u64> = (0..size.marker_blocks).collect();
    // Hidden markers use a pattern seed of their own, so a public block
    // read back in their place can never pass for one.
    let marker_seed = !seed;
    trace::set_phase("setup", &clock);
    let (setup, op) = timed(&clock, || -> Result<_, String> {
        let mc = r.setup_step(&clock, "init", || {
            MobiCeal::initialize(probe.disk(&disk), clock.clone(), config(), DECOY, HIDDEN, seed)
        })?;
        let public = r.setup_step(&clock, "unlock", || mc.unlock_public(DECOY))?;
        let dev = probe.volume(public);
        r.setup_step(&clock, "warmup", || {
            for b in 0..size.warmup_blocks {
                dev.write_block(b, &pattern_block(seed, b, 0)).map_err(|e| format!("{e:?}"))?;
            }
            mc.commit().map_err(|e| format!("{e:?}"))
        })?;
        let hidden = r.setup_step(&clock, "unlock", || mc.unlock_hidden(HIDDEN[0]))?;
        let hidden = probe.volume(hidden);
        r.setup_step(&clock, "markers", || {
            super::write_pattern(&hidden, marker_seed, &markers, VERIFY_BATCH)
        })?;
        let session = r.setup_step(&clock, "gc_session", || mc.begin_gc_session(HIDDEN))?;
        Ok((mc, dev, hidden, session))
    });
    r.setup = op;
    let (mc, dev, hidden, session) = setup?;

    trace::set_phase("run", &clock);
    let before = counters(&mc, &disk);
    trace::span(trace::ROOT, "write", 0, || {
        for i in 0..size.writes {
            let mut gc_sim = 0;
            if i > 0 && i % size.gc_every == 0 {
                let pass_seed = seed + i / size.gc_every;
                let (result, op) = timed(&clock, || {
                    trace::span(layer::GC, "gc", 0, || {
                        mc.garbage_collect_in_session(&session, pass_seed)
                    })
                });
                r.write.add(0, op);
                gc_sim = op.sim_ns;
                if let Some(report) = r.check("gc pass", result) {
                    r.gc.push(GcPass {
                        op,
                        blocks_before: report.blocks_before,
                        blocks_reclaimed: report.blocks_reclaimed,
                    });
                }
            }
            let block = size.warmup_blocks + i;
            let data = pattern_block(seed, block, 0);
            let (result, op) = timed(&clock, || dev.write_block(block, &data));
            r.write.add(BLOCK as u64, op);
            r.write_ops.push(op);
            r.open_loop.push((gc_sim, op.sim_ns));
            r.check("write_block", result);
        }
    });
    trace::span(trace::ROOT, "read", 0, || {
        let public: Vec<u64> = (0..size.warmup_blocks + size.writes).collect();
        verify_blocks(r, &clock, &dev, &public, VERIFY_BATCH, "public read-back", |b| {
            pattern_block(seed, b, 0)
        });
        verify_blocks(r, &clock, &hidden, &markers, VERIFY_BATCH, "hidden marker", |b| {
            pattern_block(marker_seed, b, 0)
        });
    });
    r.finish(&mc, &disk, before, HIDDEN);
    Ok(())
}
