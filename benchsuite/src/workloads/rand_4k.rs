//! `rand_4k`: single-block random reads and overwrites on the public
//! volume.
//!
//! Closed loop, one client. Each round prefills a fresh Fig. 4 device's
//! public volume and commits (set-up), then issues single-block calls: 70 %
//! `read_block`, 30 % `write_block`, uniform over the prefilled blocks, so
//! every write overwrites and allocates nothing. `MobiCeal::commit` runs
//! after every 64th write. The configuration has no cache, so the working
//! set is uncached. Per-call overhead, the thin lookup, single-sector
//! crypto and the journal commit dominate, while dummy writes and
//! allocation do nothing: the control for any `dd_seq` gain, and the
//! workload where a single-block path change shows. Every read is checked
//! against a shadow of the block versions written.

use super::{counters, fill, layer, pattern_block, timed, Probe, Rng, Round, BLOCK, DECOY};
use crate::trace;
use mobiceal::MobiCeal;
use mobiceal_sim::SimClock;

/// Shape of one round.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub disk_blocks: u64,
    /// Blocks written before measuring; the ops address only these.
    pub prefill_blocks: u64,
    /// Single-block calls in the measured phase.
    pub ops: usize,
}

/// A 16 MiB working set on a 64 MiB disk.
pub const FULL: Size = Size { disk_blocks: 16_384, prefill_blocks: 4096, ops: 60_000 };

/// The test shape.
pub const QUICK: Size = Size { disk_blocks: 4096, prefill_blocks: 256, ops: 2000 };

/// Share of calls that are writes, in percent.
const WRITE_PCT: u64 = 30;
/// Writes between two commits.
const COMMIT_EVERY: u64 = 64;
/// The hidden password the device is initialized with.
pub const HIDDEN: &[&str] = &["hidden"];

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
        let dev = probe.volume(public);
        let blocks: Vec<u64> = (0..size.prefill_blocks).collect();
        r.setup_step(&clock, "prefill", || {
            super::write_pattern(&dev, seed, &blocks, 64)?;
            mc.commit().map_err(|e| format!("{e:?}"))
        })?;
        Ok((mc, dev))
    });
    r.setup = op;
    let (mc, dev) = setup?;

    trace::set_phase("run", &clock);
    let before = counters(&mc, &disk);
    let mut versions = vec![0u64; size.prefill_blocks as usize];
    let mut rng = Rng::new(seed ^ 0x7A4D_0000_0000_0001);
    let mut buf = vec![0u8; BLOCK];
    let mut writes = 0u64;
    trace::span(trace::ROOT, "mixed", 0, || {
        for _ in 0..size.ops {
            let block = rng.below(size.prefill_blocks);
            if rng.below(100) < WRITE_PCT {
                let version = &mut versions[block as usize];
                *version += 1;
                fill(&mut buf, super::block_key(seed, block, *version));
                let (result, op) = timed(&clock, || dev.write_block(block, &buf));
                r.write.add(BLOCK as u64, op);
                r.write_ops.push(op);
                r.check("write_block", result);
                writes += 1;
                if writes.is_multiple_of(COMMIT_EVERY) {
                    let medium = disk.stats().bytes_written();
                    let (result, op) =
                        timed(&clock, || trace::span(layer::COMMIT, "commit", 0, || mc.commit()));
                    r.commit_medium_bytes += disk.stats().bytes_written() - medium;
                    r.write.add(0, op);
                    r.commits.push(op);
                    r.check("commit", result);
                }
            } else {
                let (result, op) = timed(&clock, || dev.read_block(block));
                r.read.add(BLOCK as u64, op);
                r.read_ops.push(op);
                if let Some(got) = r.check("read_block", result) {
                    let expected = pattern_block(seed, block, versions[block as usize]);
                    r.verify("shadow map", got == expected);
                }
            }
        }
    });
    r.finish(&mc, &disk, before, HIDDEN);
    Ok(())
}
