//! `multi_tenant`: public and hidden block tenants plus a `SimFs` tenant,
//! all through `IoEngine` rings, from one thread.
//!
//! Each round mirrors `MultiTenantWorkload::run_engine(32)` of
//! `mobiceal_workloads`: an eMMC 5.1 CQE medium, two block tenants on the
//! public volume (low and high range), one on hidden volume `hidden-a`, and
//! a `SimFs` tenant on hidden volume `hidden-b` whose commands ride its own
//! ring through an `EngineDevice`. Each step submits one batch per block
//! tenant and writes one small file (syncing every fourth). Unlike
//! `run_engine`, the write phase ends by reaping every write completion,
//! and only then are the read-backs submitted, so the two directions are
//! measured apart; every block and file is compared with what was
//! written.
//!
//! Hidden volumes bypass the dummy hook, and this is the only workload that
//! exercises the engine and the queue-depth cost model.

use super::{counters, layer, pattern_block, timed, Probe, Round, BLOCK, DECOY};
use crate::trace;
use mobiceal::MobiCeal;
use mobiceal_blockdev::{EngineDevice, IoEngine, IoOutput, SharedDevice, Ticket};
use mobiceal_fs::{FileSystem, FsError, SimFs};
use mobiceal_sim::SimClock;
use std::sync::Arc;

/// Shape of one round.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub disk_blocks: u64,
    /// Batches each block tenant writes (and files the fs tenant writes).
    pub batches: u64,
    /// Blocks per batch; the fs tenant's files are this many blocks long.
    pub batch_blocks: u64,
    pub ring_depth: usize,
}

/// `MultiTenantWorkload::default()` driven at ring depth 32.
pub const FULL: Size = Size { disk_blocks: 16_384, batches: 24, batch_blocks: 32, ring_depth: 32 };

/// The test shape.
pub const QUICK: Size = Size { disk_blocks: 8192, batches: 6, batch_blocks: 16, ring_depth: 32 };

/// The hidden passwords: the block tenant's volume, then the fs tenant's.
pub const HIDDEN: &[&str] = &["hidden-a", "hidden-b"];

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
    let disk = super::medium(size.disk_blocks, &clock, true);
    let stream_blocks = size.batches * size.batch_blocks;
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
        let public = probe.volume(r.setup_step(&clock, "unlock", || mc.unlock_public(DECOY))?);
        let hidden = probe.volume(r.setup_step(&clock, "unlock", || mc.unlock_hidden(HIDDEN[0]))?);
        let fs_vol = probe.volume(r.setup_step(&clock, "unlock", || mc.unlock_hidden(HIDDEN[1]))?);
        let fs_engine = Arc::new(IoEngine::new(fs_vol, size.ring_depth));
        let fs = r.setup_step(&clock, "format", || {
            SimFs::format(Arc::new(EngineDevice(fs_engine.clone())) as SharedDevice)
        })?;
        Ok((mc, public, hidden, fs_engine, fs))
    });
    r.setup = op;
    let (mc, public, hidden, fs_engine, mut fs) = setup?;

    // One ring per block tenant: (ring, base block, pattern seed).
    let tenants = [
        (IoEngine::new(public.clone(), size.ring_depth), 0, seed),
        (IoEngine::new(hidden, size.ring_depth), 0, seed ^ 0xB2),
        (IoEngine::new(public, size.ring_depth), stream_blocks, seed ^ 0xC3),
    ];
    let file_blocks = size.batch_blocks;
    let file_bytes = (file_blocks as usize) * BLOCK;
    let fs_seed = seed ^ 0xF5;
    let file_name = |f: u64| format!("tenant-{f}.dat");
    let file_data = |f: u64| -> Vec<u8> {
        (0..file_blocks).flat_map(|b| pattern_block(fs_seed, f * file_blocks + b, 0)).collect()
    };
    let inflight = |tenants: &[(IoEngine<SharedDevice>, u64, u64)]| -> u64 {
        let rings: usize = tenants.iter().map(|(e, _, _)| e.in_flight()).sum();
        (rings + fs_engine.in_flight()) as u64
    };

    trace::set_phase("run", &clock);
    let before = counters(&mc, &disk);
    trace::span(trace::ROOT, "write", 0, || {
        let mut tickets: Vec<Vec<Ticket>> = vec![Vec::new(); tenants.len()];
        for step in 0..size.batches {
            for (t, (engine, base, tenant_seed)) in tenants.iter().enumerate() {
                let start = base + step * size.batch_blocks;
                let blocks: Vec<Vec<u8>> = (start..start + size.batch_blocks)
                    .map(|b| pattern_block(*tenant_seed, b, 0))
                    .collect();
                let writes: Vec<(u64, &[u8])> =
                    (start..).zip(&blocks).map(|(b, d)| (b, d.as_slice())).collect();
                let (ticket, op) = timed(&clock, || {
                    trace::span(layer::ENGINE, "submit", size.batch_blocks, || {
                        engine.submit_write_blocks(&writes)
                    })
                });
                r.write.add(size.batch_blocks * BLOCK as u64, op);
                r.attempted += 1;
                tickets[t].push(ticket);
                r.inflight_sum += inflight(&tenants);
                r.inflight_samples += 1;
            }
            let (name, data) = (file_name(step), file_data(step));
            let (result, op) = timed(&clock, || {
                trace::span(layer::FS, "write", file_blocks, || -> Result<(), FsError> {
                    fs.create(&name)?;
                    fs.write(&name, 0, &data)?;
                    if step % 4 == 3 {
                        fs.sync()?;
                    }
                    Ok(())
                })
            });
            r.write.add(file_bytes as u64, op);
            r.write_ops.push(op);
            r.check("fs write", result);
        }
        let (result, op) = timed(&clock, || trace::span(layer::FS, "flush", 0, || fs.sync()));
        r.write.add(0, op);
        r.check("fs sync", result);
        for ((engine, _, _), tickets) in tenants.iter().zip(tickets) {
            for ticket in tickets {
                let (result, op) =
                    timed(&clock, || trace::span(layer::ENGINE, "wait", 0, || engine.wait(ticket)));
                r.write.add(0, op);
                if let Some(out) = r.check("tenant write", result) {
                    r.verify("tenant write", out == IoOutput::Write);
                }
            }
        }
    });
    trace::span(trace::ROOT, "read", 0, || {
        let reads: Vec<(Vec<u64>, Ticket)> = tenants
            .iter()
            .map(|(engine, base, _)| {
                let indices: Vec<u64> = (*base..base + stream_blocks).collect();
                let (ticket, op) = timed(&clock, || {
                    trace::span(layer::ENGINE, "submit", stream_blocks, || {
                        engine.submit_read_blocks(&indices)
                    })
                });
                r.read.add(0, op);
                r.attempted += 1;
                r.inflight_sum += inflight(&tenants);
                r.inflight_samples += 1;
                (indices, ticket)
            })
            .collect();
        for ((engine, _, tenant_seed), (indices, ticket)) in tenants.iter().zip(reads) {
            let (result, op) = timed(&clock, || {
                trace::span(layer::ENGINE, "wait", stream_blocks, || engine.wait(ticket))
            });
            r.read.add(stream_blocks * BLOCK as u64, op);
            r.read_ops.push(op);
            let ok = match r.check("tenant read-back", result) {
                Some(IoOutput::Read(bufs)) => {
                    bufs.len() == indices.len()
                        && indices
                            .iter()
                            .zip(&bufs)
                            .all(|(&b, buf)| *buf == pattern_block(*tenant_seed, b, 0))
                }
                Some(IoOutput::Write) => false,
                None => true,
            };
            r.verify("tenant read-back", ok);
        }
        for f in 0..size.batches {
            let name = file_name(f);
            let (result, op) = timed(&clock, || {
                trace::span(layer::FS, "read", file_blocks, || fs.read(&name, 0, file_bytes))
            });
            r.read.add(file_bytes as u64, op);
            r.read_ops.push(op);
            if let Some(back) = r.check("fs read", result) {
                r.verify("fs read-back", back == file_data(f));
            }
        }
    });
    r.finish(&mc, &disk, before, HIDDEN);
    Ok(())
}
