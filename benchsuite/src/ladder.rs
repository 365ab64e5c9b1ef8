//! The layer ladder: the public volume's stack rebuilt from public
//! constructors with a span recorder at every boundary, driven with the
//! public-volume calls a traced round captured.
//!
//! The mirror follows `MobiCeal::unlock_public`'s assembly: dm-linear
//! metadata and data views of the medium, a `ThinPool` with random
//! allocation and the thin read-lookup charge, the public `ThinVolume`
//! under a `PdeVolume`, and ESSIV `DmCrypt` with Nexus 4 timing on top. It
//! replays `MobiCeal::initialize`'s generator draws and header writes, so
//! its pool allocates and its dummy writer fires exactly as the round's
//! device did, and the mirror's per-layer self times can be set against
//! the round's `core.unlocked_volume` self time (`ladder.coverage_*`).
//!
//! `PdeVolume` owns its `ThinVolume` by value, so no span fits between the
//! two. A second mirror without the PDE hook (`dm.crypt` straight over a
//! spanned `ThinVolume`, phase `ladder.thin`) measures the thin layer
//! alone; the PDE rung is the first mirror's `PdeVolume` self time minus
//! that.

use crate::trace::{self, Captured, SpanDevice, VolumeCall};
use crate::workloads::{self, layer, BLOCK, DECOY};
use mobiceal::{DummyWriter, EncryptionFooter, MobiCealConfig, PdeVolume, FOOTER_BYTES};
use mobiceal_blockdev::{BlockDevice, SharedDevice};
use mobiceal_crypto::ChaCha20Rng;
use mobiceal_dm::{DmCrypt, DmLinear};
use mobiceal_sim::{CpuCostModel, SimClock};
use mobiceal_thinp::{AllocStrategy, PoolConfig, ThinPool};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Layer names of the ladder's rungs.
pub const LINEAR: &str = "dm.linear";
pub const THIN: &str = "thinp.pool";
pub const PDE: &str = "core.pde_volume";
pub const CRYPT: &str = "dm.crypt";

/// Trace phases of the two mirrors.
pub const PHASE: &str = "ladder";
pub const PHASE_THIN: &str = "ladder.thin";

/// What a workload's device was built from.
#[derive(Debug, Clone)]
pub struct MirrorSpec {
    pub seed: u64,
    pub config: MobiCealConfig,
    pub hidden: &'static [&'static str],
    pub disk_blocks: u64,
    /// The eMMC 5.1 CQE medium instead of the Nexus 4 one.
    pub cqe: bool,
}

/// Layer of the span each replayed call is wrapped in: its operation is
/// the class the captured call had, so the rungs below are classed as in
/// the round.
pub const USER: &str = "ladder.user";

/// User blocks the measured calls of a capture write and read: blocks of
/// write calls serving writes, and of read calls serving reads.
pub fn user_blocks(calls: &[Captured]) -> (u64, u64) {
    calls.iter().filter(|c| c.measured).fold((0, 0), |(w, r), c| match (&c.call, c.class) {
        (VolumeCall::Write(idx), class) if class != "read" => (w + idx.len() as u64, r),
        (VolumeCall::Read(idx), "read") => (w, r + idx.len() as u64),
        _ => (w, r),
    })
}

/// Replays `calls` on both mirrors. Set-up calls run unrecorded, so each
/// mirror reaches the round's state; measured calls are recorded into the
/// tracer, which must be installed and active, and is left active.
///
/// # Errors
///
/// Any construction or I/O error of the mirrors.
pub fn replay(spec: &MirrorSpec, calls: &[Captured]) -> Result<(), String> {
    for (phase, with_pde) in [(PHASE, true), (PHASE_THIN, false)] {
        let (clock, top) = build(spec, with_pde).map_err(|e| format!("ladder build: {e}"))?;
        trace::set_phase(phase, &clock);
        let result = drive(&top, calls);
        trace::activate(true);
        result.map_err(|e| format!("ladder replay: {e}"))?;
    }
    Ok(())
}

fn drive(top: &SharedDevice, calls: &[Captured]) -> Result<(), String> {
    let block = vec![0x6Cu8; BLOCK];
    for captured in calls {
        trace::activate(captured.measured);
        trace::span(USER, captured.class, 0, || replay_call(top, &captured.call, &block))?;
    }
    Ok(())
}

/// Makes one captured call on a mirror (any content will do: no charge
/// depends on it).
fn replay_call(top: &SharedDevice, call: &VolumeCall, block: &[u8]) -> Result<(), String> {
    // The unlocked volume keeps its header in block 0 and shifts by one.
    match call {
        VolumeCall::Write(idx) => {
            let writes: Vec<(u64, &[u8])> = idx.iter().map(|&i| (i + 1, block)).collect();
            top.write_blocks(&writes)
        }
        VolumeCall::Read(idx) => {
            let shifted: Vec<u64> = idx.iter().map(|&i| i + 1).collect();
            top.read_blocks(&shifted).map(drop)
        }
        VolumeCall::Flush => top.flush(),
    }
    .map_err(|e| format!("{e:?}"))
}

/// `MobiCeal::initialize`'s draws from its seeded generator, up to the
/// dummy writer's seed: the master key, the footer salts until every
/// hidden password lands on its own volume, the pool seed, and one noise
/// header per dummy volume. Returns the pool and dummy-writer seeds.
fn init_seeds(spec: &MirrorSpec) -> (u64, u64) {
    let cfg = &spec.config;
    let mut rng = ChaCha20Rng::from_u64_seed(spec.seed);
    let master_key = rng.gen_key();
    let mut hidden_indices = Vec::new();
    for _ in 0..64 {
        let footer = EncryptionFooter::with_salt(
            rng.gen_nonce16(),
            &master_key,
            DECOY,
            cfg.pbkdf2_iterations,
        );
        let indices: Vec<u32> =
            spec.hidden.iter().map(|p| footer.hidden_volume_index(p, cfg.num_volumes)).collect();
        if indices.iter().collect::<BTreeSet<_>>().len() == indices.len() {
            hidden_indices = indices;
            break;
        }
    }
    let pool_seed = rng.next_u64();
    let mut noise = vec![0u8; BLOCK];
    for v in 2..=cfg.num_volumes {
        if !hidden_indices.contains(&v) {
            rng.fill_bytes(&mut noise);
        }
    }
    (pool_seed, rng.next_u64())
}

fn build(spec: &MirrorSpec, with_pde: bool) -> Result<(SimClock, SharedDevice), String> {
    let err = |e: mobiceal_blockdev::BlockDeviceError| format!("{e:?}");
    let cfg = &spec.config;
    let clock = SimClock::new();
    let disk = workloads::medium(spec.disk_blocks, &clock, spec.cqe);
    let medium: SharedDevice = Arc::new(SpanDevice::new(layer::MEMDISK, disk));
    let footer_blocks = FOOTER_BYTES.div_ceil(BLOCK) as u64;
    let data_blocks = spec.disk_blocks - cfg.metadata_blocks - footer_blocks;
    let linear = |offset, len| -> Result<SharedDevice, String> {
        let dev = DmLinear::new(medium.clone(), offset, len).map_err(err)?;
        Ok(Arc::new(SpanDevice::new(LINEAR, dev)))
    };
    let meta = linear(0, cfg.metadata_blocks)?;
    let data = linear(cfg.metadata_blocks, data_blocks)?;
    let (pool_seed, dummy_seed) = init_seeds(spec);
    let pool = Arc::new(
        ThinPool::create_seeded(
            data,
            meta,
            PoolConfig::new(cfg.num_volumes),
            AllocStrategy::Random,
            pool_seed,
        )
        .map_err(err)?,
    );
    pool.set_read_overhead(clock.clone(), mobiceal::THIN_READ_LOOKUP);
    for v in 1..=cfg.num_volumes {
        pool.create_volume(v, data_blocks).map_err(err)?;
    }
    // Header blocks, in initialization's order, so allocation matches.
    let header = vec![0u8; BLOCK];
    for v in 1..=cfg.num_volumes {
        pool.open_volume(v).map_err(err)?.write_block(0, &header).map_err(err)?;
    }
    pool.commit().map_err(err)?;
    let public = pool.open_volume(1).map_err(err)?;
    let cpu = CpuCostModel::nexus4();
    let below: SharedDevice = if with_pde {
        let dummy = DummyWriter::new(
            ChaCha20Rng::from_u64_seed(dummy_seed),
            clock.clone(),
            cfg.x,
            cfg.lambda,
            cfg.num_volumes,
            cfg.stored_rand_refresh,
        );
        let pde =
            PdeVolume::new(public, pool, Arc::new(Mutex::new(dummy)), cpu.clone(), clock.clone());
        Arc::new(SpanDevice::new(PDE, pde))
    } else {
        Arc::new(SpanDevice::new(THIN, public))
    };
    let key = [0x4Du8; 32];
    let crypt = DmCrypt::new_essiv(below, &key).with_timing(clock.clone(), cpu);
    Ok((clock, Arc::new(SpanDevice::new(CRYPT, crypt))))
}
