//! Security-game adapters: MobiCeal and the baselines as [`GameWorld`]s.
//!
//! These wire real storage stacks into the empirical §III-C game run by
//! [`mobiceal_adversary::run_distinguisher_game`]. Each world builds a
//! fresh device per round; the `with_hidden` flag decides whether a hidden
//! volume exists and receives writes (`Σ0`) or not (`Σ1`).
//!
//! Each game event forwards its blocks as **one** `write_blocks` batch (or
//! one [`MobiPluto::hidden_write_blocks`] extent), so per-command
//! amortization survives every stack end-to-end — the baselines are
//! measured with the same vectored discipline MobiCeal gets, not
//! handicapped to single-block commands.

#![allow(
    clippy::expect_used,
    reason = "game adapters, not storage code: a world whose fixed geometry fails to set up aborts the round"
)]

use mobiceal::{MobiCeal, MobiCealConfig, UnlockedVolume};
use mobiceal_adversary::{GameWorld, Observation};
use mobiceal_blockdev::{BlockDevice, MemDisk};
use mobiceal_crypto::ChaCha20Rng;
use mobiceal_sim::SimClock;
use std::sync::Arc;

use crate::mobipluto::MobiPluto;

/// Disk geometry shared by the game worlds.
pub const WORLD_DISK_BLOCKS: u64 = 4096;
/// Block size shared by the game worlds.
pub const WORLD_BLOCK_SIZE: usize = 4096;

/// Draws `blocks` fresh event payloads in the same per-block RNG order the
/// single-block loop used, so game traces are bit-identical to PR 3's.
fn next_payloads(rng: &mut ChaCha20Rng, blocks: u64) -> Vec<Vec<u8>> {
    (0..blocks)
        .map(|_| {
            let mut buf = vec![0u8; WORLD_BLOCK_SIZE];
            rng.fill_bytes(&mut buf);
            buf
        })
        .collect()
}

fn fast_config() -> MobiCealConfig {
    MobiCealConfig {
        num_volumes: 6,
        pbkdf2_iterations: 4,
        metadata_blocks: 64,
        ..MobiCealConfig::default()
    }
}

/// MobiCeal in the game: public writes through the dummy-write hook, hidden
/// writes into the hidden volume (Σ0 only).
pub struct MobiCealWorld {
    disk: Arc<MemDisk>,
    mc: MobiCeal,
    public: UnlockedVolume,
    hidden: Option<UnlockedVolume>,
    pub_cursor: u64,
    hid_cursor: u64,
    payload: ChaCha20Rng,
}

impl MobiCealWorld {
    /// Builds a fresh world.
    ///
    /// # Panics
    ///
    /// Panics on initialization failure (the geometry is fixed and valid).
    pub fn build(seed: u64, with_hidden: bool) -> Self {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(WORLD_DISK_BLOCKS, WORLD_BLOCK_SIZE, clock.clone()));
        let hidden_pwds: &[&str] = if with_hidden { &["game-hidden"] } else { &[] };
        let mc = MobiCeal::initialize(
            disk.clone(),
            clock,
            fast_config(),
            "game-decoy",
            hidden_pwds,
            seed,
        )
        .expect("game world initialization");
        let public = mc.unlock_public("game-decoy").expect("decoy unlocks");
        let hidden = with_hidden.then(|| mc.unlock_hidden("game-hidden").expect("hidden unlocks"));
        MobiCealWorld {
            disk,
            mc,
            public,
            hidden,
            pub_cursor: 0,
            hid_cursor: 0,
            payload: ChaCha20Rng::from_u64_seed(seed ^ 0xDA7A),
        }
    }

    /// Where the pool data region starts on the raw disk (for configuring
    /// distinguishers).
    pub fn data_region_start() -> u64 {
        fast_config().metadata_blocks
    }

    /// Data-region length in blocks.
    pub fn data_region_blocks() -> u64 {
        let footer = (mobiceal::FOOTER_BYTES as u64).div_ceil(WORLD_BLOCK_SIZE as u64);
        WORLD_DISK_BLOCKS - fast_config().metadata_blocks - footer
    }

    /// The paper's λ (for the dummy-budget distinguisher).
    pub fn lambda() -> f64 {
        fast_config().lambda
    }
}

impl GameWorld for MobiCealWorld {
    fn public_write(&mut self, blocks: u64) {
        let payloads = next_payloads(&mut self.payload, blocks);
        let batch: Vec<(u64, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, d)| ((self.pub_cursor + i as u64) % self.public.num_blocks(), d.as_slice()))
            .collect();
        self.public.write_blocks(&batch).expect("public write");
        self.pub_cursor += blocks;
    }

    fn hidden_write(&mut self, blocks: u64) {
        let hidden = self.hidden.as_ref().expect("hidden_write only in the hidden world");
        let payloads = next_payloads(&mut self.payload, blocks);
        let batch: Vec<(u64, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, d)| ((self.hid_cursor + i as u64) % hidden.num_blocks(), d.as_slice()))
            .collect();
        hidden.write_blocks(&batch).expect("hidden write");
        self.hid_cursor += blocks;
    }

    fn observe(&self) -> Observation {
        Observation {
            snapshot: self.disk.snapshot(),
            metadata: Some(self.mc.metadata_view()),
            logs: Vec::new(),
        }
    }
}

/// MobiCeal under the §IV-B cover discipline: every hidden write is
/// followed by an approximately equal-sized public write, per the paper's
/// recommendation. The pattern restriction still holds: the cover writes
/// are ordinary public writes which in the Σ1 world occur as organic
/// traffic (the game harness only varies the *hidden* component, so we
/// inject the same cover volume in both worlds through `public_write`).
pub struct CoveredMobiCealWorld {
    inner: MobiCealWorld,
    cover: mobiceal::CoverDiscipline,
}

impl CoveredMobiCealWorld {
    /// Builds a fresh covered world.
    ///
    /// # Panics
    ///
    /// Panics on initialization failure (fixed, valid geometry).
    pub fn build(seed: u64, with_hidden: bool) -> Self {
        CoveredMobiCealWorld {
            inner: MobiCealWorld::build(seed, with_hidden),
            cover: mobiceal::CoverDiscipline::paper_recommendation(),
        }
    }
}

impl GameWorld for CoveredMobiCealWorld {
    fn public_write(&mut self, blocks: u64) {
        self.cover.record_public_write(blocks);
        self.inner.public_write(blocks);
    }

    fn hidden_write(&mut self, blocks: u64) {
        self.inner.hidden_write(blocks);
        self.cover.record_hidden_write(blocks);
        // Pay the cover debt immediately (the user stores an equal-sized
        // public file after the hidden file, §IV-B).
        let owed = self.cover.outstanding_cover();
        if owed > 0 {
            self.cover.record_public_write(owed);
            self.inner.public_write(owed);
        }
    }

    fn observe(&self) -> Observation {
        self.inner.observe()
    }
}

/// MobiPluto in the game: static randomness, sequential public allocation,
/// hidden writes straight into the "free" randomness (Σ0 only).
pub struct MobiPlutoWorld {
    disk: Arc<MemDisk>,
    mp: MobiPluto,
    public: mobiceal_blockdev::SharedDevice,
    pub_cursor: u64,
    payload: ChaCha20Rng,
}

impl MobiPlutoWorld {
    /// Builds a fresh world.
    ///
    /// # Panics
    ///
    /// Panics on initialization failure (fixed, valid geometry).
    pub fn build(seed: u64, with_hidden: bool) -> Self {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(WORLD_DISK_BLOCKS, WORLD_BLOCK_SIZE, clock.clone()));
        let mp = MobiPluto::initialize(
            disk.clone(),
            clock,
            "game-decoy",
            with_hidden.then_some("game-hidden"),
            seed,
        )
        .expect("mobipluto init");
        let public = mp.unlock_public("game-decoy").expect("decoy unlocks");
        MobiPlutoWorld {
            disk,
            mp,
            public,
            pub_cursor: 1, // vblock 0 is the header
            payload: ChaCha20Rng::from_u64_seed(seed ^ 0xDA7A),
        }
    }

    /// Data-region start for distinguisher configuration.
    pub fn data_region_start(world: &Self) -> u64 {
        world.mp.data_region_start()
    }
}

impl GameWorld for MobiPlutoWorld {
    fn public_write(&mut self, blocks: u64) {
        let payloads = next_payloads(&mut self.payload, blocks);
        let half = self.public.num_blocks() / 2;
        let batch: Vec<(u64, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, d)| (1 + (self.pub_cursor + i as u64) % half, d.as_slice()))
            .collect();
        self.public.write_blocks(&batch).expect("public write");
        self.pub_cursor += blocks;
    }

    fn hidden_write(&mut self, blocks: u64) {
        let payloads = next_payloads(&mut self.payload, blocks);
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        self.mp.hidden_write_blocks(&refs).expect("hidden write");
    }

    fn observe(&self) -> Observation {
        Observation {
            snapshot: self.disk.snapshot(),
            metadata: Some(self.mp.metadata_view()),
            logs: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_adversary::{run_distinguisher_game, ChangedFreeSpaceDistinguisher, GameConfig};

    fn small_game() -> GameConfig {
        GameConfig {
            rounds: 16,
            events_per_round: 6,
            public_blocks: (2, 8),
            hidden_blocks: (1, 6),
            hidden_event_prob: 0.6,
        }
    }

    #[test]
    fn free_space_diff_breaks_mobipluto_but_not_mobiceal() {
        let cfg = small_game();
        let d = ChangedFreeSpaceDistinguisher {
            public_volume: 1,
            data_region_start: 64,
            data_region_blocks: WORLD_DISK_BLOCKS - 64 - 4,
        };
        let pluto = run_distinguisher_game(MobiPlutoWorld::build, &d, &cfg, 42);
        assert!(pluto.accuracy > 0.85, "snapshot differencing must break MobiPluto: {pluto}");
        let ceal = run_distinguisher_game(MobiCealWorld::build, &d, &cfg, 42);
        assert!(ceal.advantage < 0.25, "MobiCeal should blind the same distinguisher: {ceal}");
    }
}
