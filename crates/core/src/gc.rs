//! Garbage collection of dummy-write space (§IV-D).
//!
//! Dummy data accumulates and would eventually fill the disk. MobiCeal
//! reclaims it with two safeguards from the paper:
//!
//! 1. **Hidden-mode only**: only in hidden mode does the system know which
//!    volumes are truly dummy, so hidden data is never collected. We model
//!    this by requiring a verified hidden password.
//! 2. **Random partial reclamation**: collecting *all* dummy space would
//!    let the adversary identify hidden data as the randomness that
//!    survives GC. Instead a random fraction is reclaimed — large with high
//!    probability (we sample `p = f^{1/4}`, mean ≈ 0.8) — so surviving
//!    noise remains plausible.

use crate::device::MobiCeal;
use crate::error::MobiCealError;
use mobiceal_crypto::ChaCha20Rng;

/// Outcome of one garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcReport {
    /// Volumes examined (all non-public, non-hidden volumes).
    pub dummy_volumes: u32,
    /// Blocks mapped by those volumes before the pass.
    pub blocks_before: u64,
    /// Blocks reclaimed.
    pub blocks_reclaimed: u64,
    /// The sampled reclamation fraction.
    pub fraction: f64,
}

/// Proof of hidden mode for repeated GC passes.
///
/// Verifying hidden mode means a full PBKDF2 unlock per password —
/// tens of milliseconds of modeled CPU time. The password-taking entry
/// point ([`MobiCeal::garbage_collect`]) re-proves it on *every* pass; a
/// session established once (at hidden-mode entry, where the unlock
/// already happened) carries the protected-volume set, so per-pass
/// planning becomes pure in-memory sampling and a pass costs only its
/// discards plus the commit.
#[derive(Debug, Clone)]
pub struct GcSession {
    /// Volume ids GC must never touch: the public volume plus every
    /// volume a verified hidden password unlocked.
    protected: Vec<u32>,
}

/// A GC plan: the pass report plus per-volume `(volume id, victim
/// physical blocks)` discard lists.
type GcPlan = (GcReport, Vec<(u32, Vec<u64>)>);

impl MobiCeal {
    /// Verifies hidden mode once and returns a reusable [`GcSession`].
    /// Charges the PBKDF2 unlock cost per password — here, not per pass.
    ///
    /// # Errors
    ///
    /// [`MobiCealError::NotInHiddenMode`] if no password verifies.
    pub fn begin_gc_session(&self, hidden_passwords: &[&str]) -> Result<GcSession, MobiCealError> {
        let mut protected = vec![1u32]; // the public volume
        let mut any_verified = false;
        for pwd in hidden_passwords {
            match self.unlock_hidden(pwd) {
                Ok(vol) => {
                    protected.push(vol.volume_id());
                    any_verified = true;
                }
                Err(MobiCealError::BadPassword) => {}
                Err(other) => return Err(other),
            }
        }
        if !any_verified {
            return Err(MobiCealError::NotInHiddenMode);
        }
        Ok(GcSession { protected })
    }

    /// Runs one GC pass. `hidden_passwords` must contain every hidden
    /// password in use: the first is verified to prove hidden mode, and all
    /// of them identify volumes that must never be collected.
    ///
    /// # Errors
    ///
    /// [`MobiCealError::NotInHiddenMode`] if no password verifies;
    /// device errors from discards.
    pub fn garbage_collect(
        &self,
        hidden_passwords: &[&str],
        seed: u64,
    ) -> Result<GcReport, MobiCealError> {
        let session = self.begin_gc_session(hidden_passwords)?;
        self.garbage_collect_in_session(&session, seed)
    }

    /// Like [`MobiCeal::garbage_collect`] with a pre-verified
    /// [`GcSession`]: planning is pure in-memory sampling, so the only
    /// cost of a pass is the discards plus the commit.
    ///
    /// # Errors
    ///
    /// Device errors from discards or the commit.
    pub fn garbage_collect_in_session(
        &self,
        session: &GcSession,
        seed: u64,
    ) -> Result<GcReport, MobiCealError> {
        let (report, discards) = self.plan_gc_session(session, seed);
        for (id, victims) in &discards {
            // One batched discard (single pool-lock pass) per volume
            // instead of a lock round-trip per reclaimed block.
            self.pool().discard_many(*id, victims)?;
        }
        self.commit()?;
        Ok(report)
    }

    /// Planning on an already-proven session:
    /// samples the reclamation fraction and picks victim blocks per dummy
    /// volume. In-memory only — no unlocks, no device I/O.
    fn plan_gc_session(&self, session: &GcSession, seed: u64) -> GcPlan {
        let protected = &session.protected;
        let mut rng = ChaCha20Rng::from_u64_seed(seed);
        // Large-with-high-probability fraction: p = f^(1/4), f ~ U(0,1).
        let fraction = rng.next_f64().powf(0.25);

        let view = self.metadata_view();
        let mut report =
            GcReport { dummy_volumes: 0, blocks_before: 0, blocks_reclaimed: 0, fraction };
        let mut discards = Vec::new();
        for (&id, vol) in &view.volumes {
            if protected.contains(&id) {
                continue;
            }
            report.dummy_volumes += 1;
            // Keep vblock 0 (the init-time noise header) so the uniform
            // one-block footprint of §IV-C is preserved.
            let candidates: Vec<u64> = vol.mappings.keys().filter(|&v| v != 0).collect();
            report.blocks_before += candidates.len() as u64;
            let reclaim_count = (candidates.len() as f64 * fraction).floor() as usize;
            // Reclaim a uniformly random subset of that size.
            let mut indices: Vec<u64> = candidates;
            for i in (1..indices.len()).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                indices.swap(i, j);
            }
            indices.truncate(reclaim_count);
            report.blocks_reclaimed += indices.len() as u64;
            discards.push((id, indices));
        }
        (report, discards)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MobiCealConfig;
    use crate::device::MobiCeal;
    use crate::error::MobiCealError;
    use mobiceal_blockdev::{BlockDevice, MemDisk};
    use mobiceal_sim::SimClock;
    use std::sync::Arc;

    fn fast_config() -> MobiCealConfig {
        MobiCealConfig {
            num_volumes: 5,
            pbkdf2_iterations: 4,
            metadata_blocks: 64,
            ..MobiCealConfig::default()
        }
    }

    fn device_with_dummy_traffic(seed: u64) -> MobiCeal {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(8192, 4096, clock.clone()));
        let mc =
            MobiCeal::initialize(disk, clock, fast_config(), "decoy", &["hidden-a"], seed).unwrap();
        let public = mc.unlock_public("decoy").unwrap();
        for i in 0..600 {
            public.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        mc
    }

    #[test]
    fn gc_requires_a_hidden_password() {
        let mc = device_with_dummy_traffic(1);
        assert_eq!(
            mc.garbage_collect(&["not-a-password"], 7).unwrap_err(),
            MobiCealError::NotInHiddenMode
        );
        assert!(mc.garbage_collect(&["hidden-a"], 7).is_ok());
    }

    #[test]
    fn gc_reclaims_a_partial_fraction() {
        let mc = device_with_dummy_traffic(2);
        let before = mc.metadata_view();
        let dummy_before: u64 = before
            .volumes
            .keys()
            .filter(|&&v| v != 1 && v != mc.volume_index_for("hidden-a"))
            .map(|&v| before.mapped_blocks(v))
            .sum();
        let report = mc.garbage_collect(&["hidden-a"], 3).unwrap();
        assert!(report.blocks_reclaimed > 0, "{report:?}");
        assert!(
            report.blocks_reclaimed < dummy_before,
            "GC must never reclaim all dummy space: {report:?}"
        );
        assert!((0.0..=1.0).contains(&report.fraction));
    }

    #[test]
    fn gc_never_touches_hidden_or_public_data() {
        let mc = device_with_dummy_traffic(3);
        let hidden = mc.unlock_hidden("hidden-a").unwrap();
        for i in 0..50 {
            hidden.write_block(i, &vec![0xDD; 4096]).unwrap();
        }
        let public = mc.unlock_public("decoy").unwrap();
        mc.garbage_collect(&["hidden-a"], 4).unwrap();
        for i in 0..50 {
            assert_eq!(hidden.read_block(i).unwrap(), vec![0xDD; 4096], "hidden block {i}");
        }
        assert_eq!(public.read_block(0).unwrap(), vec![1u8; 4096]);
    }

    #[test]
    fn gc_frees_pool_space() {
        let mc = device_with_dummy_traffic(4);
        let free_before = mc.free_blocks();
        let report = mc.garbage_collect(&["hidden-a"], 5).unwrap();
        assert_eq!(mc.free_blocks(), free_before + report.blocks_reclaimed);
    }

    #[test]
    fn gc_preserves_uniform_header_footprint() {
        let mc = device_with_dummy_traffic(5);
        mc.garbage_collect(&["hidden-a"], 6).unwrap();
        let view = mc.metadata_view();
        for v in 2..=5 {
            assert!(view.mapped_blocks(v) >= 1, "volume {v} lost its header block");
        }
    }

    #[test]
    fn session_pass_matches_password_pass_exactly() {
        // Same device history, same seed: a session-based pass must plan
        // and execute identically to the password-taking entry point — the
        // session only moves the verification cost, never the decisions.
        let by_password = device_with_dummy_traffic(12);
        let report_a = by_password.garbage_collect(&["hidden-a"], 55).unwrap();

        let by_session = device_with_dummy_traffic(12);
        let session = by_session.begin_gc_session(&["hidden-a"]).unwrap();
        let report_b = by_session.garbage_collect_in_session(&session, 55).unwrap();
        assert_eq!(report_a, report_b);
        assert_eq!(by_password.free_blocks(), by_session.free_blocks());
    }

    #[test]
    fn session_charges_verification_once_not_per_pass() {
        // The point of the session: PBKDF2 verification charges simulated
        // CPU time at begin_gc_session, and repeated passes charge none of
        // it again. Two password passes must charge strictly more than a
        // session plus two session passes on an identical device.
        let clock_pwd = SimClock::new();
        let disk = Arc::new(MemDisk::new(8192, 4096, clock_pwd.clone()));
        let mc_pwd = MobiCeal::initialize(
            disk,
            clock_pwd.clone(),
            fast_config(),
            "decoy",
            &["hidden-a"],
            13,
        )
        .unwrap();
        let clock_sess = SimClock::new();
        let disk = Arc::new(MemDisk::new(8192, 4096, clock_sess.clone()));
        let mc_sess = MobiCeal::initialize(
            disk,
            clock_sess.clone(),
            fast_config(),
            "decoy",
            &["hidden-a"],
            13,
        )
        .unwrap();
        for mc in [&mc_pwd, &mc_sess] {
            let public = mc.unlock_public("decoy").unwrap();
            for i in 0..600 {
                public.write_block(i, &vec![1u8; 4096]).unwrap();
            }
        }
        let session = mc_sess.begin_gc_session(&["hidden-a"]).unwrap();
        let t_pwd = clock_pwd.now();
        let t_sess = clock_sess.now();
        mc_pwd.garbage_collect(&["hidden-a"], 21).unwrap();
        mc_pwd.garbage_collect(&["hidden-a"], 22).unwrap();
        mc_sess.garbage_collect_in_session(&session, 21).unwrap();
        mc_sess.garbage_collect_in_session(&session, 22).unwrap();
        let pwd_cost = (clock_pwd.now() - t_pwd).as_nanos();
        let sess_cost = (clock_sess.now() - t_sess).as_nanos();
        assert!(
            pwd_cost > sess_cost,
            "per-pass verification must cost extra: {pwd_cost} vs {sess_cost} ns"
        );
    }

    #[test]
    fn session_cuts_foreground_p99_by_10x_and_reclaims_the_same_blocks() {
        // Fresh public writes arrive every 1 ms of simulated time (an open
        // loop) with a GC pass before every 50th. The clock only measures
        // durations, so each write and pass is replayed onto a virtual busy
        // cursor: work released at `r` taking `d` starts at
        // `max(busy_until, r)`, and a pass stalls the writes queued behind
        // it. Verifying hidden mode once per session instead of once per
        // pass must cut the write p99 tenfold without changing what GC
        // reclaims.
        const WRITES: u64 = 200;
        const GC_EVERY: u64 = 50;
        const WARMUP: u64 = 400;
        const INTERVAL_NS: u64 = 1_000_000;
        let run = |in_session: bool| {
            let clock = SimClock::new();
            let disk = Arc::new(MemDisk::new(8192, 4096, clock.clone()));
            let mc = MobiCeal::initialize(
                disk,
                clock.clone(),
                fast_config(),
                "decoy",
                &["hidden-a"],
                17,
            )
            .unwrap();
            let public = mc.unlock_public("decoy").unwrap();
            for b in 0..WARMUP {
                public.write_block(b, &[0x5C; 4096]).unwrap();
            }
            mc.commit().unwrap();
            let session = in_session.then(|| mc.begin_gc_session(&["hidden-a"]).unwrap());
            let t0 = clock.now().as_nanos();
            let mut busy_until = t0;
            let (mut latencies, mut passes, mut reclaimed) = (Vec::new(), 0, 0);
            for i in 0..WRITES {
                let arrival = t0 + i * INTERVAL_NS;
                if i > 0 && i % GC_EVERY == 0 {
                    let before = clock.now().as_nanos();
                    let report = match &session {
                        Some(s) => mc.garbage_collect_in_session(s, 17 + passes),
                        None => mc.garbage_collect(&["hidden-a"], 17 + passes),
                    };
                    reclaimed += report.unwrap().blocks_reclaimed;
                    passes += 1;
                    busy_until = busy_until.max(arrival) + clock.now().as_nanos() - before;
                }
                let before = clock.now().as_nanos();
                public.write_block(WARMUP + i, &[0x9E; 4096]).unwrap();
                busy_until = busy_until.max(arrival) + clock.now().as_nanos() - before;
                latencies.push(busy_until - arrival);
            }
            latencies.sort_unstable();
            let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
            (p99, latencies[latencies.len() - 1], passes, reclaimed)
        };
        let (p99_pwd, max_pwd, passes_pwd, reclaimed_pwd) = run(false);
        let (p99_sess, max_sess, passes_sess, reclaimed_sess) = run(true);
        assert!(
            p99_pwd >= p99_sess.max(1) * 10,
            "p99 per-pass {p99_pwd} ns vs session {p99_sess} ns"
        );
        assert!(max_pwd > max_sess, "worst stall must shrink too: {max_pwd} vs {max_sess} ns");
        assert!(passes_pwd >= 3, "{passes_pwd} passes");
        assert_eq!(passes_sess, passes_pwd);
        assert!(reclaimed_pwd > 0);
        assert_eq!(reclaimed_sess, reclaimed_pwd, "a session never changes GC decisions");
    }

    #[test]
    fn session_requires_a_hidden_password() {
        let mc = device_with_dummy_traffic(14);
        assert_eq!(mc.begin_gc_session(&["wrong"]).unwrap_err(), MobiCealError::NotInHiddenMode);
    }

    #[test]
    fn repeated_gc_converges_without_emptying() {
        let mc = device_with_dummy_traffic(6);
        for round in 0..5 {
            let _ = mc.garbage_collect(&["hidden-a"], 100 + round).unwrap();
        }
        let view = mc.metadata_view();
        for v in 2..=5 {
            assert!(view.mapped_blocks(v) >= 1, "volume {v} emptied after repeated GC");
        }
    }
}
