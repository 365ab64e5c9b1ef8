//! MobiCeal configuration.

use mobiceal_sim::SimDuration;

/// Tunables of the MobiCeal scheme, with defaults matching the paper's
/// prototype (§IV-B, §V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct MobiCealConfig {
    /// Total number of thin volumes `n` (public + hidden + dummy). The
    /// paper's extended scheme creates these up front; `V1` is public.
    pub num_volumes: u32,
    /// Rate parameter λ of the exponential dummy-burst size. The paper uses
    /// λ = 1 ("each dummy write will be allocated one free block on
    /// average").
    pub lambda: f64,
    /// The trigger modulus `x`: a dummy burst fires iff
    /// `rand ≤ stored_rand mod x` with `rand` uniform in `[1, 2x]`, keeping
    /// the trigger probability below 50 %. The paper fixes x = 50.
    pub x: u32,
    /// PBKDF2 iteration count for password-derived keys. Android 4.2 used
    /// 2000; tests may lower it.
    pub pbkdf2_iterations: u32,
    /// How often `stored_rand` is refreshed (the prototype refreshes at
    /// most hourly, from `jiffies` at write time; §V-A).
    pub stored_rand_refresh: SimDuration,
    /// Blocks reserved for pool metadata at the front of the disk
    /// (the "metadata part" of Fig. 3).
    pub metadata_blocks: u64,
    /// Explicit dm-crypt batch parallelism for unlocked volumes:
    /// `Some((workers, min_sectors))` forwards to
    /// [`mobiceal_dm::DmCrypt::with_parallelism`] — shard crypto batches of
    /// at least `min_sectors` sectors across up to `workers` threads —
    /// while `None` keeps dm-crypt's byte-aware default policy.
    /// `workers` must be positive and `min_sectors` at least
    /// [`mobiceal_dm::MIN_PARALLEL_SECTORS`] ([`MobiCealConfig::validate`]
    /// rejects values the crypt layer would silently clamp). Parallelism only changes host wall-clock
    /// speed; ciphertext and simulated-clock charges are identical either
    /// way.
    pub crypt_parallelism: Option<(usize, usize)>,
}

impl Default for MobiCealConfig {
    fn default() -> Self {
        MobiCealConfig {
            num_volumes: 6,
            lambda: 1.0,
            x: 50,
            pbkdf2_iterations: 64, // scaled down from Android's 2000 for simulation speed
            stored_rand_refresh: SimDuration::from_secs(3600),
            metadata_blocks: 256,
            crypt_parallelism: None,
        }
    }
}

impl MobiCealConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_volumes < 3 {
            return Err(format!(
                "need at least 3 volumes (public, hidden, dummy), got {}",
                self.num_volumes
            ));
        }
        if self.lambda.is_nan() || self.lambda <= 0.0 {
            return Err(format!("lambda must be positive, got {}", self.lambda));
        }
        if self.x == 0 {
            return Err("x must be positive".into());
        }
        if self.pbkdf2_iterations == 0 {
            return Err("pbkdf2 iterations must be positive".into());
        }
        if self.metadata_blocks < 8 {
            return Err(format!("metadata region too small: {}", self.metadata_blocks));
        }
        if let Some((workers, min_sectors)) = self.crypt_parallelism {
            if workers == 0 {
                return Err("crypt_parallelism workers must be positive".into());
            }
            if min_sectors < mobiceal_dm::MIN_PARALLEL_SECTORS {
                return Err(format!(
                    "crypt_parallelism min_sectors must be at least {} \
                     (dm-crypt's sharding floor), got {min_sectors}",
                    mobiceal_dm::MIN_PARALLEL_SECTORS
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paper_shaped() {
        let c = MobiCealConfig::default();
        c.validate().unwrap();
        assert_eq!(c.x, 50, "paper fixes x at 50");
        assert_eq!(c.lambda, 1.0, "paper uses lambda = 1");
        assert_eq!(c.stored_rand_refresh, SimDuration::from_secs(3600), "hourly refresh");
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = MobiCealConfig::default();
        let cases = [
            MobiCealConfig { num_volumes: 2, ..base.clone() },
            MobiCealConfig { lambda: 0.0, ..base.clone() },
            MobiCealConfig { lambda: -1.0, ..base.clone() },
            MobiCealConfig { x: 0, ..base.clone() },
            MobiCealConfig { pbkdf2_iterations: 0, ..base.clone() },
            MobiCealConfig { metadata_blocks: 2, ..base.clone() },
            MobiCealConfig { crypt_parallelism: Some((0, 8)), ..base.clone() },
            MobiCealConfig { crypt_parallelism: Some((4, 1)), ..base.clone() },
        ];
        for c in cases {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn crypt_parallelism_round_trips() {
        // The knob defaults off, survives struct-update round-trips, and
        // validates when set to a sane worker count.
        assert_eq!(MobiCealConfig::default().crypt_parallelism, None);
        let c = MobiCealConfig { crypt_parallelism: Some((4, 8)), ..Default::default() };
        c.validate().unwrap();
        let copy = MobiCealConfig { ..c.clone() };
        assert_eq!(copy, c);
        assert_eq!(copy.crypt_parallelism, Some((4, 8)));
        // Forcing the sequential path is a valid explicit configuration.
        MobiCealConfig { crypt_parallelism: Some((1, 2)), ..Default::default() }
            .validate()
            .unwrap();
    }
}
