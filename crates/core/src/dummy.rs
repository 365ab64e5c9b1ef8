//! The dummy-write mechanism (§IV-B, §V-A).
//!
//! Every public write that allocates a fresh block consults the
//! [`DummyWriter`]:
//!
//! 1. **Trigger**: fire iff `rand ≤ stored_rand mod x`, where `rand` is
//!    uniform in `[1, 2x]` — so the trigger probability is always below
//!    50 % and, because `stored_rand` is secret and periodically refreshed,
//!    the adversary cannot learn the trigger pattern.
//! 2. **Burst size**: `m = round(-ln(1-f)/λ)` with `f ~ U(0,1)` —
//!    exponentially distributed with a wide variance, which is what makes
//!    large hidden writes deniable. Rounding keeps the paper's stated mean
//!    ("each dummy write will be allocated one free block on average" for
//!    λ = 1: `E[round(Exp(1))] ≈ 0.96`); a burst that rounds to zero
//!    simply writes nothing.
//! 3. **Target volume**: `j = (stored_rand mod (n-1)) + 2` — a pseudorandom
//!    dummy/hidden-indexed volume (§IV-C).
//! 4. **Payload**: CSPRNG noise, indistinguishable from the dm-crypt
//!    ciphertext of real data without a key.
//!
//! `stored_rand` refreshes at most once per [`refresh_interval`] and only
//! when a write happens — mirroring the prototype, which samples `jiffies`
//! on the write path (§V-A).
//!
//! [`refresh_interval`]: DummyWriter::new

use mobiceal_crypto::ChaCha20Rng;
use mobiceal_sim::{SimClock, SimDuration, SimInstant};

/// Counters describing dummy-write activity, used by experiments to account
/// for overhead and by the deniability analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DummyStats {
    /// Public allocations that consulted the trigger.
    pub trigger_checks: u64,
    /// Trigger checks that fired a burst.
    pub bursts: u64,
    /// Total dummy blocks written.
    pub blocks_written: u64,
    /// Bursts cut short or refused because the pool or the target volume
    /// was full (or the append failed). It counts bursts, not blocks: a
    /// burst that lost any of its blocks counts 1, however many it lost.
    pub blocks_dropped: u64,
    /// Times `stored_rand` was refreshed.
    pub refreshes: u64,
}

/// The dummy-write decision engine. One instance lives inside each
/// [`crate::MobiCeal`] device.
pub struct DummyWriter {
    rng: ChaCha20Rng,
    clock: SimClock,
    x: u32,
    lambda: f64,
    num_volumes: u32,
    refresh_interval: SimDuration,
    stored_rand: u64,
    last_refresh: SimInstant,
    stats: DummyStats,
}

impl std::fmt::Debug for DummyWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DummyWriter")
            .field("x", &self.x)
            .field("lambda", &self.lambda)
            .field("num_volumes", &self.num_volumes)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// A burst of dummy writes to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DummyBurst {
    /// Number of noise blocks to write.
    pub blocks: u64,
    /// The volume index `j` receiving the noise.
    pub target_volume: u32,
}

impl DummyWriter {
    /// Creates a dummy writer.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0`, `lambda <= 0` or `num_volumes < 3`.
    pub fn new(
        mut rng: ChaCha20Rng,
        clock: SimClock,
        x: u32,
        lambda: f64,
        num_volumes: u32,
        refresh_interval: SimDuration,
    ) -> Self {
        assert!(x > 0, "x must be positive");
        assert!(lambda > 0.0, "lambda must be positive");
        assert!(num_volumes >= 3, "need at least 3 volumes");
        let stored_rand = rng.next_u64();
        let last_refresh = clock.now();
        DummyWriter {
            rng,
            clock,
            x,
            lambda,
            num_volumes,
            refresh_interval,
            stored_rand,
            last_refresh,
            stats: DummyStats::default(),
        }
    }

    /// Consults the trigger for one public allocation. Returns the burst to
    /// perform, if any. Also refreshes `stored_rand` when it is stale
    /// (write-driven refresh, §V-A).
    pub fn on_public_allocation(&mut self) -> Option<DummyBurst> {
        self.stats.trigger_checks += 1;
        let now = self.clock.now();
        if now.duration_since(self.last_refresh) >= self.refresh_interval {
            self.stored_rand = self.rng.next_u64();
            self.last_refresh = now;
            self.stats.refreshes += 1;
        }
        // rand uniform in [1, 2x]; fire iff rand <= stored_rand mod x.
        let rand = self.rng.next_range(1, 2 * self.x as u64);
        let threshold = self.stored_rand % self.x as u64;
        if rand > threshold {
            return None;
        }
        self.stats.bursts += 1;
        let blocks = self.sample_burst_size();
        let target_volume = ((self.stored_rand % (self.num_volumes as u64 - 1)) + 2) as u32;
        Some(DummyBurst { blocks, target_volume })
    }

    /// Samples `m = round(-ln(1-f)/λ)` (may be zero).
    fn sample_burst_size(&mut self) -> u64 {
        let f = self.rng.next_f64(); // in [0, 1)
        let m = -(1.0 - f).ln() / self.lambda;
        m.round() as u64
    }

    /// Generates a whole burst of noise in one call: `count` blocks of
    /// `block_size` bytes, back to back in one buffer (slice it with
    /// `chunks_exact(block_size)`). The caller takes the writer lock once
    /// per burst instead of once per block, and the CSPRNG fills the burst
    /// in one draw, so its wide keystream path covers all of it.
    pub fn noise_blocks(&mut self, block_size: usize, count: u64) -> Vec<u8> {
        let mut buf = vec![0u8; block_size * count as usize];
        self.rng.fill_bytes(&mut buf);
        buf
    }

    /// Records that `written` noise blocks landed and `dropped` bursts were
    /// cut short or refused (see [`DummyStats::blocks_dropped`]).
    pub fn record_outcome(&mut self, written: u64, dropped: u64) {
        self.stats.blocks_written += written;
        self.stats.blocks_dropped += dropped;
    }

    /// Activity counters so far.
    pub fn stats(&self) -> DummyStats {
        self.stats
    }

    /// The current (secret) `stored_rand`; exposed for white-box tests and
    /// the security-game simulator, never to the adversary.
    pub fn stored_rand(&self) -> u64 {
        self.stored_rand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writer(seed: u64, x: u32, lambda: f64, n: u32) -> (DummyWriter, SimClock) {
        let clock = SimClock::new();
        let w = DummyWriter::new(
            ChaCha20Rng::from_u64_seed(seed),
            clock.clone(),
            x,
            lambda,
            n,
            SimDuration::from_secs(3600),
        );
        (w, clock)
    }

    #[test]
    fn trigger_rate_stays_below_half() {
        // Across many stored_rand regimes (forced refreshes), the overall
        // trigger rate must stay below 50 %.
        let (mut w, clock) = writer(1, 50, 1.0, 6);
        let mut fired = 0u64;
        let total = 20_000u64;
        for i in 0..total {
            if i % 100 == 0 {
                clock.advance(SimDuration::from_secs(3600)); // force refresh
            }
            if w.on_public_allocation().is_some() {
                fired += 1;
            }
        }
        let rate = fired as f64 / total as f64;
        assert!(rate < 0.5, "trigger rate {rate}");
        assert!(rate > 0.05, "trigger should fire sometimes, rate {rate}");
    }

    #[test]
    fn trigger_rate_approximates_quarter_on_average() {
        // threshold = stored_rand mod x is ~U[0,x); rand ~U[1,2x];
        // P(fire) = E[threshold]/2x ≈ 1/4 on average over regimes.
        let (mut w, clock) = writer(2, 50, 1.0, 6);
        let mut fired = 0u64;
        let total = 40_000u64;
        for i in 0..total {
            if i % 50 == 0 {
                clock.advance(SimDuration::from_secs(3600));
            }
            if w.on_public_allocation().is_some() {
                fired += 1;
            }
        }
        let rate = fired as f64 / total as f64;
        assert!((0.17..0.33).contains(&rate), "average rate {rate} should be near 1/4");
    }

    #[test]
    fn burst_sizes_follow_exponential_shape() {
        let (mut w, _clock) = writer(3, 50, 1.0, 6);
        let samples: Vec<u64> = (0..20_000).map(|_| w.sample_burst_size()).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // round(Exp(1)) has mean e^{-1/2}/(1-e^{-1}) ≈ 0.96 — the paper's
        // "one free block on average" for λ = 1.
        assert!((0.85..1.1).contains(&mean), "mean burst {mean}");
        let max = *samples.iter().max().unwrap();
        assert!(max >= 6, "wide variance expected, max {max}");
        let zeros = samples.iter().filter(|&&m| m == 0).count();
        assert!(zeros > 0, "some bursts legitimately round to zero");
    }

    #[test]
    fn larger_lambda_means_smaller_bursts() {
        let (mut w1, _) = writer(4, 50, 0.5, 6);
        let (mut w2, _) = writer(4, 50, 4.0, 6);
        let mean = |w: &mut DummyWriter| {
            (0..5000).map(|_| w.sample_burst_size()).sum::<u64>() as f64 / 5000.0
        };
        assert!(mean(&mut w1) > mean(&mut w2));
    }

    #[test]
    fn target_volume_in_dummy_range_and_stable_per_regime() {
        let (mut w, _clock) = writer(5, 50, 1.0, 8);
        let mut targets = std::collections::HashSet::new();
        for _ in 0..2000 {
            if let Some(b) = w.on_public_allocation() {
                assert!((2..=8).contains(&b.target_volume));
                targets.insert(b.target_volume);
            }
        }
        // Within one stored_rand regime the target is fixed (j depends only
        // on stored_rand).
        assert_eq!(targets.len(), 1, "one regime, one target: {targets:?}");
    }

    #[test]
    fn target_volume_varies_across_regimes() {
        let (mut w, clock) = writer(6, 50, 1.0, 8);
        let mut targets = std::collections::HashSet::new();
        for _ in 0..200 {
            clock.advance(SimDuration::from_secs(3600));
            for _ in 0..50 {
                if let Some(b) = w.on_public_allocation() {
                    targets.insert(b.target_volume);
                }
            }
        }
        assert!(targets.len() > 1, "targets should move across regimes: {targets:?}");
    }

    #[test]
    fn stored_rand_refreshes_on_schedule_only() {
        let (mut w, clock) = writer(7, 50, 1.0, 6);
        let initial = w.stored_rand();
        for _ in 0..100 {
            w.on_public_allocation();
        }
        assert_eq!(w.stored_rand(), initial, "no refresh before the interval");
        clock.advance(SimDuration::from_secs(3601));
        w.on_public_allocation();
        assert_ne!(w.stored_rand(), initial, "refresh after the interval");
        assert_eq!(w.stats().refreshes, 1);
    }

    #[test]
    fn noise_blocks_are_high_entropy_and_distinct() {
        let (mut w, _clock) = writer(8, 50, 1.0, 6);
        let noise = w.noise_blocks(4096, 2);
        assert_eq!(noise.len(), 2 * 4096);
        let (a, b) = noise.split_at(4096);
        assert_ne!(a, b);
        let mut hist = [0u32; 256];
        for &byte in a {
            hist[byte as usize] += 1;
        }
        assert!(hist.iter().filter(|&&c| c > 0).count() > 200, "noise uses most byte values");
    }

    #[test]
    fn stats_accumulate() {
        let (mut w, _clock) = writer(9, 50, 1.0, 6);
        for _ in 0..100 {
            if let Some(b) = w.on_public_allocation() {
                w.record_outcome(b.blocks, 0);
            }
        }
        let s = w.stats();
        assert_eq!(s.trigger_checks, 100);
        assert!(s.bursts <= 100);
    }

    #[test]
    #[should_panic(expected = "x must be positive")]
    fn zero_x_panics() {
        let clock = SimClock::new();
        let _ = DummyWriter::new(
            ChaCha20Rng::from_u64_seed(0),
            clock,
            0,
            1.0,
            6,
            SimDuration::from_secs(1),
        );
    }
}
