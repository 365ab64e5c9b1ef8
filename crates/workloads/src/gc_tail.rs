//! The `gc_tail` workload: foreground write tail latency under GC
//! pressure, re-verifying hidden mode per pass vs once per session.
//!
//! The paper's GC (§IV-D) reclaims dummy-write space, and the seed
//! implementation ran it inline: the unlucky foreground write that lands
//! behind a reclamation pass waits for every discard plus the metadata
//! commit. This workload measures exactly that tail with an **open-loop
//! arrival model**: writes arrive on a fixed simulated-time schedule
//! (`arrival_interval_ns`), so a stall does not slow the arrival process —
//! it piles queueing delay onto every write issued while the stall drains,
//! exactly how tail latency behaves on a real phone.
//!
//! Latency accounting keeps a **virtual busy cursor**: the simulated
//! clock only measures durations (it advances whenever work runs,
//! regardless of the schedule), so the workload replays each piece of
//! work onto the arrival timeline itself. Work released at time `r` with
//! measured duration `d` starts at `max(busy_until, r)` and advances
//! `busy_until` by `d`; a write's latency is its completion minus its
//! arrival. A GC pass is released at the arrival of the write it
//! precedes — it cannot retroactively run in idle time the schedule
//! already left behind, which is exactly why a pass stalls the writes
//! behind it.
//!
//! Two variants over identical traffic and identical GC victim plans,
//! both running every pass inline between two arrivals:
//!
//! - [`GcTailWorkload::run_inline`]: the seed path — every pass re-proves
//!   hidden mode with a full PBKDF2 unlock.
//! - [`GcTailWorkload::run_session`]: hidden mode is proven **once** in a
//!   [`mobiceal::GcSession`] before the measured phase, so a pass costs
//!   only its in-memory victim sampling, discards and commit.

use mobiceal::{MobiCeal, MobiCealConfig, MobiCealError};
use mobiceal_blockdev::{BlockDevice, MemDisk, SharedDevice};
use mobiceal_sim::SimClock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Parameters of one tail-latency run.
#[derive(Debug, Clone, Copy)]
pub struct GcTailWorkload {
    /// Foreground writes in the measured phase.
    pub foreground_writes: usize,
    /// Open-loop arrival interval in simulated nanoseconds.
    pub arrival_interval_ns: u64,
    /// A GC pass triggers every this many foreground writes.
    pub gc_every: usize,
    /// Public-volume blocks written before measuring, to accrue the dummy
    /// traffic GC reclaims.
    pub warmup_blocks: u64,
    /// Disk size in 4 KiB blocks.
    pub disk_blocks: u64,
    /// RNG seed for device initialization and the GC victim sampler.
    pub seed: u64,
}

impl Default for GcTailWorkload {
    fn default() -> Self {
        GcTailWorkload {
            foreground_writes: 400,
            // 1 ms between arrivals: comfortably above the per-write
            // service time, so the baseline keeps up with the schedule and
            // the tail isolates the GC stalls rather than open-loop
            // saturation.
            arrival_interval_ns: 1_000_000,
            gc_every: 100,
            warmup_blocks: 600,
            disk_blocks: 16384,
            seed: 17,
        }
    }
}

/// Tail-latency distribution of one run's foreground writes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcTailResult {
    /// Foreground writes measured.
    pub writes: usize,
    /// GC passes triggered during the measured phase.
    pub gc_passes: usize,
    /// Blocks the passes reclaimed in total.
    pub blocks_reclaimed: u64,
    /// Median foreground write latency (simulated ns).
    pub p50_ns: u64,
    /// 99th-percentile foreground write latency (simulated ns).
    pub p99_ns: u64,
    /// Worst foreground write latency (simulated ns).
    pub max_ns: u64,
    /// Mean foreground write latency (simulated ns).
    pub mean_ns: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn summarize(mut latencies: Vec<u64>, gc_passes: usize, blocks_reclaimed: u64) -> GcTailResult {
    latencies.sort_unstable();
    let n = latencies.len();
    let mean = latencies.iter().sum::<u64>() as f64 / n.max(1) as f64;
    GcTailResult {
        writes: n,
        gc_passes,
        blocks_reclaimed,
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        max_ns: *latencies.last().unwrap_or(&0),
        mean_ns: mean,
    }
}

impl GcTailWorkload {
    fn config(&self) -> MobiCealConfig {
        MobiCealConfig {
            num_volumes: 5,
            pbkdf2_iterations: 4,
            metadata_blocks: 128,
            ..MobiCealConfig::default()
        }
    }

    /// Builds the device, runs the warmup traffic (accruing the dummy
    /// blocks GC will reclaim) and commits, so the measured phase starts
    /// from identical on-disk state in both variants.
    fn setup(&self) -> Result<(SimClock, MobiCeal, mobiceal::UnlockedVolume), MobiCealError> {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(self.disk_blocks, 4096, clock.clone()));
        let mc = MobiCeal::initialize(
            disk as SharedDevice,
            clock.clone(),
            self.config(),
            "decoy",
            &["hidden-a"],
            self.seed,
        )?;
        let public = mc.unlock_public("decoy")?;
        let data = vec![0x5C; 4096];
        for b in 0..self.warmup_blocks {
            public.write_block(b, &data)?;
        }
        mc.commit()?;
        Ok((clock, mc, public))
    }

    /// The measured phase, parameterized over what happens at a GC
    /// trigger (`on_gc`, given the pass number and returning the pass's
    /// reclaimed block count). Summarizes the per-write latencies under
    /// the open-loop schedule.
    fn drive<G>(
        &self,
        clock: &SimClock,
        public: &mobiceal::UnlockedVolume,
        mut on_gc: G,
    ) -> Result<GcTailResult, MobiCealError>
    where
        G: FnMut(usize) -> Result<u64, MobiCealError>,
    {
        let data = vec![0x9E; 4096];
        let base = self.warmup_blocks;
        let t0 = clock.now().as_nanos();
        let mut busy_until = t0;
        let mut latencies = Vec::with_capacity(self.foreground_writes);
        let mut passes = 0usize;
        let mut reclaimed = 0u64;
        // Measures one piece of work on the simulated clock and replays it
        // onto the virtual timeline at release time `r`.
        let replay = |busy_until: &mut u64, r: u64, d: u64| {
            *busy_until = (*busy_until).max(r) + d;
            *busy_until
        };
        for i in 0..self.foreground_writes {
            let arrival = t0 + i as u64 * self.arrival_interval_ns;
            if i > 0 && i % self.gc_every == 0 {
                let before = clock.now().as_nanos();
                reclaimed += on_gc(passes)?;
                passes += 1;
                replay(&mut busy_until, arrival, clock.now().as_nanos() - before);
            }
            let before = clock.now().as_nanos();
            public.write_block(base + i as u64, &data)?;
            let completion = replay(&mut busy_until, arrival, clock.now().as_nanos() - before);
            latencies.push(completion - arrival);
        }
        Ok(summarize(latencies, passes, reclaimed))
    }

    /// The seed path: each GC pass re-verifies hidden mode (a full PBKDF2
    /// unlock) and runs inline between two arrivals; the next writes
    /// absorb the full stall.
    ///
    /// # Errors
    ///
    /// Device initialization/unlock/GC errors.
    pub fn run_inline(&self) -> Result<GcTailResult, MobiCealError> {
        let (clock, mc, public) = self.setup()?;
        self.drive(&clock, &public, |pass| {
            let report = mc.garbage_collect(&["hidden-a"], self.seed + pass as u64)?;
            Ok(report.blocks_reclaimed)
        })
    }

    /// Hidden mode is proven **once** before the measured phase (a
    /// [`mobiceal::GcSession`] — on a real phone the hidden unlock already
    /// happened when GC was enabled), and each GC trigger runs an inline
    /// pass on that session: in-memory victim sampling, the discards and
    /// the commit. Victim plans are identical to [`Self::run_inline`]'s.
    ///
    /// # Errors
    ///
    /// Device initialization/unlock/GC errors.
    pub fn run_session(&self) -> Result<GcTailResult, MobiCealError> {
        let (clock, mc, public) = self.setup()?;
        // Verification charges its PBKDF2 cost here, before the arrival
        // schedule starts — the measured passes reuse the proof.
        let session = mc.begin_gc_session(&["hidden-a"])?;
        self.drive(&clock, &public, |pass| {
            let report = mc.garbage_collect_in_session(&session, self.seed + pass as u64)?;
            Ok(report.blocks_reclaimed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> GcTailWorkload {
        GcTailWorkload {
            foreground_writes: 200,
            gc_every: 50,
            warmup_blocks: 400,
            disk_blocks: 8192,
            ..GcTailWorkload::default()
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = quick();
        assert_eq!(w.run_inline().unwrap(), w.run_inline().unwrap());
        assert_eq!(w.run_session().unwrap(), w.run_session().unwrap());
    }

    #[test]
    fn both_variants_reclaim_the_same_blocks() {
        // The session moves the verification cost, never the decisions:
        // over a whole run both variants see identical device history and
        // seeds, so they reclaim exactly the same number of blocks.
        let w = quick();
        let inline = w.run_inline().unwrap();
        let session = w.run_session().unwrap();
        assert!(inline.gc_passes >= 3, "{inline:?}");
        assert_eq!(session.gc_passes, inline.gc_passes);
        assert!(inline.blocks_reclaimed > 0);
        assert_eq!(session.blocks_reclaimed, inline.blocks_reclaimed);
    }

    #[test]
    fn session_cuts_foreground_p99_by_10x() {
        // Verifying hidden mode once per session instead of once per pass
        // must drop the foreground write p99 by at least an order of
        // magnitude on identical traffic.
        let w = quick();
        let inline = w.run_inline().unwrap();
        let session = w.run_session().unwrap();
        assert!(
            inline.p99_ns >= session.p99_ns.max(1) * 10,
            "p99 inline {} ns vs session {} ns",
            inline.p99_ns,
            session.p99_ns
        );
        assert!(inline.max_ns > session.max_ns, "worst stall must shrink too");
    }
}
