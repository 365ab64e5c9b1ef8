//! Shared plumbing for the experiment benches.
//!
//! Each `benches/*.rs` target regenerates one table or figure from the
//! paper (see the experiment index at the top of `EXPERIMENTS.md`). This
//! library holds the pieces they share: repeated-run statistics and
//! result formatting helpers.

#![forbid(unsafe_code)]

use mobiceal_sim::RunningStat;

/// Runs `f` `repeats` times (the paper repeats every measurement 10×) and
/// returns mean/σ statistics of its f64 output.
pub fn repeat_stat(repeats: u32, mut f: impl FnMut(u32) -> f64) -> RunningStat {
    let mut stat = RunningStat::new();
    for i in 0..repeats {
        stat.push(f(i));
    }
    stat
}

/// Formats a mean±σ pair the way Table II prints them.
pub fn mean_sigma(stat: &RunningStat) -> String {
    format!("{:.2}±{:.2}", stat.mean(), stat.sample_std_dev())
}

/// Formats seconds as `XminYs` / `X.XXs` like the paper's Table II.
pub fn human_secs(secs: f64) -> String {
    if secs >= 60.0 {
        format!("{}min{:.0}s", (secs / 60.0) as u64, secs % 60.0)
    } else {
        format!("{secs:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_stat_counts() {
        let s = repeat_stat(10, |i| i as f64);
        assert_eq!(s.count(), 10);
        assert!((s.mean() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn formatting() {
        assert_eq!(human_secs(9.27), "9.27s");
        assert_eq!(human_secs(136.0), "2min16s");
        let s = repeat_stat(3, |_| 2.0);
        assert_eq!(mean_sigma(&s), "2.00±0.00");
    }
}
