//! Order statistics: tail percentiles reported with their sample support,
//! and the quartiles the regression-bound rule is derived from.

/// The percentiles [`supported_tail`] considers, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported as a
/// tail: fewer than this and the value is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the support behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: u64,
    /// Samples in the whole set.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `pct` (0 < pct <= 100) of an ascending slice;
/// 0 for an empty slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// One-based nearest rank of percentile `pct` in a sample of `n`.
fn rank(n: usize, pct: f64) -> usize {
    ((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n)
}

/// [`percentile`] packaged with its support.
pub fn tail(sorted: &[u64], pct: f64) -> Tail {
    let beyond = if sorted.is_empty() { 0 } else { sorted.len() - rank(sorted.len(), pct) };
    Tail { pct, value: percentile(sorted, pct), samples: sorted.len(), beyond }
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or the median when even that has less support.
pub fn supported_tail(sorted: &[u64]) -> Tail {
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&pct| tail(sorted, pct))
        .find(|t| t.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| tail(sorted, 50.0))
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) does. Needs at least two values; a single value is returned as
/// all three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    match len {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Median of `values` (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// metric's regression bound must exceed.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The regression bound for a metric with relative spread `rel_iqr`:
/// three times the spread, so the spread stays within a third of the
/// bound, never below 5 % and never above the 25 % a bound may take.
pub fn bound_for_spread(rel_iqr: f64) -> f64 {
    (3.0 * rel_iqr).clamp(0.05, 0.25)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_reports_support() {
        let v: Vec<u64> = (1..=1000).collect();
        let t = tail(&v, 99.0);
        assert_eq!((t.value, t.samples, t.beyond), (990, 1000, 10));
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_tail(&v).pct, 99.0);
        // 100 samples: p90 leaves 10, p99 only 1.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(supported_tail(&v).pct, 90.0);
        // 10 000 samples reach p99.9.
        let v: Vec<u64> = (1..=10_000).collect();
        let t = supported_tail(&v);
        assert_eq!((t.pct, t.beyond), (99.9, 10));
        // Too few samples for any tail: the median comes back.
        assert_eq!(supported_tail(&[1, 2, 3]).pct, 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn relative_iqr_and_bound_rule() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[4.0; 10]), 0.0);
        assert_eq!(bound_for_spread(0.0), 0.05);
        assert!((bound_for_spread(0.03) - 0.09).abs() < 1e-12);
        assert_eq!(bound_for_spread(0.5), 0.25);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
