//! Order statistics used by every report: medians of repeated measurements
//! and nearest-rank latency percentiles.

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN, both bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in measurements"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products such as 99.9% of 10 000 from rounding up
    // past the exact rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`MIN_TAIL`] samples must lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_TAIL
}

/// The highest of `candidates` that `n` samples support, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| supports(n, p))
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 990.0);
        assert_eq!(percentile(&w, 99.9), 999.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn highest_supported_keeps_ten_samples_beyond() {
        let ps = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(10, &ps), None);
        assert_eq!(highest_supported(20, &ps), Some(50.0));
        assert_eq!(highest_supported(100, &ps), Some(90.0));
        assert_eq!(highest_supported(5_000, &ps), Some(99.0));
        assert_eq!(highest_supported(10_000, &ps), Some(99.9));
    }
}
