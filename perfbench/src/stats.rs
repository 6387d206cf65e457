//! Order statistics for host-time samples.

/// Percentiles the benchmark may report as a tail, highest first.
pub const TAIL_CANDIDATES: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples: the smallest rank whose share of samples reaches `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // Integer arithmetic in tenths of a percent keeps ranks exact:
    // ceil(p/100 * n) computed in floating point rounds 0.9 * 160 up.
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(1, 50.0), 1);
        assert_eq!(nearest_rank(10, 50.0), 5);
        assert_eq!(nearest_rank(10, 90.0), 9);
        assert_eq!(nearest_rank(10, 100.0), 10);
        assert_eq!(nearest_rank(160, 90.0), 144);
        assert_eq!(nearest_rank(160, 50.0), 80);
        assert_eq!(nearest_rank(161, 90.0), 145);
        assert_eq!(nearest_rank(1000, 99.0), 990);
        assert_eq!(nearest_rank(3, 1.0), 1);
    }

    #[test]
    fn percentile_reads_the_ranked_sample() {
        let v: Vec<f64> = (1..=160).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 80.0);
        assert_eq!(percentile(&v, 90.0), 144.0);
        assert_eq!(percentile(&v, 100.0), 160.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 160 cells: p90 leaves 16 beyond, p99 only 1.
        assert_eq!(samples_beyond(160, 90.0), 16);
        assert_eq!(tail_percentile(160), Some(90.0));
        // p99 needs 1000 samples for 10 beyond.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        // p90 needs 100 samples; below that only the median qualifies.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
