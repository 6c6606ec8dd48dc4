//! Summary statistics: the median plus the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it, and the sum of per-step
//! minima over repeated runs of the same steps.

/// Samples a reported tail percentile needs strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// Median, supported tail percentile and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// `(q, value)` of the highest supported tail percentile, if any.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether quantile `q` of `n` samples leaves at least [`MIN_BEYOND`]
/// samples strictly above its rank.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// The highest candidate tail percentile `n` samples support.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&q| supports(n, q))
}

/// Nearest-rank quantile of ascending `sorted` samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of `xs` (NaN-free); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Summarizes `xs` by the median-plus-supported-tail rule.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let tail = tail_quantile(s.len()).map(|q| (q, quantile_sorted(&s, q)));
    Summary {
        median: median(&s),
        tail,
        n: s.len(),
    }
}

/// Quantile `q` of `xs` when the sample supports it (at least
/// [`MIN_BEYOND`] samples beyond), else `None`.
pub fn supported_quantile(xs: &[f64], q: f64) -> Option<f64> {
    if !supports(xs.len(), q) {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(quantile_sorted(&s, q))
}

/// Nearest-rank quantile `q` of `xs` from below, when at least
/// [`MIN_BEYOND`] samples lie strictly below its rank; else `None`.
pub fn supported_low_quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || rank(xs.len(), q) <= MIN_BEYOND {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(quantile_sorted(&s, q))
}

/// Sum over positions of the smallest value at that position across
/// `runs`: the time of a run in which every step took its fastest time.
/// `None` when there are no runs or their lengths differ.
pub fn sum_of_minima(runs: &[Vec<f64>]) -> Option<f64> {
    let (first, rest) = runs.split_first()?;
    if rest.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    let sum = (0..first.len())
        .map(|i| rest.iter().map(|r| r[i]).fold(first[i], f64::min))
        .sum();
    Some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_quantile_needs_ten_samples_below() {
        let xs: Vec<f64> = (1..=1100).rev().map(f64::from).collect();
        // 1100 samples: rank 11 for p1, ten below it.
        assert_eq!(supported_low_quantile(&xs, 0.01), Some(11.0));
        assert_eq!(supported_low_quantile(&xs[..1000], 0.01), None);
        assert_eq!(supported_low_quantile(&[], 0.01), None);
    }

    #[test]
    fn sum_of_minima_takes_each_position_at_its_fastest() {
        let runs = vec![
            vec![1.0, 5.0, 2.0],
            vec![3.0, 4.0, 2.5],
            vec![2.0, 6.0, 0.5],
        ];
        assert_eq!(sum_of_minima(&runs), Some(1.0 + 4.0 + 0.5));
        assert_eq!(sum_of_minima(&runs[..1]), Some(8.0));
        assert_eq!(sum_of_minima(&[]), None);
        assert_eq!(sum_of_minima(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, ten beyond it.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn nearest_rank_quantile_and_summary() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&xs, 0.99), 990.0);
        assert_eq!(quantile_sorted(&xs, 0.5), 500.0);
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 1000.0);
        let s = summarize(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(supported_quantile(&xs, 0.99), Some(990.0));
        assert_eq!(supported_quantile(&xs[..500], 0.99), None);
    }

    #[test]
    fn small_samples_report_only_the_median() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.tail, None);
        assert_eq!(s.n, 3);
    }
}
