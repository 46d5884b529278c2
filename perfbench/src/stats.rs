//! Sample summaries: medians, and the tail percentile a sample set can
//! actually support.

/// Percentiles the benchmark may report as a timing's tail, highest
/// first, in hundredths of a percent so ranks are exact integers.
const TAIL_LADDER: [u64; 6] = [9999, 9990, 9900, 9500, 9000, 7500];

/// A timing reported as its median plus the highest percentile that has at
/// least [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Debug)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    /// `(percentile, value)`; `None` when the sample set is too small for
    /// any percentile on the ladder.
    pub tail: Option<(f64, f64)>,
    /// The samples in measurement order.
    pub values: Vec<f64>,
}

/// A tail percentile is only reported when this many samples lie beyond
/// it; fewer makes the figure one or two unlucky samples.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the percentile `bp / 100` among `n >= 1`
/// samples.
fn nearest_rank(bp: u64, n: usize) -> usize {
    let rank = (bp * n as u64).div_ceil(10_000) as usize;
    rank.clamp(1, n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond its nearest rank.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&bp| n - nearest_rank(bp, n) >= MIN_BEYOND)
        .map(|bp| bp as f64 / 100.0)
}

/// Nearest-rank percentile `p` (in percent) of an ascending, non-empty
/// slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let bp = (p * 100.0).round() as u64;
    sorted[nearest_rank(bp, sorted.len()) - 1]
}

/// Median of a non-empty sample set (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Summarise a non-empty sample set.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        samples: sorted.len(),
        median: median(&sorted),
        tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        values: values.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // p50 is not on the ladder; p75 of 40 has 10 beyond.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn tail_has_exactly_the_promised_samples_beyond() {
        for n in [40, 100, 999, 1000, 1234, 10_000, 20_000] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = summarize(&values);
            let (_, v) = s.tail.expect("large enough");
            let beyond = values.iter().filter(|&&x| x > v).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }
}
