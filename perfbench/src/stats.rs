//! Order statistics for latency samples.

/// A tail percentile together with the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a fraction (0.99 for p99).
    pub quantile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub count: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Minimum samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile, capped at `cap`, that has at least
/// [`TAIL_SUPPORT`] samples beyond it (nearest rank). With 1000 or more
/// samples and `cap = 0.99` this is p99; with fewer it falls back to the
/// highest percentile the sample supports. `None` when fewer than
/// `TAIL_SUPPORT + 1` samples exist.
pub fn tail(samples: &[f64], cap: f64) -> Option<Tail> {
    let count = samples.len();
    if count <= TAIL_SUPPORT {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest-rank index of `cap`, pulled down until ten samples follow.
    let capped = ((cap * count as f64).ceil() as usize).clamp(1, count) - 1;
    let index = capped.min(count - 1 - TAIL_SUPPORT);
    Some(Tail {
        quantile: (index + 1) as f64 / count as f64,
        value: sorted[index],
        count,
        beyond: count - 1 - index,
    })
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper has to sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn p99_with_enough_samples_has_ten_beyond() {
        let t = tail(&ramp(1000), 0.99).expect("tail");
        assert_eq!(t.count, 1000);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 989.0);
        assert!((t.quantile - 0.99).abs() < 1e-12);
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_supported_percentile() {
        let t = tail(&ramp(500), 0.99).expect("tail");
        assert_eq!(t.beyond, TAIL_SUPPORT);
        assert_eq!(t.value, 489.0);
        assert!((t.quantile - 0.98).abs() < 1e-12);
        // Any higher rank would leave fewer than ten samples beyond.
        let t = tail(&ramp(11), 0.99).expect("tail");
        assert_eq!((t.value, t.beyond), (0.0, 10));
        assert!(tail(&ramp(10), 0.99).is_none());
    }

    #[test]
    fn large_samples_keep_the_cap() {
        let t = tail(&ramp(10_000), 0.99).expect("tail");
        assert_eq!(t.value, 9899.0);
        assert_eq!(t.beyond, 100);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
