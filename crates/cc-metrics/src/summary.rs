//! Streaming summary statistics with exact percentiles.

/// A sample-retaining summary of a stream of `f64` observations.
///
/// Tracks count, sum, min and max online, and keeps every sample so
/// percentiles are exact (nearest-rank), which matters for reproducing
/// the paper's p75/max rows. Keeping every sample costs 8 bytes each, so
/// per-invocation aggregates use [`ServiceStats`](crate::ServiceStats)'
/// sums instead, and [`P2Quantile`](crate::P2Quantile) where a quantile
/// must be estimated in constant memory.
///
/// # Example
///
/// ```
/// use cc_metrics::Summary;
///
/// let mut s: Summary = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.percentile(75.0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sum: f64,
    min: f64,
    max: f64,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            samples: Vec::new(),
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sorted: true,
        }
    }

    /// Records one observation.
    ///
    /// Non-finite observations are ignored (they would poison every derived
    /// statistic); callers that care should validate upstream.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if let Some(&last) = self.samples.last() {
            if value < last {
                self.sorted = false;
            }
        }
        self.samples.push(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (!self.samples.is_empty()).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (!self.samples.is_empty()).then_some(self.max)
    }

    /// Nearest-rank percentile on the **0–100 scale** (`p ∈ [0, 100]`) of
    /// the recorded samples. [`Cdf::quantile`](crate::Cdf::quantile) is
    /// the same statistic on the 0–1 scale: `percentile(p)` agrees with
    /// `quantile(p / 100.0)` over the same samples; don't mix the scales
    /// when building gap or latency tables.
    ///
    /// Returns `0.0` if empty. Requires `&mut self` because it sorts the
    /// retained samples lazily; repeated calls are cheap.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or NaN.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        // Nearest-rank: ceil(p/100 * n), 1-based.
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Summary {
        let mut s = Summary::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_safe() {
        let mut s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn basic_statistics() {
        let mut s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.percentile(100.0), 9.0);
        assert_eq!(s.percentile(0.0), 2.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut s: Summary = (1..=10).map(|v| v as f64).collect();
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(75.0), 8.0);
        assert_eq!(s.percentile(90.0), 9.0);
        assert_eq!(s.percentile(91.0), 10.0);
    }

    #[test]
    fn ignores_non_finite() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn rejects_out_of_range_percentile() {
        let mut s: Summary = [1.0].into_iter().collect();
        let _ = s.percentile(101.0);
    }

    proptest! {
        #[test]
        fn percentile_is_monotone(mut values in prop::collection::vec(0.0f64..1e6, 1..200)) {
            let mut s: Summary = values.drain(..).collect();
            let p25 = s.percentile(25.0);
            let p50 = s.percentile(50.0);
            let p75 = s.percentile(75.0);
            prop_assert!(p25 <= p50 && p50 <= p75);
            prop_assert!(s.min().unwrap() <= p25);
            prop_assert!(p75 <= s.max().unwrap());
        }

        #[test]
        fn mean_is_bounded(values in prop::collection::vec(-1e9f64..1e9, 1..200)) {
            let s: Summary = values.iter().copied().collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(s.mean() >= lo - 1e-6 && s.mean() <= hi + 1e-6);
        }
    }
}
