//! Exact percentiles over retained samples.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A set of retained samples supporting exact quantile queries.
///
/// Percentiles use the linear-interpolation definition (type 7 in the
/// Hyndman–Fan taxonomy, the default of R and NumPy): for `n` sorted samples
/// the `q`-quantile sits at rank `q · (n − 1)` with linear interpolation
/// between neighbors.
///
/// # Examples
///
/// ```
/// use nfv_metrics::SampleSet;
/// let mut s = SampleSet::new();
/// s.extend([4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(s.percentile(0.5), 2.5);
/// assert_eq!(s.percentile(1.0), 4.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SampleSet {
    /// Samples in insertion order (the order matters for batch means).
    samples: Vec<f64>,
    /// Sorted copy, built lazily for quantile queries and invalidated on
    /// push.
    #[serde(skip)]
    sorted: Option<Vec<f64>>,
}

impl SampleSet {
    /// Creates an empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            sorted: None,
        }
    }

    /// Creates an empty sample set with reserved capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            samples: Vec::with_capacity(capacity),
            sorted: None,
        }
    }

    /// Adds one sample; non-finite values are ignored.
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = None;
        }
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) -> &[f64] {
        if self.sorted.is_none() {
            let mut copy = self.samples.clone();
            copy.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = Some(copy);
        }
        self.sorted.as_deref().expect("just populated")
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) with linear interpolation.
    /// Returns 0 for an empty set so sweep tables degrade gracefully.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        sorted_percentile(self.ensure_sorted(), q)
    }

    /// The median.
    #[must_use]
    pub fn median(&mut self) -> f64 {
        self.percentile(0.5)
    }

    /// The 99th percentile — the paper's tail-latency statistic (§V.C).
    #[must_use]
    pub fn p99(&mut self) -> f64 {
        self.percentile(0.99)
    }

    /// Arithmetic mean of the retained samples; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The retained samples in insertion order.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.samples
    }

    /// A ~95% confidence interval for the mean using the *batch means*
    /// method: the samples are split, in insertion order, into `batches`
    /// contiguous batches, and the CI is computed over the batch means.
    /// For autocorrelated streams (e.g. consecutive sojourn times from a
    /// queueing simulation) this is far less optimistic than the iid
    /// normal approximation.
    ///
    /// Returns `(mean, half_width)`, or `None` with fewer than two
    /// samples per batch or fewer than two batches.
    #[must_use]
    pub fn batch_means_ci(&self, batches: usize) -> Option<(f64, f64)> {
        if batches < 2 || self.samples.len() < 2 * batches {
            return None;
        }
        let batch_len = self.samples.len() / batches;
        let means: Vec<f64> = (0..batches)
            .map(|b| {
                let chunk = &self.samples[b * batch_len..(b + 1) * batch_len];
                chunk.iter().sum::<f64>() / chunk.len() as f64
            })
            .collect();
        let grand = means.iter().sum::<f64>() / batches as f64;
        let var = means.iter().map(|m| (m - grand).powi(2)).sum::<f64>() / (batches - 1) as f64;
        // Student-t 97.5% quantiles for small batch counts, converging to
        // the normal 1.96.
        let t = match batches {
            2 => 12.706,
            3 => 4.303,
            4 => 3.182,
            5 => 2.776,
            6 => 2.571,
            7 => 2.447,
            8 => 2.365,
            9 => 2.306,
            10 => 2.262,
            11..=15 => 2.145,
            16..=20 => 2.093,
            21..=30 => 2.045,
            _ => 1.96,
        };
        Some((grand, t * (var / batches as f64).sqrt()))
    }

    /// Appends another set's samples after this one, in their insertion
    /// order — the cross-worker aggregation primitive: folding per-worker
    /// sets in worker-index order yields the same stream a single-pass
    /// collection would have produced.
    pub fn merge(&mut self, other: &SampleSet) {
        if other.samples.is_empty() {
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sorted = None;
    }
}

impl PartialEq for SampleSet {
    fn eq(&self, other: &Self) -> bool {
        // The sorted cache is derived state; equality is over the samples.
        self.samples == other.samples
    }
}

impl Extend<f64> for SampleSet {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl fmt::Display for SampleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} samples", self.samples.len())
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of an ascending slice by the
/// type-7 definition [`SampleSet::percentile`] uses: rank `q · (n − 1)`,
/// linear interpolation between neighbors, 0 when empty. For callers
/// that already hold sorted data.
///
/// # Examples
///
/// ```
/// use nfv_metrics::sorted_percentile;
/// assert_eq!(sorted_percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
/// assert_eq!(sorted_percentile(&[], 0.99), 0.0);
/// ```
#[must_use]
pub fn sorted_percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_set_reports_zero() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.99), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s: SampleSet = [7.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 7.0);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.percentile(1.0), 7.0);
    }

    #[test]
    fn interpolation_matches_numpy_default() {
        // numpy.percentile([1,2,3,4], 50) == 2.5; 25 -> 1.75.
        let mut s: SampleSet = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.percentile(0.5), 2.5);
        assert!((s.percentile(0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn p99_of_1000_uniform_samples() {
        let mut s: SampleSet = (0..1000).map(f64::from).collect();
        // rank = 0.99 * 999 = 989.01.
        assert!((s.p99() - 989.01).abs() < 1e-9);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut s: SampleSet = [1.0, f64::NAN, 2.0].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.median(), 1.5);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_out_of_range() {
        let mut s: SampleSet = [1.0].into_iter().collect();
        let _ = s.percentile(1.5);
    }

    #[test]
    fn batch_means_ci_basics() {
        let s: SampleSet = (0..100).map(f64::from).collect();
        let (mean, half) = s.batch_means_ci(10).unwrap();
        assert!((mean - 49.5).abs() < 1e-9);
        assert!(half > 0.0);
        // Too few samples or batches -> None.
        assert!(SampleSet::new().batch_means_ci(4).is_none());
        let tiny: SampleSet = [1.0, 2.0, 3.0].into_iter().collect();
        assert!(tiny.batch_means_ci(2).is_none());
        assert!(s.batch_means_ci(1).is_none());
    }

    #[test]
    fn percentile_queries_do_not_disturb_insertion_order() {
        // Regression: quantiles must not reorder the stream that batch
        // means (and as_slice) rely on.
        let mut s: SampleSet = [5.0, 1.0, 9.0, 3.0].into_iter().collect();
        let before = s.as_slice().to_vec();
        let _ = s.median();
        let _ = s.p99();
        assert_eq!(s.as_slice(), before.as_slice());
        let ci_before_sorting_would_differ = s.batch_means_ci(2).unwrap();
        let fresh: SampleSet = [5.0, 1.0, 9.0, 3.0].into_iter().collect();
        assert_eq!(
            fresh.batch_means_ci(2).unwrap(),
            ci_before_sorting_would_differ
        );
    }

    #[test]
    fn batch_means_ci_wider_for_correlated_streams() {
        // A slowly drifting (highly autocorrelated) stream: batch means
        // disagree a lot, so the CI must be wide relative to an iid
        // shuffle of the same values.
        let drifting: SampleSet = (0..400).map(|i| f64::from(i / 100)).collect();
        let (_, wide) = drifting.batch_means_ci(8).unwrap();
        let interleaved: SampleSet = (0..400).map(|i| f64::from(i % 4) / 4.0 * 3.0).collect();
        let (_, narrow) = interleaved.batch_means_ci(8).unwrap();
        assert!(
            wide > 10.0 * narrow,
            "correlated CI {wide} not wider than iid-ish CI {narrow}"
        );
    }

    proptest! {
        #[test]
        fn percentiles_are_monotone_and_bounded(
            xs in prop::collection::vec(-1e6..1e6f64, 1..100),
            q1 in 0.0..0.99f64,
        ) {
            let mut s: SampleSet = xs.iter().copied().collect();
            let q2 = q1 + 0.01;
            let (p1, p2) = (s.percentile(q1), s.percentile(q2));
            prop_assert!(p1 <= p2 + 1e-9);
            prop_assert!(p1 >= s.percentile(0.0) - 1e-9);
            prop_assert!(p2 <= s.percentile(1.0) + 1e-9);
        }

        #[test]
        fn push_order_does_not_matter(mut xs in prop::collection::vec(-1e3..1e3f64, 1..50)) {
            let mut fwd: SampleSet = xs.iter().copied().collect();
            xs.reverse();
            let mut rev: SampleSet = xs.iter().copied().collect();
            prop_assert_eq!(fwd.median(), rev.median());
            prop_assert_eq!(fwd.p99(), rev.p99());
        }
    }
}
