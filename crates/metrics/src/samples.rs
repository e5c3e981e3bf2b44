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
    /// Samples in insertion order (the order `as_slice` and `merge` keep).
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

    /// Keeps the first `len` samples in insertion order and drops the
    /// rest; like `Vec::truncate`, a `len` at or beyond the current
    /// length changes nothing.
    pub fn truncate(&mut self, len: usize) {
        if len < self.samples.len() {
            self.samples.truncate(len);
            self.sorted = None;
        }
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
    fn percentile_queries_do_not_disturb_insertion_order() {
        // Regression: quantiles must not reorder the stream that
        // `as_slice` and `merge` rely on.
        let mut s: SampleSet = [5.0, 1.0, 9.0, 3.0].into_iter().collect();
        let before = s.as_slice().to_vec();
        let _ = s.median();
        let _ = s.p99();
        assert_eq!(s.as_slice(), before.as_slice());
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
