//! Combined moment + quantile summaries.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{OnlineStats, SampleSet};

/// A summary that retains samples for exact quantiles *and* keeps streaming
/// moments, the one-stop accumulator used by the experiment harness for each
/// (algorithm, sweep-point) cell.
///
/// # Examples
///
/// ```
/// use nfv_metrics::Summary;
/// let mut s = Summary::new();
/// s.extend([1.0, 2.0, 3.0]);
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.percentile(0.5), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    stats: OnlineStats,
    samples: SampleSet,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stats: OnlineStats::new(),
            samples: SampleSet::new(),
        }
    }

    /// Adds one observation (non-finite values are ignored).
    pub fn push(&mut self, x: f64) {
        self.stats.push(x);
        self.samples.push(x);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Whether no observation has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Arithmetic mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Half-width of the ~95% confidence interval for the mean.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        self.stats.ci95_half_width()
    }

    /// Exact `q`-quantile over the retained samples.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&mut self, q: f64) -> f64 {
        self.samples.percentile(q)
    }

    /// The 99th percentile.
    #[must_use]
    pub fn p99(&mut self) -> f64 {
        self.samples.p99()
    }

    /// Smallest observation; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.stats.min()
    }

    /// Largest observation; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.stats.max()
    }

    /// The underlying streaming statistics.
    #[must_use]
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// The underlying retained samples.
    #[must_use]
    pub fn samples(&self) -> &SampleSet {
        &self.samples
    }

    /// Merges another summary into this one: streaming moments via the
    /// parallel Welford combination ([`OnlineStats::merge`]), retained
    /// samples by in-order append ([`SampleSet::merge`]).
    pub fn merge(&mut self, other: &Summary) {
        self.stats.merge(&other.stats);
        self.samples.merge(&other.samples);
    }

    /// Rewinds to an earlier state of this summary: keeps the first
    /// `stats.count()` observations and restores the moments to `stats`,
    /// which must be what [`stats`](Self::stats) returned when the
    /// summary held exactly those observations. O(1) apart from the
    /// dropped samples. Like `Vec::truncate`, a `stats` counting more
    /// observations than the summary holds changes nothing.
    pub fn truncate(&mut self, stats: OnlineStats) {
        if stats.count() <= self.count() {
            // A summary's sample set and moments skip the same
            // non-finite values, so `count` is also the sample length.
            self.samples.truncate(stats.count() as usize);
            self.stats = stats;
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "no samples")
        } else {
            write!(
                f,
                "n={} mean={:.6} +/-{:.6}",
                self.count(),
                self.mean(),
                self.ci95_half_width()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_and_quantiles_agree_on_count() {
        let mut s: Summary = [5.0, 1.0, 3.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert_eq!(s.samples().len(), 3);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.percentile(0.5), 3.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn empty_summary_displays_gracefully() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "no samples");
    }

    #[test]
    fn truncate_rewinds_to_an_earlier_state_exactly() {
        let mut s: Summary = [4.0, 1.0].into_iter().collect();
        let earlier = s.clone();
        s.extend([9.0, f64::NAN, 2.5]);
        assert_eq!(s.percentile(1.0), 9.0);
        s.truncate(*earlier.stats());
        assert_eq!(s, earlier);
        assert_eq!(s.percentile(1.0), 4.0, "the sorted cache was rebuilt");
        let mut longer = s.clone();
        longer.push(7.0);
        s.truncate(*longer.stats());
        assert_eq!(s, earlier, "a later state changes nothing");
    }

    #[test]
    fn ci_shrinks_with_more_samples() {
        let small: Summary = (0..10).map(f64::from).collect();
        let large: Summary = (0..1000).map(|i| f64::from(i % 10)).collect();
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }
}
