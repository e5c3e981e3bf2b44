//! Statistics utilities for the NFV experiment harness.
//!
//! The paper's evaluation reports *averages over 1000 simulation runs*, tail
//! (99th-percentile) response times and enhancement ratios between
//! algorithms. This crate provides the small statistical toolkit those
//! experiments need:
//!
//! * [`OnlineStats`] — streaming count/mean/variance/min/max (Welford),
//! * [`SampleSet`] — exact percentiles over retained samples,
//! * [`Summary`] — the combination of both, with a normal-approximation
//!   confidence interval,
//! * [`Histogram`] — fixed-bin histograms with ASCII rendering,
//! * [`Table`] — plain-text tables for the figure-regeneration binaries.
//!
//! # Examples
//!
//! ```
//! use nfv_metrics::Summary;
//! let mut summary: Summary = (1..=100).map(f64::from).collect();
//! assert_eq!(summary.mean(), 50.5);
//! assert_eq!(summary.percentile(0.99), 99.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod online;
mod samples;
mod summary;
mod table;

pub use histogram::Histogram;
pub use online::OnlineStats;
pub use samples::{sorted_percentile, SampleSet};
pub use summary::Summary;
pub use table::Table;

/// Relative improvement of `candidate` over `baseline` for a
/// smaller-is-better metric: `(baseline − candidate) / baseline`.
///
/// This is the paper's *enhancement ratio*, e.g.
/// `(W_CGA − W_RCKK) / W_CGA` (§V.C). Positive values mean `candidate`
/// improves on `baseline`. Returns 0 when the baseline is not a positive
/// finite number, so sweep plots degrade gracefully instead of emitting NaN.
///
/// # Examples
///
/// ```
/// use nfv_metrics::enhancement_ratio;
/// assert!((enhancement_ratio(2.0, 1.5) - 0.25).abs() < 1e-12);
/// assert_eq!(enhancement_ratio(0.0, 1.0), 0.0);
/// ```
#[must_use]
pub fn enhancement_ratio(baseline: f64, candidate: f64) -> f64 {
    if baseline.is_finite() && baseline > 0.0 && candidate.is_finite() {
        (baseline - candidate) / baseline
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enhancement_ratio_matches_paper_definition() {
        // W_CGA = 1.60, W_RCKK = 1.23 -> 23.1% (paper §V.C tail example).
        let ratio = enhancement_ratio(1.60, 1.23);
        assert!((ratio - 0.23125).abs() < 1e-12);
    }

    #[test]
    fn enhancement_ratio_degrades_gracefully() {
        assert_eq!(enhancement_ratio(f64::NAN, 1.0), 0.0);
        assert_eq!(enhancement_ratio(1.0, f64::NAN), 0.0);
        assert_eq!(enhancement_ratio(-1.0, 0.5), 0.0);
    }

    #[test]
    fn negative_ratio_means_regression() {
        assert!(enhancement_ratio(1.0, 2.0) < 0.0);
    }
}
