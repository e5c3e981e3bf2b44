//! Bounded per-tick time-series sampling.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::ring::Ring;

/// One per-tick snapshot of the controller's load state — everything is
/// derived from the deterministic ledger, so same-seed series are
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickSample {
    /// Re-optimization ticks observed so far (1-based at the first tick).
    pub tick: u64,
    /// Virtual time of the tick, seconds.
    pub time: f64,
    /// Requests active after the tick.
    pub active: u64,
    /// Service instances currently provisioned (all VNFs).
    pub instances: u64,
    /// Highest per-instance utilization `ρ`.
    pub max_rho: f64,
    /// Mean per-instance utilization `ρ` (0 with no instances).
    pub mean_rho: f64,
    /// Balanced predicted latency `W` of the ledger, seconds.
    pub balanced_latency: f64,
    /// Requests waiting in the retry/backoff queue.
    pub retry_backlog: u64,
    /// Cluster nodes currently in service (0 when no cluster is known).
    pub nodes_in_service: u64,
    /// Cluster nodes total (0 when no cluster is known).
    pub nodes_total: u64,
}

/// CSV header of [`TickSeries::to_csv`].
pub const SERIES_CSV_HEADER: &str =
    "Tick,Time,Active,Instances,MaxRho,MeanRho,BalancedLatency,RetryBacklog,NodesInService,NodesTotal";

impl TickSample {
    /// One CSV row under [`SERIES_CSV_HEADER`].
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{:.6},{},{},{:.6},{:.6},{:.6},{},{},{}",
            self.tick,
            self.time,
            self.active,
            self.instances,
            self.max_rho,
            self.mean_rho,
            self.balanced_latency,
            self.retry_backlog,
            self.nodes_in_service,
            self.nodes_total,
        )
    }
}

/// A bounded time-series of [`TickSample`]s: keeps the most recent
/// `capacity` samples (dropping the oldest) so long sweeps cannot grow
/// memory without bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickSeries {
    pub(crate) ring: Ring<TickSample>,
}

impl TickSeries {
    /// Creates a series holding at most `capacity` samples.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
        }
    }

    /// Appends one sample, evicting the oldest when full.
    pub fn push(&mut self, sample: TickSample) {
        self.ring.push(sample);
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TickSample> {
        self.ring.iter()
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Samples evicted to honor the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Appends another worker's series after this one (in-order merge:
    /// callers fold worker results in worker-index order, so the merged
    /// series is identical at any thread count).
    pub fn merge(&mut self, other: &TickSeries) {
        self.ring.add_dropped(other.dropped());
        for sample in other.samples() {
            self.push(*sample);
        }
    }

    /// Renders the retained samples as CSV under [`SERIES_CSV_HEADER`].
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{SERIES_CSV_HEADER}");
        for sample in self.samples() {
            let _ = writeln!(out, "{}", sample.to_csv_row());
        }
        out
    }
}

impl Default for TickSeries {
    /// An empty series holding at most 4096 samples. Unlike
    /// [`TickSeries::new`] it reserves no storage up front: every disabled
    /// session's artifacts and every merge start from one, and most stay
    /// empty.
    fn default() -> Self {
        Self {
            ring: Ring::unreserved(4096),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64) -> TickSample {
        TickSample {
            tick,
            time: tick as f64 * 15.0,
            active: 10 + tick,
            instances: 8,
            max_rho: 0.8,
            mean_rho: 0.5,
            balanced_latency: 0.01,
            retry_backlog: 0,
            nodes_in_service: 4,
            nodes_total: 4,
        }
    }

    #[test]
    fn bounded_push_evicts_the_oldest() {
        let mut series = TickSeries::new(2);
        for tick in 1..=4 {
            series.push(sample(tick));
        }
        assert_eq!(series.len(), 2);
        assert_eq!(series.dropped(), 2);
        let ticks: Vec<u64> = series.samples().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![3, 4]);
    }

    #[test]
    fn merge_appends_in_order() {
        let mut a = TickSeries::new(16);
        a.push(sample(1));
        let mut b = TickSeries::new(16);
        b.push(sample(2));
        b.push(sample(3));
        a.merge(&b);
        let ticks: Vec<u64> = a.samples().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![1, 2, 3]);
        assert_eq!(a.dropped(), 0);
    }

    #[test]
    fn csv_has_header_plus_one_row_per_sample() {
        let mut series = TickSeries::default();
        series.push(sample(1));
        series.push(sample(2));
        let csv = series.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], SERIES_CSV_HEADER);
        assert_eq!(
            lines[1].split(',').count(),
            SERIES_CSV_HEADER.split(',').count()
        );
        assert!(lines[1].starts_with("1,15.000000,11,8,"));
    }
}
