//! Simulation results.

use std::fmt;

use nfv_metrics::Summary;
use serde::{Deserialize, Serialize};

/// The measured outcome of a simulation run.
///
/// Latencies are end-to-end per *delivered* packet, measured from the
/// packet's first entry into the system to its successful delivery — so
/// retransmission rounds are included, matching the analytic
/// `W = (1/P)·Σ 1/(μ_i − Λ_i)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    pub(crate) overall_latency: Summary,
    pub(crate) per_request_latency: Vec<Summary>,
    pub(crate) station_utilization: Vec<f64>,
    pub(crate) station_arrival_rate: Vec<f64>,
    pub(crate) station_mean_packets: Vec<f64>,
    pub(crate) station_dropped: Vec<u64>,
    pub(crate) delivered: u64,
    pub(crate) retransmissions: u64,
    pub(crate) events_processed: u64,
    pub(crate) sim_time: f64,
    pub(crate) truncated: bool,
}

impl SimReport {
    /// Mean end-to-end latency over all measured deliveries, seconds.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        self.overall_latency.mean()
    }

    /// The `q`-quantile of measured end-to-end latency.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_percentile(&mut self, q: f64) -> f64 {
        self.overall_latency.percentile(q)
    }

    /// Per-request latency summaries, indexed by request.
    #[must_use]
    pub fn per_request_latency(&self) -> &[Summary] {
        &self.per_request_latency
    }

    /// Empirical utilization of each station: busy time / simulated time.
    #[must_use]
    pub fn station_utilization(&self) -> &[f64] {
        &self.station_utilization
    }

    /// Empirical total arrival rate (visits per second) at each station —
    /// converges to the analytic `Λ = Σ λ_r / P_r` under loss feedback.
    #[must_use]
    pub fn station_arrival_rate(&self) -> &[f64] {
        &self.station_arrival_rate
    }

    /// Time-averaged number of packets in each station's system (queue +
    /// server) over the whole run — converges to `ρ/(1 − ρ)` for a stable
    /// unbounded station (Eq. (10)).
    #[must_use]
    pub fn station_mean_packets(&self) -> &[f64] {
        &self.station_mean_packets
    }

    /// Packets dropped at each station due to a full finite buffer
    /// (congestion loss); all zeros for unbounded stations.
    #[must_use]
    pub fn station_dropped(&self) -> &[u64] {
        &self.station_dropped
    }

    /// Total congestion drops over all stations.
    #[must_use]
    pub fn congestion_drops(&self) -> u64 {
        self.station_dropped.iter().sum()
    }

    /// Measured deliveries (after warmup).
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of end-to-end retransmissions triggered by loss.
    #[must_use]
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Total events processed.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Simulated time horizon reached, seconds.
    #[must_use]
    pub fn sim_time(&self) -> f64 {
        self.sim_time
    }

    /// Whether the run hit its event cap before reaching the delivery
    /// target — a strong hint that the configuration is unstable (some
    /// station has `ρ ≥ 1`).
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sim: {} deliveries in {:.3}s, mean latency {:.6}s, {} retransmissions{}",
            self.delivered,
            self.sim_time,
            self.mean_latency(),
            self.retransmissions,
            if self.truncated { " (TRUNCATED)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_flags_truncation() {
        let report = SimReport {
            overall_latency: Summary::new(),
            per_request_latency: vec![],
            station_utilization: vec![],
            station_arrival_rate: vec![],
            station_mean_packets: vec![],
            station_dropped: vec![],
            delivered: 0,
            retransmissions: 0,
            events_processed: 10,
            sim_time: 1.0,
            truncated: true,
        };
        assert!(report.to_string().contains("TRUNCATED"));
        assert!(report.truncated());
    }
}
