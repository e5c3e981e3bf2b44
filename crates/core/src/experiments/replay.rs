//! Replay-throughput experiment: the workload behind how many trace
//! events per second the online control plane can ingest.
//!
//! The other experiments ask what the controller *decides*; this one asks
//! how fast it can decide it. A high-rate churn trace — a million-plus
//! events at the [`ReplayPoint::million`] configuration — is generated as
//! a [`ChurnStream`](nfv_workload::churn::ChurnStream) (never materialized
//! as a `Vec`) and pushed through two ingestion paths:
//!
//! * **streamed** — [`Controller::run_stream`], the exact per-event path:
//!   bit-identical decisions and samples to a materialized
//!   [`run_trace`](Controller::run_trace) replay;
//! * **batched** — [`Controller::run_stream_batched`], which drains one
//!   tick's worth of events at a time, coalesces flash
//!   arrival/departure pairs without touching the ledger, and samples the
//!   predicted latency at batch granularity. Admission decisions and the
//!   final ledger state are identical to the streamed path; only the
//!   latency *sampling* is coarser.
//!
//! This module fixes the point and pins the two paths' equivalence; it
//! reads no clock. The throughput itself is perfbench's `replay` workload
//! (`events_per_s`), whose timings include stream generation: the replay
//! engine's unit of work is "trace in, report out", and the trace is
//! generated on the fly.

use nfv_controller::{Controller, ControllerConfig, ControllerReport};
use nfv_workload::churn::ChurnTraceBuilder;
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy};
use serde::{Deserialize, Serialize};

use crate::CoreError;

/// Parameters of one replay-throughput run.
///
/// The churn dynamics are deliberately fast-twitch: a high arrival rate
/// with a short mean holding time keeps the *concurrent* population (and
/// so the per-instance member runs the ledger walks on every mutation)
/// moderate while the event count scales with `arrival_rate × horizon`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayPoint {
    /// Number of VNF types in the scenario.
    pub vnfs: usize,
    /// Base request population present at `t = 0`.
    pub base_requests: usize,
    /// Utilization the base population alone would induce; kept low so
    /// the churn load on top still admits.
    pub target_utilization: f64,
    /// Virtual-time horizon of the trace, seconds.
    pub horizon: f64,
    /// Poisson rate of churn arrivals, requests per second.
    pub arrival_rate: f64,
    /// Mean exponential holding time of every request, seconds.
    pub mean_holding: f64,
    /// Re-optimization tick period — the batched path's batch boundary.
    pub tick_period: f64,
}

impl ReplayPoint {
    /// The headline configuration: ~1.04 million events (520k arrivals,
    /// their departures, the base population and 200 ticks) over 200
    /// virtual seconds, with a mean concurrent churn population of
    /// `arrival_rate × mean_holding ≈ 52` requests on top of the 60 base
    /// requests.
    #[must_use]
    pub fn million() -> Self {
        Self {
            vnfs: 6,
            base_requests: 60,
            target_utilization: 0.4,
            horizon: 200.0,
            arrival_rate: 2600.0,
            mean_holding: 0.02,
            tick_period: 1.0,
        }
    }

    /// A scaled-down point (~8k events) for tests and smoke benches: same
    /// dynamics, two hundredths the horizon-rate product.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            horizon: 20.0,
            arrival_rate: 200.0,
            mean_holding: 0.1,
            ..Self::million()
        }
    }
}

/// Builds the scenario and the (lazy) trace builder for a point. The
/// builder is returned rather than a trace so callers choose between
/// [`ChurnTraceBuilder::stream`] and [`ChurnTraceBuilder::build`].
pub fn setup(point: &ReplayPoint, seed: u64) -> Result<(Scenario, ChurnTraceBuilder), CoreError> {
    let scenario = ScenarioBuilder::new()
        .vnfs(point.vnfs)
        .requests(point.base_requests)
        .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
            target_utilization: point.target_utilization,
        })
        .seed(seed)
        .build()?;
    let builder = ChurnTraceBuilder::new()
        .horizon(point.horizon)
        .arrival_rate(point.arrival_rate)
        .mean_holding(point.mean_holding)
        .tick_period(point.tick_period)
        .seed(seed.wrapping_add(1));
    Ok((scenario, builder))
}

/// Replays the point's trace through both paths once and returns
/// `(streamed, batched)` reports — the equivalence surface the tests
/// check.
///
/// # Errors
///
/// Propagates scenario/trace construction errors.
pub fn replay_reports(
    point: &ReplayPoint,
    seed: u64,
) -> Result<(ControllerReport, ControllerReport), CoreError> {
    let (scenario, builder) = setup(point, seed)?;
    let mut streamed = Controller::new(&scenario, ControllerConfig::online_only());
    let streamed_report = streamed.run_stream(builder.stream(&scenario)?, point.horizon);
    let mut batched = Controller::new(&scenario, ControllerConfig::online_only());
    let batched_report = batched.run_stream_batched(builder.stream(&scenario)?, point.horizon);
    Ok((streamed_report, batched_report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_replay_is_bit_identical_to_materialized_replay() {
        let point = ReplayPoint::smoke();
        let (scenario, builder) = setup(&point, 7).unwrap();
        let trace = builder.build(&scenario).unwrap();
        let mut materialized = Controller::new(&scenario, ControllerConfig::online_only());
        let from_trace = materialized.run_trace(&trace);
        let mut streamed = Controller::new(&scenario, ControllerConfig::online_only());
        let from_stream = streamed.run_stream(builder.stream(&scenario).unwrap(), point.horizon);
        assert_eq!(from_trace, from_stream);
    }

    #[test]
    fn batched_replay_preserves_every_decision() {
        let (streamed, batched) = replay_reports(&ReplayPoint::smoke(), 7).unwrap();
        // Decisions and ledger-state outcomes are exact; only latency
        // sampling is batch-granular.
        assert_eq!(streamed.admitted, batched.admitted);
        assert_eq!(streamed.rejected, batched.rejected);
        assert_eq!(streamed.departed, batched.departed);
        assert_eq!(streamed.shed, batched.shed);
        assert_eq!(streamed.ticks, batched.ticks);
        assert_eq!(streamed.active, batched.active);
        assert_eq!(streamed.current_latency, batched.current_latency);
        assert!(streamed.admitted > 1_000, "the smoke point must admit");
    }

    #[test]
    fn million_point_streams_at_least_a_million_events() {
        // Count only — no replay — so the tier-1 suite stays fast. The
        // stream never materializes, so this is cheap in memory too.
        let (scenario, builder) = setup(&ReplayPoint::million(), 42).unwrap();
        let events = builder.stream(&scenario).unwrap().count();
        assert!(
            events >= 1_000_000,
            "headline point must stream ≥1M events, got {events}"
        );
    }
}
