//! Resilience experiment: node-level failure domains under the
//! graceful-degradation ladder.
//!
//! The churn experiment asks how well a good assignment can be *kept*
//! under request churn; this one asks how fast it can be *recovered* when
//! whole nodes fail. One scenario, one seeded trace with a node-outage
//! process (per-node MTBF/MTTR, optionally correlated racks), and one
//! initial BFDSU placement are replayed through four policies that
//! differ only in their recovery machinery:
//!
//! * **tick-only/no-retry** — [`ControllerConfig::joint_reopt`]: failed
//!   hosts are only re-placed by the next periodic tick, and shed or
//!   rejected requests are gone for good;
//! * **tick-only/retry** — the same tick-bound re-placement, plus the
//!   seeded exponential-backoff [`RetryConfig`] queue re-offering shed
//!   and rejected arrivals;
//! * **emergency/no-retry** — an [`EmergencyConfig`] re-places around the
//!   failure *at the failure event* (bounded BFDSU delta over the
//!   surviving nodes, brownout admission while any node is dark), but
//!   requests lost in the failover are not retried;
//! * **emergency/retry** — [`ControllerConfig::resilient`], the full
//!   ladder.
//!
//! The ordering the `figures resilience` subcommand asserts by printing
//! it: emergency re-placement restores full availability measurably
//! faster than waiting for the tick (higher availability, shorter mean
//! recovery), and the retry queue converts lost requests into delayed
//! ones, so emergency/retry loses the fewest requests of all four.

use nfv_controller::{
    Controller, ControllerConfig, ControllerReport, EmergencyConfig, EventOutcome, RetryConfig,
};
use nfv_metrics::Table;
use nfv_parallel::par_map;
use nfv_telemetry::{Telemetry, TelemetryArtifacts};
use nfv_workload::churn::{ChurnTrace, ChurnTraceBuilder};
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy};
use serde::{Deserialize, Serialize};

use super::churn::{setup_cluster, ChurnPoint};
use crate::CoreError;

/// Parameters of one resilience run: the churn-experiment shape plus the
/// node-outage process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResiliencePoint {
    /// Number of VNF types in the scenario.
    pub vnfs: usize,
    /// Base request population present at `t = 0`.
    pub base_requests: usize,
    /// Utilization a perfectly balanced base population would induce.
    pub target_utilization: f64,
    /// Virtual-time horizon of the trace, seconds.
    pub horizon: f64,
    /// Poisson rate of churn arrivals, requests per second.
    pub arrival_rate: f64,
    /// Mean exponential holding time of every request, seconds.
    pub mean_holding: f64,
    /// Re-optimization tick period, seconds.
    pub tick_period: f64,
    /// Number of computing nodes in the physical cluster.
    pub nodes: usize,
    /// Fraction of the total node capacity the `t = 0` fleet demands.
    pub fill: f64,
    /// Mean exponential time between failures of each node, seconds.
    pub node_mtbf: f64,
    /// Mean exponential repair time of a failed node, seconds.
    pub node_mttr: f64,
    /// Nodes per correlated failure domain (1 = independent failures).
    pub rack_size: usize,
}

impl ResiliencePoint {
    /// The default configuration: the churn experiment's moderate load,
    /// with node outages sized so a handful of failures strike inside the
    /// horizon and each one outlives more than one backoff interval but
    /// not a whole tick period.
    #[must_use]
    pub fn base() -> Self {
        Self {
            vnfs: 6,
            base_requests: 60,
            target_utilization: 0.85,
            horizon: 300.0,
            arrival_rate: 2.0,
            mean_holding: 30.0,
            tick_period: 25.0,
            nodes: 8,
            fill: 0.4,
            node_mtbf: 600.0,
            node_mttr: 40.0,
            rack_size: 1,
        }
    }

    /// A correlated-failure configuration: racks of two nodes fail
    /// together, doubling the blast radius of every outage.
    #[must_use]
    pub fn racked() -> Self {
        Self {
            rack_size: 2,
            ..Self::base()
        }
    }

    /// The equivalent [`ChurnPoint`], for sharing the cluster setup.
    fn as_churn_point(&self) -> ChurnPoint {
        ChurnPoint {
            vnfs: self.vnfs,
            base_requests: self.base_requests,
            target_utilization: self.target_utilization,
            horizon: self.horizon,
            arrival_rate: self.arrival_rate,
            mean_holding: self.mean_holding,
            tick_period: self.tick_period,
            outage_rate: 0.0,
            mean_outage: 1.0,
            nodes: self.nodes,
            fill: self.fill,
        }
    }
}

/// One policy's end-of-run result, with the availability statistics
/// extracted from the per-event replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceOutcome {
    /// Policy name (`tick-only/no-retry`, `tick-only/retry`,
    /// `emergency/no-retry`, `emergency/retry`).
    pub policy: String,
    /// Fraction of the horizon during which every VNF had at least one up
    /// instance, in `[0, 1]`.
    pub availability: f64,
    /// Number of unavailability episodes (an episode opens when some VNF
    /// loses its last up instance and closes when full availability
    /// returns).
    pub episodes: u64,
    /// Mean episode duration, seconds (0 when no episode occurred).
    pub mean_recovery: f64,
    /// The controller's final report at the horizon.
    pub report: ControllerReport,
}

/// The four policies' results over the same scenario, trace and initial
/// placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceComparison {
    /// The run parameters.
    pub point: ResiliencePoint,
    /// Base seed used for scenario, trace and cluster generation.
    pub seed: u64,
    /// One outcome per policy, in `[tick-only/no-retry, tick-only/retry,
    /// emergency/no-retry, emergency/retry]` order.
    pub outcomes: Vec<ResilienceOutcome>,
}

impl ResilienceComparison {
    /// The outcome of one policy by name.
    #[must_use]
    pub fn outcome(&self, policy: &str) -> Option<&ResilienceOutcome> {
        self.outcomes.iter().find(|o| o.policy == policy)
    }

    /// Renders the comparison as a plain-text table: one row per policy
    /// with availability, recovery and loss statistics.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "policy",
            "avail (%)",
            "episodes",
            "mean recovery (s)",
            "lost",
            "shed",
            "retry ok/dropped",
            "emergency passes",
            "inst +/moved",
            "mean W (ms)",
        ]);
        for outcome in &self.outcomes {
            let r = &outcome.report;
            table.row(vec![
                outcome.policy.clone(),
                format!("{:.3}", outcome.availability * 100.0),
                format!("{}", outcome.episodes),
                format!("{:.3}", outcome.mean_recovery),
                format!("{}", r.lost()),
                format!("{}", r.shed),
                format!("{}/{}", r.retry_admitted, r.retry_abandoned),
                format!("{}", r.emergency_replaces),
                format!("{}/{}", r.instances_added, r.relocations),
                format!("{:.4}", r.mean_latency * 1e3),
            ]);
        }
        table
    }
}

/// Builds the scenario and node-outage trace for a point.
pub fn setup(point: &ResiliencePoint, seed: u64) -> Result<(Scenario, ChurnTrace), CoreError> {
    let scenario = ScenarioBuilder::new()
        .vnfs(point.vnfs)
        .requests(point.base_requests)
        .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
            target_utilization: point.target_utilization,
        })
        .seed(seed)
        .build()?;
    let trace = ChurnTraceBuilder::new()
        .horizon(point.horizon)
        .arrival_rate(point.arrival_rate)
        .mean_holding(point.mean_holding)
        .tick_period(point.tick_period)
        .node_fleet(point.nodes)
        .node_mtbf(point.node_mtbf)
        .node_mttr(point.node_mttr)
        .rack_size(point.rack_size)
        .seed(seed.wrapping_add(1))
        .build(&scenario)?;
    Ok((scenario, trace))
}

/// Replays one trace, tracking full-availability transitions in virtual
/// time, and returns `(availability, episodes, mean_recovery)` alongside
/// the final report.
fn replay(
    controller: &mut Controller,
    trace: &ChurnTrace,
    horizon: f64,
    tel: &mut Telemetry,
) -> (f64, u64, f64, ControllerReport) {
    let mut down_since: Option<f64> = None;
    let mut downtime = 0.0;
    let mut episodes = 0u64;
    for event in trace.events() {
        let outcome = controller.handle_traced(event, tel);
        let up = controller.state().fully_available();
        // A node failure the emergency pass repaired within the same
        // virtual instant still counts as a (zero-length) recovery
        // episode; otherwise instant repairs would vanish from the mean
        // and make it look *worse* than slow ones.
        if let EventOutcome::NodeDownHandled { vnfs_lost, .. } = outcome {
            if vnfs_lost > 0 && up && down_since.is_none() {
                episodes += 1;
            }
        }
        match (up, down_since) {
            (false, None) => down_since = Some(event.time()),
            (true, Some(since)) => {
                downtime += event.time() - since;
                episodes += 1;
                down_since = None;
            }
            _ => {}
        }
    }
    controller.finish_traced(horizon, tel);
    if let Some(since) = down_since {
        downtime += horizon - since;
        episodes += 1;
    }
    let availability = 1.0 - downtime / horizon;
    let mean_recovery = if episodes > 0 {
        downtime / episodes as f64
    } else {
        0.0
    };
    (availability, episodes, mean_recovery, controller.report())
}

/// Replays one seeded trace through the four recovery policies.
pub fn run(point: &ResiliencePoint, seed: u64) -> Result<ResilienceComparison, CoreError> {
    run_inner(point, seed, false).map(|(comparison, _)| comparison)
}

/// [`run`] with telemetry: each policy replays under its own enabled
/// session, and the artifacts are merged in policy order (so the merged
/// journal is identical at any thread count).
pub fn run_instrumented(
    point: &ResiliencePoint,
    seed: u64,
) -> Result<(ResilienceComparison, TelemetryArtifacts), CoreError> {
    run_inner(point, seed, true)
}

fn run_inner(
    point: &ResiliencePoint,
    seed: u64,
    instrument: bool,
) -> Result<(ResilienceComparison, TelemetryArtifacts), CoreError> {
    let (scenario, trace) = setup(point, seed)?;
    let (nodes, placement) = setup_cluster(&point.as_churn_point(), seed, &scenario)?;
    let tick_only = ControllerConfig::joint_reopt();
    let configs = [
        ("tick-only/no-retry", tick_only),
        (
            "tick-only/retry",
            ControllerConfig {
                retry: Some(RetryConfig::bounded()),
                ..tick_only
            },
        ),
        (
            "emergency/no-retry",
            ControllerConfig {
                emergency: Some(EmergencyConfig::bounded()),
                ..tick_only
            },
        ),
        ("emergency/retry", ControllerConfig::resilient()),
    ];
    let mut controllers = Vec::with_capacity(configs.len());
    for (name, config) in configs {
        controllers.push((
            name,
            Controller::with_cluster(&scenario, nodes.clone(), &placement, config)?,
        ));
    }
    // The four policies replay the same borrowed trace independently, so
    // they fan out on the worker pool; results come back in policy order.
    let horizon = point.horizon;
    let results = par_map(controllers, |_, (name, mut controller)| {
        let mut tel = if instrument {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let (availability, episodes, mean_recovery, report) =
            replay(&mut controller, &trace, horizon, &mut tel);
        (
            ResilienceOutcome {
                policy: name.to_string(),
                availability,
                episodes,
                mean_recovery,
                report,
            },
            tel.finish(),
        )
    })
    .map_err(CoreError::from)?;
    let (outcomes, parts): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    Ok((
        ResilienceComparison {
            point: *point,
            seed,
            outcomes,
        },
        TelemetryArtifacts::merged(parts),
    ))
}

/// Replays the full-ladder `emergency/retry` policy alone under the
/// caller's telemetry session — the `figures trace` path, which attaches
/// file sinks to the session before the run and reconstructs the outage
/// episodes from the journal afterwards.
///
/// # Errors
///
/// Propagates scenario/trace/cluster construction failures.
pub fn trace_run(
    point: &ResiliencePoint,
    seed: u64,
    tel: &mut Telemetry,
) -> Result<ResilienceOutcome, CoreError> {
    let (scenario, trace) = setup(point, seed)?;
    let (nodes, placement) = setup_cluster(&point.as_churn_point(), seed, &scenario)?;
    let mut controller =
        Controller::with_cluster(&scenario, nodes, &placement, ControllerConfig::resilient())?;
    let (availability, episodes, mean_recovery, report) =
        replay(&mut controller, &trace, point.horizon, tel);
    Ok(ResilienceOutcome {
        policy: "emergency/retry".to_string(),
        availability,
        episodes,
        mean_recovery,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_policies_share_the_trace() {
        let comparison = run(&ResiliencePoint::base(), 42).unwrap();
        assert_eq!(comparison.outcomes.len(), 4);
        let baseline = &comparison.outcomes[0];
        for outcome in &comparison.outcomes {
            assert_eq!(
                outcome.report.admitted + outcome.report.rejected,
                baseline.report.admitted + baseline.report.rejected,
                "same trace, same first offers"
            );
            assert!((0.0..=1.0).contains(&outcome.availability));
            assert!(outcome.report.node_downs >= 1, "node outages did occur");
        }
    }

    #[test]
    fn recovery_ladder_orders_the_policies() {
        let comparison = run(&ResiliencePoint::base(), 42).unwrap();
        let worst = comparison.outcome("tick-only/no-retry").unwrap();
        let best = comparison.outcome("emergency/retry").unwrap();
        assert!(
            best.availability >= worst.availability,
            "emergency re-placement never hurts availability"
        );
        assert!(
            best.report.lost() < worst.report.lost(),
            "the retry queue recovers requests the baseline loses for good \
             ({} vs {})",
            best.report.lost(),
            worst.report.lost(),
        );
        assert!(
            best.mean_recovery <= worst.mean_recovery,
            "out-of-tick re-placement shortens the outage episodes"
        );
    }

    #[test]
    fn instrumented_run_is_a_strict_observer() {
        let plain = run(&ResiliencePoint::base(), 42).unwrap();
        let (instrumented, artifacts) = run_instrumented(&ResiliencePoint::base(), 42).unwrap();
        assert_eq!(plain, instrumented, "telemetry must not change results");
        assert!(!artifacts.events.is_empty());
        assert!(artifacts
            .events
            .iter()
            .any(|e| matches!(e.kind, nfv_telemetry::EventKind::NodeDown { .. })));
    }

    #[test]
    fn trace_run_journals_the_full_outage_ladder() {
        let mut tel = Telemetry::enabled();
        let outcome = trace_run(&ResiliencePoint::base(), 42, &mut tel).unwrap();
        assert_eq!(outcome.policy, "emergency/retry");
        assert!(outcome.report.node_downs > 0);
        let events = tel.finish().events;
        let has =
            |pred: fn(&nfv_telemetry::EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
        use nfv_telemetry::EventKind as K;
        assert!(has(|k| matches!(k, K::NodeDown { .. })));
        assert!(has(|k| matches!(k, K::Shed { .. })));
        assert!(has(|k| matches!(k, K::RetryScheduled { .. })));
        assert!(has(|k| matches!(k, K::EmergencyReplace { .. })));
        assert!(has(|k| matches!(k, K::NodeUp { .. })));
        // The matching plain run produces the identical report.
        let (comparison, _) = run_inner(&ResiliencePoint::base(), 42, false).unwrap();
        assert_eq!(
            comparison.outcome("emergency/retry").unwrap().report,
            outcome.report
        );
    }

    #[test]
    fn racked_outages_widen_the_blast_radius() {
        let base = run(&ResiliencePoint::base(), 42).unwrap();
        let racked = run(&ResiliencePoint::racked(), 42).unwrap();
        // Correlated failures take at least as many nodes down per event.
        let downs = |c: &ResilienceComparison| c.outcomes[0].report.node_downs;
        assert!(downs(&racked) >= downs(&base));
    }
}
