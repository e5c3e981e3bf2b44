//! Churn experiment: online control-plane policies under a streaming
//! trace.
//!
//! The offline experiments ask how good an assignment the pipeline finds
//! for a frozen request set; this one asks how well it can be *kept* while
//! the set churns. One scenario and one seeded [`ChurnTrace`] are replayed
//! through four controller policies:
//!
//! * **online-only** — least-loaded dispatch with strict admission
//!   control, never migrating;
//! * **periodic-reopt** — the same dispatch, plus a bounded RCKK re-balance
//!   on every tick
//!   ([`ReoptConfig::bounded`](nfv_controller::ReoptConfig::bounded):
//!   hysteresis on the predicted latency gain, a per-tick migration
//!   budget);
//! * **offline-oracle** — adopts the full fresh RCKK assignment on every
//!   tick, an upper bound on re-balancing aggressiveness (and migration
//!   churn);
//! * **joint-reopt** — periodic-reopt plus the bounded BFDSU re-placement
//!   phase
//!   ([`ReplaceConfig::bounded`](nfv_controller::ReplaceConfig::bounded)):
//!   instance counts follow the live load via a ρ-headroom rule and the
//!   physical placement is repacked incrementally, at most `K` instance
//!   operations per tick. The only policy that knows the physical cluster
//!   ([`Controller::with_cluster`]); the scheduling-only policies keep the
//!   `t = 0` instance counts frozen.
//!
//! The interesting ordering, which the `figures churn` subcommand asserts
//! by printing it: at the moderate [`ChurnPoint::base`] load,
//! periodic-reopt recovers most of the oracle's latency advantage over
//! pure online dispatch while migrating far less; at the
//! [`ChurnPoint::saturated`] load — offered load ~3x what the frozen
//! fleet can serve — every scheduling-only policy pins near `ρ = 1` and
//! joint-reopt beats them outright by growing instances, under its
//! per-tick op budget, into the cluster's capacity headroom.

use nfv_controller::{Controller, ControllerConfig, ControllerReport};
use nfv_metrics::Table;
use nfv_model::ComputeNode;
use nfv_parallel::par_map;
use nfv_placement::{Bfd, Bfdsu, Placement, PlacementProblem, Placer};
use nfv_telemetry::{Telemetry, TelemetryArtifacts};
use nfv_topology::builders;
use nfv_workload::churn::{ChurnTrace, ChurnTraceBuilder};
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::CoreError;

/// Parameters of one churn run (scenario shape + trace dynamics).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnPoint {
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
    /// Poisson rate of instance outages, outages per second.
    pub outage_rate: f64,
    /// Mean exponential outage duration, seconds.
    pub mean_outage: f64,
    /// Number of computing nodes in the physical cluster (joint-reopt
    /// only; the scheduling-only policies never see the substrate).
    pub nodes: usize,
    /// Fraction of the total node capacity the `t = 0` fleet demands.
    /// Kept well below 1 so the re-placement phase has headroom to grow
    /// instances into.
    pub fill: f64,
}

impl ChurnPoint {
    /// The default configuration: a moderately loaded fleet under heavy
    /// request churn with occasional instance outages. The frozen fleet
    /// can absorb most of this load, so scheduling-only re-optimization is
    /// the main lever.
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
            outage_rate: 0.01,
            mean_outage: 10.0,
            nodes: 10,
            fill: 0.45,
        }
    }

    /// A saturating configuration: the steady-state offered load is about
    /// three times what the `t = 0` fleet can serve, so scheduling-only
    /// policies pin every instance near `ρ = 1` and reject heavily while
    /// joint-reopt grows instances into the cluster's capacity headroom
    /// (`fill = 0.25` leaves ~4x room). This is the point where placement
    /// re-optimization, not request scheduling, is the binding lever.
    #[must_use]
    pub fn saturated() -> Self {
        Self {
            arrival_rate: 4.0,
            tick_period: 15.0,
            fill: 0.25,
            ..Self::base()
        }
    }
}

/// One policy's end-of-run result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnOutcome {
    /// Policy name (`online-only`, `periodic-reopt`, `offline-oracle`,
    /// `joint-reopt`).
    pub policy: String,
    /// The controller's final report at the horizon.
    pub report: ControllerReport,
}

/// The four policies' results over the same scenario and trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnComparison {
    /// The run parameters.
    pub point: ChurnPoint,
    /// Base seed used for scenario and trace generation.
    pub seed: u64,
    /// One outcome per policy, in `[online-only, periodic-reopt,
    /// offline-oracle, joint-reopt]` order.
    pub outcomes: Vec<ChurnOutcome>,
}

impl ChurnComparison {
    /// The outcome of one policy by name.
    #[must_use]
    pub fn outcome(&self, policy: &str) -> Option<&ChurnOutcome> {
        self.outcomes.iter().find(|o| o.policy == policy)
    }

    /// Renders the comparison as a plain-text table: one row per policy
    /// with time-weighted mean response time, migrations by cause,
    /// rejection rate and shed count.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "policy",
            "mean W (ms)",
            "migrations",
            "  failover",
            "  reopt",
            "  replace",
            "rejected (%)",
            "shed",
            "reopts applied/skipped",
            "inst +/-/moved",
            "replaces applied/aborted",
        ]);
        for outcome in &self.outcomes {
            let r = &outcome.report;
            table.row(vec![
                outcome.policy.clone(),
                format!("{:.4}", r.mean_latency * 1e3),
                format!("{}", r.migrated()),
                format!("{}", r.migrated_failover),
                format!("{}", r.migrated_reopt),
                format!("{}", r.migrated_replace),
                format!("{:.2}", r.rejection_rate() * 100.0),
                format!("{}", r.shed),
                format!("{}/{}", r.reopts_applied, r.reopts_skipped),
                format!(
                    "{}/{}/{}",
                    r.instances_added, r.instances_retired, r.relocations
                ),
                format!("{}/{}", r.replaces_applied, r.replaces_aborted),
            ]);
        }
        table
    }
}

/// Builds the scenario and trace for a point. Exposed so benches and
/// examples replay exactly the experiment's inputs.
pub fn setup(point: &ChurnPoint, seed: u64) -> Result<(Scenario, ChurnTrace), CoreError> {
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
        .outage_rate(point.outage_rate)
        .mean_outage(point.mean_outage)
        .seed(seed.wrapping_add(1))
        .build(&scenario)?;
    Ok((scenario, trace))
}

/// Materializes the physical cluster for the joint policy: a random
/// connected topology with workload-scaled capacities (redrawn until the
/// deterministic BFD probe certifies feasibility, exactly as the placement
/// experiments do) plus an initial BFDSU placement of the `t = 0` fleet.
pub fn setup_cluster(
    point: &ChurnPoint,
    seed: u64,
    scenario: &Scenario,
) -> Result<(Vec<ComputeNode>, Placement), CoreError> {
    let total_demand = scenario.total_demand().value();
    let max_demand = scenario
        .vnfs()
        .iter()
        .map(|v| v.total_demand().value())
        .fold(0.0f64, f64::max);
    let (lo, hi) =
        crate::experiments::capacity_bounds(total_demand, max_demand, point.nodes, point.fill);
    let mut chosen = None;
    let mut fallback = None;
    for redraw in 0..20u64 {
        let topology = builders::random_connected()
            .nodes(point.nodes)
            .seed(seed)
            .capacity_range(lo, hi, seed ^ 0xC1D5 ^ (redraw << 48))
            .build()?;
        let problem =
            PlacementProblem::new(topology.compute_nodes().to_vec(), scenario.vnfs().to_vec())?;
        let mut probe_rng = StdRng::seed_from_u64(0);
        if Bfd::new().place(&problem, &mut probe_rng).is_ok() {
            chosen = Some(problem);
            break;
        }
        fallback = Some(problem);
    }
    let problem = chosen.or(fallback).expect("at least one draw was made");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B1D);
    let placement = Bfdsu::new().place(&problem, &mut rng)?.into_placement();
    Ok((problem.nodes().to_vec(), placement))
}

/// Replays one seeded trace through the four policies.
pub fn run(point: &ChurnPoint, seed: u64) -> Result<ChurnComparison, CoreError> {
    run_inner(point, seed, false).map(|(comparison, _)| comparison)
}

/// [`run`] with telemetry: each policy replays under its own enabled
/// session, and the artifacts are merged in policy order (so the merged
/// journal is identical at any thread count).
pub fn run_instrumented(
    point: &ChurnPoint,
    seed: u64,
) -> Result<(ChurnComparison, TelemetryArtifacts), CoreError> {
    run_inner(point, seed, true)
}

fn run_inner(
    point: &ChurnPoint,
    seed: u64,
    instrument: bool,
) -> Result<(ChurnComparison, TelemetryArtifacts), CoreError> {
    let (scenario, trace) = setup(point, seed)?;
    let (nodes, placement) = setup_cluster(point, seed, &scenario)?;
    let controllers: Vec<(&str, Controller)> = vec![
        (
            "online-only",
            Controller::new(&scenario, ControllerConfig::online_only()),
        ),
        (
            "periodic-reopt",
            Controller::new(&scenario, ControllerConfig::periodic_reopt()),
        ),
        (
            "offline-oracle",
            Controller::new(&scenario, ControllerConfig::offline_oracle()),
        ),
        (
            "joint-reopt",
            Controller::with_cluster(
                &scenario,
                nodes,
                &placement,
                ControllerConfig::joint_reopt(),
            )?,
        ),
    ];
    // The four policies replay the same borrowed trace independently, so
    // they fan out on the worker pool; results come back in policy order.
    let results = par_map(controllers, |_, (name, mut controller)| {
        let mut tel = if instrument {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        for event in &trace {
            controller.handle_traced(event, &mut tel);
        }
        controller.finish_traced(trace.horizon(), &mut tel);
        let report = controller.report();
        (
            ChurnOutcome {
                policy: name.to_string(),
                report,
            },
            tel.finish(),
        )
    })
    .map_err(CoreError::from)?;
    let (outcomes, parts): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    Ok((
        ChurnComparison {
            point: *point,
            seed,
            outcomes,
        },
        TelemetryArtifacts::merged(parts),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_workload::churn::ChurnEvent;

    #[test]
    fn four_policies_share_the_trace() {
        let comparison = run(&ChurnPoint::base(), 1).unwrap();
        assert_eq!(comparison.outcomes.len(), 4);
        let online = &comparison.outcome("online-only").unwrap().report;
        let oracle = &comparison.outcome("offline-oracle").unwrap().report;
        let joint = &comparison.outcome("joint-reopt").unwrap().report;
        // Same trace: every policy sees the same offered load.
        for outcome in &comparison.outcomes {
            assert_eq!(
                outcome.report.admitted + outcome.report.rejected,
                online.admitted + online.rejected
            );
            assert!(outcome.report.peak_utilization < 1.0);
        }
        assert_eq!(online.migrated_reopt, 0);
        assert!(oracle.reopts_applied > 0);
        // Only the joint policy touches instance counts.
        for outcome in &comparison.outcomes {
            if outcome.policy != "joint-reopt" {
                assert_eq!(outcome.report.instance_ops(), 0);
            }
        }
        assert!(
            joint.replaces_applied > 0,
            "churn must trigger re-placement"
        );
        assert!(joint.instances_added > 0, "the load doubles mid-run");
    }

    #[test]
    fn joint_reopt_beats_scheduling_only_under_saturation() {
        let comparison = run(&ChurnPoint::saturated(), 1).unwrap();
        let reopt = &comparison.outcome("periodic-reopt").unwrap().report;
        let joint = &comparison.outcome("joint-reopt").unwrap().report;
        assert!(
            joint.mean_latency < reopt.mean_latency,
            "growing instances under load must beat a frozen fleet: {} vs {}",
            joint.mean_latency,
            reopt.mean_latency
        );
        assert!(
            joint.rejection_rate() <= reopt.rejection_rate(),
            "extra capacity must not reject more"
        );
    }

    #[test]
    fn joint_instance_ops_stay_within_budget_each_tick() {
        let point = ChurnPoint::saturated();
        let (scenario, trace) = setup(&point, 1).unwrap();
        let (nodes, placement) = setup_cluster(&point, 1, &scenario).unwrap();
        let config = ControllerConfig::joint_reopt();
        let k = config.replace.unwrap().max_instance_ops as u64;
        let mut controller =
            Controller::with_cluster(&scenario, nodes, &placement, config).unwrap();
        let mut tick_reports = Vec::new();
        for event in &trace {
            controller.handle(event);
            if matches!(event.event(), ChurnEvent::ReoptimizeTick) {
                tick_reports.push(controller.report());
            }
        }
        assert!(!tick_reports.is_empty());
        let mut prev = 0u64;
        for report in &tick_reports {
            let ops = report.instance_ops();
            assert!(
                ops - prev <= k,
                "tick at t={} performed {} instance ops, budget is {k}",
                report.time,
                ops - prev
            );
            prev = ops;
        }
    }

    #[test]
    fn reopt_recovers_latency_with_bounded_migrations() {
        let comparison = run(&ChurnPoint::base(), 1).unwrap();
        let online = &comparison.outcome("online-only").unwrap().report;
        let reopt = &comparison.outcome("periodic-reopt").unwrap().report;
        let oracle = &comparison.outcome("offline-oracle").unwrap().report;
        assert!(
            reopt.mean_latency < online.mean_latency,
            "periodic reopt must beat pure online dispatch: {} vs {}",
            reopt.mean_latency,
            online.mean_latency
        );
        assert!(
            reopt.migrated() < oracle.migrated(),
            "bounded reopt must migrate less than the oracle: {} vs {}",
            reopt.migrated(),
            oracle.migrated()
        );
    }

    #[test]
    fn same_seed_comparisons_are_identical() {
        let a = run(&ChurnPoint::base(), 3).unwrap();
        let b = run(&ChurnPoint::base(), 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_table().to_string(), b.to_table().to_string());
    }

    #[test]
    fn instrumented_run_is_a_strict_observer() {
        let plain = run(&ChurnPoint::base(), 3).unwrap();
        let (instrumented, artifacts) = run_instrumented(&ChurnPoint::base(), 3).unwrap();
        assert_eq!(plain, instrumented, "telemetry must not change results");
        assert!(!artifacts.events.is_empty());
        // Four policies each sample every tick.
        let ticks: u64 = instrumented.outcomes.iter().map(|o| o.report.ticks).sum();
        assert_eq!(artifacts.series.len() as u64, ticks);
        for (i, event) in artifacts.events.iter().enumerate() {
            assert_eq!(event.seq, i as u64, "merged journal seq stays dense");
        }
    }
}
