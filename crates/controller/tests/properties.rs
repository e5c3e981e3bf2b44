//! Cross-crate invariants tying the controller to the offline pipeline.

use nfv_controller::{Controller, ControllerConfig, ControllerState, ReoptConfig, ShedPolicy};
use nfv_model::{ArrivalRate, Capacity, ComputeNode, DeliveryProbability, NodeId, RequestId};
use nfv_placement::{Bfdsu, Placement, PlacementProblem, Placer};
use nfv_scheduling::{OnlineDispatcher, Rckk, Scheduler};
use nfv_telemetry::Telemetry;
use nfv_workload::churn::{ChurnEvent, ChurnTraceBuilder};
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .vnfs(5)
        .requests(40)
        .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
            target_utilization: 0.6,
        })
        .seed(seed)
        .build()
        .unwrap()
}

/// With no churn and re-optimization disabled, the controller is exactly
/// an online least-loaded dispatcher per VNF: replaying each VNF's
/// requests (arrival = id order) through [`OnlineDispatcher`] with their
/// loss-inflated rates reproduces the controller's assignment.
#[test]
fn pure_arrival_run_matches_online_least_loaded() {
    for seed in [11u64, 12, 13] {
        let s = scenario(seed);
        let trace = ChurnTraceBuilder::new().horizon(10.0).build(&s).unwrap();
        let mut controller = Controller::new(&s, ControllerConfig::online_only());
        let report = controller.run_stream(trace.events().iter().cloned(), trace.horizon());
        assert_eq!(report.rejected, 0, "scenario must have admission headroom");

        for vnf in s.vnfs() {
            let mut dispatcher = OnlineDispatcher::new(vnf.instances() as usize).unwrap();
            for request in s.requests().iter().filter(|r| r.uses(vnf.id())) {
                let expected = dispatcher.dispatch(request.effective_rate());
                assert_eq!(
                    controller.state().home_of(vnf.id(), request.id()),
                    Some(expected),
                    "seed {seed}, {} on {}",
                    request.id(),
                    vnf.id(),
                );
            }
        }
    }
}

/// Zero churn plus a single (forced) re-optimization tick lands every VNF
/// on exactly the assignment the offline RCKK scheduler computes from the
/// same raw rates.
#[test]
fn zero_churn_single_tick_matches_offline_rckk() {
    for seed in [21u64, 22, 23] {
        let s = scenario(seed);
        let trace = ChurnTraceBuilder::new()
            .horizon(10.0)
            .tick_period(5.0)
            .build(&s)
            .unwrap();
        // Force the plan through regardless of predicted gain so the test
        // checks the *assignment*, not the hysteresis.
        let config = ControllerConfig {
            shed: ShedPolicy::RejectArrival,
            reopt: Some(ReoptConfig {
                min_gain: f64::NEG_INFINITY,
                max_migrations: usize::MAX,
            }),
            ..ControllerConfig::online_only()
        };
        let mut controller = Controller::new(&s, config);
        let report = controller.run_stream(trace.events().iter().cloned(), trace.horizon());
        assert_eq!(report.rejected, 0);
        assert!(report.reopts_applied >= 1 || report.reopts_skipped >= 1);

        for vnf in s.vnfs() {
            let requests: Vec<_> = s.requests().iter().filter(|r| r.uses(vnf.id())).collect();
            if requests.is_empty() {
                continue;
            }
            let rates: Vec<_> = requests.iter().map(|r| r.arrival_rate()).collect();
            let schedule = Rckk::new()
                .schedule(&rates, vnf.instances() as usize)
                .unwrap();
            for (i, request) in requests.iter().enumerate() {
                assert_eq!(
                    controller.state().home_of(vnf.id(), request.id()),
                    Some(schedule.instance_of(i)),
                    "seed {seed}, {} on {}",
                    request.id(),
                    vnf.id(),
                );
            }
        }
    }
}

/// Two controller runs over traces built from the same seed produce
/// identical reports, tick for tick and byte for byte.
#[test]
fn same_seed_runs_are_identical() {
    let run = || {
        let s = scenario(31);
        let trace = ChurnTraceBuilder::new()
            .horizon(120.0)
            .arrival_rate(0.6)
            .mean_holding(25.0)
            .tick_period(30.0)
            .outage_rate(0.02)
            .mean_outage(8.0)
            .seed(7)
            .build(&s)
            .unwrap();
        let mut controller = Controller::new(&s, ControllerConfig::periodic_reopt());
        let mut tick_reports = Vec::new();
        for event in &trace {
            controller.handle(event);
            if matches!(event.event(), ChurnEvent::ReoptimizeTick) {
                tick_reports.push(controller.report());
            }
        }
        controller.finish_traced(trace.horizon(), &mut Telemetry::disabled());
        (controller.report(), tick_reports)
    };
    let (report_a, snaps_a) = run();
    let (report_b, snaps_b) = run();
    assert_eq!(report_a, report_b);
    assert_eq!(snaps_a, snaps_b);
    assert_eq!(report_a.render(), report_b.render());
}

/// Replaying a *foreign* trace — one generated for a bigger scenario
/// with more VNFs, more instances per VNF, and node-level outages the
/// cluster-free controller has never heard of — must never panic: the
/// unknown coordinates surface as typed rejections and stale-event
/// counts, and admission conservation still balances.
#[test]
fn foreign_trace_replay_is_rejected_typed_not_a_panic() {
    let small = scenario(61);
    let big = ScenarioBuilder::new()
        .vnfs(12)
        .requests(120)
        .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
            target_utilization: 0.6,
        })
        .seed(62)
        .build()
        .unwrap();
    let trace = ChurnTraceBuilder::new()
        .horizon(80.0)
        .arrival_rate(1.0)
        .mean_holding(15.0)
        .tick_period(20.0)
        .outage_rate(0.08)
        .mean_outage(5.0)
        .node_fleet(4)
        .node_mtbf(40.0)
        .node_mttr(10.0)
        .seed(63)
        .build(&big)
        .unwrap();
    let mut controller = Controller::new(&small, ControllerConfig::periodic_reopt());
    for event in trace.events() {
        controller.handle(event);
    }
    let report = controller.report();
    // Chains crossing VNFs the small scenario does not deploy are
    // refused with `RejectReason::UnknownVnf`, not an index panic.
    assert!(report.rejected > 0, "foreign chains must be refused");
    // Outages naming unknown instances/nodes are counted stale.
    assert!(report.stale_outage_events > 0, "foreign outages are stale");
    assert_eq!(
        report.admitted + report.retry_admitted,
        report.active + report.departed + report.shed,
        "conservation must survive a foreign trace"
    );
}

/// A node fleet roomy enough that placement never fails for capacity
/// reasons, plus an initial BFDSU placement of the scenario's fleet.
fn cluster_for(s: &Scenario, nodes: usize) -> (Vec<ComputeNode>, Placement) {
    let total: f64 = s.vnfs().iter().map(|v| v.total_demand().value()).sum();
    let fleet: Vec<ComputeNode> = (0..nodes)
        .map(|i| ComputeNode::new(NodeId::new(i as u32), Capacity::new(total * 2.0).unwrap()))
        .collect();
    let problem = PlacementProblem::new(fleet.clone(), s.vnfs().to_vec()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let placement = Bfdsu::new()
        .place(&problem, &mut rng)
        .unwrap()
        .into_placement();
    (fleet, placement)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of arrivals, departures, instance outages, and
    /// (possibly overlapping) node outages keeps every admitted request
    /// homed on exactly one *up* instance per chain hop, and failover /
    /// shedding never double-counts: admissions (first-offer + retry)
    /// always balance active + departed + shed exactly.
    #[test]
    fn outage_interleavings_keep_requests_on_up_instances(seed in 0u64..512) {
        let s = scenario(47);
        let trace = ChurnTraceBuilder::new()
            .horizon(120.0)
            .arrival_rate(0.8)
            .mean_holding(20.0)
            .tick_period(30.0)
            .outage_rate(0.05)
            .mean_outage(6.0)
            .node_fleet(4)
            .node_mtbf(60.0)
            .node_mttr(15.0)
            .seed(seed)
            .build(&s)
            .unwrap();
        let (nodes, placement) = cluster_for(&s, 4);
        let mut controller =
            Controller::with_cluster(&s, nodes, &placement, ControllerConfig::resilient())
                .unwrap();
        // Chain of every request the run can ever hold: the base
        // population plus the trace's churn arrivals.
        let mut chains: std::collections::BTreeMap<RequestId, Vec<nfv_model::VnfId>> = s
            .requests()
            .iter()
            .map(|r| (r.id(), r.chain().as_slice().to_vec()))
            .collect();
        for event in trace.events() {
            if let nfv_workload::churn::ChurnEvent::Arrival(r) = event.event() {
                chains.insert(r.id(), r.chain().as_slice().to_vec());
            }
        }
        for event in trace.events() {
            controller.handle(event);
            let state = controller.state();
            let mut active: std::collections::BTreeSet<RequestId> =
                std::collections::BTreeSet::new();
            let mut homed = 0u64;
            for vnf in s.vnfs() {
                for id in state.active_ids(vnf.id()) {
                    let home = state.home_of(vnf.id(), id);
                    prop_assert!(home.is_some(), "{id} on {} has a home", vnf.id());
                    prop_assert!(
                        state.is_up(vnf.id(), home.unwrap()),
                        "{id} rides a down instance of {} after {event:?}",
                        vnf.id(),
                    );
                    active.insert(id);
                    homed += 1;
                }
            }
            // Every active request occupies exactly one instance per hop
            // of its chain — no hop dropped, none double-homed (homes are
            // map entries, so two homes on one VNF are impossible; the
            // count ties each id to *all* of its hops exactly once).
            let hops: u64 = active
                .iter()
                .map(|id| chains.get(id).expect("trace request").len() as u64)
                .sum();
            prop_assert_eq!(homed, hops, "hop occupancy mismatch after {:?}", event);
            let report = controller.report();
            prop_assert_eq!(report.active, active.len() as u64);
            prop_assert_eq!(
                report.admitted + report.retry_admitted,
                report.active + report.departed + report.shed,
                "conservation broken after {:?}",
                event,
            );
        }
    }

    /// `add_request` followed by `remove_request` restores the ledger
    /// bit-for-bit, including the cached f64 sums, even on top of a
    /// populated state.
    #[test]
    fn add_then_remove_restores_ledger(
        rate in 0.01f64..5.0,
        delivery in 0.5f64..1.0,
        vnf_pick in 0usize..64,
        instance_pick in 0usize..64,
    ) {
        let s = scenario(41);
        let mut state = ControllerState::new(&s);
        for request in s.requests() {
            for &vnf in request.chain() {
                let k = state.least_loaded_up(vnf).unwrap();
                state
                    .add_request(vnf, k, request.id(), request.arrival_rate(), request.delivery())
                    .unwrap();
            }
        }
        let before = state.clone();

        let vnf = s.vnfs()[vnf_pick % s.vnfs().len()].id();
        let k = instance_pick % state.instances(vnf);
        let id = RequestId::new(55_555);
        state
            .add_request(
                vnf,
                k,
                id,
                ArrivalRate::new(rate).unwrap(),
                DeliveryProbability::new(delivery).unwrap(),
            )
            .unwrap();
        prop_assert_eq!(state.home_of(vnf, id), Some(k));
        prop_assert_eq!(state.remove_request(vnf, id), Some(k));
        prop_assert_eq!(state, before);
    }

    /// The try-apply-measure-undo discipline of the re-placement phase
    /// relies on every ledger mutation having an exact inverse: a random
    /// interleaving of up/down toggles, request moves between instances
    /// (by remove-then-add and by `move_request`), and instance additions,
    /// undone in reverse order, restores the ledger `==` bit-for-bit
    /// (cached f64 sums included). `move_request` is also checked against
    /// remove-then-add on a clone at every step.
    #[test]
    fn interleaved_mutations_undo_to_identity(
        // Each op is packed into one word: kind in the low bits, then
        // three 16-bit operand fields (the vendored proptest has no tuple
        // strategy inside `vec`).
        packed in prop::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let ops: Vec<(u8, usize, usize, usize)> = packed
            .iter()
            .map(|&w| {
                (
                    (w % 4) as u8,
                    ((w >> 2) & 0xFFFF) as usize,
                    ((w >> 18) & 0xFFFF) as usize,
                    ((w >> 34) & 0xFFFF) as usize,
                )
            })
            .collect();
        let s = scenario(43);
        let mut state = ControllerState::new(&s);
        for request in s.requests() {
            for &vnf in request.chain() {
                let k = state.least_loaded_up(vnf).unwrap();
                state
                    .add_request(vnf, k, request.id(), request.arrival_rate(), request.delivery())
                    .unwrap();
            }
        }
        let before = state.clone();

        enum Undo {
            Toggle(nfv_model::VnfId, usize, bool),
            MoveBack(nfv_model::VnfId, RequestId, usize),
            Retire(nfv_model::VnfId),
        }
        let mut undo: Vec<Undo> = Vec::new();
        for &(kind, a, b, c) in &ops {
            let vnf = s.vnfs()[a % s.vnfs().len()].id();
            match kind {
                0 => {
                    // Toggle an instance's up flag.
                    let k = b % state.instances(vnf);
                    let was = state.is_up(vnf, k);
                    if was {
                        state.mark_down(vnf, k);
                    } else {
                        state.mark_up(vnf, k);
                    }
                    undo.push(Undo::Toggle(vnf, k, was));
                }
                1 => {
                    // Move one request of the VNF to another instance
                    // (exactly what re-placement drains do).
                    let ids = state.active_ids(vnf);
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[b % ids.len()];
                    let origin = state.home_of(vnf, id).unwrap();
                    let target = c % state.instances(vnf);
                    if target == origin {
                        continue;
                    }
                    let request = s.requests().iter().find(|r| r.id() == id).unwrap();
                    state.remove_request(vnf, id);
                    state
                        .add_request(vnf, target, id, request.arrival_rate(), request.delivery())
                        .unwrap();
                    undo.push(Undo::MoveBack(vnf, id, origin));
                }
                2 => {
                    // The ledger-native move must leave exactly the ledger
                    // remove-then-add leaves, including a move onto the
                    // request's own instance.
                    let ids = state.active_ids(vnf);
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[b % ids.len()];
                    let target = c % state.instances(vnf);
                    let request = s.requests().iter().find(|r| r.id() == id).unwrap();
                    let mut reference = state.clone();
                    let origin = reference.remove_request(vnf, id).unwrap();
                    reference
                        .add_request(vnf, target, id, request.arrival_rate(), request.delivery())
                        .unwrap();
                    prop_assert_eq!(state.move_request(vnf, id, target), Ok(origin));
                    prop_assert_eq!(&state, &reference);
                    prop_assert_eq!(
                        state.balanced_latency().to_bits(),
                        reference.balanced_latency().to_bits()
                    );
                    undo.push(Undo::MoveBack(vnf, id, origin));
                }
                _ => {
                    state.add_instance(vnf).unwrap();
                    undo.push(Undo::Retire(vnf));
                }
            }
            // The incrementally maintained balanced-latency aggregate must
            // track every mutation bit for bit against the from-scratch
            // oracle (the hysteresis probes compare raw floats, so "close"
            // is not good enough).
            prop_assert_eq!(
                state.balanced_latency().to_bits(),
                state.balanced_latency_from_scratch().to_bits()
            );
        }
        for op in undo.into_iter().rev() {
            match op {
                Undo::Toggle(vnf, k, was) => {
                    if was {
                        state.mark_up(vnf, k);
                    } else {
                        state.mark_down(vnf, k);
                    }
                }
                Undo::MoveBack(vnf, id, origin) => {
                    let request = s.requests().iter().find(|r| r.id() == id).unwrap();
                    state.remove_request(vnf, id);
                    state
                        .add_request(vnf, origin, id, request.arrival_rate(), request.delivery())
                        .unwrap();
                }
                Undo::Retire(vnf) => {
                    state.retire_instance(vnf).unwrap();
                }
            }
        }
        prop_assert_eq!(
            state.balanced_latency().to_bits(),
            state.balanced_latency_from_scratch().to_bits()
        );
        prop_assert_eq!(state, before);
    }
}
