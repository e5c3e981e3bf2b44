//! Deterministic node-failure-domain scenarios: total-loss edge cases,
//! overlapping outages, and stale-event accounting.

use nfv_controller::{Controller, ControllerConfig, EventOutcome};
use nfv_model::{Capacity, ComputeNode, NodeId, VnfId};
use nfv_placement::{Bfdsu, Placement, PlacementProblem, Placer};
use nfv_telemetry::Telemetry;
use nfv_workload::churn::{ChurnEvent, TimedEvent};
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario() -> Scenario {
    ScenarioBuilder::new()
        .vnfs(3)
        .requests(6)
        .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
            target_utilization: 0.5,
        })
        .seed(91)
        .build()
        .unwrap()
}

/// A cluster of `n` identical nodes, each roomy enough to host the whole
/// fleet, with the initial BFDSU placement.
fn cluster(s: &Scenario, n: usize) -> (Vec<ComputeNode>, Placement) {
    let total: f64 = s.vnfs().iter().map(|v| v.total_demand().value()).sum();
    let nodes: Vec<ComputeNode> = (0..n)
        .map(|i| ComputeNode::new(NodeId::new(i as u32), Capacity::new(total * 2.0).unwrap()))
        .collect();
    let problem = PlacementProblem::new(nodes.clone(), s.vnfs().to_vec()).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let placement = Bfdsu::new()
        .place(&problem, &mut rng)
        .unwrap()
        .into_placement();
    (nodes, placement)
}

/// The worst case a failure domain allows: a single-node cluster loses its
/// only node. Everything must be shed (there is nowhere to fail over or
/// re-place to), ticks during the outage must be harmless, and once the
/// node returns the retry queue must re-admit the entire population.
#[test]
fn single_node_outage_sheds_everything_and_retries_recover_it() {
    let s = scenario();
    let (nodes, placement) = cluster(&s, 1);
    let mut controller =
        Controller::with_cluster(&s, nodes, &placement, ControllerConfig::resilient()).unwrap();

    let population = s.requests().len() as u64;
    for request in s.requests() {
        let outcome =
            controller.handle(&TimedEvent::new(0.0, ChurnEvent::Arrival(request.clone())));
        assert!(matches!(outcome, EventOutcome::Admitted { .. }));
    }
    assert_eq!(controller.report().active, population);

    // The node dies: every VNF loses every instance at once; nothing can
    // fail over and the emergency pass finds no surviving capacity.
    let node = NodeId::new(0);
    let outcome = controller.handle(&TimedEvent::new(5.0, ChurnEvent::NodeDown { node }));
    match outcome {
        EventOutcome::NodeDownHandled {
            vnfs_lost,
            shed,
            instances_added,
            relocations,
        } => {
            assert_eq!(vnfs_lost, s.vnfs().len() as u64);
            assert_eq!(shed, population);
            assert_eq!(instances_added, 0, "no surviving node to grow on");
            assert_eq!(relocations, 0);
        }
        other => panic!("expected NodeDownHandled, got {other:?}"),
    }
    assert_eq!(controller.report().active, 0);
    assert!(!controller.state().fully_available());

    // Ticks during the outage must neither panic nor resurrect anything:
    // the only node is dark, so re-placement has nowhere to go.
    controller.handle(&TimedEvent::new(10.0, ChurnEvent::ReoptimizeTick));
    assert_eq!(controller.report().active, 0);
    assert!(!controller.state().fully_available());

    // The node comes back; hosted VNFs are restored wholesale.
    let outcome = controller.handle(&TimedEvent::new(25.0, ChurnEvent::NodeUp { node }));
    match outcome {
        EventOutcome::NodeUpHandled { vnfs_restored } => {
            assert_eq!(vnfs_restored, s.vnfs().len() as u64);
        }
        other => panic!("expected NodeUpHandled, got {other:?}"),
    }
    assert!(controller.state().fully_available());

    // Draining the retry queue re-admits the entire shed population well
    // within the backoff budget.
    controller.finish_traced(200.0, &mut Telemetry::disabled());
    let report = controller.report();
    assert_eq!(report.admitted, population, "first offers only");
    assert_eq!(report.shed, population);
    assert_eq!(
        report.retry_admitted, population,
        "every shed request returns"
    );
    assert_eq!(report.retry_abandoned, 0);
    assert_eq!(report.retry_pending, 0);
    assert_eq!(report.active, population);
    assert_eq!(report.lost(), 0, "full recovery");
    assert_eq!(report.node_downs, 1);
    assert_eq!(report.node_ups, 1);
}

/// Overlapping outages of the same node stack: the first `NodeUp` of two
/// pending `NodeDown`s must not resurrect the host.
#[test]
fn overlapping_node_outages_do_not_resurrect_early() {
    let s = scenario();
    let (nodes, placement) = cluster(&s, 1);
    let mut controller =
        Controller::with_cluster(&s, nodes, &placement, ControllerConfig::resilient()).unwrap();
    let node = NodeId::new(0);

    controller.handle(&TimedEvent::new(1.0, ChurnEvent::NodeDown { node }));
    assert!(!controller.state().fully_available());

    // A second, overlapping failure of the same domain: nothing new is
    // lost (everything already was), but the depth increments.
    let outcome = controller.handle(&TimedEvent::new(2.0, ChurnEvent::NodeDown { node }));
    match outcome {
        EventOutcome::NodeDownHandled {
            vnfs_lost, shed, ..
        } => {
            assert_eq!((vnfs_lost, shed), (0, 0), "already dark");
        }
        other => panic!("expected NodeDownHandled, got {other:?}"),
    }

    // First recovery only peels one layer: the node is still down.
    let outcome = controller.handle(&TimedEvent::new(3.0, ChurnEvent::NodeUp { node }));
    assert!(matches!(
        outcome,
        EventOutcome::NodeUpHandled { vnfs_restored: 0 }
    ));
    assert!(!controller.state().fully_available());

    // Second recovery actually restores the host.
    let outcome = controller.handle(&TimedEvent::new(4.0, ChurnEvent::NodeUp { node }));
    match outcome {
        EventOutcome::NodeUpHandled { vnfs_restored } => {
            assert_eq!(vnfs_restored, s.vnfs().len() as u64);
        }
        other => panic!("expected NodeUpHandled, got {other:?}"),
    }
    assert!(controller.state().fully_available());

    let report = controller.report();
    assert_eq!(report.node_downs, 2);
    assert_eq!(report.node_ups, 2);
    assert_eq!(report.stale_outage_events, 0);
}

/// Outage events the controller cannot resolve — an unknown VNF, an `Up`
/// for an instance that is not down, a node event without a cluster — are
/// counted as stale and change nothing.
#[test]
fn stale_outage_events_are_counted_not_applied() {
    let s = scenario();
    // No cluster: node events have nothing to resolve against.
    let mut controller = Controller::new(&s, ControllerConfig::resilient());
    let before = controller.state().clone();

    let unknown_vnf = VnfId::new(999);
    let outcomes = [
        controller.handle(&TimedEvent::new(
            1.0,
            ChurnEvent::InstanceDown {
                vnf: unknown_vnf,
                instance: 0,
            },
        )),
        controller.handle(&TimedEvent::new(
            2.0,
            ChurnEvent::InstanceUp {
                vnf: s.vnfs()[0].id(),
                instance: 0,
            },
        )),
        controller.handle(&TimedEvent::new(
            3.0,
            ChurnEvent::NodeDown {
                node: NodeId::new(0),
            },
        )),
    ];
    for outcome in outcomes {
        assert!(matches!(outcome, EventOutcome::StaleOutage));
    }
    assert_eq!(controller.state(), &before, "stale events are no-ops");
    let report = controller.report();
    assert_eq!(report.stale_outage_events, 3);
    assert_eq!(report.node_downs, 0);

    // With a cluster, an out-of-range node index is stale too.
    let (nodes, placement) = cluster(&s, 2);
    let mut controller =
        Controller::with_cluster(&s, nodes, &placement, ControllerConfig::resilient()).unwrap();
    let outcome = controller.handle(&TimedEvent::new(
        1.0,
        ChurnEvent::NodeUp {
            node: NodeId::new(7),
        },
    ));
    assert!(matches!(outcome, EventOutcome::StaleOutage));
    assert_eq!(controller.report().stale_outage_events, 1);
}
