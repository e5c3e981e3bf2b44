//! Review-only repro: a request whose departure fires while it sits in
//! the retry queue gets re-admitted afterwards and never leaves.

use nfv_controller::{Controller, ControllerConfig, EventOutcome};
use nfv_model::{Capacity, ComputeNode, NodeId};
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

#[test]
fn departed_while_queued_request_is_resurrected_forever() {
    let s = scenario();
    let (nodes, placement) = cluster(&s, 1);
    let mut controller =
        Controller::with_cluster(&s, nodes, &placement, ControllerConfig::resilient()).unwrap();

    for request in s.requests() {
        let outcome =
            controller.handle(&TimedEvent::new(0.0, ChurnEvent::Arrival(request.clone())));
        assert!(matches!(outcome, EventOutcome::Admitted { .. }));
    }
    let population = s.requests().len() as u64;

    // Node dies at t=5: everything is shed into the retry queue.
    let node = NodeId::new(0);
    controller.handle(&TimedEvent::new(5.0, ChurnEvent::NodeDown { node }));
    assert_eq!(controller.report().active, 0);

    // Every request departs at t=5.5 — while queued for retry. The trace
    // says these requests are gone from the system for good.
    for request in s.requests() {
        let out = controller.handle(&TimedEvent::new(5.5, ChurnEvent::Departure(request.id())));
        assert_eq!(out, EventOutcome::StaleDeparture);
    }

    // Node returns at t=6; the retry queue then re-admits requests whose
    // lifetimes already ended.
    controller.handle(&TimedEvent::new(6.0, ChurnEvent::NodeUp { node }));
    controller.finish_traced(500.0, &mut Telemetry::disabled());

    let report = controller.report();
    println!(
        "retry_admitted={} active={} departed={} (population={})",
        report.retry_admitted, report.active, report.departed, population
    );
    // The buggy behavior: departed requests come back and stay active
    // forever (no further departure event exists for them).
    assert_eq!(report.departed, 0);
    assert_eq!(report.active, population, "resurrected past departure");
}
