//! Checkpoint → restore round-trips: a controller restored from a
//! `ControllerSnapshot` must be behaviorally indistinguishable from the
//! original for the rest of the run — bit-identical balanced latency,
//! reports, and retry-wheel pop order.
//!
//! Controllers are never compared with `==` directly: the retry wheel's
//! slot vectors may legitimately differ structurally after a rebuild
//! (insertion order vs. key order) while popping identically. Equality is
//! asserted on [`Controller::state`], [`Controller::report`], per-event
//! [`EventOutcome`]s, and continued runs past retry due times.

use nfv_controller::{Controller, ControllerConfig, RetryConfig};
use nfv_model::{
    ArrivalRate, Capacity, ComputeNode, DeliveryProbability, NodeId, Request, RequestId,
    ServiceChain, VnfId,
};
use nfv_placement::{Bfdsu, Placement, PlacementProblem, Placer};
use nfv_telemetry::Telemetry;
use nfv_workload::churn::{ChurnEvent, ChurnTraceBuilder, TimedEvent};
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .vnfs(4)
        .requests(24)
        .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
            target_utilization: 0.55,
        })
        .seed(seed)
        .build()
        .unwrap()
}

/// A cluster of `n` identical nodes roomy enough for the whole fleet,
/// with the initial BFDSU placement (the `node_failure.rs` fixture).
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

/// Runs `original` over `events[..split]`, checkpoints it into
/// `restored`, then drives both over the suffix in lockstep and past the
/// horizon, asserting bit-identical behavior at every step.
fn assert_split_equivalence(
    mut original: Controller,
    mut restored: Controller,
    events: &[TimedEvent],
    split: usize,
    horizon: f64,
) {
    for event in &events[..split] {
        original.handle(event);
    }
    restored.restore(&original.checkpoint()).unwrap();

    assert_eq!(restored.state(), original.state(), "ledger after restore");
    assert_eq!(restored.report(), original.report(), "report after restore");
    assert_eq!(
        restored.state().balanced_latency().to_bits(),
        original.state().balanced_latency().to_bits(),
        "balanced latency after restore"
    );

    for (i, event) in events[split..].iter().enumerate() {
        let want = original.handle(event);
        let got = restored.handle(event);
        assert_eq!(got, want, "outcome diverged at suffix event {i}");
    }

    // Run both far past the horizon so every queued retry comes due: any
    // difference in wheel pop order, backoff jitter, or attempt counters
    // would desynchronize the retry counters and the final report.
    original.finish_traced(horizon + 200.0, &mut Telemetry::disabled());
    restored.finish_traced(horizon + 200.0, &mut Telemetry::disabled());
    assert_eq!(restored.report(), original.report(), "final report");
    assert_eq!(restored.state(), original.state(), "final ledger");
    assert_eq!(
        restored.state().balanced_latency().to_bits(),
        original.state().balanced_latency().to_bits(),
        "final balanced latency"
    );
}

/// The full ladder on a live cluster — ticks, node outages, emergency
/// re-placement, and retries all cross the checkpoint boundary at three
/// different split points.
#[test]
fn clustered_resilient_controller_round_trips_mid_trace() {
    let s = scenario(17);
    let trace = ChurnTraceBuilder::new()
        .horizon(120.0)
        .arrival_rate(0.6)
        .mean_holding(15.0)
        .tick_period(10.0)
        .outage_rate(0.05)
        .mean_outage(6.0)
        .node_fleet(3)
        .node_mtbf(60.0)
        .node_mttr(8.0)
        .seed(7)
        .build(&s)
        .unwrap();
    let events = trace.events();
    assert!(events.len() >= 8, "trace too short to exercise splits");

    for split in [events.len() / 4, events.len() / 2, 3 * events.len() / 4] {
        let (nodes, placement) = cluster(&s, 3);
        let original =
            Controller::with_cluster(&s, nodes.clone(), &placement, ControllerConfig::resilient())
                .unwrap();
        let restored =
            Controller::with_cluster(&s, nodes, &placement, ControllerConfig::resilient()).unwrap();
        assert_split_equivalence(original, restored, events, split, trace.horizon());
    }
}

/// A cluster-free controller (no cluster state in the snapshot) with
/// retries and periodic re-optimization.
#[test]
fn cluster_free_controller_round_trips_mid_trace() {
    let s = scenario(23);
    let config = ControllerConfig {
        retry: Some(RetryConfig::bounded()),
        ..ControllerConfig::periodic_reopt()
    };
    let trace = ChurnTraceBuilder::new()
        .horizon(100.0)
        .arrival_rate(0.8)
        .mean_holding(12.0)
        .tick_period(8.0)
        .outage_rate(0.08)
        .mean_outage(5.0)
        .seed(11)
        .build(&s)
        .unwrap();
    let events = trace.events();

    for split in [1, events.len() / 3, events.len() - 1] {
        let original = Controller::new(&s, config);
        let restored = Controller::new(&s, config);
        assert_split_equivalence(original, restored, events, split, trace.horizon());
    }
}

/// An empty checkpoint (nothing handled yet) restores to a controller
/// that replays the whole trace identically to a fresh one.
#[test]
fn empty_checkpoint_restores_to_a_fresh_controller() {
    let s = scenario(5);
    let trace = ChurnTraceBuilder::new()
        .horizon(60.0)
        .arrival_rate(0.5)
        .tick_period(10.0)
        .seed(3)
        .build(&s)
        .unwrap();
    let original = Controller::new(&s, ControllerConfig::resilient());
    let restored = Controller::new(&s, ControllerConfig::resilient());
    assert_split_equivalence(original, restored, trace.events(), 0, trace.horizon());
}

mod random_histories {
    use super::*;
    use proptest::prelude::*;

    /// Decodes one packed word into a churn event at (monotone) `time`.
    /// Arrivals mint fresh ids; departures and instance events may be
    /// stale on purpose — the controller must account for them, and the
    /// restored controller must account for them identically.
    fn decode_event(w: u64, vnf_count: u32, next_id: &mut u32) -> ChurnEvent {
        match w & 0x7 {
            0..=2 => {
                let id = *next_id;
                *next_id += 1;
                let a = ((w >> 8) % u64::from(vnf_count)) as u32;
                let b = ((w >> 16) % u64::from(vnf_count)) as u32;
                let chain = if a == b {
                    vec![VnfId::new(a)]
                } else {
                    vec![VnfId::new(a), VnfId::new(b)]
                };
                let rate = 0.01 + ((w >> 24) & 0xFF) as f64 / 4096.0;
                let delivery = 0.9 + ((w >> 40) & 0x3F) as f64 / 1024.0;
                ChurnEvent::Arrival(Request::new(
                    RequestId::new(1000 + id),
                    ServiceChain::new(chain).unwrap(),
                    ArrivalRate::new(rate).unwrap(),
                    DeliveryProbability::new(delivery).unwrap(),
                ))
            }
            3 | 4 => {
                let span = u64::from(*next_id).max(1);
                ChurnEvent::Departure(RequestId::new(1000 + ((w >> 8) % span) as u32))
            }
            5 => ChurnEvent::InstanceDown {
                vnf: VnfId::new(((w >> 8) % u64::from(vnf_count)) as u32),
                instance: ((w >> 16) & 0x3) as usize,
            },
            6 => ChurnEvent::InstanceUp {
                vnf: VnfId::new(((w >> 8) % u64::from(vnf_count)) as u32),
                instance: ((w >> 16) & 0x3) as usize,
            },
            _ => ChurnEvent::ReoptimizeTick,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random mutation-interleaved histories (arrivals, stale and live
        /// departures, instance churn, reopt ticks, retries coming due
        /// between events) split at a random point: `checkpoint()` →
        /// `restore()` must reproduce every subsequent outcome,
        /// the final report, the ledger, and the retry-wheel pop order
        /// bit for bit.
        #[test]
        fn checkpoint_restore_round_trips_random_histories(
            // One event per word: kind in the low bits, then ids, rates,
            // and a time quantum (the vendored proptest has no tuple
            // strategy inside `vec`).
            packed in prop::collection::vec(0u64..u64::MAX, 1..120),
            split_sel in 0u64..u64::MAX,
        ) {
            let s = scenario(29);
            let config = ControllerConfig {
                retry: Some(RetryConfig::bounded()),
                ..ControllerConfig::periodic_reopt()
            };
            let vnf_count = s.vnfs().len() as u32;

            let mut events = Vec::with_capacity(packed.len());
            let mut time = 0.0;
            let mut next_id = 0u32;
            for &w in &packed {
                // Gaps up to ~32 s of virtual time let scheduled retries
                // come due mid-history, so the wheel cursor itself is
                // exercised across the checkpoint boundary.
                time += ((w >> 48) & 0xFF) as f64 * 0.125;
                events.push(TimedEvent::new(time, decode_event(w, vnf_count, &mut next_id)));
            }
            let split = (split_sel % (events.len() as u64 + 1)) as usize;

            let mut original = Controller::new(&s, config);
            let mut restored = Controller::new(&s, config);
            for event in &events[..split] {
                original.handle(event);
            }
            restored.restore(&original.checkpoint()).unwrap();
            prop_assert_eq!(restored.state(), original.state());
            prop_assert_eq!(restored.report(), original.report());

            for event in &events[split..] {
                let want = original.handle(event);
                let got = restored.handle(event);
                prop_assert_eq!(got, want);
            }
            // Flush every pending retry: identical pop order is required
            // for the retry counters and reports to stay in lockstep.
            original.finish_traced(time + 500.0, &mut Telemetry::disabled());
            restored.finish_traced(time + 500.0, &mut Telemetry::disabled());
            prop_assert_eq!(restored.report(), original.report());
            prop_assert_eq!(restored.state(), original.state());
            prop_assert_eq!(
                restored.state().balanced_latency().to_bits(),
                original.state().balanced_latency().to_bits()
            );
        }
    }
}
