//! Every re-optimization decision pinned byte for byte: on the outage
//! episode of the benchmark (a §V.A-scale cluster with node failures,
//! built by `resilience::setup` and `churn::setup_cluster`), each
//! `ReoptCommit`, `ReoptRejected` and `EmergencyReplace` journal line and
//! the final report must equal the committed fixtures under
//! `tests/fixtures/`, at one and at two worker threads.
//!
//! The fixtures cover what the figures' journals do not: declines with
//! their causes and required gains, refiner commits, drain-only shrinks
//! and instance retirements. The runs go event by event through
//! `handle_traced` with a ring that drops nothing.
//!
//! This is its own test binary because it sets the process-wide default
//! thread count. On a mismatch the test writes the actual text beside the
//! build, under `target/tmp/decision-journal/`, and names the file; a
//! change that alters a decision on purpose copies that file over its
//! fixture and says why.

use std::fs;
use std::path::PathBuf;

use nfv_controller::{Controller, ControllerConfig};
use nfv_core::experiments::churn::{setup_cluster, ChurnPoint};
use nfv_core::experiments::resilience::{setup, ResiliencePoint};
use nfv_telemetry::{EventKind, Telemetry};

/// The benchmark's outage episode: 30 VNFs, 500 base requests at target
/// utilization 0.85, 10 arrivals/s held 50 s, 1 s ticks, 50 nodes at fill
/// 0.4 failing with MTBF 600 s and MTTR 40 s in racks of 2.
fn outage_point() -> ResiliencePoint {
    ResiliencePoint {
        vnfs: 30,
        base_requests: 500,
        target_utilization: 0.85,
        horizon: 30.0,
        arrival_rate: 10.0,
        mean_holding: 50.0,
        tick_period: 1.0,
        nodes: 50,
        fill: 0.4,
        node_mtbf: 600.0,
        node_mttr: 40.0,
        rack_size: 2,
    }
}

/// The benchmark's smoke-size outage episode.
fn smoke_point() -> ResiliencePoint {
    ResiliencePoint {
        vnfs: 8,
        base_requests: 60,
        horizon: 12.0,
        nodes: 12,
        node_mtbf: 60.0,
        node_mttr: 5.0,
        ..outage_point()
    }
}

/// The pinned runs: fixture name, point, seed and controller config.
fn cases() -> Vec<(&'static str, ResiliencePoint, u64, ControllerConfig)> {
    vec![
        (
            "outage-refined-4099",
            outage_point(),
            4099,
            ControllerConfig::refined(),
        ),
        (
            "smoke-refined-1234567",
            smoke_point(),
            1_234_567,
            ControllerConfig::refined(),
        ),
        (
            "smoke-joint-1234567",
            smoke_point(),
            1_234_567,
            ControllerConfig::joint_reopt(),
        ),
    ]
}

/// Runs one episode and returns its decision records as JSONL and its
/// final report as one line.
fn decisions(point: &ResiliencePoint, seed: u64, config: ControllerConfig) -> (String, String) {
    let (scenario, trace) = setup(point, seed).unwrap();
    let cluster_point = ChurnPoint {
        vnfs: point.vnfs,
        base_requests: point.base_requests,
        target_utilization: point.target_utilization,
        horizon: point.horizon,
        arrival_rate: point.arrival_rate,
        mean_holding: point.mean_holding,
        tick_period: point.tick_period,
        outage_rate: 0.0,
        mean_outage: 1.0,
        nodes: point.nodes,
        fill: point.fill,
    };
    let (nodes, placement) = setup_cluster(&cluster_point, seed, &scenario).unwrap();
    let mut controller = Controller::with_cluster(&scenario, nodes, &placement, config).unwrap();
    let mut tel = Telemetry::with_capacity(1 << 24, 1);
    for event in trace.events() {
        controller.handle_traced(event, &mut tel);
    }
    controller.finish_traced(point.horizon, &mut tel);
    let artifacts = tel.finish();
    assert_eq!(artifacts.dropped_events, 0, "the ring drops nothing");
    let mut journal = String::new();
    for event in &artifacts.events {
        if matches!(
            event.kind,
            EventKind::ReoptCommit { .. }
                | EventKind::ReoptRejected { .. }
                | EventKind::EmergencyReplace { .. }
        ) {
            journal += &event.to_json();
            journal.push('\n');
        }
    }
    (journal, controller.report().render() + "\n")
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn decision_records_match_the_committed_fixtures() {
    for threads in [1, 2] {
        nfv_parallel::set_default_threads(threads);
        for (name, point, seed, config) in cases() {
            let (journal, report) = decisions(&point, seed, config);
            for (file, actual) in [
                (format!("{name}.jsonl"), journal),
                (format!("{name}.txt"), report),
            ] {
                let expected = fs::read_to_string(fixture(&file)).unwrap_or_default();
                if actual != expected {
                    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("decision-journal");
                    let written = dir.join(format!("{threads}-thread-{file}"));
                    fs::create_dir_all(&dir).unwrap();
                    fs::write(&written, &actual).unwrap();
                    panic!(
                        "{file} at {threads} thread(s) differs from its fixture; actual output in {}",
                        written.display()
                    );
                }
            }
        }
    }
}
