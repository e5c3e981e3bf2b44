//! The `outage` workload: a paper-scale cluster (§V.A: 30 VNFs, 500 base
//! requests at target utilization 0.85, 50 nodes at fill 0.4) under
//! `ControllerConfig::refined()` — RCKK re-optimization, BFDSU
//! re-placement, emergency re-placement, retries and the GA refiner —
//! with 10 arrivals/s held 50 s, 1 s ticks, and node failures (MTBF
//! 600 s, MTTR 40 s, racks of 2). Events go one at a time through
//! `Controller::handle`; ticks take nearly all the wall time, so the
//! decision layers dominate and each tick's wall time is how long
//! admissions would queue behind it.
//!
//! One timed call runs 16 episodes of 30 virtual seconds on sub-seeds of
//! the run's seed: ~470 ticks, so the tick p95 has more than 10 samples
//! beyond it, and decision quality summarized over 16 clusters instead
//! of 1 (a single cluster's mean response moves by ±22 % from seed to
//! seed).

use std::collections::HashMap;
use std::time::Instant;

use nfv_controller::{Controller, ControllerConfig, ControllerReport};
use nfv_core::experiments::churn::{setup_cluster, ChurnPoint};
use nfv_core::experiments::resilience::{setup, ResiliencePoint};
use nfv_model::{Request, RequestId};
use nfv_parallel::derive_seed;
use nfv_telemetry::{Telemetry, TelemetryArtifacts};
use nfv_workload::churn::{ChurnEvent, ChurnTrace, ChurnTraceBuilder};
use nfv_workload::Scenario;

use crate::layers::{self, LedgerSample};
use crate::stats::{clock_read_seconds, median, repeat_for, repeated_setup};
use crate::{share, BenchResult, Checks, EndToEnd, LayerSheet, Measured, Options, Scale};

/// The traced run captures the ledger every this-many ticks.
const SAMPLE_EVERY: u64 = 10;

/// Episodes per timed call and the episode's parameters.
fn size(scale: Scale) -> (u64, ResiliencePoint) {
    let point = ResiliencePoint {
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
    };
    match scale {
        Scale::Full => (16, point),
        Scale::Smoke => (
            1,
            ResiliencePoint {
                vnfs: 8,
                base_requests: 60,
                horizon: 12.0,
                nodes: 12,
                node_mtbf: 60.0,
                node_mttr: 5.0,
                ..point
            },
        ),
    }
}

/// One episode's inputs.
struct Episode {
    point: ResiliencePoint,
    seed: u64,
    scenario: Scenario,
    trace: ChurnTrace,
    /// Built with the cluster and cloned per call, outside the timer.
    controller: Controller,
    arrivals: u64,
    /// Every request of the trace by id, for the ledger probes.
    requests: HashMap<RequestId, Request>,
}

fn prepare(seed: u64, scale: Scale) -> BenchResult<Vec<Episode>> {
    let (episodes, point) = size(scale);
    (0..episodes)
        .map(|k| {
            let seed = derive_seed(seed, k);
            let (scenario, trace) = setup(&point, seed)?;
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
            let (nodes, placement) = setup_cluster(&cluster_point, seed, &scenario)?;
            let controller = Controller::with_cluster(
                &scenario,
                nodes,
                &placement,
                ControllerConfig::refined(),
            )?;
            let requests: HashMap<RequestId, Request> = trace
                .events()
                .iter()
                .filter_map(|e| match e.event() {
                    ChurnEvent::Arrival(r) => Some((r.id(), r.clone())),
                    _ => None,
                })
                .collect();
            Ok(Episode {
                point,
                seed,
                arrivals: requests.len() as u64,
                scenario,
                trace,
                controller,
                requests,
            })
        })
        .collect()
}

/// Wall seconds spent in `Controller::handle` per event kind.
#[derive(Debug, Default, Clone, Copy)]
struct Kinds {
    arrival: (f64, u64),
    departure: (f64, u64),
    node_down: (f64, u64),
    tick: (f64, u64),
}

/// One timed call: every episode driven event by event through a copy of
/// its controller.
struct Call {
    seconds: f64,
    events: u64,
    tick_seconds: Vec<f64>,
    kinds: Kinds,
    reports: Vec<ControllerReport>,
    artifacts: TelemetryArtifacts,
    samples: Vec<LedgerSample>,
    last: Option<Controller>,
}

/// Runs one call; `sample` captures ledgers at every [`SAMPLE_EVERY`]th
/// tick, outside the timers.
fn call(episodes: &[Episode], traced: bool, sample: bool) -> Call {
    let mut c = Call {
        seconds: 0.0,
        events: 0,
        tick_seconds: Vec::new(),
        kinds: Kinds::default(),
        reports: Vec::with_capacity(episodes.len()),
        artifacts: TelemetryArtifacts::default(),
        samples: Vec::new(),
        last: None,
    };
    let mut sessions = Vec::with_capacity(episodes.len());
    for episode in episodes {
        let mut controller = episode.controller.clone();
        let mut tel = if traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let mut ticks = 0u64;
        let mut handle_seconds = 0.0;
        let started = Instant::now();
        for event in episode.trace.events() {
            let t = Instant::now();
            if traced {
                controller.handle_traced(event, &mut tel);
            } else {
                controller.handle(event);
            }
            let dt = t.elapsed().as_secs_f64();
            handle_seconds += dt;
            let slot = match event.event() {
                ChurnEvent::Arrival(_) => &mut c.kinds.arrival,
                ChurnEvent::Departure(_) => &mut c.kinds.departure,
                ChurnEvent::NodeDown { .. } => &mut c.kinds.node_down,
                ChurnEvent::ReoptimizeTick => {
                    c.tick_seconds.push(dt);
                    ticks += 1;
                    if sample && ticks.is_multiple_of(SAMPLE_EVERY) {
                        c.samples
                            .push(LedgerSample::capture(controller.state(), &episode.requests));
                    }
                    &mut c.kinds.tick
                }
                _ => continue,
            };
            slot.0 += dt;
            slot.1 += 1;
        }
        controller.finish_traced(episode.point.horizon, &mut tel);
        // Sampling happens between handle calls; leave it out of the wall.
        c.seconds += if sample {
            handle_seconds
        } else {
            started.elapsed().as_secs_f64()
        };
        c.events += episode.trace.len() as u64;
        c.reports.push(controller.report());
        sessions.push(tel.finish());
        c.last = Some(controller);
    }
    c.artifacts = TelemetryArtifacts::merged(sessions);
    c
}

/// The call's output checks: conservation, every offer decided, and the
/// decisions equal the reference call's.
fn check_call(c: &Call, episodes: &[Episode], reference: &[ControllerReport], checks: &mut Checks) {
    for (k, (report, episode)) in c.reports.iter().zip(episodes).enumerate() {
        checks.require(layers::conserves(report), || {
            format!("episode {k} does not conserve requests: {report:?}")
        });
        checks.require(
            report.admitted + report.rejected == episode.arrivals,
            || {
                format!(
                    "episode {k} decided {} first offers of {}",
                    report.admitted + report.rejected,
                    episode.arrivals
                )
            },
        );
    }
    checks.require(c.reports == reference, || {
        "a repeated episode decided differently from the first".into()
    });
}

/// Runs the workload.
///
/// # Errors
///
/// Input generation failures.
pub(crate) fn run(options: &Options) -> BenchResult<Measured> {
    let (episodes, setup_seconds) = repeated_setup(|| prepare(options.seed, options.scale))?;
    if options.trace {
        return layers_run(options, &episodes);
    }
    let calls = repeat_for(options.seconds, 2, |_| Ok(call(&episodes, false, false)))?;
    let mut checks = Checks::default();
    for c in &calls {
        check_call(c, &episodes, &calls[0].reports, &mut checks);
    }
    let reports = &calls[0].reports;
    let end_to_end = EndToEnd {
        setup_seconds,
        events_per_second: calls.iter().map(|c| c.events as f64 / c.seconds).collect(),
        tick_seconds: calls.iter().map(|c| c.tick_seconds.clone()).collect(),
        served_ratio: layers::served_ratio(reports),
        mean_response_seconds: layers::typical_response(reports),
    };
    Ok(Measured {
        metrics: end_to_end.metrics()?,
        attempted: calls.iter().map(|c| c.events).sum(),
        checks,
        notes: vec![format!(
            "outage: {} calls of {} events, {} ticks each",
            calls.len(),
            calls[0].events,
            calls[0].tick_seconds.len()
        )],
    })
}

/// The stream the episode's trace was built from, regenerated lazily.
fn episode_stream_events(episode: &Episode) -> BenchResult<u64> {
    let p = &episode.point;
    let stream = ChurnTraceBuilder::new()
        .horizon(p.horizon)
        .arrival_rate(p.arrival_rate)
        .mean_holding(p.mean_holding)
        .tick_period(p.tick_period)
        .node_fleet(p.nodes)
        .node_mtbf(p.node_mtbf)
        .node_mttr(p.node_mttr)
        .rack_size(p.rack_size)
        .seed(episode.seed.wrapping_add(1))
        .stream(&episode.scenario)?;
    Ok(stream.count() as u64)
}

/// The traced run: untraced and traced calls alternate for the run's
/// seconds, then the per-layer probes run on ledgers sampled at ticks.
fn layers_run(options: &Options, episodes: &[Episode]) -> BenchResult<Measured> {
    let calls = repeat_for(options.seconds, 2, |i| {
        Ok(call(episodes, i % 2 == 1, false))
    })?;
    let untraced: Vec<&Call> = calls.iter().step_by(2).collect();
    let traced: Vec<&Call> = calls.iter().skip(1).step_by(2).collect();
    let mut checks = Checks::default();
    for c in &calls {
        check_call(c, episodes, &untraced[0].reports, &mut checks);
    }
    let mut sheet = LayerSheet::new();
    let seconds = |calls: &[&Call]| median(&calls.iter().map(|c| c.seconds).collect::<Vec<_>>());
    let (traced_median, plain) = (seconds(&traced), seconds(&untraced));
    sheet.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_median / plain - 1.0),
    );
    // The first traced call's profile and per-kind times give the shares;
    // its wall time is their base.
    let observed = traced[0];
    let wall = observed.seconds;
    sheet.set("bench.traced_wall_s", wall);
    let kinds = observed.kinds;
    for (stem, (seconds, n)) in [
        ("controller.arrival", kinds.arrival),
        ("controller.departure", kinds.departure),
        ("controller.node_down", kinds.node_down),
    ] {
        sheet.set(&format!("{stem}_share"), share(seconds, wall));
        sheet.set(&format!("{stem}_n"), n as f64);
    }
    let phases = layers::record_profile(&observed.artifacts.profile, wall, &mut sheet);
    sheet.set("bench.attributed_share", share(phases, wall));
    sheet.set(
        "telemetry.journal_events",
        observed.artifacts.events.len() as f64,
    );
    sheet.set(
        "telemetry.dropped_events",
        observed.artifacts.dropped_events as f64,
    );
    layers::record_ratios(&observed.reports, &mut sheet);

    let mut streamed_as_built = true;
    layers::stream_cost(&mut sheet, || {
        episodes.iter().try_fold(0, |n, episode| {
            let events = episode_stream_events(episode)?;
            streamed_as_built &= events == episode.trace.len() as u64;
            Ok(n + events)
        })
    })?;
    checks.require(streamed_as_built, || {
        "the streamed trace differs from the built one".into()
    });

    // The ledger layer on ledgers captured at ticks, and checkpoint and
    // restore on the last episode's final controller.
    let sampled = call(episodes, false, true);
    check_call(&sampled, episodes, &untraced[0].reports, &mut checks);
    let costs = layers::ledger_costs(&sampled.samples, &mut checks);
    costs.record(&mut sheet);
    let last = episodes.last().ok_or("no outage episode")?;
    let controller = sampled.last.as_ref().ok_or("no outage controller")?;
    layers::checkpoint_costs(controller, &last.controller, &mut sheet, &mut checks);
    layers::parallel_round(1, &mut sheet);
    sheet.set("bench.timer_overhead_ns", clock_read_seconds() * 1e9);

    let per_op = |(seconds, n): (f64, u64)| 1e6 * seconds / n.max(1) as f64;
    let notes = vec![
        format!("outage traced call {wall:.4} s (median {traced_median:.4} s), untraced median {plain:.4} s"),
        format!(
            "  ticks {:.1}% of the traced wall ({} x {:.0} us); profiled phases cover {:.1}%",
            share(kinds.tick.0, wall),
            kinds.tick.1,
            per_op(kinds.tick),
            share(phases, wall)
        ),
        format!(
            "  per event: arrival {:.1} us, departure {:.1} us, node down {:.1} us",
            per_op(kinds.arrival),
            per_op(kinds.departure),
            per_op(kinds.node_down)
        ),
    ];
    Ok(Measured {
        metrics: sheet.metrics(),
        attempted: calls.iter().map(|c| c.events).sum(),
        checks,
        notes,
    })
}
