//! The `replay` workload: the million-event churn dynamics of
//! [`ReplayPoint::million`] pushed through the whole-stream batched entry
//! point, one single-threaded controller at a time. Stream generation,
//! ledger mutations and admission do all the work; RCKK, BFDSU, the GA,
//! retries, the fleet and checkpoints do none, which makes this the
//! "should not move" control for optimizations in those layers.
//!
//! One timed call replays 16 sub-seeds of the run's seed back to back,
//! each for 12.5 virtual seconds: the million events of the headline
//! point, spread over 16 scenarios instead of 1, so the quality metrics
//! do not swing with a single scenario's draw.

use std::time::Instant;

use nfv_controller::{Controller, ControllerConfig, ControllerReport};
use nfv_core::experiments::replay::{setup, ReplayPoint};
use nfv_parallel::derive_seed;
use nfv_telemetry::{Telemetry, TelemetryArtifacts};
use nfv_workload::churn::{ChurnEvent, ChurnTraceBuilder, TimedEvent};
use nfv_workload::Scenario;

use crate::layers::{self, drive_ledger};
use crate::stats::{clock_read_seconds, median, repeat_for, repeated_setup};
use crate::{share, BenchResult, Checks, EndToEnd, LayerSheet, Measured, Options, Scale};

/// Controllers per timed call and each one's virtual horizon, seconds.
fn size(scale: Scale) -> (u64, f64) {
    match scale {
        Scale::Full => (16, 12.5),
        Scale::Smoke => (2, 4.0),
    }
}

/// One controller's inputs, with the stream's expected event counts.
struct Input {
    point: ReplayPoint,
    scenario: Scenario,
    builder: ChurnTraceBuilder,
    events: u64,
    arrivals: u64,
}

fn prepare(seed: u64, scale: Scale) -> BenchResult<Vec<Input>> {
    let (controllers, horizon) = size(scale);
    (0..controllers)
        .map(|k| {
            let point = ReplayPoint {
                horizon,
                ..ReplayPoint::million()
            };
            let (scenario, builder) = setup(&point, derive_seed(seed, k))?;
            let (mut events, mut arrivals) = (0, 0);
            for event in builder.stream(&scenario)? {
                events += 1;
                arrivals += u64::from(matches!(event.event(), ChurnEvent::Arrival(_)));
            }
            Ok(Input {
                point,
                scenario,
                builder,
                events,
                arrivals,
            })
        })
        .collect()
}

/// Passes a stream through, counting the events the program pulls and
/// stamping the wall clock whenever it pulls a tick: the gap between two
/// stamps is one tick period's wall time (the previous batch applied and
/// the next one generated).
struct TickClock<I> {
    inner: I,
    events: u64,
    stamps: Vec<Instant>,
}

impl<I: Iterator<Item = TimedEvent>> Iterator for TickClock<I> {
    type Item = TimedEvent;

    fn next(&mut self) -> Option<TimedEvent> {
        let event = self.inner.next()?;
        self.events += 1;
        if matches!(event.event(), ChurnEvent::ReoptimizeTick) {
            self.stamps.push(Instant::now());
        }
        Some(event)
    }
}

/// One timed call: every input replayed through a fresh online-only
/// controller.
struct Call {
    seconds: f64,
    events: u64,
    tick_seconds: Vec<f64>,
    reports: Vec<ControllerReport>,
    controllers: Vec<Controller>,
    artifacts: TelemetryArtifacts,
}

fn call(inputs: &[Input], traced: bool) -> BenchResult<Call> {
    let mut controllers: Vec<Controller> = inputs
        .iter()
        .map(|i| Controller::new(&i.scenario, ControllerConfig::online_only()))
        .collect();
    let mut sessions: Vec<Telemetry> = inputs
        .iter()
        .map(|_| {
            if traced {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            }
        })
        .collect();
    let mut reports = Vec::with_capacity(inputs.len());
    let mut clocks = Vec::with_capacity(inputs.len());
    let started = Instant::now();
    for ((input, controller), tel) in inputs.iter().zip(&mut controllers).zip(&mut sessions) {
        let mut clock = TickClock {
            inner: input.builder.stream(&input.scenario)?,
            events: 0,
            stamps: Vec::with_capacity(input.point.horizon as usize + 1),
        };
        let report = if traced {
            controller.run_stream_batched_traced(&mut clock, input.point.horizon, tel)
        } else {
            controller.run_stream_batched(&mut clock, input.point.horizon)
        };
        reports.push(report);
        clocks.push((clock.events, clock.stamps));
    }
    let seconds = started.elapsed().as_secs_f64();
    let events = clocks.iter().map(|(events, _)| events).sum();
    let tick_seconds = clocks
        .iter()
        .flat_map(|(_, stamps)| stamps.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()))
        .collect();
    Ok(Call {
        seconds,
        events,
        tick_seconds,
        reports,
        controllers,
        artifacts: TelemetryArtifacts::merged(sessions.into_iter().map(Telemetry::finish)),
    })
}

/// The call's output checks: every event the stream holds reached the
/// controller, each controller conserves requests and decided every
/// offer, and the decisions equal the reference call's.
fn check_call(call: &Call, inputs: &[Input], reference: &[ControllerReport], checks: &mut Checks) {
    let expected: u64 = inputs.iter().map(|i| i.events).sum();
    checks.require(call.events == expected, || {
        format!(
            "replay ingested {} events, the streams hold {expected}",
            call.events
        )
    });
    for (k, (report, input)) in call.reports.iter().zip(inputs).enumerate() {
        checks.require(layers::conserves(report), || {
            format!("controller {k} does not conserve requests: {report:?}")
        });
        checks.require(report.admitted + report.rejected == input.arrivals, || {
            format!(
                "controller {k} decided {} offers of {}",
                report.admitted + report.rejected,
                input.arrivals
            )
        });
    }
    checks.require(call.reports == reference, || {
        "a repeated replay decided differently from the first".into()
    });
}

/// Runs the workload.
///
/// # Errors
///
/// Input generation failures.
pub(crate) fn run(options: &Options) -> BenchResult<Measured> {
    let (inputs, setup_seconds) = repeated_setup(|| prepare(options.seed, options.scale))?;
    if options.trace {
        return layers_run(options, &inputs);
    }
    let mut checks = Checks::default();
    let (records, warm, _) = checked_calls(&inputs, options.seconds, 3, false, &mut checks)?;
    let reports = warm.reports;
    let end_to_end = EndToEnd {
        setup_seconds,
        events_per_second: records
            .iter()
            .map(|r| r.events as f64 / r.seconds)
            .collect(),
        tick_seconds: records.iter().map(|r| r.tick_seconds.clone()).collect(),
        served_ratio: layers::served_ratio(&reports),
        mean_response_seconds: layers::typical_response(&reports),
    };
    Ok(Measured {
        metrics: end_to_end.metrics()?,
        attempted: records.iter().map(|r| r.events).sum(),
        checks,
        notes: vec![format!(
            "replay: {} calls of {} events",
            records.len(),
            records[0].events
        )],
    })
}

/// What a checked call leaves behind.
struct Record {
    seconds: f64,
    events: u64,
    tick_seconds: Vec<f64>,
}

/// Runs one untraced warm-up call, which fills the allocator and caches
/// and is the reference every later call is checked against, then timed
/// calls for `seconds` (at least `min_calls`), keeping only their
/// [`Record`]s. With `alternate_tracing` every second timed call is
/// traced and the first traced call is returned whole.
fn checked_calls(
    inputs: &[Input],
    seconds: f64,
    min_calls: usize,
    alternate_tracing: bool,
    checks: &mut Checks,
) -> BenchResult<(Vec<Record>, Call, Option<Call>)> {
    let warm = call(inputs, false)?;
    check_call(&warm, inputs, &warm.reports, checks);
    let mut traced = None;
    let records = repeat_for(seconds, min_calls, |i| {
        let c = call(inputs, alternate_tracing && i % 2 == 1)?;
        check_call(&c, inputs, &warm.reports, checks);
        let record = Record {
            seconds: c.seconds,
            events: c.events,
            tick_seconds: c.tick_seconds.clone(),
        };
        if alternate_tracing && traced.is_none() && i % 2 == 1 {
            traced = Some(c);
        }
        Ok(record)
    })?;
    Ok((records, warm, traced))
}

/// The traced run: untraced and traced calls alternate for the run's
/// seconds, then the per-layer probes run on the same inputs.
fn layers_run(options: &Options, inputs: &[Input]) -> BenchResult<Measured> {
    let mut checks = Checks::default();
    let (records, warm, traced) = checked_calls(inputs, options.seconds, 4, true, &mut checks)?;
    let traced = traced.ok_or("no traced replay call ran")?;
    let reports = &warm.reports;
    let mut sheet = LayerSheet::new();
    let seconds = |parity: usize| -> Vec<f64> {
        records
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|r| r.seconds)
            .collect()
    };
    let (traced_median, plain) = (median(&seconds(1)), median(&seconds(0)));
    sheet.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_median / plain - 1.0),
    );
    // The first traced call's artifacts give the phase totals; its wall
    // time is the base of every share.
    let wall = traced.seconds;
    sheet.set("bench.traced_wall_s", wall);

    let events: u64 = inputs.iter().map(|i| i.events).sum();
    let stream = layers::stream_cost(&mut sheet, || {
        inputs.iter().try_fold(0, |n, i| {
            Ok(n + i.builder.stream(&i.scenario)?.count() as u64)
        })
    })?;

    // The ledger layer: the same arrivals and departures on bare ledgers.
    let (_, horizon) = size(options.scale);
    let sample_ticks = [
        (horizon / 3.0) as u64,
        (2.0 * horizon / 3.0) as u64,
        horizon as u64 - 1,
    ];
    let (mut adds, mut removes, mut admit_checks) = (0, 0, 0);
    let mut samples = Vec::new();
    for (k, (input, report)) in inputs.iter().zip(reports).enumerate() {
        let ticks: &[u64] = if k < 2 { &sample_ticks } else { &[] };
        let drive = drive_ledger(
            &input.scenario,
            input.builder.stream(&input.scenario)?,
            ticks,
        )?;
        checks.require(drive.admitted == report.admitted, || {
            format!(
                "bare-ledger drive {k} admitted {}, the controller {}",
                drive.admitted, report.admitted
            )
        });
        adds += drive.adds;
        removes += drive.removes;
        admit_checks += drive.checks;
        samples.extend(drive.samples);
    }
    let costs = layers::ledger_costs(&samples, &mut checks);
    costs.record(&mut sheet);

    let last = inputs.last().ok_or("no replay input")?;
    let controller = warm.controllers.last().ok_or("no replay controller")?;
    let fresh = Controller::new(&last.scenario, ControllerConfig::online_only());
    layers::checkpoint_costs(controller, &fresh, &mut sheet, &mut checks);
    layers::parallel_round(1, &mut sheet);
    sheet.set("bench.timer_overhead_ns", clock_read_seconds() * 1e9);

    let artifacts = &traced.artifacts;
    sheet.set("telemetry.journal_events", artifacts.events.len() as f64);
    sheet.set("telemetry.dropped_events", artifacts.dropped_events as f64);
    let phases = layers::record_profile(&artifacts.profile, wall, &mut sheet);
    layers::record_ratios(reports, &mut sheet);

    let stream_s = stream * events as f64;
    let ledger_s = adds as f64 * costs.add
        + removes as f64 * costs.remove
        + admit_checks as f64 * costs.admit_check;
    sheet.set(
        "bench.attributed_share",
        share(stream_s + ledger_s + phases, wall),
    );
    let notes = vec![
        format!("replay traced call {wall:.4} s (median {traced_median:.4} s), untraced median {plain:.4} s"),
        format!(
            "  stream: {events} events x {:.1} ns = {stream_s:.4} s ({:.1}%)",
            stream * 1e9,
            share(stream_s, wall)
        ),
        format!(
            "  ledger: {adds} adds x {:.1} ns + {removes} removes x {:.1} ns + {admit_checks} checks x {:.1} ns = {ledger_s:.4} s ({:.1}%), an upper bound: the batched path skips the ledger for flash pairs",
            costs.add * 1e9,
            costs.remove * 1e9,
            costs.admit_check * 1e9,
            share(ledger_s, wall)
        ),
    ];
    Ok(Measured {
        metrics: sheet.metrics(),
        attempted: records.iter().map(|r| r.events).sum(),
        checks,
        notes,
    })
}
