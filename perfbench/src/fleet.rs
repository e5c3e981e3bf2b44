//! The `fleet` and `chaos` workloads.
//!
//! `fleet`: 256 tenants on 16 shards with `fleet_spec`'s tenant shape,
//! drained on 2 worker threads, with a faster churn clock (16 arrivals/s,
//! 0.2 s holding) so each tenant sees several channels' worth of events
//! per epoch: pump, backpressure rounds, parallel drain, per-event
//! ingestion and journal fill dominate.
//!
//! `chaos`: the same fleet under a seeded recoverable fault plan, run back
//! to back with the undisturbed fleet (alternating which runs first) and
//! checked byte-identical to it — the only workload that checkpoints
//! controller and journal state wholesale and replays logs.

use std::time::Instant;

use nfv_controller::{Controller, ControllerReport};
use nfv_core::experiments::fleet::fleet_spec;
use nfv_fleet::{
    run_with_faults, EpochRecord, FaultPlan, FaultRates, FleetOutcome, FleetReport, FleetSpec,
    RecoveryReport,
};
use nfv_parallel::derive_seed;
use nfv_telemetry::SpanTree;
use nfv_workload::churn::{ChurnStream, ChurnTraceBuilder};
use nfv_workload::tenancy::tenant_seed;
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy, TenantId, WorkloadError};

use crate::layers::{self, drive_ledger};
use crate::stats::{clock_read_seconds, median, repeat_for, repeated_setup};
use crate::{share, BenchResult, Checks, EndToEnd, LayerSheet, Measured, Options, Scale, Workload};

/// Drain threads: the 2 cores of the host the benchmark was sized on.
const THREADS: usize = 2;

/// The benchmark's fleet spec; observability is the program's tracing.
fn spec(seed: u64, scale: Scale, observability: bool) -> FleetSpec {
    let (tenants, shards, horizon) = match scale {
        Scale::Full => (256, 16, 200.0),
        Scale::Smoke => (16, 4, 24.0),
    };
    FleetSpec {
        arrival_rate: 16.0,
        mean_holding: 0.2,
        horizon,
        observability,
        threads: THREADS,
        ..fleet_spec(tenants, shards, seed)
    }
}

/// Tenant `t`'s scenario, derived from the fleet seed exactly as
/// `nfv_fleet::run` derives it.
fn tenant_scenario(spec: &FleetSpec, t: usize) -> Result<Scenario, WorkloadError> {
    ScenarioBuilder::new()
        .vnfs(spec.vnfs)
        .requests(spec.requests)
        .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
            target_utilization: spec.target_utilization,
        })
        .seed(tenant_seed(spec.seed, TenantId::new(t as u32)))
        .build()
}

/// Tenant `t`'s event stream, derived as `nfv_fleet::run` derives it.
fn tenant_stream<'a>(
    spec: &FleetSpec,
    t: usize,
    scenario: &'a Scenario,
) -> Result<ChurnStream<'a>, WorkloadError> {
    ChurnTraceBuilder::new()
        .horizon(spec.horizon)
        .arrival_rate(spec.arrival_rate)
        .mean_holding(spec.mean_holding)
        .tick_period(spec.tick_period)
        .seed(derive_seed(spec.seed, t as u64))
        .stream(scenario)
}

/// The benchmark's own inputs: the spec, the fault plan, every tenant's
/// scenario, and the number of events the tenants' streams hold.
struct Input {
    spec: FleetSpec,
    plan: FaultPlan,
    scenarios: Vec<Scenario>,
    events: u64,
}

fn prepare(seed: u64, scale: Scale, chaos: bool) -> BenchResult<Input> {
    let spec = spec(seed, scale, false);
    let plan = if chaos {
        FaultPlan::seeded(
            seed,
            spec.epochs() as usize,
            spec.shards,
            spec.tenants as u32,
            // The smoke fleet is too small for 2% to fire reliably.
            &FaultRates::recoverable(match scale {
                Scale::Full => 0.02,
                Scale::Smoke => 0.3,
            }),
        )
    } else {
        FaultPlan::none()
    };
    let scenarios = (0..spec.tenants)
        .map(|t| tenant_scenario(&spec, t))
        .collect::<Result<Vec<_>, _>>()?;
    let mut events = 0;
    for (t, scenario) in scenarios.iter().enumerate() {
        events += tenant_stream(&spec, t, scenario)?.count() as u64;
    }
    Ok(Input {
        spec,
        plan,
        scenarios,
        events,
    })
}

/// One fleet run and its wall time.
struct Timed {
    seconds: f64,
    outcome: FleetOutcome,
}

fn timed(input: &Input, faults: bool, observability: bool) -> BenchResult<Timed> {
    let spec = FleetSpec {
        observability,
        ..input.spec
    };
    let none = FaultPlan::none();
    let plan = if faults { &input.plan } else { &none };
    let started = Instant::now();
    let outcome = run_with_faults(&spec, plan)?;
    Ok(Timed {
        seconds: started.elapsed().as_secs_f64(),
        outcome,
    })
}

/// One timed call: the fleet run, or for chaos the undisturbed and the
/// faulted run back to back, in an order that alternates call by call.
struct Call {
    plain: Timed,
    faulted: Option<Timed>,
}

impl Call {
    /// The run whose behaviour the workload is about.
    fn subject(&self) -> &Timed {
        self.faulted.as_ref().unwrap_or(&self.plain)
    }

    fn seconds(&self) -> f64 {
        self.plain.seconds + self.faulted.as_ref().map_or(0.0, |f| f.seconds)
    }

    fn events(&self) -> u64 {
        self.plain.outcome.report.events
            + self.faulted.as_ref().map_or(0, |f| f.outcome.report.events)
    }
}

fn call(input: &Input, chaos: bool, index: usize, observability: bool) -> BenchResult<Call> {
    if !chaos {
        return Ok(Call {
            plain: timed(input, false, observability)?,
            faulted: None,
        });
    }
    let (plain, faulted) = if index.is_multiple_of(2) {
        let plain = timed(input, false, observability)?;
        (plain, timed(input, true, observability)?)
    } else {
        let faulted = timed(input, true, observability)?;
        (timed(input, false, observability)?, faulted)
    };
    Ok(Call {
        plain,
        faulted: Some(faulted),
    })
}

/// The deterministic results of a run (wall-clock spans aside, runs are
/// deterministic), kept from the first call to compare later ones with.
#[derive(Debug, PartialEq)]
struct Decisions {
    report: FleetReport,
    epoch_records: Vec<EpochRecord>,
    tenant_reports: Vec<(TenantId, ControllerReport)>,
    recovery: RecoveryReport,
}

impl Decisions {
    /// The outcome's decisions, leaving out the report fields only the
    /// observability plane fills.
    fn of(o: &FleetOutcome) -> Self {
        Self {
            report: FleetReport {
                slo_violations: 0,
                tenant_latency: Vec::new(),
                ..o.report.clone()
            },
            epoch_records: o.epoch_records.clone(),
            tenant_reports: o.tenant_reports.clone(),
            recovery: o.recovery,
        }
    }
}

/// The first call's decisions: the undisturbed run's and, under chaos,
/// the faulted run's.
struct Reference {
    plain: Decisions,
    faulted: Option<Decisions>,
}

impl Reference {
    fn of(c: &Call) -> Self {
        Self {
            plain: Decisions::of(&c.plain.outcome),
            faulted: c.faulted.as_ref().map(|f| Decisions::of(&f.outcome)),
        }
    }
}

/// The call's output checks: conservation at every epoch and at the end,
/// every streamed event ingested, decisions equal to the reference call's
/// and, under faults, recovery identical to the undisturbed run — byte
/// for byte in the merged journal when `bytes`.
fn check_call(c: &Call, input: &Input, reference: &Reference, bytes: bool, checks: &mut Checks) {
    let outcome = &c.plain.outcome;
    let report = &outcome.report;
    checks.require(outcome.epoch_records.iter().all(|r| r.conserved()), || {
        "an epoch record does not conserve requests".into()
    });
    checks.require(
        report.admitted + report.retry_admitted == report.active + report.departed + report.shed,
        || format!("the fleet report does not conserve requests: {report:?}"),
    );
    checks.require(report.events == input.events, || {
        format!(
            "the fleet ingested {} events, the tenant streams hold {}",
            report.events, input.events
        )
    });
    checks.require(Decisions::of(outcome) == reference.plain, || {
        "a repeated fleet run decided differently from the first".into()
    });
    if let (Some(f), Some(r)) = (&c.faulted, &reference.faulted) {
        let faulted = &f.outcome;
        checks.require(faulted.recovery.faults_injected > 0, || {
            "the fault plan fired no fault".into()
        });
        checks.require(
            faulted.report == outcome.report
                && faulted.epoch_records == outcome.epoch_records
                && faulted.tenant_reports == outcome.tenant_reports
                && faulted.artifacts.events == outcome.artifacts.events,
            || "the recovered run differs from the undisturbed run".into(),
        );
        // Line by line, so the check never holds two whole journals as text.
        let same_bytes = || {
            let (a, b) = (&faulted.artifacts.events, &outcome.artifacts.events);
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_json() == y.to_json())
        };
        checks.require(!bytes || same_bytes(), || {
            "the recovered journal is not byte-identical to the undisturbed one".into()
        });
        checks.require(Decisions::of(faulted) == *r, || {
            "a repeated faulted run recovered differently from the first".into()
        });
    }
}

/// What a checked call leaves behind: its timings and event count.
struct Record {
    observed: bool,
    seconds: f64,
    subject_seconds: f64,
    plain_seconds: f64,
    faulted_seconds: Option<f64>,
    events: u64,
    /// Wall time of each epoch of the subject run, from its spans (empty
    /// when observability was off).
    epoch_seconds: Vec<f64>,
}

/// Runs one untraced warm-up call, which fills the allocator and caches
/// and is the reference every later call is checked against, then timed
/// calls for `seconds` (at least `min_calls`), keeping only their
/// [`Record`]s. Every second timed call runs with observability on; with
/// `keep_observed` the first such call is returned whole.
fn checked_calls(
    input: &Input,
    chaos: bool,
    seconds: f64,
    min_calls: usize,
    keep_observed: bool,
    checks: &mut Checks,
) -> BenchResult<(Vec<Record>, Reference, Option<Call>)> {
    let warm = call(input, chaos, 0, false)?;
    let reference = Reference::of(&warm);
    check_call(&warm, input, &reference, true, checks);
    drop(warm);
    let mut observed: Option<Call> = None;
    let records = repeat_for(seconds, min_calls, |i| {
        let (observability, order) = (i % 2 == 1, i / 2 + 1);
        let c = call(input, chaos, order, observability)?;
        check_call(&c, input, &reference, false, checks);
        let record = Record {
            observed: observability,
            seconds: c.seconds(),
            subject_seconds: c.subject().seconds,
            plain_seconds: c.plain.seconds,
            faulted_seconds: c.faulted.as_ref().map(|f| f.seconds),
            events: c.events(),
            epoch_seconds: epoch_seconds(&c.subject().outcome.spans),
        };
        if keep_observed && observability && observed.is_none() {
            observed = Some(c);
        }
        Ok(record)
    })?;
    Ok((records, reference, observed))
}

/// Runs the `fleet` or `chaos` workload.
///
/// # Errors
///
/// Input generation failures and fleet errors.
pub(crate) fn run(options: &Options) -> BenchResult<Measured> {
    let chaos = options.workload == Workload::Chaos;
    let (input, setup_seconds) = repeated_setup(|| prepare(options.seed, options.scale, chaos))?;
    if options.trace {
        return layers_run(options, &input, chaos);
    }
    // The fleet exposes epoch boundaries only through its observability
    // spans, so every second call runs observed and supplies the tick
    // samples; every other end-to-end metric comes from the untraced calls.
    let mut checks = Checks::default();
    let (records, reference, _) =
        checked_calls(&input, chaos, options.seconds, 4, false, &mut checks)?;
    let subject = reference.faulted.as_ref().unwrap_or(&reference.plain);
    let reports: Vec<&ControllerReport> = subject.tenant_reports.iter().map(|(_, r)| r).collect();
    let end_to_end = EndToEnd {
        setup_seconds,
        events_per_second: records
            .iter()
            .filter(|r| !r.observed)
            .map(|r| r.events as f64 / r.seconds)
            .collect(),
        tick_seconds: records
            .iter()
            .filter(|r| r.observed)
            .map(|r| r.epoch_seconds.clone())
            .collect(),
        served_ratio: layers::served_ratio(reports.iter().copied()),
        mean_response_seconds: layers::typical_response(reports.iter().copied()),
    };
    Ok(Measured {
        metrics: end_to_end.metrics()?,
        attempted: records.iter().map(|r| r.events).sum(),
        checks,
        notes: vec![format!(
            "{}: {} calls of {} events",
            options.workload.name(),
            records.len(),
            records[0].events
        )],
    })
}

/// Wall time of every epoch of an observed fleet run, epoch order.
fn epoch_seconds(tree: &SpanTree) -> Vec<f64> {
    tree.roots()
        .into_iter()
        .flat_map(|root| tree.children(root))
        .filter(|&node| tree.label(node).starts_with("epoch "))
        .map(|node| tree.seconds(node))
        .collect()
}

/// Span totals of one observed fleet run, seconds.
#[derive(Debug, Default)]
struct Spans {
    epochs: f64,
    pump: f64,
    drain: Vec<f64>,
    handoff: f64,
    checkpoint: Vec<f64>,
    restore: f64,
    quarantine: f64,
    finish: f64,
}

fn spans(tree: &SpanTree, shards: usize) -> Spans {
    let mut s = Spans {
        drain: vec![0.0; shards],
        ..Spans::default()
    };
    for root in tree.roots() {
        for node in tree.children(root) {
            let label = tree.label(node);
            if label == "finish" {
                s.finish += tree.seconds(node);
            }
            if !label.starts_with("epoch ") {
                continue;
            }
            s.epochs += tree.seconds(node);
            let mut checkpoint = 0.0;
            for phase in tree.children(node) {
                let seconds = tree.seconds(phase);
                match tree.label(phase) {
                    "pump" => s.pump += seconds,
                    "handoff" => s.handoff += seconds,
                    "checkpoint" => checkpoint += seconds,
                    "restore" => s.restore += seconds,
                    "quarantine" => s.quarantine += seconds,
                    other => {
                        let shard = other
                            .strip_prefix("drain shard ")
                            .and_then(|i| i.parse::<usize>().ok());
                        if let Some(slot) = shard.and_then(|i| s.drain.get_mut(i)) {
                            *slot += seconds;
                        }
                    }
                }
            }
            s.checkpoint.push(checkpoint);
        }
    }
    s
}

/// Mean checkpoint time per epoch over the last quarter of the epochs
/// divided by the first quarter's: how checkpoints grow with the state
/// they copy. 0 when the first quarter took none.
fn checkpoint_growth(per_epoch: &[f64]) -> f64 {
    let quarter = (per_epoch.len() / 4).max(1);
    if per_epoch.len() < 2 {
        return 0.0;
    }
    let first = per_epoch[..quarter].iter().sum::<f64>();
    let last = per_epoch[per_epoch.len() - quarter..].iter().sum::<f64>();
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// The traced run: untraced and traced calls alternate for the run's
/// seconds, then the per-layer probes run on the same inputs.
fn layers_run(options: &Options, input: &Input, chaos: bool) -> BenchResult<Measured> {
    let mut checks = Checks::default();
    let (records, _, observed) =
        checked_calls(input, chaos, options.seconds, 4, true, &mut checks)?;
    let observed = observed.ok_or("no traced fleet call ran")?;
    let untraced: Vec<&Record> = records.iter().step_by(2).collect();
    let traced: Vec<&Record> = records.iter().skip(1).step_by(2).collect();
    let mut sheet = LayerSheet::new();
    let subject_seconds =
        |calls: &[&Record]| median(&calls.iter().map(|r| r.subject_seconds).collect::<Vec<_>>());
    let (traced_median, plain) = (subject_seconds(&traced), subject_seconds(&untraced));
    sheet.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_median / plain - 1.0),
    );
    if chaos {
        let overheads: Vec<f64> = untraced
            .iter()
            .filter_map(|r| {
                r.faulted_seconds
                    .map(|f| 100.0 * (f / r.plain_seconds - 1.0))
            })
            .collect();
        sheet.set("fleet.recovery_overhead_pct", median(&overheads));
    }

    // Fleet phases from the first traced call's subject run: its span
    // tree, and its wall time as the base of every share.
    let wall = observed.subject().seconds;
    sheet.set("bench.traced_wall_s", wall);
    let observed = &observed.subject().outcome;
    let spec = &input.spec;
    let s = spans(&observed.spans, spec.shards);
    let drain: f64 = s.drain.iter().sum();
    let non_drain =
        s.pump + s.handoff + s.checkpoint.iter().sum::<f64>() + s.restore + s.quarantine;
    let other = (s.epochs - non_drain - drain / THREADS as f64).max(0.0);
    sheet.set("fleet.pump_share", share(s.pump, wall));
    sheet.set("fleet.drain_share", share(drain, wall));
    let mean_drain = drain / s.drain.len().max(1) as f64;
    let max_drain = s.drain.iter().copied().fold(0.0, f64::max);
    sheet.set(
        "fleet.drain_skew",
        if mean_drain > 0.0 {
            max_drain / mean_drain
        } else {
            0.0
        },
    );
    sheet.set("fleet.handoff_share", share(s.handoff, wall));
    sheet.set("fleet.finish_share", share(s.finish, wall));
    sheet.set("fleet.epoch_other_share", share(other, wall));
    sheet.set(
        "fleet.checkpoint_share",
        share(s.checkpoint.iter().sum(), wall),
    );
    sheet.set("fleet.checkpoint_growth", checkpoint_growth(&s.checkpoint));
    sheet.set("fleet.restore_share", share(s.restore, wall));
    sheet.set("bench.attributed_share", share(s.epochs + s.finish, wall));

    let report = &observed.report;
    let recovery = &observed.recovery;
    sheet.set("fleet.epochs", report.epochs as f64);
    sheet.set("fleet.migrations", report.migrations as f64);
    sheet.set("fleet.migration_cost", report.migration_cost as f64);
    let mean_events = report.events as f64 / report.shard_events.len().max(1) as f64;
    let max_events = report.shard_events.iter().copied().max().unwrap_or(0) as f64;
    sheet.set(
        "fleet.shard_event_skew",
        if mean_events > 0.0 {
            max_events / mean_events
        } else {
            0.0
        },
    );
    sheet.set("fleet.checkpoints", recovery.checkpoints as f64);
    sheet.set(
        "fleet.restores",
        (recovery.shard_restores + recovery.tenant_restores) as f64,
    );
    sheet.set(
        "fleet.replay_ratio",
        recovery.events_replayed as f64 / report.events.max(1) as f64,
    );
    sheet.set(
        "telemetry.journal_events",
        observed.artifacts.events.len() as f64,
    );
    sheet.set(
        "telemetry.dropped_events",
        observed.artifacts.dropped_events as f64,
    );
    layers::record_profile(&observed.artifacts.profile, wall, &mut sheet);
    let reports: Vec<&ControllerReport> = observed.tenant_reports.iter().map(|(_, r)| r).collect();
    layers::record_ratios(reports.iter().copied(), &mut sheet);

    let stream = layers::stream_cost(&mut sheet, || {
        input
            .scenarios
            .iter()
            .enumerate()
            .try_fold(0, |n, (t, scenario)| {
                Ok(n + tenant_stream(spec, t, scenario)?.count() as u64)
            })
    })?;

    // The ledger layer: every tenant's arrivals and departures on a bare
    // ledger, sampled on four tenants.
    let sample_tenants = [0, spec.tenants / 4, spec.tenants / 2, 3 * spec.tenants / 4];
    let ticks = (spec.horizon / spec.tick_period) as u64;
    let sample_ticks = [ticks / 2, ticks];
    let (mut admitted, mut adds, mut removes, mut admit_checks) = (0, 0, 0, 0);
    let mut samples = Vec::new();
    for (t, scenario) in input.scenarios.iter().enumerate() {
        let at: &[u64] = if sample_tenants.contains(&t) {
            &sample_ticks
        } else {
            &[]
        };
        let drive = drive_ledger(scenario, tenant_stream(spec, t, scenario)?, at)?;
        admitted += drive.admitted;
        adds += drive.adds;
        removes += drive.removes;
        admit_checks += drive.checks;
        samples.extend(drive.samples);
    }
    checks.require(admitted == observed.report.admitted, || {
        format!(
            "bare-ledger drives admitted {admitted}, the fleet {}",
            observed.report.admitted
        )
    });
    let costs = layers::ledger_costs(&samples, &mut checks);
    costs.record(&mut sheet);

    // Checkpoint and restore on tenant 0, replayed alone through the
    // per-event path: it must decide exactly what it decided in the fleet.
    let scenario = input.scenarios.first().ok_or("no tenant")?;
    let mut tenant = Controller::new(scenario, spec.controller);
    let alone = tenant.run_stream(tenant_stream(spec, 0, scenario)?, spec.horizon);
    checks.require(Some(&alone) == reports.first().copied(), || {
        "tenant 0 replayed alone decides differently from tenant 0 in the fleet".into()
    });
    let fresh = Controller::new(scenario, spec.controller);
    layers::checkpoint_costs(&tenant, &fresh, &mut sheet, &mut checks);
    layers::parallel_round(THREADS, &mut sheet);
    sheet.set("bench.timer_overhead_ns", clock_read_seconds() * 1e9);

    let events = observed.report.events;
    let ledger_s = adds as f64 * costs.add
        + removes as f64 * costs.remove
        + admit_checks as f64 * costs.admit_check;
    let notes = vec![
        format!(
            "{} traced run {wall:.4} s (median {traced_median:.4} s), untraced median {plain:.4} s, {THREADS} drain threads of {} available",
            options.workload.name(),
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
        format!(
            "  pump span {:.4} s vs stream generation {events} events x {:.1} ns = {:.4} s",
            s.pump,
            stream * 1e9,
            stream * events as f64
        ),
        format!(
            "  drain spans {drain:.4} s (summed over shards) vs bare-ledger ops {ledger_s:.4} s ({adds} adds, {removes} removes, {admit_checks} admission tests)"
        ),
    ];
    Ok(Measured {
        metrics: sheet.metrics(),
        attempted: records.iter().map(|r| r.events).sum(),
        checks,
        notes,
    })
}
