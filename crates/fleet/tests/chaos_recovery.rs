//! The chaos invariant: a fleet run with injected *recoverable* faults,
//! repaired through epoch checkpoints and event replay, is
//! byte-identical to the undisturbed run — report, epoch records,
//! migrations, per-tenant reports, and the merged journal. Unrecoverable
//! faults degrade gracefully and typed: quarantine for a corrupt
//! checkpoint, `PumpStalled` for a wedged drain.

use nfv_controller::Controller;
use nfv_fleet::{
    run, run_with_faults, FaultKind, FaultPlan, FaultRates, FleetError, FleetOutcome, FleetSpec,
    RecoveryReport,
};
use nfv_parallel::derive_seed;
use nfv_telemetry::{EventKind, Telemetry, TelemetryArtifacts, FLIGHT_RECORDER_WINDOW};
use nfv_workload::churn::ChurnTraceBuilder;
use nfv_workload::tenancy::tenant_seed;
use nfv_workload::{ScenarioBuilder, ServiceRatePolicy, TenantId};

fn spec() -> FleetSpec {
    FleetSpec {
        seed: 42,
        ..FleetSpec::smoke()
    }
}

/// Asserts the full byte-identity contract between a faulted-but-
/// recovered outcome and the undisturbed baseline.
fn assert_byte_identical(faulted: &FleetOutcome, baseline: &FleetOutcome) {
    assert_eq!(faulted.report, baseline.report, "fleet report diverged");
    assert_eq!(
        faulted.epoch_records, baseline.epoch_records,
        "epoch records diverged"
    );
    assert_eq!(faulted.migrations, baseline.migrations, "handoffs diverged");
    assert_eq!(
        faulted.tenant_reports, baseline.tenant_reports,
        "tenant reports diverged"
    );
    assert_eq!(
        faulted.artifacts.journal_jsonl(),
        baseline.artifacts.journal_jsonl(),
        "merged journal not byte-identical"
    );
}

#[test]
fn empty_plan_is_exactly_the_undisturbed_run() {
    let spec = spec();
    let a = run(&spec).unwrap();
    let b = run_with_faults(&spec, &FaultPlan::none()).unwrap();
    assert_byte_identical(&b, &a);
    assert_eq!(b.recovery, Default::default(), "no recovery machinery ran");
    assert!(b.quarantines.is_empty());
    assert!(
        b.chaos_artifacts.journal_jsonl().is_empty(),
        "no chaos journal without faults"
    );
}

#[test]
fn seeded_recoverable_faults_recover_byte_identically() {
    let spec = spec();
    let plan = FaultPlan::seeded(
        42,
        spec.epochs() as usize,
        spec.shards,
        spec.tenants as u32,
        &FaultRates::recoverable(0.4),
    );
    assert!(plan.fault_count() > 0, "rate 0.4 must schedule faults");
    let baseline = run(&spec).unwrap();
    let faulted = run_with_faults(&spec, &plan).unwrap();
    assert!(
        faulted.recovery.faults_injected > 0,
        "scheduled faults must actually fire: {:?}",
        faulted.recovery
    );
    assert!(faulted.recovery.checkpoints > 0);
    assert!(
        faulted.recovery.shard_restores + faulted.recovery.tenant_restores > 0,
        "recovery must have repaired something: {:?}",
        faulted.recovery
    );
    assert!(
        faulted.quarantines.is_empty(),
        "recoverable plans never quarantine"
    );
    assert!(
        !faulted.chaos_artifacts.journal_jsonl().is_empty(),
        "recovery emits chaos telemetry"
    );
    assert_byte_identical(&faulted, &baseline);
}

#[test]
fn shard_panic_mid_drain_restores_and_replays_byte_identically() {
    let spec = spec();
    let plan = FaultPlan::none().with_fault(1, FaultKind::ShardPanic { shard: 0 });
    let baseline = run(&spec).unwrap();
    let faulted = run_with_faults(&spec, &plan).unwrap();
    assert_eq!(faulted.recovery.shard_restores, 1, "the panic must fire");
    assert!(
        faulted.recovery.events_replayed > 0,
        "replay caught the shard up"
    );
    assert_byte_identical(&faulted, &baseline);
}

#[test]
fn boundary_faults_restore_and_replay_byte_identically() {
    let spec = spec();
    // One of each epoch-boundary fault kind, on distinct tenants and
    // epochs; `nth: 0` so the channel faults fire on the first pumped
    // event of their epoch.
    let plan = FaultPlan::none()
        .with_fault(0, FaultKind::TenantCrash { tenant: 0 })
        .with_fault(1, FaultKind::ChannelDrop { tenant: 1, nth: 0 })
        .with_fault(1, FaultKind::ChannelDup { tenant: 2, nth: 0 })
        .with_fault(2, FaultKind::CorruptState { tenant: 3 });
    let baseline = run(&spec).unwrap();
    let faulted = run_with_faults(&spec, &plan).unwrap();
    assert!(
        faulted.recovery.tenant_restores >= 3,
        "crash + channel faults + corruption all recover: {:?}",
        faulted.recovery
    );
    assert_byte_identical(&faulted, &baseline);
}

#[test]
fn corrupt_checkpoint_quarantines_the_tenant_and_conserves() {
    let spec = spec();
    let plan = FaultPlan::none().with_fault(1, FaultKind::CorruptCheckpoint { tenant: 1 });
    let outcome = run_with_faults(&spec, &plan).unwrap();
    assert_eq!(outcome.recovery.tenants_quarantined, 1);
    assert_eq!(outcome.quarantines.len(), 1);
    let quarantine = &outcome.quarantines[0];
    assert_eq!(quarantine.tenant, TenantId::new(1));
    assert_eq!(quarantine.epoch, 1);
    assert_eq!(quarantine.cause, "corrupt_checkpoint");
    // The frozen checkpoint report keeps the fleet-wide books balanced.
    let report = &outcome.report;
    assert_eq!(
        report.admitted + report.retry_admitted,
        report.active + report.departed + report.shed,
        "fleet-wide conservation with a quarantined tenant"
    );
    for record in &outcome.epoch_records {
        assert!(record.conserved(), "epoch {} conserves", record.epoch);
    }
    // Every tenant still reports — the quarantined one with its frozen
    // checkpoint counters.
    assert_eq!(outcome.tenant_reports.len(), spec.tenants);
    assert!(outcome
        .tenant_reports
        .iter()
        .any(|(t, r)| *t == TenantId::new(1) && *r == quarantine.report));
    assert!(!outcome.chaos_artifacts.journal_jsonl().is_empty());
}

/// The oracle for a quarantined tenant: its controller alone, built and
/// fed as the fleet builds and feeds it, through every event of its
/// stream up to `cutoff`, under a fresh telemetry session.
fn solo_artifacts(spec: &FleetSpec, tenant: u32, cutoff: f64) -> TelemetryArtifacts {
    let scenario = ScenarioBuilder::new()
        .vnfs(spec.vnfs)
        .requests(spec.requests)
        .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
            target_utilization: spec.target_utilization,
        })
        .seed(tenant_seed(spec.seed, TenantId::new(tenant)))
        .build()
        .unwrap();
    let stream = ChurnTraceBuilder::new()
        .horizon(spec.horizon)
        .arrival_rate(spec.arrival_rate)
        .mean_holding(spec.mean_holding)
        .tick_period(spec.tick_period)
        .seed(derive_seed(spec.seed, u64::from(tenant)))
        .stream(&scenario)
        .unwrap();
    let mut controller = Controller::new(&scenario, spec.controller);
    let mut tel = Telemetry::enabled();
    for event in stream.take_while(|event| event.time() <= spec.epoch * cutoff) {
        controller.ingest(event, &mut tel);
    }
    tel.finish()
}

#[test]
fn a_quarantined_tenant_keeps_exactly_its_checkpoint_time_journal() {
    let spec = spec();
    let baseline = run(&spec).unwrap();
    let mut quarantined = 0;
    for epoch in 1..spec.epochs() {
        for tenant in 0..spec.tenants as u32 {
            let plan = FaultPlan::none()
                .with_fault(epoch as usize, FaultKind::CorruptCheckpoint { tenant });
            let outcome = run_with_faults(&spec, &plan).unwrap();
            let [quarantine] = outcome.quarantines.as_slice() else {
                // The tenant was in transit between shards; the fault
                // never fired.
                assert!(outcome.quarantines.is_empty());
                continue;
            };
            assert_eq!(quarantine.tenant, TenantId::new(tenant));
            quarantined += 1;
            // The checkpoint at the epoch's start follows every event up
            // to the last boundary the tenant crossed installed: the
            // previous epoch's end, or one epoch earlier when it spent
            // the previous epoch in transit.
            let parked_last_epoch = baseline
                .migrations
                .iter()
                .any(|m| m.tenant == TenantId::new(tenant) && m.retired_epoch + 2 == epoch);
            let cutoff = if parked_last_epoch { epoch - 1 } else { epoch };
            let solo = solo_artifacts(&spec, tenant, cutoff as f64);
            // Quarantined parts merge after every live shard's, so the
            // tenant's part is the journal's and series' tail.
            let merged = &outcome.artifacts;
            assert!(merged.events.len() >= solo.events.len());
            let part = &merged.events[merged.events.len() - solo.events.len()..];
            for (got, want) in part.iter().zip(&solo.events) {
                assert_eq!(
                    (got.time, got.tick, &got.kind),
                    (want.time, want.tick, &want.kind),
                    "tenant {tenant} quarantined in epoch {epoch}"
                );
            }
            let series: Vec<_> = merged.series.samples().copied().collect();
            let solo_series: Vec<_> = solo.series.samples().copied().collect();
            assert!(series.ends_with(&solo_series), "tenant {tenant} series");
            // The flight recorder holds the same journal's last window,
            // the tenant's own sequence numbers included.
            let window = solo.events.len().saturating_sub(FLIGHT_RECORDER_WINDOW);
            assert_eq!(outcome.postmortems.len(), 1);
            assert_eq!(outcome.postmortems[0].events, solo.events[window..]);
        }
    }
    assert!(quarantined >= 6, "only {quarantined} quarantines fired");
}

#[test]
fn wedged_drain_with_a_one_slot_channel_stalls_typed() {
    // Satellite regression: a tenant whose channel stays full across an
    // entire epoch surfaces a typed error instead of spinning.
    let spec = FleetSpec {
        channel_capacity: 1,
        ..spec()
    };
    // Wedge tenant 0 across the first two epochs: epoch 1 always pumps
    // at least the re-optimization tick, so the stall is guaranteed.
    let plan = FaultPlan::none()
        .with_fault(0, FaultKind::WedgeDrain { tenant: 0 })
        .with_fault(1, FaultKind::WedgeDrain { tenant: 0 });
    match run_with_faults(&spec, &plan) {
        Err(FleetError::PumpStalled { tenant, epoch }) => {
            assert_eq!(tenant, TenantId::new(0));
            assert!(epoch <= 1, "stall detected in a wedged epoch, got {epoch}");
        }
        other => panic!("expected PumpStalled, got {other:?}"),
    }
}

#[test]
fn wedges_on_two_shards_stall_on_the_lower_shards_tenant() {
    // In epoch 0 tenant 2 lives on shard 0 and tenant 1 on shard 1. With
    // one-slot channels both wedged channels fill and stick, each on its
    // own shard's rounds; the error names the first stuck tenant in shard
    // order — tenant 2, although tenant 1 has the lower id.
    let spec = FleetSpec {
        channel_capacity: 1,
        ..spec()
    };
    let plan = FaultPlan::none()
        .with_fault(0, FaultKind::WedgeDrain { tenant: 1 })
        .with_fault(0, FaultKind::WedgeDrain { tenant: 2 });
    for threads in [1, 2] {
        match run_with_faults(&FleetSpec { threads, ..spec }, &plan) {
            Err(FleetError::PumpStalled { tenant, epoch }) => {
                assert_eq!(
                    (tenant, epoch),
                    (TenantId::new(2), 0),
                    "{threads} thread(s)"
                );
            }
            other => panic!("expected PumpStalled, got {other:?}"),
        }
    }
}

/// The chaos journal's `FaultInjected` records as (cause, shard, tenant),
/// journal order.
fn fired(outcome: &FleetOutcome) -> Vec<(&str, u64, u64)> {
    outcome
        .chaos_artifacts
        .events
        .iter()
        .filter_map(|event| match &event.kind {
            EventKind::FaultInjected {
                cause,
                shard,
                tenant,
            } => Some((cause.as_str(), *shard, *tenant)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_shard_panic_and_a_crash_on_that_shard_recover_byte_identically() {
    // In epoch 1 shard 0 holds tenant 2 (tenant 0 is in transit). The
    // panic restores shard 0 mid-epoch and its rounds resume on the main
    // thread; the crash then restores tenant 2 at the boundary from the
    // same checkpoint, replaying the whole epoch's log. Two-slot channels
    // leave rounds to run after the restore.
    let spec = FleetSpec {
        channel_capacity: 2,
        ..spec()
    };
    let plan = FaultPlan::none()
        .with_fault(1, FaultKind::ShardPanic { shard: 0 })
        .with_fault(1, FaultKind::TenantCrash { tenant: 2 });
    let baseline = run(&spec).unwrap();
    for threads in [1, 2] {
        let faulted = run_with_faults(&FleetSpec { threads, ..spec }, &plan).unwrap();
        assert_eq!(faulted.recovery.shard_restores, 1, "the panic fired");
        assert_eq!(faulted.recovery.tenant_restores, 1, "the crash fired");
        assert_eq!(
            fired(&faulted),
            vec![("shard_panic", 0, 2), ("tenant_crash", 0, 2)],
            "both faults land on shard 0, where tenant 2 lives"
        );
        assert_byte_identical(&faulted, &baseline);
    }
}

#[test]
fn stacked_faults_each_get_a_record_and_recover_byte_identically() {
    // Epoch 0, before any handoff: shard 0 holds tenants 0 and 2, shard 1
    // tenants 1 and 3. Tenant 1 stacks two channel drops and a live
    // corruption; shard 0 panics mid-epoch while tenant 2 is wedged. The
    // panic's restore lifts the wedge, so shard 0 finishes its rounds;
    // the wedge still fired and is reported at the boundary.
    let plan = FaultPlan::none()
        .with_fault(0, FaultKind::ChannelDrop { tenant: 1, nth: 0 })
        .with_fault(0, FaultKind::ChannelDrop { tenant: 1, nth: 1 })
        .with_fault(0, FaultKind::CorruptState { tenant: 1 })
        .with_fault(0, FaultKind::WedgeDrain { tenant: 2 })
        .with_fault(0, FaultKind::ShardPanic { shard: 0 });
    let baseline = run(&spec()).unwrap();
    for threads in [1, 2] {
        let faulted = run_with_faults(&FleetSpec { threads, ..spec() }, &plan).unwrap();
        assert_eq!(
            fired(&faulted),
            vec![
                ("shard_panic", 0, 0),
                ("wedge_drain", 0, 2),
                ("channel_drop", 1, 1),
                ("channel_drop", 1, 1),
                ("corrupt_state", 1, 1),
            ],
            "one record per fired fault, {threads} thread(s)"
        );
        assert_eq!(faulted.recovery.faults_injected, 5, "one count per fault");
        assert_eq!(faulted.recovery.shard_restores, 1);
        assert_eq!(faulted.recovery.tenant_restores, 1, "tenant 1 once");
        assert!(faulted.quarantines.is_empty());
        assert_byte_identical(&faulted, &baseline);
    }
}

#[test]
fn a_corruption_stacked_on_a_corrupt_checkpoint_adds_only_its_record() {
    // Both corruptions fire on tenant 1 in epoch 1, and each is reported
    // and counted; the corrupt checkpoint quarantines the tenant exactly
    // as it does alone.
    let alone = FaultPlan::none().with_fault(1, FaultKind::CorruptCheckpoint { tenant: 1 });
    let stacked = FaultPlan::none()
        .with_fault(1, FaultKind::CorruptState { tenant: 1 })
        .with_fault(1, FaultKind::CorruptCheckpoint { tenant: 1 });
    for threads in [1, 2] {
        let spec = FleetSpec { threads, ..spec() };
        let alone = run_with_faults(&spec, &alone).unwrap();
        let stacked = run_with_faults(&spec, &stacked).unwrap();
        let [(_, shard, tenant)] = fired(&alone)[..] else {
            panic!("the corrupt checkpoint fires once: {:?}", fired(&alone));
        };
        assert_eq!(tenant, 1);
        assert_eq!(
            fired(&stacked),
            vec![
                ("corrupt_state", shard, 1),
                ("corrupt_checkpoint", shard, 1),
            ],
            "{threads} thread(s)"
        );
        assert_eq!(
            stacked.recovery,
            RecoveryReport {
                faults_injected: 2,
                ..alone.recovery
            },
            "the stack only adds a fault"
        );
        assert_eq!(stacked.quarantines, alone.quarantines);
        assert_byte_identical(&stacked, &alone);
        assert_eq!(stacked.registry.to_text(), alone.registry.to_text());
        assert_eq!(stacked.postmortems, alone.postmortems);
    }
}

#[test]
fn faulted_runs_are_thread_count_invariant() {
    let base = spec();
    let plan = FaultPlan::seeded(
        7,
        base.epochs() as usize,
        base.shards,
        base.tenants as u32,
        &FaultRates::recoverable(0.5),
    );
    let one = run_with_faults(&FleetSpec { threads: 1, ..base }, &plan).unwrap();
    let two = run_with_faults(&FleetSpec { threads: 2, ..base }, &plan).unwrap();
    assert_byte_identical(&two, &one);
    assert_eq!(one.recovery, two.recovery);
    assert_eq!(
        one.chaos_artifacts.journal_jsonl(),
        two.chaos_artifacts.journal_jsonl(),
        "chaos journal thread-invariant"
    );
}
