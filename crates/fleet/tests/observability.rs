//! The observability plane's contract: everything except span *timings*
//! is a pure function of the deterministic virtual-time run — the
//! registry dump, the per-tenant percentiles, the SLO counter, and the
//! flight-recorder postmortems are byte-identical run to run — and the
//! whole plane can be switched off without perturbing the run itself.

use nfv_fleet::{run, run_with_faults, FaultKind, FaultPlan, FleetSpec};
use nfv_telemetry::Postmortem;
use nfv_workload::TenantId;

fn spec() -> FleetSpec {
    FleetSpec {
        seed: 42,
        ..FleetSpec::smoke()
    }
}

#[test]
fn registry_and_percentiles_are_byte_identical_run_to_run() {
    let a = run(&spec()).unwrap();
    let b = run(&spec()).unwrap();
    assert!(!a.registry.is_empty(), "smoke spec enables observability");
    assert_eq!(a.registry.to_text(), b.registry.to_text());
    assert_eq!(a.registry.to_prometheus(), b.registry.to_prometheus());
    assert_eq!(a.registry.to_json(), b.registry.to_json());
    assert_eq!(a.report.tenant_latency, b.report.tenant_latency);
    assert_eq!(a.report.slo_violations, b.report.slo_violations);
    // One latency row per tenant, sorted by tenant id.
    let tenants: Vec<TenantId> = a.report.tenant_latency.iter().map(|s| s.tenant).collect();
    let mut sorted = tenants.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(tenants, sorted);
    assert_eq!(tenants.len(), spec().tenants);
}

#[test]
fn disabling_observability_changes_nothing_but_the_obs_fields() {
    let on = run(&spec()).unwrap();
    let off = run(&FleetSpec {
        observability: false,
        ..spec()
    })
    .unwrap();
    // The run itself is untouched…
    assert_eq!(on.epoch_records, off.epoch_records);
    assert_eq!(on.migrations, off.migrations);
    assert_eq!(on.tenant_reports, off.tenant_reports);
    assert_eq!(
        on.artifacts.journal_jsonl(),
        off.artifacts.journal_jsonl(),
        "journal unaffected by the observability flag"
    );
    // …while the plane itself is empty when off.
    assert!(off.registry.is_empty());
    assert!(off.spans.is_empty());
    assert!(off.postmortems.is_empty());
    assert!(off.report.tenant_latency.is_empty());
    assert_eq!(off.report.slo_violations, 0);
    assert!(!on.spans.is_empty());
}

#[test]
fn span_tree_phase_totals_sum_to_the_measured_epoch_time() {
    // The exact sum needs the shard drains to run one after another: on
    // more than one worker they overlap in time (see the next test).
    let outcome = run(&FleetSpec {
        threads: 1,
        ..spec()
    })
    .unwrap();
    let spans = &outcome.spans;
    let roots = spans.roots();
    assert_eq!(roots.len(), 1, "one fleet-run root");
    let root = roots[0];
    assert_eq!(spans.label(root), "fleet run");
    let mut epochs_seen = 0;
    for epoch in spans.children(root) {
        if !spans.label(epoch).starts_with("epoch ") {
            continue;
        }
        epochs_seen += 1;
        let children: f64 = spans
            .children(epoch)
            .iter()
            .map(|&c| spans.seconds(c))
            .sum();
        // Children plus the residual reconstruct the measured epoch
        // time exactly (the residual is defined as the difference,
        // clamped at zero — so children never exceed the parent by more
        // than float round-off).
        let total = children + spans.residual(epoch);
        assert!(
            (total - spans.seconds(epoch)).abs() <= 1e-9 * spans.seconds(epoch).max(1.0),
            "epoch attribution must sum to the measured epoch time"
        );
        let labels: Vec<&str> = spans
            .children(epoch)
            .iter()
            .map(|&c| spans.label(c))
            .collect();
        assert!(
            !labels.contains(&"pump"),
            "pumping runs inside the shards, not beside them: {labels:?}"
        );
        let drains: Vec<_> = spans
            .children(epoch)
            .into_iter()
            .filter(|&c| spans.label(c).starts_with("drain shard "))
            .collect();
        assert_eq!(
            drains.len(),
            spec().shards,
            "every shard drains: {labels:?}"
        );
        // Every shard pumps its own tenants inside its drain call, so the
        // pump time nests under the shard's span and never exceeds it.
        for drain in drains {
            let nested = spans.children(drain);
            assert_eq!(nested.len(), 1, "one nested child per shard span");
            assert_eq!(spans.label(nested[0]), "pump", "every shard pumps");
            assert!(
                spans.seconds(nested[0]) <= spans.seconds(drain),
                "a shard's pump time fits inside its drain span"
            );
        }
    }
    assert_eq!(epochs_seen as u64, spec().epochs(), "one span per epoch");
    // The render carries the attribution table used by `figures profile`.
    let table = spans.render();
    assert!(table.contains("fleet run"));
    assert!(table.contains("(other)"));
}

#[test]
fn concurrent_shard_drains_fit_the_epoch_beside_the_serial_phases() {
    // On more than one worker the `drain shard N` children overlap in
    // time, so their sum may exceed the epoch; the serial phases plus the
    // longest drain may not — the bound `figures profile` checks. More
    // shards than workers, so each worker runs several shards per epoch.
    for threads in [2, 8] {
        let spec = FleetSpec {
            threads,
            ..FleetSpec::sized(16, 8)
        };
        let outcome = run(&spec).unwrap();
        let spans = &outcome.spans;
        let mut epochs_seen = 0;
        for &root in &spans.roots() {
            for epoch in spans.children(root) {
                if !spans.label(epoch).starts_with("epoch ") {
                    continue;
                }
                epochs_seen += 1;
                let (mut serial, mut longest_drain) = (0.0, 0.0f64);
                for child in spans.children(epoch) {
                    let seconds = spans.seconds(child);
                    if spans.label(child).starts_with("drain shard ") {
                        longest_drain = longest_drain.max(seconds);
                    } else {
                        serial += seconds;
                    }
                }
                let overrun = serial + longest_drain - spans.seconds(epoch);
                assert!(
                    overrun <= 1e-6,
                    "{threads} workers: epoch overrun {overrun:e}s: serial {serial}s + longest drain {longest_drain}s"
                );
            }
        }
        assert_eq!(epochs_seen as u64, spec.epochs(), "one span per epoch");
    }
}

#[test]
fn quarantine_dumps_a_deterministic_flight_recorder_postmortem() {
    let spec = spec();
    let plan = FaultPlan::none().with_fault(1, FaultKind::CorruptCheckpoint { tenant: 1 });
    let a = run_with_faults(&spec, &plan).unwrap();
    let b = run_with_faults(&spec, &plan).unwrap();
    assert_eq!(a.postmortems.len(), 1, "one quarantine, one postmortem");
    let postmortem = &a.postmortems[0];
    assert_eq!(postmortem.tenant, 1);
    assert_eq!(postmortem.epoch, 1);
    assert_eq!(postmortem.cause, "corrupt_checkpoint");
    let dump = postmortem.render();
    assert!(!dump.is_empty(), "postmortems are never empty");
    assert!(dump.starts_with("postmortem tenant=1 epoch=1 cause=corrupt_checkpoint"));
    assert!(dump.contains("counter "), "checkpoint counters dumped");
    assert_eq!(
        a.postmortems
            .iter()
            .map(Postmortem::render)
            .collect::<Vec<_>>(),
        b.postmortems
            .iter()
            .map(Postmortem::render)
            .collect::<Vec<_>>(),
        "postmortem dumps are deterministic"
    );
}
