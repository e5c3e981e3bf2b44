//! The chaos journal pinned byte for byte: for three fault plans on the
//! seed-42 smoke fleet, the chaos journal, the recovery counters, the
//! quarantine records and the registry dump must equal the committed
//! fixtures under `tests/fixtures/`, at one and at two worker threads.
//!
//! The fixtures record what the fault path reports. On a mismatch the
//! test writes the actual text beside the build, under
//! `target/tmp/chaos-fixtures/`, and names the file; a change that alters
//! the report on purpose copies that file over its fixture and says why.

use std::fs;
use std::path::PathBuf;

use nfv_fleet::{run_with_faults, FaultKind, FaultPlan, FaultRates, FleetOutcome, FleetSpec};

fn spec() -> FleetSpec {
    FleetSpec {
        seed: 42,
        ..FleetSpec::smoke()
    }
}

fn seeded(spec: &FleetSpec, rates: &FaultRates) -> FaultPlan {
    FaultPlan::seeded(
        42,
        spec.epochs() as usize,
        spec.shards,
        spec.tenants as u32,
        rates,
    )
}

/// The pinned cases: fixture name, spec and plan.
fn cases() -> Vec<(&'static str, FleetSpec, FaultPlan)> {
    let spec = spec();
    // Every kind but `WedgeDrain`, whose stall ends the run with no
    // journal: crashes, channel faults, live corruption and one
    // quarantine.
    let mixed = FaultRates {
        shard_panic: 0.2,
        tenant_crash: 0.2,
        channel_drop: 0.2,
        channel_dup: 0.2,
        corrupt_state: 0.2,
        corrupt_checkpoint: 0.1,
        wedge_drain: 0.0,
    };
    // Both shards panic mid-epoch while tenant 2 crashes at the
    // boundary; two-slot channels leave rounds after each panic.
    let panics = FaultPlan::none()
        .with_fault(1, FaultKind::ShardPanic { shard: 0 })
        .with_fault(1, FaultKind::ShardPanic { shard: 1 })
        .with_fault(1, FaultKind::TenantCrash { tenant: 2 });
    vec![
        (
            "recoverable",
            spec,
            seeded(&spec, &FaultRates::recoverable(0.4)),
        ),
        ("mixed", spec, seeded(&spec, &mixed)),
        (
            "panics",
            FleetSpec {
                channel_capacity: 2,
                ..spec
            },
            panics,
        ),
    ]
}

/// The text fixture: recovery counters, quarantine records, registry.
fn summary(outcome: &FleetOutcome) -> String {
    let mut text = format!("{:?}\n", outcome.recovery);
    for quarantine in &outcome.quarantines {
        text += &format!("{quarantine:?}\n");
    }
    text + &outcome.registry.to_text()
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn chaos_journals_match_the_committed_fixtures() {
    for (name, spec, plan) in cases() {
        for threads in [1, 2] {
            let outcome = run_with_faults(&FleetSpec { threads, ..spec }, &plan).unwrap();
            let files = [
                (
                    format!("{name}.jsonl"),
                    outcome.chaos_artifacts.journal_jsonl(),
                ),
                (format!("{name}.txt"), summary(&outcome)),
            ];
            for (file, actual) in files {
                let expected = fs::read_to_string(fixture(&file)).unwrap_or_default();
                if actual != expected {
                    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-fixtures");
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
