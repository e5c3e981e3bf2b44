//! Regression test for the deterministic parallel sweep engine: every
//! experiment runner must produce bit-identical results at any thread
//! count, because per-trial seeds are derived from `(base seed, trial
//! index)` and per-trial results are folded back in input order.
//!
//! The test drives the process-wide default thread count through 1, 2 and
//! 8 and pins byte-identical CSV/table renderings. It must run in its own
//! test binary (this file) so no concurrently running test observes the
//! temporary thread-count overrides.

use std::sync::Mutex;

use nfv_core::experiments::{
    anytime, chaos, churn, fleet, joint, placement, resilience, scheduling, validation,
};
use nfv_parallel::set_default_threads;
use nfv_search::{search, SearchConfig};

/// Serializes the tests in this binary: they all mutate the process-wide
/// default thread count, so they must not interleave.
static THREAD_COUNT_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per thread count and asserts all renderings match the
/// serial one byte for byte.
fn assert_invariant<F: Fn() -> String>(what: &str, f: F) {
    let _guard = THREAD_COUNT_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    set_default_threads(1);
    let serial = f();
    for threads in [2usize, 8] {
        set_default_threads(threads);
        let parallel = f();
        assert_eq!(
            serial, parallel,
            "{what} differs between 1 and {threads} threads"
        );
    }
    set_default_threads(0);
}

#[test]
fn placement_sweep_is_thread_count_invariant() {
    assert_invariant("placement fig5 sweep", || {
        placement::fig5_utilization_vs_requests(3, 42)
            .unwrap()
            .to_csv()
    });
}

#[test]
fn scheduling_sweeps_are_thread_count_invariant() {
    assert_invariant("scheduling fig11 sweep", || {
        scheduling::fig11_12_response_vs_requests(0.98, 20, 42)
            .unwrap()
            .to_csv()
    });
    assert_invariant("scheduling fig15 sweep", || {
        scheduling::fig15_16_rejection_vs_requests(0.98, 20, 42)
            .unwrap()
            .to_csv()
    });
}

#[test]
fn joint_comparison_is_thread_count_invariant() {
    assert_invariant("joint comparison", || {
        format!(
            "{:?}",
            joint::run_comparison(&joint::JointConfig::base(), 3, 42).unwrap()
        )
    });
}

#[test]
fn validation_rows_are_thread_count_invariant() {
    assert_invariant("single-station validation", || {
        format!(
            "{:?}",
            validation::validate_single_station(50.0, 100.0, 1.0, 42).unwrap()
        )
    });
}

#[test]
fn churn_comparison_is_thread_count_invariant() {
    assert_invariant("churn comparison", || {
        churn::run(&churn::ChurnPoint::base(), 42)
            .unwrap()
            .to_table()
            .to_string()
    });
    // The saturated point exercises the bounded re-placement phase (grows,
    // shrinks and relocations), so pin it too.
    assert_invariant("saturated churn comparison", || {
        churn::run(&churn::ChurnPoint::saturated(), 42)
            .unwrap()
            .to_table()
            .to_string()
    });
}

#[test]
fn resilience_comparison_is_thread_count_invariant() {
    // Node outages, emergency re-placement and the seeded retry queue are
    // all virtual-time driven, so the four-policy comparison must render
    // bit-identically at any thread count.
    assert_invariant("resilience comparison", || {
        resilience::run(&resilience::ResiliencePoint::base(), 42)
            .unwrap()
            .to_table()
            .to_string()
    });
    // The racked point fails correlated pairs of nodes together.
    assert_invariant("racked resilience comparison", || {
        resilience::run(&resilience::ResiliencePoint::racked(), 42)
            .unwrap()
            .to_table()
            .to_string()
    });
}

#[test]
fn search_engines_are_thread_count_invariant() {
    // The population evaluation fans out over the worker pool with
    // per-individual RNG streams derived from `(seed, generation·pop +
    // i)`, so the full trajectory — best assignment, fitness history and
    // evaluation count — must render bit-identically at 1, 2 and 8
    // threads.
    for (name, config) in [("ga", SearchConfig::ga(42)), ("pso", SearchConfig::pso(42))] {
        assert_invariant(&format!("{name} search on the Pareto instance"), || {
            let problem = anytime::bench_problem(42).unwrap();
            let outcome = search(&problem, &config, 15).unwrap();
            format!(
                "{:?}\n{:?}\n{}",
                outcome.best_assignment(),
                outcome.history(),
                outcome.evaluations()
            )
        });
    }
}

#[test]
fn anytime_experiments_are_thread_count_invariant() {
    assert_invariant("anytime quality-vs-generations sweep", || {
        anytime::quality_vs_generations(2, 42).unwrap().to_csv()
    });
    // The refiner replay runs searches *inside* the controller tick loop
    // while the two policies themselves replay on the worker pool.
    assert_invariant("refiner churn replay", || {
        anytime::refiner_replay(42).unwrap().to_table().to_string()
    });
}

#[test]
fn fleet_experiment_is_thread_count_invariant() {
    // Each fleet epoch is one call over the worker pool in which every
    // shard pumps and drains its own tenants; shards fold back in
    // shard-id order and journals merge in shard order, so every report,
    // every epoch record, every migration and the merged journal must be
    // byte-identical at 1, 2 and 8 threads. The spec leaves `threads: 0`
    // so the loop picks up the process-wide default this harness drives.
    assert_invariant("fleet point (8 tenants / 2 shards) + journal", || {
        let outcome = fleet::run_fleet_point(8, 2, 42).unwrap();
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{}",
            outcome.report,
            outcome.epoch_records,
            outcome.migrations,
            outcome.tenant_reports,
            outcome.artifacts.journal_jsonl()
        )
    });
    // The acceptance-scale point: 256 tenants in one process.
    assert_invariant("fleet point (256 tenants / 16 shards) + journal", || {
        let outcome = fleet::run_fleet_point(256, 16, 42).unwrap();
        // Virtual-clock counters, so zeros mean the handoff path stopped
        // running rather than host noise.
        assert!(
            outcome.report.migrations >= 1 && outcome.report.mean_rebalance_latency > 0.0,
            "the 256-tenant point must complete a cross-shard migration: {:?}",
            outcome.report
        );
        format!(
            "{:?}\n{:?}\n{}",
            outcome.report,
            outcome.migrations,
            outcome.artifacts.journal_jsonl()
        )
    });
    // And the figure table the sweep renders.
    assert_invariant("fleet sweep table", || {
        fleet::fleet_sweep(42).unwrap().to_table(2).to_string()
    });
}

#[test]
fn chaos_recovery_is_thread_count_invariant_and_byte_identical() {
    // The acceptance pin for crash recovery: a fleet run disturbed by a
    // seeded plan of recoverable faults — shard-worker panics mid-drain,
    // tenant crashes at epoch boundaries, channel drops/duplicates, and
    // injected conservation corruption — repaired through epoch
    // checkpoints + event replay, must (a) be bit-identical at 1, 2 and
    // 8 threads, chaos journal included, and (b) produce a byte-identical
    // merged journal, fleet report, and epoch records to the undisturbed
    // run at every thread count.
    use nfv_fleet::{run, run_with_faults, FaultPlan, FaultRates};
    let spec = chaos::chaos_spec(42);
    let plan = FaultPlan::seeded(
        42,
        spec.epochs() as usize,
        spec.shards,
        spec.tenants as u32,
        &FaultRates::recoverable(0.3),
    );
    assert_invariant("faulted fleet run at seed 42 + recovery", || {
        let baseline = run(&spec).unwrap();
        let faulted = run_with_faults(&spec, &plan).unwrap();
        assert!(
            faulted.recovery.faults_injected > 0 && faulted.recovery.events_replayed >= 1,
            "the seeded plan must actually disturb the run and recovery must replay: {:?}",
            faulted.recovery
        );
        assert_eq!(faulted.report, baseline.report, "fleet report");
        assert_eq!(
            faulted.epoch_records, baseline.epoch_records,
            "epoch records"
        );
        assert_eq!(
            faulted.tenant_reports, baseline.tenant_reports,
            "tenant reports"
        );
        assert_eq!(
            faulted.artifacts.journal_jsonl(),
            baseline.artifacts.journal_jsonl(),
            "merged journal byte-identical under recovery"
        );
        format!(
            "{:?}\n{:?}\n{:?}\n{}\n{}",
            faulted.report,
            faulted.epoch_records,
            faulted.recovery,
            faulted.artifacts.journal_jsonl(),
            faulted.chaos_artifacts.journal_jsonl()
        )
    });
    // And the figure table the chaos sweep renders.
    assert_invariant("chaos sweep table", || {
        chaos::chaos_sweep(42).unwrap().to_table(3).to_string()
    });
}

#[test]
fn observability_registry_dumps_are_thread_count_invariant() {
    // The acceptance pin for the observability plane: per-shard
    // registries merge in shard-id order, so the fleet registry's text,
    // Prometheus and JSON dumps — and the per-tenant latency
    // percentiles and SLO counter derived alongside them — must be
    // byte-identical at 1, 2 and 8 threads.
    assert_invariant("fleet registry dump (8 tenants / 2 shards)", || {
        let outcome = fleet::run_fleet_point(8, 2, 42).unwrap();
        format!(
            "{}\n{}\n{}\n{:?}\n{}",
            outcome.registry.to_text(),
            outcome.registry.to_prometheus(),
            outcome.registry.to_json(),
            outcome.report.tenant_latency,
            outcome.report.slo_violations
        )
    });
    assert_invariant("fleet registry dump (256 tenants / 16 shards)", || {
        let outcome = fleet::run_fleet_point(256, 16, 42).unwrap();
        assert!(
            !outcome.registry.is_empty(),
            "an empty registry means the metrics plane stopped recording"
        );
        format!(
            "{}\n{:?}\n{}",
            outcome.registry.to_text(),
            outcome.report.tenant_latency,
            outcome.report.slo_violations
        )
    });
    // The chaos point adds the flight recorder: quarantine postmortems
    // must dump byte-identically too.
    assert_invariant("quarantine postmortem dumps", || {
        chaos::quarantine_postmortems(42)
            .unwrap()
            .iter()
            .map(nfv_telemetry::Postmortem::render)
            .collect::<Vec<_>>()
            .join("\n")
    });
}

#[test]
fn telemetry_is_inert_and_invariant_across_thread_counts() {
    // The instrumented runs must (a) return results byte-identical to the
    // plain runs — telemetry is a strict observer — and (b) merge the
    // per-policy journals into the same byte-identical JSONL at 1, 2 and
    // 8 threads, because artifacts are folded in policy order regardless
    // of which worker replayed which policy.
    assert_invariant("instrumented churn comparison + journal", || {
        let plain = churn::run(&churn::ChurnPoint::base(), 42).unwrap();
        let (instrumented, artifacts) =
            churn::run_instrumented(&churn::ChurnPoint::base(), 42).unwrap();
        assert_eq!(plain, instrumented, "telemetry on vs off");
        format!(
            "{}\n{}\n{}",
            instrumented.to_table(),
            artifacts.journal_jsonl(),
            artifacts.series.to_csv()
        )
    });
    assert_invariant("instrumented resilience comparison + journal", || {
        let plain = resilience::run(&resilience::ResiliencePoint::base(), 42).unwrap();
        let (instrumented, artifacts) =
            resilience::run_instrumented(&resilience::ResiliencePoint::base(), 42).unwrap();
        assert_eq!(plain, instrumented, "telemetry on vs off");
        format!(
            "{}\n{}\n{}",
            instrumented.to_table(),
            artifacts.journal_jsonl(),
            artifacts.series.to_csv()
        )
    });
}
