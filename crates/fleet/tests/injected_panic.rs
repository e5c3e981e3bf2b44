//! An injected shard-worker panic is a fault the fleet recovers from,
//! not a crash: it must not run the process panic hook, which prints a
//! message per injection and, under `RUST_BACKTRACE=1`, a backtrace on
//! the timed path. The hook is process-wide, so this check has a test
//! binary of its own.

use std::sync::atomic::{AtomicUsize, Ordering};

use nfv_fleet::{run_with_faults, FaultKind, FaultPlan, FleetSpec};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn an_injected_shard_panic_runs_no_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));
    let plan = FaultPlan::none().with_fault(1, FaultKind::ShardPanic { shard: 0 });
    let outcome = run_with_faults(&FleetSpec::smoke(), &plan).unwrap();
    assert_eq!(outcome.recovery.shard_restores, 1, "the panic fired");
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 0, "no hook ran");
}
