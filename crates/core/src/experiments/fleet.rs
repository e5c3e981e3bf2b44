//! The fleet experiment: hundreds of tenant controllers in one process.
//!
//! The paper's evaluation is one cluster; the fleet experiment asks what
//! happens when 8, 64, or 256 independent tenant optimizations share a
//! process and a thread pool ([`nfv_fleet::run`]): how much state the
//! cross-shard rebalancer moves, how long a handoff parks a tenant in
//! virtual time, and — measured by perfbench's `fleet` workload, not
//! here — how many events per wall-clock second the sharded loop
//! sustains.
//!
//! Everything this module reports is virtual-time or counter data, so
//! the sweep is deterministic: same seed, same table, at any thread
//! count (pinned by the `thread_invariance` tests).

use nfv_fleet::{FleetError, FleetOutcome, FleetSpec};

use super::Sweep;

/// The fleet sizes of the experiment: `(tenants, shards)` at 8, 64, and
/// 256 tenants.
#[must_use]
pub fn fleet_sizes() -> Vec<(usize, usize)> {
    vec![(8, 2), (64, 8), (256, 16)]
}

/// The spec used for one fleet point: a deliberately small per-tenant
/// workload (the fleet axis is the tenant count, not the tenant size)
/// with an aggressive rebalance cadence so every point exercises the
/// handoff path.
#[must_use]
pub fn fleet_spec(tenants: usize, shards: usize, seed: u64) -> FleetSpec {
    FleetSpec {
        tenants,
        shards,
        vnfs: 3,
        requests: 8,
        horizon: 30.0,
        arrival_rate: 0.4,
        mean_holding: 8.0,
        tick_period: 15.0,
        epoch: 6.0,
        channel_capacity: 32,
        rebalance_every: 1,
        seed,
        telemetry: true,
        // Tighter than the smoke default (0.05s): the fleet points run
        // per-tenant balanced latencies of ~2–14ms, so a 10ms SLO keeps
        // the violation counter live in the experiment tables.
        slo_latency: 0.01,
        ..FleetSpec::smoke()
    }
}

/// The shard count paired with `tenants` in [`fleet_sizes`], or the
/// same 16-tenants-per-shard proportion (minimum 2 shards) for sizes
/// outside the standard sweep.
#[must_use]
pub fn shards_for(tenants: usize) -> usize {
    fleet_sizes()
        .into_iter()
        .find_map(|(t, s)| (t == tenants).then_some(s))
        .unwrap_or_else(|| (tenants / 16).max(2))
}

/// Runs one fleet point.
///
/// # Errors
///
/// Propagates any [`FleetError`] from the loop (spec validation,
/// workload generation, shard panics, conservation violations).
pub fn run_fleet_point(
    tenants: usize,
    shards: usize,
    seed: u64,
) -> Result<FleetOutcome, FleetError> {
    nfv_fleet::run(&fleet_spec(tenants, shards, seed))
}

/// Sweeps the fleet sizes and tabulates the deterministic columns:
/// events processed, admissions, sheds, completed migrations, total
/// migration cost (requests + retries carried across shards), and the
/// mean rebalance latency in virtual seconds.
///
/// # Errors
///
/// Propagates the first failing point's [`FleetError`].
pub fn fleet_sweep(seed: u64) -> Result<Sweep, FleetError> {
    let mut sweep = Sweep::new(
        "tenants",
        vec![
            "shards".into(),
            "events".into(),
            "admitted".into(),
            "shed".into(),
            "migrations".into(),
            "migration cost (reqs)".into(),
            "rebalance latency (s)".into(),
        ],
    );
    for (tenants, shards) in fleet_sizes() {
        let outcome = run_fleet_point(tenants, shards, seed)?;
        let report = &outcome.report;
        sweep.push(
            tenants as f64,
            vec![
                shards as f64,
                report.events as f64,
                report.admitted as f64,
                report.shed as f64,
                report.migrations as f64,
                report.migration_cost as f64,
                report.mean_rebalance_latency,
            ],
        );
    }
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_point_migrates_and_conserves() {
        let outcome = run_fleet_point(8, 2, 7).unwrap();
        let report = &outcome.report;
        assert!(report.events > 0);
        assert!(
            report.migrations > 0,
            "the fleet point must exercise handoff"
        );
        assert_eq!(
            report.admitted + report.retry_admitted,
            report.active + report.departed + report.shed
        );
        assert!(report.mean_rebalance_latency > 0.0);
        assert!(!outcome.artifacts.journal_jsonl().is_empty());
    }

    #[test]
    fn sweep_rows_match_the_size_grid() {
        // Only the smallest point: the sweep itself is exercised by the
        // figures path and the thread-invariance pins.
        let outcome = run_fleet_point(8, 2, 3).unwrap();
        assert_eq!(outcome.report.tenants, 8);
        assert_eq!(outcome.report.shards, 2);
        assert_eq!(fleet_sizes().len(), 3);
        assert_eq!(fleet_sizes()[2], (256, 16));
    }
}
