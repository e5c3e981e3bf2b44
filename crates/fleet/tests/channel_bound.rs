//! The channel bound is backpressure only: it decides how many rounds a
//! shard runs per epoch, never what any tenant computes. Each shard
//! pumps and drains its own tenants, so this is the invariant that lets
//! the rounds run per shard — pinned here across channel capacities and
//! worker counts. `ChannelDup` plans are left out on purpose: a
//! duplicate is lost when the channel is full, by design.

use nfv_fleet::{run, FleetOutcome, FleetSpec};

/// The 64-tenant point of the fleet experiment (`fleet_spec(64, 8,
/// seed)` in `nfv_core::experiments::fleet`).
fn fleet_point(seed: u64) -> FleetSpec {
    FleetSpec {
        tenants: 64,
        shards: 8,
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
        slo_latency: 0.01,
        ..FleetSpec::smoke()
    }
}

/// Everything deterministic a run produces, as one comparable value.
fn outputs(outcome: &FleetOutcome) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{}\n{}",
        outcome.report,
        outcome.epoch_records,
        outcome.tenant_reports,
        outcome.migrations,
        outcome.artifacts.journal_jsonl(),
        outcome.registry.to_text(),
    )
}

#[test]
fn channel_capacity_and_worker_count_change_no_output() {
    for base in [FleetSpec::smoke(), fleet_point(42)] {
        let reference = outputs(&run(&base).unwrap());
        assert!(reference.contains("Admit"), "the fleet admits requests");
        for channel_capacity in [1, 2, 5, 32, 1024] {
            for threads in [1, 2] {
                let spec = FleetSpec {
                    channel_capacity,
                    threads,
                    ..base
                };
                assert!(
                    outputs(&run(&spec).unwrap()) == reference,
                    "{} tenants at channel capacity {channel_capacity} on {threads} thread(s) \
                     diverged from capacity {}",
                    base.tenants,
                    base.channel_capacity,
                );
            }
        }
    }
}
