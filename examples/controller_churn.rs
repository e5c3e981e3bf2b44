//! Controller churn: keeping a good assignment alive under request churn.
//!
//! Replays one seeded churn trace — arrivals, departures, instance
//! outages, periodic re-optimization ticks — through three control-plane
//! policies and compares the time-weighted mean response time against the
//! migration bill:
//!
//! * **online-only** dispatches each arrival to the least-loaded instance
//!   and never looks back;
//! * **periodic-reopt** additionally re-runs the paper's RCKK scheduler on
//!   every tick and applies a *bounded* migration plan (hysteresis + a
//!   per-tick budget);
//! * **offline-oracle** adopts the full fresh RCKK assignment on every
//!   tick — the latency ideal, at an unrealistic migration cost.
//!
//! ```text
//! cargo run --example controller_churn
//! ```

use nfv::controller::{Controller, ControllerConfig};
use nfv::experiments::churn::{setup, ChurnPoint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let point = ChurnPoint::base();
    let (scenario, trace) = setup(&point, 42)?;
    println!("{scenario}");
    println!(
        "trace: {} events over {:.0}s (churn {:.1}/s, mean holding {:.0}s, \
         ticks every {:.0}s, outages {:.2}/s)\n",
        trace.len(),
        trace.horizon(),
        point.arrival_rate,
        point.mean_holding,
        point.tick_period,
        point.outage_rate,
    );

    for (name, config) in [
        ("online-only", ControllerConfig::online_only()),
        ("periodic-reopt", ControllerConfig::periodic_reopt()),
        ("offline-oracle", ControllerConfig::offline_oracle()),
    ] {
        // One ingestion path: the materialized trace streams through the
        // same per-event core the fleet drains through.
        let mut controller = Controller::new(&scenario, config);
        let report = controller.run_stream(trace.events().iter().cloned(), trace.horizon());
        println!("-- {name} --");
        println!("{}", report.render());
        if let Some(histogram) = controller.latency_histogram(10) {
            println!("{histogram}");
        }
    }
    Ok(())
}
