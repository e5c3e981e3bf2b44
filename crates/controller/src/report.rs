//! Observability: the counter block and its point-in-time snapshots.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A snapshot of the controller's counters and derived statistics, taken
/// at a point in virtual time. Snapshots of two same-seed runs are
/// identical field-for-field (see the determinism tests).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerReport {
    /// Virtual time of the snapshot, seconds.
    pub time: f64,
    /// Requests admitted (base population + churn arrivals).
    pub admitted: u64,
    /// Arrivals refused by admission control.
    pub rejected: u64,
    /// Requests that departed normally.
    pub departed: u64,
    /// Requests dropped by load shedding (evictions and failed failovers).
    pub shed: u64,
    /// Requests moved between instances while failing over a down
    /// instance.
    pub migrated_failover: u64,
    /// Requests moved between instances by re-optimization passes.
    pub migrated_reopt: u64,
    /// Requests drained off retiring instances by re-placement passes.
    pub migrated_replace: u64,
    /// Re-optimization ticks observed (whether or not acted upon).
    pub ticks: u64,
    /// Ticks whose migration plan was applied.
    pub reopts_applied: u64,
    /// Ticks skipped by the hysteresis threshold.
    pub reopts_skipped: u64,
    /// Instances added by re-placement passes.
    pub instances_added: u64,
    /// Instances retired by re-placement passes.
    pub instances_retired: u64,
    /// Instances relocated to another node by re-placement passes.
    pub relocations: u64,
    /// Ticks whose re-placement plan was applied.
    pub replaces_applied: u64,
    /// Ticks whose re-placement plan was aborted by the migration-cost
    /// hysteresis gate.
    pub replaces_aborted: u64,
    /// `NodeDown` events applied to the cluster (overlapping windows
    /// included).
    pub node_downs: u64,
    /// `NodeUp` events applied to the cluster.
    pub node_ups: u64,
    /// Outage events naming a node or `(vnf, instance)` the controller
    /// doesn't track; counted and ignored.
    pub stale_outage_events: u64,
    /// Emergency (out-of-tick) re-placement passes that changed the
    /// cluster after a node failure.
    pub emergency_replaces: u64,
    /// Retry re-offers attempted from the backoff queue.
    pub retries_attempted: u64,
    /// Previously refused requests admitted by a retry.
    pub retry_admitted: u64,
    /// Requests abandoned for good after exhausting the retry budget (or
    /// finding the queue full).
    pub retry_abandoned: u64,
    /// Quiet-tick refiner plans committed (searched placements adopted).
    pub refines_applied: u64,
    /// Quiet-tick refiner plans rejected by the objective-gain hysteresis
    /// (or searches that found no improvement).
    pub refines_rejected: u64,
    /// Requests still waiting in the retry queue at snapshot time.
    pub retry_pending: u64,
    /// Requests active at snapshot time.
    pub active: u64,
    /// Time-weighted mean of the predicted average delivery response time
    /// (Eq. (11) aggregated system-wide), seconds.
    pub mean_latency: f64,
    /// Predicted average delivery response time at snapshot time, seconds.
    pub current_latency: f64,
    /// Highest per-instance utilization `ρ` at snapshot time.
    pub peak_utilization: f64,
}

impl ControllerReport {
    /// Total migrations from all causes.
    #[must_use]
    pub fn migrated(&self) -> u64 {
        self.migrated_failover + self.migrated_reopt + self.migrated_replace
    }

    /// Total re-placement instance operations (adds + retirements +
    /// relocations).
    #[must_use]
    pub fn instance_ops(&self) -> u64 {
        self.instances_added + self.instances_retired + self.relocations
    }

    /// Requests lost for good: refused or shed, minus those a retry later
    /// re-admitted. (`admitted`/`rejected` count first offers only, so a
    /// successful retry repairs an earlier rejection or shed.)
    #[must_use]
    pub fn lost(&self) -> u64 {
        (self.rejected + self.shed).saturating_sub(self.retry_admitted)
    }

    /// Whether the admission conservation law holds: every admission,
    /// first offer or retry, is still active, departed, or shed.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.admitted + self.retry_admitted == self.active + self.departed + self.shed
    }

    /// Fraction of arrivals refused, in `[0, 1]`; 0 when nothing arrived.
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.admitted + self.rejected;
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }

    /// Every integer counter as `(name, value)` pairs in declaration
    /// order — the feed for the fleet's metrics registry and the flight
    /// recorder's post-mortem dumps. Names are stable snake_case slugs.
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("admitted", self.admitted),
            ("rejected", self.rejected),
            ("departed", self.departed),
            ("shed", self.shed),
            ("migrated_failover", self.migrated_failover),
            ("migrated_reopt", self.migrated_reopt),
            ("migrated_replace", self.migrated_replace),
            ("ticks", self.ticks),
            ("reopts_applied", self.reopts_applied),
            ("reopts_skipped", self.reopts_skipped),
            ("instances_added", self.instances_added),
            ("instances_retired", self.instances_retired),
            ("relocations", self.relocations),
            ("replaces_applied", self.replaces_applied),
            ("replaces_aborted", self.replaces_aborted),
            ("node_downs", self.node_downs),
            ("node_ups", self.node_ups),
            ("stale_outage_events", self.stale_outage_events),
            ("emergency_replaces", self.emergency_replaces),
            ("retries_attempted", self.retries_attempted),
            ("retry_admitted", self.retry_admitted),
            ("retry_abandoned", self.retry_abandoned),
            ("refines_applied", self.refines_applied),
            ("refines_rejected", self.refines_rejected),
            ("retry_pending", self.retry_pending),
            ("active", self.active),
        ]
    }

    /// A fixed-precision one-line rendering, stable across runs.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "t={:.3}s active={} admitted={} rejected={} ({:.2}%) departed={} shed={} \
             migrated={}+{}+{} ticks={} (applied {}, skipped {}) \
             inst(+{} -{} moved {}; applied {}, aborted {}) \
             nodes(down {}, up {}, stale {}, emergency {}) \
             refine(applied {}, rejected {}) \
             retry({} tried, {} ok, {} dropped, {} queued) lost={} \
             W={:.6}s mean W={:.6}s rho_max={:.4}",
            self.time,
            self.active,
            self.admitted,
            self.rejected,
            self.rejection_rate() * 100.0,
            self.departed,
            self.shed,
            self.migrated_failover,
            self.migrated_reopt,
            self.migrated_replace,
            self.ticks,
            self.reopts_applied,
            self.reopts_skipped,
            self.instances_added,
            self.instances_retired,
            self.relocations,
            self.replaces_applied,
            self.replaces_aborted,
            self.node_downs,
            self.node_ups,
            self.stale_outage_events,
            self.emergency_replaces,
            self.refines_applied,
            self.refines_rejected,
            self.retries_attempted,
            self.retry_admitted,
            self.retry_abandoned,
            self.retry_pending,
            self.lost(),
            self.current_latency,
            self.mean_latency,
            self.peak_utilization,
        )
    }
}

impl fmt::Display for ControllerReport {
    /// The same stable one-liner as [`render`](Self::render).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ControllerReport {
        ControllerReport {
            time: 10.0,
            admitted: 30,
            rejected: 10,
            departed: 5,
            shed: 1,
            migrated_failover: 2,
            migrated_reopt: 3,
            migrated_replace: 4,
            ticks: 4,
            reopts_applied: 2,
            reopts_skipped: 2,
            instances_added: 2,
            instances_retired: 1,
            relocations: 1,
            replaces_applied: 2,
            replaces_aborted: 1,
            node_downs: 2,
            node_ups: 1,
            stale_outage_events: 3,
            emergency_replaces: 1,
            retries_attempted: 5,
            retry_admitted: 4,
            retry_abandoned: 1,
            refines_applied: 2,
            refines_rejected: 1,
            retry_pending: 2,
            active: 24,
            mean_latency: 0.01,
            current_latency: 0.012,
            peak_utilization: 0.9,
        }
    }

    #[test]
    fn rejection_rate_and_migrations() {
        let r = report();
        assert!((r.rejection_rate() - 0.25).abs() < 1e-12);
        assert_eq!(r.migrated(), 9);
        assert_eq!(r.instance_ops(), 4);
        let empty = ControllerReport {
            admitted: 0,
            rejected: 0,
            ..report()
        };
        assert_eq!(empty.rejection_rate(), 0.0);
    }

    #[test]
    fn render_is_deterministic() {
        assert_eq!(report().render(), report().render());
        assert!(report().render().contains("rejected=10 (25.00%)"));
        assert!(report().render().contains("nodes(down 2, up 1, stale 3"));
        assert!(report().render().contains("lost=7"));
    }

    #[test]
    fn display_matches_render() {
        let r = report();
        assert_eq!(r.to_string(), r.render());
    }

    #[test]
    fn lost_subtracts_retry_repairs_and_saturates() {
        let r = report();
        assert_eq!(r.lost(), 10 + 1 - 4);
        let repaired = ControllerReport {
            rejected: 1,
            shed: 0,
            retry_admitted: 5,
            ..report()
        };
        assert_eq!(repaired.lost(), 0, "saturating, never negative");
    }
}
