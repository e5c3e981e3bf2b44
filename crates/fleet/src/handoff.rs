//! Two-phase cross-shard tenant handoff with conservation accounting.
//!
//! Rebalancing moves a whole tenant — controller, trace stream, channel,
//! telemetry — from the most-loaded shard to the least-loaded one. The
//! move is two deterministic phases, one epoch apart:
//!
//! 1. **Retire** (end of epoch `E`): the tenant's slot leaves its source
//!    shard. Its counter snapshot is taken and the admission conservation
//!    law (`admitted + retry_admitted == active + departed + shed`) is
//!    verified before the tenant goes into transit.
//! 2. **Install** (start of epoch `E + 2`): the slot joins the target
//!    shard. The counters are re-verified against the retire snapshot —
//!    a tenant in transit must process nothing — and conservation is
//!    checked again. The tenant's stream, stalled while parked, resumes
//!    pumping into the new shard.
//!
//! The rebalance latency is therefore exactly one epoch of virtual time,
//! and the migration cost is the state carried across the boundary: the
//! tenant's active requests plus its pending retries.

use nfv_controller::ControllerReport;
use nfv_workload::TenantId;

use crate::shard::{Shard, TenantSlot};
use crate::FleetError;

/// One completed cross-shard migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// The tenant moved.
    pub tenant: TenantId,
    /// Source shard id.
    pub from: usize,
    /// Target shard id.
    pub to: usize,
    /// The epoch at whose end the tenant left the source shard.
    pub retired_epoch: u64,
    /// The epoch at whose start the tenant joined the target shard.
    pub installed_epoch: u64,
    /// Active requests carried across the boundary.
    pub carried_active: u64,
    /// Pending retry entries carried across the boundary.
    pub carried_retry: u64,
    /// Virtual seconds between retire and install (one epoch).
    pub latency: f64,
}

/// A tenant in transit between shards.
#[derive(Debug)]
struct Parked<'s> {
    slot: TenantSlot<'s>,
    snapshot: ControllerReport,
    record: MigrationRecord,
}

/// The ownership layer: tracks the (at most one) tenant in transit and
/// the completed migration history.
#[derive(Debug, Default)]
pub(crate) struct HandoffLayer<'s> {
    parked: Option<Parked<'s>>,
    records: Vec<MigrationRecord>,
}

/// Checks the admission conservation law on one tenant's counters.
fn check_conservation(
    tenant: TenantId,
    phase: &'static str,
    report: &ControllerReport,
) -> Result<(), FleetError> {
    if report.conserves() {
        Ok(())
    } else {
        Err(FleetError::ConservationViolated { tenant, phase })
    }
}

impl<'s> HandoffLayer<'s> {
    /// Whether no tenant is currently in transit.
    pub(crate) fn idle(&self) -> bool {
        self.parked.is_none()
    }

    /// The parked tenant's counter snapshot, for fleet-wide totals while
    /// it is in transit.
    pub(crate) fn parked_report(&self) -> Option<&ControllerReport> {
        self.parked.as_ref().map(|p| &p.snapshot)
    }

    /// Completed migrations, oldest first.
    pub(crate) fn records(&self) -> &[MigrationRecord] {
        &self.records
    }

    /// Phase 1 at the end of `epoch`: pick the most-loaded shard (by
    /// cumulative events processed; lowest id on ties), the least-loaded
    /// shard likewise, and move the source's busiest tenant into transit.
    /// No-op (`Ok(false)`) when the fleet is already balanced, the source
    /// holds a single tenant, or a tenant is already parked.
    ///
    /// # Errors
    ///
    /// [`FleetError::ConservationViolated`] if the retiring tenant's
    /// counters do not balance.
    pub(crate) fn initiate(
        &mut self,
        shards: &mut [Shard<'s>],
        epoch: u64,
        epoch_len: f64,
    ) -> Result<bool, FleetError> {
        if !self.idle() || shards.len() < 2 {
            return Ok(false);
        }
        let busiest = |best: Option<usize>, (id, s): (usize, &Shard)| match best {
            Some(b) if shards[b].processed() >= s.processed() => Some(b),
            _ => Some(id),
        };
        let from = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tenants() > 1)
            .fold(None, busiest);
        let Some(from) = from else {
            return Ok(false);
        };
        let to = shards
            .iter()
            .enumerate()
            .map(|(id, s)| (s.processed(), id))
            .min() // lowest processed, lowest id on ties
            .map(|(_, id)| id)
            .unwrap_or(from);
        if from == to || shards[from].processed() == shards[to].processed() {
            return Ok(false);
        }
        // Busiest tenant of the source shard, lowest id on ties (slots
        // are tenant-id sorted, so the first maximum is the lowest id).
        let tenant = {
            let slots = shards[from].slots();
            let mut best = slots[0].tenant();
            let mut best_processed = slots[0].processed();
            for slot in &slots[1..] {
                if slot.processed() > best_processed {
                    best = slot.tenant();
                    best_processed = slot.processed();
                }
            }
            best
        };
        let Some(slot) = shards[from].retire(tenant) else {
            // The busiest tenant was just read off the source shard's
            // slots, so a miss means the ownership view desynced (a fault
            // path retired it underneath us). Typed error, never a panic.
            return Err(FleetError::HandoffDesynced {
                tenant,
                shard: from,
            });
        };
        let snapshot = slot.report();
        check_conservation(tenant, "retire", &snapshot)?;
        let record = MigrationRecord {
            tenant,
            from,
            to,
            retired_epoch: epoch,
            installed_epoch: epoch + 2,
            carried_active: snapshot.active,
            carried_retry: snapshot.retry_pending,
            latency: epoch_len,
        };
        self.parked = Some(Parked {
            slot,
            snapshot,
            record,
        });
        Ok(true)
    }

    /// Phase 2 at the start of `epoch`: if the parked tenant is due,
    /// verify it crossed the boundary untouched and install it on its
    /// target shard. Returns the tenant installed, if any.
    ///
    /// # Errors
    ///
    /// [`FleetError::ConservationViolated`] if the counters moved while
    /// parked or no longer balance.
    pub(crate) fn install_due(
        &mut self,
        shards: &mut [Shard<'s>],
        epoch: u64,
    ) -> Result<Option<TenantId>, FleetError> {
        let Some(parked) = self.parked.take_if(|p| p.record.installed_epoch == epoch) else {
            return Ok(None);
        };
        let tenant = parked.record.tenant;
        let now = parked.slot.report();
        if now != parked.snapshot {
            return Err(FleetError::ConservationViolated {
                tenant,
                phase: "transit",
            });
        }
        check_conservation(tenant, "install", &now)?;
        shards[parked.record.to].install(parked.slot);
        self.records.push(parked.record);
        Ok(Some(tenant))
    }
}
