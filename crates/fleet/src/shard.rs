//! Shards: the unit of parallelism in the fleet loop.
//!
//! A shard owns a disjoint set of tenants — each tenant an independent
//! controller plus its bounded event channel and telemetry session — and
//! drains them in tenant-id order during the parallel phase of every
//! epoch round. Shards never share state, so running them on the
//! `nfv-parallel` pool (results folded in shard-id order) is bit-identical
//! to running them serially.

use nfv_controller::{Controller, ControllerReport, ControllerSnapshot};
use nfv_telemetry::{Telemetry, TelemetryArtifacts, TelemetryMark};
use nfv_workload::churn::TimedEvent;
use nfv_workload::TenantId;

use crate::channel::EventChannel;
use crate::FleetError;

/// An epoch-boundary checkpoint of one tenant slot: the controller
/// snapshot, the mark on the slot's telemetry session, the counter
/// report at capture time, and the processed-event count. Restoring a
/// slot from its checkpoint and replaying the epoch's pumped events
/// reproduces the undisturbed slot bit for bit.
#[derive(Debug, Clone)]
pub struct SlotCheckpoint {
    pub(crate) tenant: TenantId,
    pub(crate) controller: ControllerSnapshot,
    pub(crate) telemetry: TelemetryMark,
    pub(crate) report: ControllerReport,
    pub(crate) processed: u64,
    /// Cleared by an injected checkpoint corruption: an invalid
    /// checkpoint cannot restore, forcing the quarantine path.
    pub(crate) valid: bool,
}

/// One tenant living inside a shard: its controller, its event channel,
/// its telemetry session, and its cumulative processed-event count.
#[derive(Debug)]
pub struct TenantSlot {
    tenant: TenantId,
    controller: Controller,
    channel: EventChannel,
    telemetry: Telemetry,
    processed: u64,
    /// Chaos wedge: while set, drains skip this slot (its channel stops
    /// making progress), exercising the fleet's pump-stall detection.
    wedged: bool,
}

impl TenantSlot {
    /// Assembles a slot around an idle controller.
    #[must_use]
    pub fn new(
        tenant: TenantId,
        controller: Controller,
        channel: EventChannel,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            tenant,
            controller,
            channel,
            telemetry,
            processed: 0,
            wedged: false,
        }
    }

    /// The tenant this slot belongs to.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Whether the channel cannot take another event this round.
    #[must_use]
    pub fn channel_full(&self) -> bool {
        self.channel.is_full()
    }

    /// Buffered (pumped but not yet processed) events.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.channel.len()
    }

    /// Enqueues one event (the pump phase checked `channel_full`).
    pub fn push(&mut self, event: TimedEvent) {
        let pushed = self.channel.try_push(event).is_ok();
        debug_assert!(pushed, "pump must respect the channel bound");
    }

    /// Events this tenant's controller has processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The controller's current counter snapshot.
    #[must_use]
    pub fn report(&self) -> ControllerReport {
        self.controller.report()
    }

    /// Drains one event from the channel into the controller; `false`
    /// when the channel is empty or the slot is wedged.
    fn drain_one(&mut self) -> bool {
        if self.wedged {
            return false;
        }
        let Some(event) = self.channel.pop() else {
            return false;
        };
        self.controller.ingest(event, &mut self.telemetry);
        self.processed += 1;
        true
    }

    /// Drains the channel into the controller, oldest first.
    fn drain(&mut self) -> u64 {
        let mut drained = 0;
        while self.drain_one() {
            drained += 1;
        }
        drained
    }

    /// Sets or clears the chaos wedge (see [`TenantSlot::wedged`]).
    pub(crate) fn set_wedged(&mut self, wedged: bool) {
        self.wedged = wedged;
    }

    /// Captures the slot's full recoverable state. The telemetry part is
    /// a mark on the slot's own session, which becomes its live mark.
    pub(crate) fn checkpoint(&mut self) -> SlotCheckpoint {
        SlotCheckpoint {
            tenant: self.tenant,
            controller: self.controller.checkpoint(),
            telemetry: self.telemetry.mark(),
            report: self.controller.report(),
            processed: self.processed,
            valid: true,
        }
    }

    /// Rewinds the slot to a checkpoint — controller restored, telemetry
    /// rewound to the checkpoint's mark, processed count reset, the
    /// channel cleared (its events are in the epoch's replay log), the
    /// wedge lifted — then replays `log` straight into the controller to
    /// catch up. Returns the events replayed and the change to the
    /// processed count, which the shard's own counter must follow.
    ///
    /// # Errors
    ///
    /// [`FleetError::RestoreFailed`] if the controller snapshot does not
    /// fit this controller or the mark is not the session's live mark
    /// (neither happens for the latest checkpoint taken from this slot).
    pub(crate) fn recover(
        &mut self,
        checkpoint: &SlotCheckpoint,
        log: &[TimedEvent],
        epoch: u64,
    ) -> Result<(u64, i64), FleetError> {
        debug_assert_eq!(
            checkpoint.tenant, self.tenant,
            "checkpoints restore into the slot they were taken from"
        );
        let before = self.processed;
        let tenant = self.tenant;
        let failed = || FleetError::RestoreFailed { tenant, epoch };
        self.telemetry
            .rewind(&checkpoint.telemetry)
            .map_err(|_| failed())?;
        self.controller
            .restore(&checkpoint.controller)
            .map_err(|_| failed())?;
        self.wedged = false;
        while self.channel.pop().is_some() {}
        for event in log {
            self.controller.ingest(event.clone(), &mut self.telemetry);
        }
        self.processed = checkpoint.processed + log.len() as u64;
        Ok((log.len() as u64, self.processed as i64 - before as i64))
    }

    /// Retires the slot through quarantine: its telemetry session rewinds
    /// to the checkpoint's mark and closes there, so the returned
    /// artifacts hold exactly what the tenant had recorded at checkpoint
    /// time. The controller is dropped unread.
    ///
    /// # Errors
    ///
    /// [`FleetError::RestoreFailed`] if the mark is not the session's
    /// live mark.
    pub(crate) fn quarantine(
        mut self,
        checkpoint: &SlotCheckpoint,
        epoch: u64,
    ) -> Result<TelemetryArtifacts, FleetError> {
        self.telemetry
            .rewind(&checkpoint.telemetry)
            .map_err(|_| FleetError::RestoreFailed {
                tenant: self.tenant,
                epoch,
            })?;
        Ok(self.telemetry.finish())
    }

    /// Chaos hook: breaks the controller's admission conservation law so
    /// the fleet's epoch-end invariant sweep has something to detect.
    pub(crate) fn corrupt_conservation(&mut self) {
        self.controller.chaos_corrupt_conservation();
    }

    /// Closes the run at `horizon` and returns the final report plus the
    /// telemetry artifacts.
    fn finish(mut self, horizon: f64) -> (TenantId, ControllerReport, TelemetryArtifacts) {
        self.controller.finish_traced(horizon, &mut self.telemetry);
        (
            self.tenant,
            self.controller.report(),
            self.telemetry.finish(),
        )
    }
}

/// A disjoint set of tenants drained together on one pool worker.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    slots: Vec<TenantSlot>,
    processed: u64,
}

impl Shard {
    /// Creates an empty shard.
    #[must_use]
    pub fn new(id: usize) -> Self {
        Self {
            id,
            slots: Vec::new(),
            processed: 0,
        }
    }

    /// The shard's index in the fleet.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of tenants currently owned.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.slots.len()
    }

    /// The owned slots in tenant-id order (the pump iterates these).
    pub fn slots_mut(&mut self) -> &mut [TenantSlot] {
        &mut self.slots
    }

    /// The owned slots in tenant-id order.
    #[must_use]
    pub fn slots(&self) -> &[TenantSlot] {
        &self.slots
    }

    /// Total events buffered across the shard's channels.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.slots.iter().map(TenantSlot::buffered).sum()
    }

    /// Cumulative events processed by the shard's tenants — the load
    /// metric the rebalancer compares shards by.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Installs a tenant, keeping the slots sorted by tenant id so drain
    /// order is a pure function of ownership, not arrival order.
    pub fn install(&mut self, slot: TenantSlot) {
        let at = self.slots.partition_point(|s| s.tenant() < slot.tenant());
        self.slots.insert(at, slot);
    }

    /// Removes and returns a tenant's slot (`None` if not owned here).
    pub fn retire(&mut self, tenant: TenantId) -> Option<TenantSlot> {
        let at = self.slots.iter().position(|s| s.tenant() == tenant)?;
        Some(self.slots.remove(at))
    }

    /// One drain round: every owned channel emptied into its controller,
    /// tenant-id order. Returns the number of events processed.
    pub fn drain_round(&mut self) -> u64 {
        let mut drained = 0;
        for slot in &mut self.slots {
            drained += slot.drain();
        }
        self.processed += drained;
        drained
    }

    /// Drains at most `limit` events (tenant-id order, oldest first) and
    /// stops — the half-finished round an injected worker panic leaves
    /// behind. Returns the number of events processed.
    pub(crate) fn drain_upto(&mut self, limit: u64) -> u64 {
        let mut drained = 0;
        for slot in &mut self.slots {
            while drained < limit && slot.drain_one() {
                drained += 1;
            }
            if drained >= limit {
                break;
            }
        }
        self.processed += drained;
        drained
    }

    /// Re-aligns the shard's cumulative processed counter after a
    /// checkpoint restore + replay changed its slots' counts (the
    /// rebalancer compares shards by this, so recovery must leave it
    /// exactly where the undisturbed run would).
    pub(crate) fn adjust_processed(&mut self, delta: i64) {
        let adjusted = self.processed.checked_add_signed(delta);
        debug_assert!(adjusted.is_some(), "processed adjustment underflows");
        self.processed = adjusted.unwrap_or(self.processed);
    }

    /// Closes every tenant at `horizon`; returns `(tenant, report,
    /// artifacts)` triples in tenant-id order.
    #[must_use]
    pub fn finish(self, horizon: f64) -> Vec<(TenantId, ControllerReport, TelemetryArtifacts)> {
        self.slots
            .into_iter()
            .map(|slot| slot.finish(horizon))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_controller::ControllerConfig;
    use nfv_workload::churn::{ChurnEvent, ChurnTraceBuilder};
    use nfv_workload::{ScenarioBuilder, ServiceRatePolicy};

    #[test]
    fn install_keeps_tenant_id_order_and_retire_finds_by_id() {
        let scenario = ScenarioBuilder::new()
            .vnfs(2)
            .requests(4)
            .seed(5)
            .build()
            .unwrap();
        let mut shard = Shard::new(0);
        for t in [3u32, 0, 2] {
            shard.install(TenantSlot::new(
                TenantId::new(t),
                Controller::new(&scenario, ControllerConfig::online_only()),
                EventChannel::new(4),
                Telemetry::disabled(),
            ));
        }
        let order: Vec<u32> = shard.slots().iter().map(|s| s.tenant().as_u32()).collect();
        assert_eq!(order, vec![0, 2, 3]);
        assert!(shard.retire(TenantId::new(2)).is_some());
        assert!(shard.retire(TenantId::new(2)).is_none());
        assert_eq!(shard.tenants(), 2);
    }

    #[test]
    fn drain_round_replays_buffered_events_in_order() {
        let scenario = ScenarioBuilder::new()
            .vnfs(3)
            .requests(10)
            .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
                target_utilization: 0.5,
            })
            .seed(6)
            .build()
            .unwrap();
        let trace = ChurnTraceBuilder::new()
            .horizon(5.0)
            .build(&scenario)
            .unwrap();
        // Oracle: a controller fed the trace directly.
        let mut direct = Controller::new(&scenario, ControllerConfig::online_only());
        let mut direct_tel = Telemetry::enabled();
        for event in trace.events() {
            direct.handle_traced(event, &mut direct_tel);
        }
        // Subject: the same events through a channel + drain rounds.
        let mut shard = Shard::new(0);
        shard.install(TenantSlot::new(
            TenantId::new(0),
            Controller::new(&scenario, ControllerConfig::online_only()),
            EventChannel::new(3),
            Telemetry::enabled(),
        ));
        let mut events = trace.events().iter().cloned().peekable();
        while events.peek().is_some() {
            {
                let slot = &mut shard.slots_mut()[0];
                while !slot.channel_full() {
                    let Some(event) = events.next() else { break };
                    slot.push(event);
                }
            }
            shard.drain_round();
        }
        assert_eq!(shard.processed(), trace.len() as u64);
        let arrival_count = trace
            .events()
            .iter()
            .filter(|e| matches!(e.event(), ChurnEvent::Arrival(_)))
            .count();
        assert!(arrival_count > 0);
        assert_eq!(shard.slots()[0].report(), direct.report());
        // Closed at the horizon, both sides journal the same bytes.
        direct.finish_traced(trace.horizon(), &mut direct_tel);
        let (_, report, artifacts) = shard.finish(trace.horizon()).remove(0);
        assert_eq!(report, direct.report());
        let direct_journal = direct_tel.finish().journal_jsonl();
        assert!(!direct_journal.is_empty());
        assert_eq!(artifacts.journal_jsonl(), direct_journal);
    }
}
