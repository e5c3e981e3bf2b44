//! Shards: the unit of parallelism in the fleet loop.
//!
//! A shard owns a disjoint set of tenants — each tenant an independent
//! controller fed by its own lazy trace stream through a bounded event
//! channel, with its own telemetry session — and runs their share of
//! every epoch as one pool task: backpressure rounds that pump each
//! tenant's stream into its channel and then drain every channel, both in
//! tenant-id order. Shards never share state, so running them on the
//! `nfv-parallel` pool (results folded in shard-id order) is bit-identical
//! to running them serially.

use nfv_chaos::FaultKind;
use nfv_controller::{Controller, ControllerReport, ControllerSnapshot};
use nfv_telemetry::{Stopwatch, Telemetry, TelemetryArtifacts, TelemetryMark};
use nfv_workload::churn::{ChurnStream, TimedEvent};
use nfv_workload::TenantId;

use crate::channel::EventChannel;
use crate::FleetError;

/// An epoch-boundary checkpoint of one tenant slot: the controller
/// snapshot, the mark on the slot's telemetry session, the counter
/// report at capture time, and the processed-event count. Restoring a
/// slot from its checkpoint and replaying the epoch's pumped events
/// reproduces the undisturbed slot bit for bit.
#[derive(Debug)]
pub(crate) struct SlotCheckpoint {
    tenant: TenantId,
    controller: ControllerSnapshot,
    telemetry: TelemetryMark,
    pub(crate) report: ControllerReport,
    processed: u64,
}

/// One tenant living inside a shard: its controller, its trace stream
/// and event channel, its telemetry session, and its cumulative
/// processed-event count.
#[derive(Debug)]
pub(crate) struct TenantSlot<'s> {
    tenant: TenantId,
    controller: Controller,
    stream: ChurnStream<'s>,
    /// The stream's next event, parked because it lies past the epoch
    /// boundary or met a full channel.
    head: Option<TimedEvent>,
    channel: EventChannel,
    telemetry: Telemetry,
    processed: u64,
    /// Chaos wedge: while set, drains skip this slot (its channel stops
    /// making progress), exercising the fleet's pump-stall detection.
    wedged: bool,
    /// `Some` from a faulted epoch's checkpoint to its boundary sweep:
    /// the tenant's own faults of the epoch, in plan order, while the
    /// slot records every pumped event in `log`.
    armed: Option<Vec<FaultKind>>,
    /// The events pumped since the faulted epoch's checkpoint, dropped
    /// ones included, in pump order — what the controller would have
    /// seen through a perfect channel, and what recovery replays. Its
    /// length is the epoch's pump count, the index channel faults key on.
    log: Vec<TimedEvent>,
}

impl<'s> TenantSlot<'s> {
    /// Assembles a slot around an idle controller and the tenant's
    /// unread trace stream.
    pub(crate) fn new(
        tenant: TenantId,
        controller: Controller,
        stream: ChurnStream<'s>,
        channel: EventChannel,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            tenant,
            controller,
            stream,
            head: None,
            channel,
            telemetry,
            processed: 0,
            wedged: false,
            armed: None,
            log: Vec::new(),
        }
    }

    /// The tenant this slot belongs to.
    pub(crate) fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Events this tenant's controller has processed so far.
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    /// The controller's current counter snapshot.
    pub(crate) fn report(&self) -> ControllerReport {
        self.controller.report()
    }

    /// Enqueues one event the caller found room for.
    fn push(&mut self, event: TimedEvent) {
        let pushed = self.channel.try_push(event).is_ok();
        debug_assert!(pushed, "pump must respect the channel bound");
    }

    /// Pumps the stream into the channel, oldest first, until the
    /// channel is full or the next event lies past `boundary` (it parks
    /// as the head). Returns the number of events pumped.
    ///
    /// While armed, every pumped event is logged first; an armed drop
    /// then keeps it from the channel and an armed duplicate pushes it
    /// twice, the copy lost if the channel has no room — deterministic
    /// either way. A dropped event still counts as pumped: the stream
    /// advanced.
    fn pump(&mut self, boundary: f64) -> u64 {
        let mut pumped = 0;
        while !self.channel.is_full() {
            let Some(event) = self.head.take().or_else(|| self.stream.next()) else {
                break;
            };
            if event.time() > boundary {
                self.head = Some(event);
                break;
            }
            pumped += 1;
            let Some(faults) = &self.armed else {
                self.push(event);
                continue;
            };
            let at = self.log.len() as u64;
            let dropped = faults
                .iter()
                .any(|fault| matches!(*fault, FaultKind::ChannelDrop { nth, .. } if nth == at));
            let duplicated = faults
                .iter()
                .any(|fault| matches!(*fault, FaultKind::ChannelDup { nth, .. } if nth == at));
            self.log.push(event.clone());
            if dropped {
                continue;
            }
            let duplicate = duplicated.then(|| event.clone());
            self.push(event);
            if let Some(duplicate) = duplicate {
                if !self.channel.is_full() {
                    self.push(duplicate);
                }
            }
        }
        pumped
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

    /// Starts a faulted epoch on the slot: a fresh replay log records
    /// every event pumped from here on, and the epoch's faults that name
    /// this tenant take effect — a channel fault on the pumped event it
    /// names, a wedge on every drain.
    pub(crate) fn arm(&mut self, epoch_faults: &[FaultKind]) {
        let tenant = Some(self.tenant.as_u32());
        let faults: Vec<FaultKind> = epoch_faults
            .iter()
            .filter(|fault| fault.tenant() == tenant)
            .copied()
            .collect();
        self.wedged = faults
            .iter()
            .any(|fault| matches!(fault, FaultKind::WedgeDrain { .. }));
        self.log.clear();
        self.armed = Some(faults);
    }

    /// Ends the faulted epoch at its boundary: recording stops and the
    /// wedge lifts, while the log stays for the boundary's recovery.
    /// Returns the armed faults that fired, in plan order: every one but
    /// a channel fault whose event index was never pumped. Each fired
    /// corruption breaks the controller's conservation law here, for the
    /// boundary's invariant sweep to detect.
    pub(crate) fn disarm(&mut self) -> Vec<FaultKind> {
        self.wedged = false;
        let pumped = self.log.len() as u64;
        let mut fired = self.armed.take().unwrap_or_default();
        fired.retain(|fault| match *fault {
            FaultKind::ChannelDrop { nth, .. } | FaultKind::ChannelDup { nth, .. } => nth < pumped,
            _ => true,
        });
        for fault in &fired {
            if matches!(
                fault,
                FaultKind::CorruptState { .. } | FaultKind::CorruptCheckpoint { .. }
            ) {
                self.controller.chaos_corrupt_conservation();
            }
        }
        fired
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
        }
    }

    /// Rewinds the slot to a checkpoint — controller restored, telemetry
    /// rewound to the checkpoint's mark, processed count reset, the
    /// channel cleared (its events are in the replay log), the wedge
    /// lifted — then replays the epoch's log straight into the controller
    /// to catch up. The stream, its parked head and the log itself are
    /// left as they are. Returns the events replayed.
    ///
    /// # Errors
    ///
    /// [`FleetError::RestoreFailed`] if the controller snapshot does not
    /// fit this controller or the mark is not the session's live mark
    /// (neither happens for the latest checkpoint taken from this slot).
    fn recover(&mut self, checkpoint: &SlotCheckpoint, epoch: u64) -> Result<u64, FleetError> {
        debug_assert_eq!(
            checkpoint.tenant, self.tenant,
            "checkpoints restore into the slot they were taken from"
        );
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
        for event in &self.log {
            self.controller.ingest(event.clone(), &mut self.telemetry);
        }
        let replayed = self.log.len() as u64;
        self.processed = checkpoint.processed + replayed;
        Ok(replayed)
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

/// What one shard's share of an epoch hands back to the fleet loop.
#[derive(Debug, Default)]
pub(crate) struct ShardRounds {
    /// Wall-clock seconds of the whole call (0 when untimed).
    pub(crate) seconds: f64,
    /// Wall-clock seconds of it spent pumping (0 when untimed).
    pub(crate) pump_seconds: f64,
    /// The first tenant (tenant order) still holding events when a round
    /// moved nothing — the epoch would spin forever on it.
    pub(crate) stalled: Option<TenantId>,
}

/// A disjoint set of tenants pumped and drained together on one pool
/// worker.
#[derive(Debug)]
pub(crate) struct Shard<'s> {
    id: usize,
    slots: Vec<TenantSlot<'s>>,
    processed: u64,
}

impl<'s> Shard<'s> {
    /// Creates an empty shard.
    pub(crate) fn new(id: usize) -> Self {
        Self {
            id,
            slots: Vec::new(),
            processed: 0,
        }
    }

    /// The shard's index in the fleet.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Number of tenants currently owned.
    pub(crate) fn tenants(&self) -> usize {
        self.slots.len()
    }

    /// The owned slots in tenant-id order.
    pub(crate) fn slots_mut(&mut self) -> &mut [TenantSlot<'s>] {
        &mut self.slots
    }

    /// The owned slots in tenant-id order.
    pub(crate) fn slots(&self) -> &[TenantSlot<'s>] {
        &self.slots
    }

    /// Total events buffered across the shard's channels.
    fn buffered(&self) -> usize {
        self.slots.iter().map(|slot| slot.channel.len()).sum()
    }

    /// Cumulative events processed by the shard's tenants — the load
    /// metric the rebalancer compares shards by.
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    /// Installs a tenant, keeping the slots sorted by tenant id so pump
    /// and drain order are a pure function of ownership, not arrival
    /// order.
    pub(crate) fn install(&mut self, slot: TenantSlot<'s>) {
        let at = self.slots.partition_point(|s| s.tenant() < slot.tenant());
        self.slots.insert(at, slot);
    }

    /// Removes and returns a tenant's slot (`None` if not owned here).
    pub(crate) fn retire(&mut self, tenant: TenantId) -> Option<TenantSlot<'s>> {
        let at = self.slots.iter().position(|s| s.tenant() == tenant)?;
        Some(self.slots.remove(at))
    }

    /// Runs the shard's backpressure rounds up to `boundary`. Each round
    /// pumps every slot until its channel is full or its stream passes
    /// the boundary, then drains every channel, tenant-id order both
    /// times; the rounds end with the first one that pumps nothing and
    /// finds nothing buffered, or that moves nothing with events still
    /// buffered (a stall, reported rather than spun on).
    ///
    /// With `inject_panic`, the first round that buffers events — always
    /// the first round, since every channel starts the epoch empty —
    /// drains half of them, rounded up, and unwinds: the worker death the
    /// fleet's supervised pool call contains and recovers from. The
    /// unwind skips the panic hook, so an injected fault prints nothing.
    /// With `timed`, the call and its pump phases are timed.
    pub(crate) fn rounds(&mut self, boundary: f64, inject_panic: bool, timed: bool) -> ShardRounds {
        let watch = timed.then(Stopwatch::start);
        let mut out = ShardRounds::default();
        loop {
            let pump_watch = timed.then(Stopwatch::start);
            let pumped: u64 = self.slots.iter_mut().map(|s| s.pump(boundary)).sum();
            if let Some(watch) = pump_watch {
                out.pump_seconds += watch.elapsed_seconds();
            }
            let buffered = self.buffered();
            if pumped == 0 && buffered == 0 {
                break;
            }
            if inject_panic {
                self.drain_upto((buffered as u64).div_ceil(2));
                std::panic::resume_unwind(Box::new("injected shard-worker panic"));
            }
            let drained: u64 = self.slots.iter_mut().map(TenantSlot::drain).sum();
            self.processed += drained;
            if pumped == 0 && drained == 0 {
                out.stalled = self
                    .slots
                    .iter()
                    .find(|slot| slot.channel.len() > 0)
                    .map(TenantSlot::tenant);
                break;
            }
        }
        out.seconds = watch.map_or(0.0, |w| w.elapsed_seconds());
        out
    }

    /// Drains at most `limit` events (tenant-id order, oldest first) and
    /// stops — the half-finished round an injected worker panic leaves
    /// behind.
    fn drain_upto(&mut self, limit: u64) {
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
    }

    /// Restores every slot `selected` picks from its tenant's epoch
    /// checkpoint and replays the slot's epoch log (a slot without a
    /// checkpoint is skipped). The shard's processed counter follows its
    /// slots' restored counts, so the rebalancer sees exactly what the
    /// undisturbed run would. Returns the slots restored and the events
    /// replayed.
    ///
    /// # Errors
    ///
    /// [`FleetError::RestoreFailed`] if a checkpoint does not restore.
    pub(crate) fn recover(
        &mut self,
        checkpoints: &[Option<SlotCheckpoint>],
        epoch: u64,
        selected: impl Fn(&TenantSlot<'s>) -> bool,
    ) -> Result<(u64, u64), FleetError> {
        let (mut restored, mut replayed) = (0, 0);
        for slot in &mut self.slots {
            if !selected(slot) {
                continue;
            }
            let checkpoint = checkpoints.get(slot.tenant.as_usize());
            let Some(checkpoint) = checkpoint.and_then(Option::as_ref) else {
                continue;
            };
            // The slot's events of this epoch are in both counters, so
            // the sum never underflows.
            let before = slot.processed;
            replayed += slot.recover(checkpoint, epoch)?;
            self.processed = self.processed + slot.processed - before;
            restored += 1;
        }
        Ok((restored, replayed))
    }

    /// Closes every tenant at `horizon`; returns `(tenant, report,
    /// artifacts)` triples in tenant-id order.
    pub(crate) fn finish(
        self,
        horizon: f64,
    ) -> Vec<(TenantId, ControllerReport, TelemetryArtifacts)> {
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
    use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy};

    fn scenario() -> Scenario {
        ScenarioBuilder::new()
            .vnfs(3)
            .requests(10)
            .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
                target_utilization: 0.5,
            })
            .seed(6)
            .build()
            .unwrap()
    }

    fn builder() -> ChurnTraceBuilder {
        ChurnTraceBuilder::new().horizon(5.0)
    }

    #[test]
    fn install_keeps_tenant_id_order_and_retire_finds_by_id() {
        let scenario = scenario();
        let mut shard = Shard::new(0);
        for t in [3u32, 0, 2] {
            shard.install(TenantSlot::new(
                TenantId::new(t),
                Controller::new(&scenario, ControllerConfig::online_only()),
                builder().stream(&scenario).unwrap(),
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
    fn rounds_feed_the_controller_its_stream_in_order() {
        let scenario = scenario();
        let trace = builder().build(&scenario).unwrap();
        // Oracle: a controller fed the trace directly.
        let mut direct = Controller::new(&scenario, ControllerConfig::online_only());
        let mut direct_tel = Telemetry::enabled();
        for event in trace.events() {
            direct.handle_traced(event, &mut direct_tel);
        }
        // Subject: the same stream through a 3-slot channel, over two
        // boundaries so the head parks once.
        let mut shard = Shard::new(0);
        shard.install(TenantSlot::new(
            TenantId::new(0),
            Controller::new(&scenario, ControllerConfig::online_only()),
            builder().stream(&scenario).unwrap(),
            EventChannel::new(3),
            Telemetry::enabled(),
        ));
        let half = trace.horizon() / 2.0;
        let first = shard.rounds(half, false, false);
        assert!(first.stalled.is_none());
        let before_half = trace.events().iter().filter(|e| e.time() <= half).count();
        assert_eq!(shard.processed(), before_half as u64);
        assert_eq!(shard.buffered(), 0, "rounds end with every channel empty");
        shard.rounds(f64::MAX, false, false);
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

    #[test]
    fn a_wedged_slot_stalls_its_shard_while_others_finish() {
        let scenario = scenario();
        let mut shard = Shard::new(0);
        for t in 0..3u32 {
            shard.install(TenantSlot::new(
                TenantId::new(t),
                Controller::new(&scenario, ControllerConfig::online_only()),
                builder().stream(&scenario).unwrap(),
                EventChannel::new(2),
                Telemetry::disabled(),
            ));
        }
        let wedge = FaultKind::WedgeDrain { tenant: 1 };
        shard.slots_mut()[1].arm(&[wedge]);
        let rounds = shard.rounds(f64::MAX, false, false);
        assert_eq!(rounds.stalled, Some(TenantId::new(1)));
        let slots = shard.slots();
        assert_eq!(
            slots[0].processed(),
            builder().build(&scenario).unwrap().len() as u64
        );
        assert_eq!(slots[1].processed(), 0);
        assert_eq!(
            slots[1].channel.len(),
            2,
            "the wedged channel filled and stuck"
        );
        assert_eq!(slots[2].processed(), slots[0].processed());
        assert_eq!(shard.slots_mut()[1].disarm(), vec![wedge]);
    }

    #[test]
    fn disarm_reports_the_faults_that_fired_and_recover_undoes_them() {
        let scenario = scenario();
        let events = builder().build(&scenario).unwrap().len() as u64;
        let mut shard = Shard::new(0);
        shard.install(TenantSlot::new(
            TenantId::new(0),
            Controller::new(&scenario, ControllerConfig::online_only()),
            builder().stream(&scenario).unwrap(),
            EventChannel::new(4),
            Telemetry::enabled(),
        ));
        let checkpoint = shard.slots_mut()[0].checkpoint();
        let faults = [
            FaultKind::ChannelDrop { tenant: 0, nth: 1 },
            FaultKind::TenantCrash { tenant: 1 },
            FaultKind::ChannelDup {
                tenant: 0,
                nth: events,
            },
            FaultKind::CorruptState { tenant: 0 },
        ];
        shard.slots_mut()[0].arm(&faults);
        shard.rounds(f64::MAX, false, false);
        assert_eq!(shard.processed(), events - 1, "the drop fired");
        // Tenant 1's crash armed nothing here and the duplicate's index
        // was never pumped; the corruption fires at the boundary.
        let fired = shard.slots_mut()[0].disarm();
        assert_eq!(fired, vec![faults[0], faults[3]]);
        assert!(!shard.slots()[0].report().conserves());
        let (restored, replayed) = shard.recover(&[Some(checkpoint)], 0, |_| true).unwrap();
        assert_eq!((restored, replayed), (1, events));
        assert_eq!(shard.processed(), events, "the shard follows its slot");
        let mut direct = Controller::new(&scenario, ControllerConfig::online_only());
        for event in builder().build(&scenario).unwrap().events() {
            direct.handle(event);
        }
        assert_eq!(shard.slots()[0].report(), direct.report());
    }
}
