//! The event-driven control loop.

use std::collections::BTreeSet;

use nfv_metrics::{Histogram, SampleSet};
use nfv_model::{ArrivalRate, Capacity, ComputeNode, NodeId, Request, RequestId, Vnf, VnfId};
use nfv_placement::{Bfdsu, Placement, PlacementProblem};
use nfv_scheduling::{Rckk, Scheduler};
use nfv_search::{objective, Engine, SearchConfig, SearchRun};
use nfv_telemetry::{EventKind, Phase, ReoptPhase, Telemetry, TickSample};
use nfv_workload::churn::{ChurnEvent, TimedEvent};
use nfv_workload::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::active::ActiveSet;
use crate::ledger::Holding;
use crate::retry::RetryQueue;
use crate::snapshot::{ControllerSnapshot, SnapshotError};
use crate::{
    ControllerConfig, ControllerError, ControllerReport, ControllerState, RejectReason,
    RetryConfig, ShedPolicy,
};

/// What the controller did with one event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventOutcome {
    /// The arrival was admitted onto one instance per chain hop.
    Admitted {
        /// `(vnf, instance)` placement for each hop, in chain order.
        placements: Vec<(VnfId, usize)>,
    },
    /// The arrival was refused.
    Rejected(RejectReason),
    /// An active request departed normally.
    Departed,
    /// A departure for a request the controller no longer holds (already
    /// evicted or shed); ignored.
    StaleDeparture,
    /// An instance went down; its requests were failed over or shed.
    InstanceDownHandled {
        /// Requests moved to surviving instances.
        migrated: u64,
        /// Requests dropped because no surviving instance could hold them.
        shed: u64,
    },
    /// An instance came (back) up.
    InstanceUpHandled,
    /// A re-optimization pass ran and applied its (bounded) plan — request
    /// migrations from the scheduling phase and, under
    /// [`ReplaceConfig`](crate::ReplaceConfig), instance operations from
    /// the re-placement phase.
    Reoptimized {
        /// Requests actually moved by the scheduling phase.
        migrations: u64,
        /// Instances added by the re-placement phase.
        instances_added: u64,
        /// Instances retired by the re-placement phase.
        instances_retired: u64,
        /// Instances relocated to another node by the re-placement phase
        /// or the background refiner.
        relocations: u64,
    },
    /// A tick ran its phases, but none committed a change, for whatever
    /// reason (the `ReoptRejected` journal records name the causes).
    TickSkipped,
    /// A tick was observed but re-optimization is disabled.
    TickIgnored,
    /// A whole node went dark: every VNF it hosted lost all instances at
    /// once, the affected requests were shed (and queued for retry when
    /// configured), and — under
    /// [`EmergencyConfig`](crate::EmergencyConfig) — an out-of-tick
    /// re-placement ran over the surviving nodes.
    NodeDownHandled {
        /// VNFs whose hosting node failed.
        vnfs_lost: u64,
        /// Requests shed because their chain crossed a lost VNF (each
        /// counted once, however many lost hops it had).
        shed: u64,
        /// Replacement instances added by the emergency re-placement.
        instances_added: u64,
        /// VNFs relocated onto surviving nodes by the emergency
        /// re-placement.
        relocations: u64,
    },
    /// A previously-dark node returned; VNFs still assigned to it are
    /// dispatchable again (VNFs relocated away during the outage are
    /// untouched).
    NodeUpHandled {
        /// VNFs whose instances became available again.
        vnfs_restored: u64,
    },
    /// An outage event named a node or `(vnf, instance)` the controller
    /// doesn't track — e.g. an instance retired by re-placement since the
    /// trace was generated, a recovery without a matching outage, or a
    /// node event without a cluster. Counted and otherwise ignored.
    StaleOutage,
}

/// The physical substrate the controller re-places over: the node fleet,
/// the scenario's VNF prototypes (per-instance demand and service rate,
/// used to rebuild [`PlacementProblem`]s with live instance counts) and the
/// current VNF→node assignment.
#[derive(Debug, Clone, PartialEq)]
struct Cluster {
    nodes: Vec<ComputeNode>,
    protos: Vec<Vnf>,
    assignment: Vec<NodeId>,
    /// Outage depth per node (overlapping `NodeDown` windows stack, like
    /// the ledger's per-instance depths); 0 means in service.
    node_down: Vec<u32>,
}

impl Cluster {
    fn any_node_down(&self) -> bool {
        self.node_down.iter().any(|&d| d > 0)
    }

    /// The fleet with dark nodes' capacity zeroed, so placement treats
    /// them as full and routes around them.
    fn effective_nodes(&self) -> Vec<ComputeNode> {
        if !self.any_node_down() {
            return self.nodes.clone();
        }
        self.nodes
            .iter()
            .zip(&self.node_down)
            .map(|(node, &depth)| {
                if depth == 0 {
                    *node
                } else {
                    ComputeNode::new(node.id(), Capacity::ZERO)
                }
            })
            .collect()
    }

    /// The VNFs assigned to one node, in id order.
    fn hosted_by(&self, node: NodeId) -> Vec<VnfId> {
        self.protos
            .iter()
            .zip(&self.assignment)
            .filter(|&(_, &n)| n == node)
            .map(|(p, _)| p.id())
            .collect()
    }
}

/// An online NFV control plane over one scenario.
///
/// Consumes a [`ChurnTrace`](nfv_workload::churn::ChurnTrace) event by
/// event, maintaining a live [`ControllerState`] ledger under admission
/// control (every instance stays strictly stable, `ρ < 1`), failing over
/// around instance outages, and — when configured — periodically
/// re-balancing the live request set with the paper's RCKK scheduler under
/// a bounded migration budget.
///
/// Everything is driven by the trace's virtual clock; the controller never
/// reads wall-clock time, so same-seed runs are bit-identical.
///
/// # Examples
///
/// ```
/// use nfv_controller::{Controller, ControllerConfig};
/// use nfv_workload::churn::ChurnTraceBuilder;
/// use nfv_workload::ScenarioBuilder;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scenario = ScenarioBuilder::new().vnfs(4).requests(20).seed(1).build()?;
/// let trace = ChurnTraceBuilder::new()
///     .horizon(60.0)
///     .arrival_rate(0.4)
///     .mean_holding(20.0)
///     .tick_period(15.0)
///     .seed(2)
///     .build(&scenario)?;
/// let mut controller = Controller::new(&scenario, ControllerConfig::periodic_reopt());
/// let report = controller.run_stream(trace.events().iter().cloned(), trace.horizon());
/// assert_eq!(report.admitted + report.rejected, 20 + trace.events().iter()
///     .filter(|e| e.time() > 0.0
///         && matches!(e.event(), nfv_workload::churn::ChurnEvent::Arrival(_)))
///     .count() as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    state: ControllerState,
    active: ActiveSet,
    config: ControllerConfig,
    /// The counter block; [`report`](Self::report) fills in the derived
    /// fields.
    counters: ControllerReport,
    /// `node_downs + node_ups` at the refiner's last quiet-tick check.
    outages_seen: u64,
    clock: f64,
    /// `∫ L(t) dt` over the run so far, for the time-weighted mean latency.
    latency_integral: f64,
    /// Predicted latency after the last handled event.
    current_latency: f64,
    latency_samples: SampleSet,
    cluster: Option<Cluster>,
    retry: RetryQueue,
}

impl Controller {
    /// Creates an idle controller for a scenario's VNF fleet.
    #[must_use]
    pub fn new(scenario: &Scenario, config: ControllerConfig) -> Self {
        Self {
            state: ControllerState::new(scenario),
            active: ActiveSet::default(),
            config,
            counters: ControllerReport::default(),
            outages_seen: 0,
            clock: 0.0,
            latency_integral: 0.0,
            current_latency: 0.0,
            latency_samples: SampleSet::new(),
            cluster: None,
            retry: RetryQueue::default(),
        }
    }

    /// Creates a controller that also knows the physical cluster: the node
    /// fleet and the initial VNF→node placement. Required for the
    /// re-placement phase ([`ReplaceConfig`](crate::ReplaceConfig)); without
    /// a cluster that phase is silently disabled.
    ///
    /// # Errors
    ///
    /// [`ControllerError::ClusterMismatch`] when the placement does not
    /// cover exactly the scenario's VNF set or does not fit the node fleet.
    pub fn with_cluster(
        scenario: &Scenario,
        nodes: Vec<ComputeNode>,
        placement: &Placement,
        config: ControllerConfig,
    ) -> Result<Self, ControllerError> {
        let protos = scenario.vnfs().to_vec();
        if placement.assignment().len() != protos.len() {
            return Err(ControllerError::ClusterMismatch {
                reason: "placement covers a different VNF set",
            });
        }
        let problem = PlacementProblem::new(nodes.clone(), protos.clone()).map_err(|_| {
            ControllerError::ClusterMismatch {
                reason: "node fleet and VNF set do not form a valid problem",
            }
        })?;
        Placement::new(&problem, placement.assignment().to_vec()).map_err(|_| {
            ControllerError::ClusterMismatch {
                reason: "placement does not fit the node fleet",
            }
        })?;
        let mut controller = Self::new(scenario, config);
        let node_down = vec![0; nodes.len()];
        controller.cluster = Some(Cluster {
            nodes,
            protos,
            assignment: placement.assignment().to_vec(),
            node_down,
        });
        Ok(controller)
    }

    /// The live ledger.
    #[must_use]
    pub fn state(&self) -> &ControllerState {
        &self.state
    }

    /// Current virtual time.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Captures the controller's full dynamic state as a
    /// [`ControllerSnapshot`]. Applied back with
    /// [`restore`](Self::restore) — onto this controller or any other
    /// built from the same scenario and config — the controller is
    /// rewound bit-for-bit: every subsequent event produces the same
    /// outcome, journal record and report the original would have.
    #[must_use]
    pub fn checkpoint(&self) -> ControllerSnapshot {
        let (retry_seq, retry_entries) = self.retry.export();
        ControllerSnapshot {
            clock: self.clock,
            latency_integral: self.latency_integral,
            current_latency: self.current_latency,
            counters: self.counters.clone(),
            outages_seen: self.outages_seen,
            latency_samples: self.latency_samples.as_slice().to_vec(),
            state: self.state.clone(),
            active: self.active.export(),
            retry_seq,
            retry_entries,
            cluster: self.cluster.as_ref().map(|cluster| {
                (
                    cluster.assignment.iter().map(|node| node.index()).collect(),
                    cluster.node_down.clone(),
                )
            }),
        }
    }

    /// Overwrites this controller's dynamic state from a snapshot taken
    /// against the same scenario and config (crash recovery: build a
    /// fresh controller, restore the last checkpoint, replay the events
    /// since).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] when the snapshot does not fit this
    /// controller — different VNF ids or service rates, or a different
    /// cluster presence or size. The controller is unchanged then.
    pub fn restore(&mut self, snapshot: &ControllerSnapshot) -> Result<(), SnapshotError> {
        let mismatch = |reason| SnapshotError::Mismatch { reason };
        self.state.fits(&snapshot.state).map_err(mismatch)?;
        match (self.cluster.as_mut(), snapshot.cluster.as_ref()) {
            (None, None) => {}
            (Some(cluster), Some((assignment, node_down))) => {
                if assignment.len() != cluster.assignment.len() {
                    return Err(mismatch("cluster assignment length differs"));
                }
                if node_down.len() != cluster.node_down.len() {
                    return Err(mismatch("cluster node count differs"));
                }
                cluster.assignment = assignment.iter().map(|&raw| NodeId::new(raw)).collect();
                cluster.node_down.clone_from(node_down);
            }
            _ => return Err(mismatch("cluster presence differs")),
        }
        self.state.clone_from(&snapshot.state);
        let mut active = ActiveSet::default();
        for request in &snapshot.active {
            // `checkpoint` lists each live request once, so no insert is
            // refused.
            let _ = active.insert(request.clone());
        }
        self.active = active;
        self.counters.clone_from(&snapshot.counters);
        self.outages_seen = snapshot.outages_seen;
        self.clock = snapshot.clock;
        self.latency_integral = snapshot.latency_integral;
        self.current_latency = snapshot.current_latency;
        self.latency_samples = snapshot.latency_samples.iter().copied().collect();
        self.retry = RetryQueue::import(snapshot.retry_seq, snapshot.retry_entries.clone());
        Ok(())
    }

    /// Fault-injection hook for the chaos harness: skews the admission
    /// counter so the conservation identity `admitted + retry_admitted ==
    /// active + departed + shed` no longer holds, emulating silent state
    /// corruption. The fleet's epoch-end conservation sweep must detect
    /// the violation and recover the tenant from its last checkpoint.
    #[doc(hidden)]
    pub fn chaos_corrupt_conservation(&mut self) {
        self.counters.admitted = self.counters.admitted.wrapping_add(1);
    }

    /// Applies one timed event. Retries that came due before the event's
    /// time are re-offered first, at their own virtual times.
    pub fn handle(&mut self, event: &TimedEvent) -> EventOutcome {
        self.handle_traced(event, &mut Telemetry::disabled())
    }

    /// [`handle`](Self::handle) with a telemetry session observing the
    /// event: journal records for every admit/reject/shed/retry/outage/
    /// re-optimization decision, timing spans around the hot phases, and
    /// one [`TickSample`] per re-optimization tick. Telemetry is a
    /// strict observer — `handle_traced(e, &mut Telemetry::disabled())`
    /// *is* `handle(e)`, and an enabled session changes no outcome.
    pub fn handle_traced(&mut self, event: &TimedEvent, tel: &mut Telemetry) -> EventOutcome {
        self.ingest(event.clone(), tel)
    }

    /// [`handle_traced`](Self::handle_traced) consuming the event: an
    /// arrival's [`Request`] is moved into the active set instead of
    /// cloned, which matters when replaying millions of streamed events.
    /// The fleet drain and [`run_stream`](Self::run_stream) ingest through
    /// here.
    pub fn ingest(&mut self, event: TimedEvent, tel: &mut Telemetry) -> EventOutcome {
        let tick = matches!(event.event(), ChurnEvent::ReoptimizeTick);
        let outcome = self.apply(event, tel);
        self.post_event(tick, tel);
        outcome
    }

    /// The event core behind every entry point: advances the clock (which
    /// re-offers due retries) and dispatches the event by value. The
    /// per-event path refreshes the latency samples after each call; the
    /// batched path only at tick boundaries.
    fn apply(&mut self, event: TimedEvent, tel: &mut Telemetry) -> EventOutcome {
        let (time, event) = event.into_parts();
        self.advance_clock(time, tel);
        match event {
            ChurnEvent::Arrival(request) => self.admit(request, tel),
            ChurnEvent::Departure(id) => self.depart(id),
            ChurnEvent::InstanceDown { vnf, instance } => self.instance_down(vnf, instance, tel),
            ChurnEvent::InstanceUp { vnf, instance } => self.instance_up(vnf, instance, tel),
            ChurnEvent::NodeDown { node } => self.node_down(node, tel),
            ChurnEvent::NodeUp { node } => self.node_up(node, tel),
            ChurnEvent::ReoptimizeTick => self.tick(tel),
        }
    }

    /// Re-offers retries due before `time` and accumulates the latency
    /// integral over the interval the system spent in its previous
    /// configuration.
    fn advance_clock(&mut self, time: f64, tel: &mut Telemetry) {
        self.offer_due_retries(time, tel);
        let dt = time - self.clock;
        if dt > 0.0 {
            self.latency_integral += self.current_latency * dt;
            self.clock = time;
        }
    }

    /// Refreshes the predicted latency, pushes the per-event latency
    /// sample, and — on a tick — offers the tick sample to telemetry.
    fn post_event(&mut self, tick: bool, tel: &mut Telemetry) {
        self.current_latency = self.state.predicted_latency();
        self.latency_samples.push(self.current_latency);
        if tick {
            tel.sample_tick(|| self.tick_sample());
        }
    }

    /// One row of the per-tick time-series: instance-utilization extrema,
    /// the balanced predicted latency, the retry backlog, and how much of
    /// the node fleet is in service.
    fn tick_sample(&self) -> TickSample {
        let mut instances = 0u64;
        let mut max_rho = 0.0f64;
        let mut rho_sum = 0.0f64;
        for vnf in self.state.vnf_ids() {
            for k in 0..self.state.instances(vnf) {
                let rho = self.state.utilization(vnf, k);
                instances += 1;
                rho_sum += rho;
                max_rho = max_rho.max(rho);
            }
        }
        let (nodes_in_service, nodes_total) = match &self.cluster {
            Some(cluster) => (
                cluster.node_down.iter().filter(|&&d| d == 0).count() as u64,
                cluster.nodes.len() as u64,
            ),
            None => (0, 0),
        };
        TickSample {
            tick: self.counters.ticks,
            time: self.clock,
            active: self.active.len() as u64,
            instances,
            max_rho,
            mean_rho: if instances > 0 {
                rho_sum / instances as f64
            } else {
                0.0
            },
            balanced_latency: self.state.balanced_latency(),
            retry_backlog: self.retry.len() as u64,
            nodes_in_service,
            nodes_total,
        }
    }

    /// Runs a stream of owned events — a lazily generated
    /// [`ChurnStream`](nfv_workload::churn::ChurnStream), or a materialized
    /// trace as `trace.events().iter().cloned()` — through the per-event
    /// path and closes the run at `horizon`. The trace never has to exist
    /// as a `Vec`, so million-event replays stay at constant memory.
    pub fn run_stream<I>(&mut self, events: I, horizon: f64) -> ControllerReport
    where
        I: IntoIterator<Item = TimedEvent>,
    {
        let mut tel = Telemetry::disabled();
        for event in events {
            self.ingest(event, &mut tel);
        }
        self.finish_traced(horizon, &mut tel);
        self.report()
    }

    /// Runs a stream of owned events through the *batched* ingestion path:
    /// events are drained into a buffer up to and including each
    /// [`ReoptimizeTick`](ChurnEvent::ReoptimizeTick) and applied in one
    /// pass over the ledger arenas.
    ///
    /// Two deliberate deviations from the exact per-event path, both
    /// batch-granular (see DESIGN.md "Replay engine"):
    ///
    /// - **Coalescing** — an arrival immediately followed by the departure
    ///   of the same request (a flash request that would be admitted on
    ///   the plain path and touches nothing in between) is counted as
    ///   admitted + departed without ever touching the ledger. This is
    ///   outcome-exact: the ledger's `add` followed by `remove` restores
    ///   its state bit for bit, so skipping both leaves the identical
    ///   state. Coalesced pairs emit no per-request journal records.
    /// - **Batch-granular latency sampling** — the predicted latency is
    ///   refreshed at batch boundaries (every tick) instead of after every
    ///   event, so the latency integral holds `L(t)` piecewise-constant
    ///   per batch and the per-event sample sets collect one sample per
    ///   batch. Counters, admission decisions and the final ledger state
    ///   are unaffected.
    ///
    /// Returns the final report, exactly like
    /// [`run_stream`](Self::run_stream).
    pub fn run_stream_batched<I>(&mut self, events: I, horizon: f64) -> ControllerReport
    where
        I: IntoIterator<Item = TimedEvent>,
    {
        self.run_stream_batched_traced(events, horizon, &mut Telemetry::disabled())
    }

    /// [`run_stream_batched`](Self::run_stream_batched) with a telemetry
    /// session observing the batched replay (tick samples and phase spans;
    /// coalesced pairs emit no journal records).
    pub fn run_stream_batched_traced<I>(
        &mut self,
        events: I,
        horizon: f64,
        tel: &mut Telemetry,
    ) -> ControllerReport
    where
        I: IntoIterator<Item = TimedEvent>,
    {
        let mut batch: Vec<TimedEvent> = Vec::new();
        for event in events {
            let tick = matches!(event.event(), ChurnEvent::ReoptimizeTick);
            batch.push(event);
            if tick {
                self.apply_batch(&mut batch, tel);
            }
        }
        // Trailing partial batch after the last tick.
        self.apply_batch(&mut batch, tel);
        self.finish_traced(horizon, tel);
        self.report()
    }

    /// Applies one tick's worth of buffered events in a single pass,
    /// coalescing adjacent same-request arrival/departure pairs, then
    /// refreshes the latency at the batch boundary. Leaves the buffer
    /// empty (capacity retained).
    fn apply_batch(&mut self, batch: &mut Vec<TimedEvent>, tel: &mut Telemetry) {
        if batch.is_empty() {
            return;
        }
        let mut events = batch.drain(..).peekable();
        let mut ended_on_tick = false;
        while let Some(event) = events.next() {
            // A flash request: admitted and gone again with no event in
            // between. Decide admission exactly as the plain path would
            // (same least-loaded scan, same headroom), but skip the
            // ledger round-trip — `add` then `remove` is a bit-exact
            // identity, so not doing either leaves the same state.
            if let ChurnEvent::Arrival(request) = event.event() {
                let departure = events.next_if(|next| {
                    matches!(next.event(), ChurnEvent::Departure(id) if *id == request.id())
                        && !self.active.contains_key(request.id())
                        && self.placement_plan(request).is_some()
                });
                if let Some(departure) = departure {
                    self.advance_clock(event.time(), tel);
                    self.advance_clock(departure.time(), tel);
                    self.counters.admitted += 1;
                    self.counters.departed += 1;
                    continue;
                }
            }
            let tick = matches!(event.event(), ChurnEvent::ReoptimizeTick);
            self.apply(event, tel);
            if tick {
                ended_on_tick = true;
                self.post_event(true, tel);
            }
        }
        if !ended_on_tick {
            // Keep the integral honest across the boundary even when the
            // batch is the trailing tail without a tick.
            self.current_latency = self.state.predicted_latency();
        }
    }

    /// Closes a run at `horizon`: re-offers any retries still due before
    /// it and accounts for the quiet tail between the last event and the
    /// horizon, so the time-weighted mean covers the whole run. Callers
    /// driving [`handle`](Self::handle) or [`ingest`](Self::ingest) event
    /// by event call this once at the end (with
    /// `&mut Telemetry::disabled()` when untraced); the `run_stream*`
    /// methods do it automatically.
    pub fn finish_traced(&mut self, horizon: f64, tel: &mut Telemetry) {
        self.offer_due_retries(horizon, tel);
        if horizon > self.clock {
            self.latency_integral += self.current_latency * (horizon - self.clock);
            self.clock = horizon;
        }
    }

    /// Re-offers every queued retry due at or before `upto`, each at its
    /// own virtual due time (advancing the clock and latency integral to
    /// it). A failed re-offer goes back into the queue with one more
    /// attempt on the counter, until the retry budget runs out.
    fn offer_due_retries(&mut self, upto: f64, tel: &mut Telemetry) {
        let Some(rc) = self.config.retry else { return };
        if self.retry.len() == 0 {
            return;
        }
        let token = tel.begin();
        while let Some((due, attempt, request)) = self.retry.pop_due(upto) {
            if due > self.clock {
                self.latency_integral += self.current_latency * (due - self.clock);
                self.clock = due;
            }
            self.counters.retries_attempted += 1;
            let id = request.id();
            let placed = match self.placement_plan(&request) {
                Some(placements) => self.occupy(request, &placements),
                None => Err(request),
            };
            match placed {
                Ok(()) => {
                    self.counters.retry_admitted += 1;
                    tel.emit(self.clock, self.counters.ticks, || {
                        EventKind::RetryAdmitted {
                            request: id,
                            attempt: u64::from(attempt),
                        }
                    });
                }
                Err(request) => self.schedule_retry(&rc, request, attempt + 1, due, tel),
            }
            self.current_latency = self.state.predicted_latency();
            self.latency_samples.push(self.current_latency);
        }
        tel.end(Phase::RetryDrain, token);
    }

    /// Queues a refused request for a later re-offer (first attempt),
    /// when retries are configured.
    fn enqueue_retry(&mut self, request: &Request, tel: &mut Telemetry) {
        if let Some(rc) = self.config.retry {
            self.schedule_retry(&rc, request.clone(), 0, self.clock, tel);
        }
    }

    /// Queues `request` for re-offer number `attempt`, backing off from
    /// `from`; a request the queue refuses is abandoned and counted.
    fn schedule_retry(
        &mut self,
        rc: &RetryConfig,
        request: Request,
        attempt: u32,
        from: f64,
        tel: &mut Telemetry,
    ) {
        let id = request.id();
        match self.retry.schedule(rc, request, attempt, from) {
            Ok(due) => {
                tel.emit(self.clock, self.counters.ticks, || {
                    EventKind::RetryScheduled {
                        request: id,
                        attempt: u64::from(attempt),
                        due,
                    }
                });
            }
            Err(refusal) => {
                self.counters.retry_abandoned += 1;
                tel.emit(self.clock, self.counters.ticks, || {
                    EventKind::RetryAbandoned {
                        request: id,
                        cause: refusal.slug().to_string(),
                    }
                });
            }
        }
    }

    /// Histogram of the predicted latency observed after each event.
    #[must_use]
    pub fn latency_histogram(&self, bins: usize) -> Option<Histogram> {
        Histogram::fitted(self.latency_samples.as_slice(), bins)
    }

    /// Snapshot of counters and derived statistics at the current clock.
    #[must_use]
    pub fn report(&self) -> ControllerReport {
        ControllerReport {
            time: self.clock,
            retry_pending: self.retry.len() as u64,
            active: self.active.len() as u64,
            mean_latency: if self.clock > 0.0 {
                self.latency_integral / self.clock
            } else {
                self.current_latency
            },
            current_latency: self.current_latency,
            peak_utilization: self.state.peak_utilization(),
            ..self.counters.clone()
        }
    }

    /// Admission: pick the least-loaded up instance per chain hop; refuse
    /// the arrival (or, under [`ShedPolicy::EvictLargest`], make room once
    /// per hop) if any hop would be driven to `ρ ≥ 1`. Evictions are
    /// applied eagerly as hops are scanned and are *not* rolled back if a
    /// later hop still fails — the shed requests are gone either way. An
    /// admitted request moves into the active set.
    fn admit(&mut self, request: Request, tel: &mut Telemetry) -> EventOutcome {
        let placements = match self.plan_admission(&request, tel) {
            Ok(placements) => placements,
            Err(outcome) => return outcome,
        };
        let id = request.id();
        if let Err(request) = self.occupy(request, &placements) {
            return self.reject(&request, RejectReason::DuplicateId, tel);
        }
        self.counters.admitted += 1;
        tel.emit(self.clock, self.counters.ticks, || EventKind::Admit {
            request: id,
            hops: placements.len() as u64,
        });
        EventOutcome::Admitted { placements }
    }

    /// The checking half of admission: one `(vnf, instance)` per chain hop
    /// on success, the rejection outcome (with its counters, journal
    /// records, evictions and retry enqueues already applied) on refusal.
    fn plan_admission(
        &mut self,
        request: &Request,
        tel: &mut Telemetry,
    ) -> Result<Vec<(VnfId, usize)>, EventOutcome> {
        if self.active.contains_key(request.id()) {
            return Err(self.reject(request, RejectReason::DuplicateId, tel));
        }
        let headroom = self.admission_headroom();
        let mut placements = Vec::with_capacity(request.chain().len());
        for &vnf in request.chain() {
            if self.state.instances(vnf) == 0 {
                return Err(self.reject(request, RejectReason::UnknownVnf { vnf }, tel));
            }
            let Some(k) = self.state.least_loaded_up(vnf) else {
                return Err(self.reject(request, RejectReason::NoInstanceUp { vnf }, tel));
            };
            if self.state.can_accept_within(
                vnf,
                k,
                request.arrival_rate(),
                request.delivery(),
                headroom,
            ) {
                placements.push((vnf, k));
                continue;
            }
            if self.config.shed == ShedPolicy::EvictLargest
                && self.evict_largest_for(vnf, k, request, tel)
            {
                placements.push((vnf, k));
                continue;
            }
            return Err(self.reject(request, RejectReason::WouldOverload { vnf }, tel));
        }
        Ok(placements)
    }

    /// Refuses an arrival: counts and journals the rejection, queues the
    /// request for a retry when capacity may return (an overloaded or
    /// unavailable hop), and returns the outcome.
    fn reject(
        &mut self,
        request: &Request,
        reason: RejectReason,
        tel: &mut Telemetry,
    ) -> EventOutcome {
        let (cause, retry) = match reason {
            RejectReason::WouldOverload { .. } => ("would-overload", true),
            RejectReason::NoInstanceUp { .. } => ("no-instance-up", true),
            RejectReason::UnknownVnf { .. } => ("unknown-vnf", false),
            RejectReason::DuplicateId => ("duplicate-id", false),
        };
        self.counters.rejected += 1;
        tel.emit(self.clock, self.counters.ticks, || EventKind::Reject {
            request: request.id(),
            cause: cause.to_string(),
        });
        if retry {
            self.enqueue_retry(request, tel);
        }
        EventOutcome::Rejected(reason)
    }

    /// Writes validated placements into the ledger and moves the request
    /// into the active set — the one ledger write behind both arrivals
    /// and retry re-admissions. A hop the ledger refuses (it already
    /// holds the id) or an active set that refuses the request unwinds
    /// the hops written so far and hands the request back.
    fn occupy(&mut self, request: Request, placements: &[(VnfId, usize)]) -> Result<(), Request> {
        let (id, rate, delivery) = (request.id(), request.arrival_rate(), request.delivery());
        let written = placements
            .iter()
            .take_while(|&&(vnf, k)| self.state.add_request(vnf, k, id, rate, delivery).is_ok())
            .count();
        let occupied = if written == placements.len() {
            self.active.insert(request)
        } else {
            Err(request)
        };
        if occupied.is_err() {
            for &(vnf, _) in &placements[..written] {
                self.state.remove_request(vnf, id);
            }
        }
        occupied
    }

    /// A non-mutating admission check for retries: the least-loaded up
    /// instance per chain hop, under the current admission headroom, with
    /// no eviction fallback. `None` when any hop refuses.
    fn placement_plan(&self, request: &Request) -> Option<Vec<(VnfId, usize)>> {
        if self.active.contains_key(request.id()) {
            return None;
        }
        let headroom = self.admission_headroom();
        let mut placements = Vec::with_capacity(request.chain().len());
        for &vnf in request.chain() {
            let k = self.state.least_loaded_up(vnf)?;
            if !self.state.can_accept_within(
                vnf,
                k,
                request.arrival_rate(),
                request.delivery(),
                headroom,
            ) {
                return None;
            }
            placements.push((vnf, k));
        }
        Some(placements)
    }

    /// Brownout admission: while any node is dark (and emergency handling
    /// is configured), arrivals and retries are admitted only up to the
    /// brownout fraction of `μ` per instance, keeping slack on the
    /// surviving capacity for failover traffic and returning retries.
    fn admission_headroom(&self) -> f64 {
        match (&self.cluster, self.config.emergency) {
            (Some(cluster), Some(emergency)) if cluster.any_node_down() => {
                emergency.brownout_headroom
            }
            _ => 1.0,
        }
    }

    /// Tries to shed the largest-rate request of `(vnf, k)` to make room
    /// for `incoming`. The eviction must both free enough headroom and
    /// strictly shrink the instance's merged rate (evicting a smaller
    /// request for a bigger one would be a net loss). Returns whether the
    /// instance can now accept the newcomer.
    fn evict_largest_for(
        &mut self,
        vnf: VnfId,
        k: usize,
        incoming: &Request,
        tel: &mut Telemetry,
    ) -> bool {
        let incoming_inflated = incoming.effective_rate().value();
        let victim = self
            .state
            .members_of(vnf, k)
            .into_iter()
            .filter_map(|id| self.active.get(id))
            .map(|r| (r.effective_rate().value(), r.id()))
            // Largest inflated rate wins; id order breaks exact ties
            // deterministically (first max kept).
            .fold(None::<(f64, RequestId)>, |best, cand| match best {
                Some((rate, _)) if rate >= cand.0 => best,
                _ => Some(cand),
            });
        let Some((victim_rate, victim_id)) = victim else {
            return false;
        };
        let sum = self.state.instance_sum(vnf, k);
        // An unknown VNF has no instances and therefore no victim, so
        // this is unreachable from admission — but an eviction helper
        // that panics instead of declining is a trap for future callers.
        let Some(mu) = self.state.service_rate(vnf).map(|s| s.value()) else {
            return false;
        };
        if victim_rate <= incoming_inflated || sum - victim_rate + incoming_inflated >= mu {
            return false;
        }
        self.drop_request(victim_id);
        self.counters.shed += 1;
        tel.emit(self.clock, self.counters.ticks, || EventKind::Shed {
            request: victim_id,
            cause: "evicted-for-admission".to_string(),
        });
        true
    }

    /// Removes a request from the active set and from every hop it
    /// occupies, returning it; `None` when it is not active.
    fn drop_request(&mut self, id: RequestId) -> Option<Request> {
        let request = self.active.remove(id)?;
        for &vnf in request.chain() {
            self.state.remove_request(vnf, id);
        }
        Some(request)
    }

    fn depart(&mut self, id: RequestId) -> EventOutcome {
        if self.drop_request(id).is_none() {
            return EventOutcome::StaleDeparture;
        }
        self.counters.departed += 1;
        EventOutcome::Departed
    }

    /// Marks the instance down and re-dispatches its requests (id order)
    /// to surviving instances with headroom; requests that fit nowhere are
    /// shed entirely (and queued for retry when configured). An event
    /// naming an instance the controller doesn't track — e.g. one retired
    /// by re-placement since the trace was generated — is counted as
    /// stale and ignored.
    fn instance_down(&mut self, vnf: VnfId, instance: usize, tel: &mut Telemetry) -> EventOutcome {
        if !self.state.mark_down(vnf, instance) {
            self.counters.stale_outage_events += 1;
            return EventOutcome::StaleOutage;
        }
        let (mut migrated, mut shed) = (0u64, 0u64);
        for id in self.state.members_of(vnf, instance) {
            // The mover still sits on the down instance, which is never a
            // target, so its load does not sway the pick.
            let target = self.state.traffic_of(vnf, id).and_then(|(rate, delivery)| {
                self.state
                    .least_loaded_up(vnf)
                    .filter(|&k| self.state.can_accept(vnf, k, rate, delivery))
            });
            if target.is_some_and(|k| self.state.move_request(vnf, id, k).is_ok()) {
                migrated += 1;
                continue;
            }
            if let Some(request) = self.drop_request(id) {
                shed += 1;
                tel.emit(self.clock, self.counters.ticks, || EventKind::Shed {
                    request: id,
                    cause: "instance-down".to_string(),
                });
                self.enqueue_retry(&request, tel);
            }
        }
        self.counters.migrated_failover += migrated;
        self.counters.shed += shed;
        tel.emit(self.clock, self.counters.ticks, || {
            EventKind::InstanceDown {
                vnf,
                slot: instance as u64,
                migrated,
                shed,
            }
        });
        EventOutcome::InstanceDownHandled { migrated, shed }
    }

    /// Closes one outage window on the instance. A recovery with no open
    /// window (overlapping outages already closed, or an instance retired
    /// and re-grown since) is stale: counted, never a resurrection.
    fn instance_up(&mut self, vnf: VnfId, instance: usize, tel: &mut Telemetry) -> EventOutcome {
        if self.state.mark_up(vnf, instance) {
            tel.emit(self.clock, self.counters.ticks, || EventKind::InstanceUp {
                vnf,
                slot: instance as u64,
            });
            EventOutcome::InstanceUpHandled
        } else {
            self.counters.stale_outage_events += 1;
            EventOutcome::StaleOutage
        }
    }

    /// A whole node went dark. Every VNF assigned to it loses all its
    /// instances at once (whole-VNF-per-node placement): the ledger marks
    /// them host-down atomically, mass failover displaces every request
    /// whose chain crosses a lost VNF — deduplicated, so a chain crossing
    /// two lost VNFs is shed exactly once — and, when configured, an
    /// emergency re-placement immediately repacks onto the surviving
    /// nodes instead of waiting for the next tick. Shed requests are
    /// queued for retry when configured.
    fn node_down(&mut self, node: NodeId, tel: &mut Telemetry) -> EventOutcome {
        let hosted = {
            let Some(cluster) = self.cluster.as_mut() else {
                self.counters.stale_outage_events += 1;
                return EventOutcome::StaleOutage;
            };
            let Some(depth) = cluster.node_down.get_mut(node.as_usize()) else {
                self.counters.stale_outage_events += 1;
                return EventOutcome::StaleOutage;
            };
            self.counters.node_downs += 1;
            *depth += 1;
            if *depth > 1 {
                // Overlapping window: the node is already dark and its
                // VNFs already failed over.
                tel.emit(self.clock, self.counters.ticks, || EventKind::NodeDown {
                    node,
                    vnfs_lost: 0,
                    shed: 0,
                });
                return EventOutcome::NodeDownHandled {
                    vnfs_lost: 0,
                    shed: 0,
                    instances_added: 0,
                    relocations: 0,
                };
            }
            cluster.hosted_by(node)
        };
        let mut displaced: BTreeSet<RequestId> = BTreeSet::new();
        for &vnf in &hosted {
            self.state.set_host_down(vnf, true);
            displaced.extend(self.state.active_ids(vnf));
        }
        // The NodeDown record precedes the per-request Shed records it
        // causes, so the journal reads in causal order.
        let (vnfs_lost, displaced_count) = (hosted.len() as u64, displaced.len() as u64);
        tel.emit(self.clock, self.counters.ticks, || EventKind::NodeDown {
            node,
            vnfs_lost,
            shed: displaced_count,
        });
        // With every instance of the lost VNFs down at once, failover has
        // no surviving target within the VNF: every displaced request is
        // shed whole (the retry ladder is the recovery path).
        let mut shed = 0u64;
        for id in displaced {
            let Some(request) = self.drop_request(id) else {
                continue;
            };
            shed += 1;
            tel.emit(self.clock, self.counters.ticks, || EventKind::Shed {
                request: id,
                cause: "node-down".to_string(),
            });
            self.enqueue_retry(&request, tel);
        }
        self.counters.shed += shed;
        let (instances_added, relocations) = self.emergency_replace(node, tel);
        EventOutcome::NodeDownHandled {
            vnfs_lost: hosted.len() as u64,
            shed,
            instances_added,
            relocations,
        }
    }

    /// A node returned. Once its last outage window closes, the VNFs
    /// *still assigned* to it become dispatchable again; VNFs relocated
    /// away during the outage are untouched. Reclaiming the node (moving
    /// load back onto it) is left to the next tick's hysteresis-gated
    /// re-placement phase.
    fn node_up(&mut self, node: NodeId, tel: &mut Telemetry) -> EventOutcome {
        let restored = {
            let Some(cluster) = self.cluster.as_mut() else {
                self.counters.stale_outage_events += 1;
                return EventOutcome::StaleOutage;
            };
            let Some(depth) = cluster.node_down.get_mut(node.as_usize()) else {
                self.counters.stale_outage_events += 1;
                return EventOutcome::StaleOutage;
            };
            if *depth == 0 {
                // A recovery without a matching outage.
                self.counters.stale_outage_events += 1;
                return EventOutcome::StaleOutage;
            }
            self.counters.node_ups += 1;
            *depth -= 1;
            if *depth > 0 {
                tel.emit(self.clock, self.counters.ticks, || EventKind::NodeUp {
                    node,
                    vnfs_restored: 0,
                });
                return EventOutcome::NodeUpHandled { vnfs_restored: 0 };
            }
            cluster.hosted_by(node)
        };
        for &vnf in &restored {
            self.state.set_host_down(vnf, false);
        }
        let vnfs_restored = restored.len() as u64;
        tel.emit(self.clock, self.counters.ticks, || EventKind::NodeUp {
            node,
            vnfs_restored,
        });
        EventOutcome::NodeUpHandled { vnfs_restored }
    }

    /// Emergency re-placement, run outside the periodic tick right after
    /// a node failure: incremental BFDSU over the *surviving* nodes (the
    /// dark fleet contributes zero capacity), relocating stranded VNFs
    /// and growing replacement instances toward the ρ-headroom targets —
    /// which include the retry backlog, since that traffic re-offers as
    /// soon as capacity returns. Bounded by the per-event op cap; no
    /// latency hysteresis, because restoring availability is the point,
    /// so the grows go straight onto the live ledger and the plan commits
    /// without a phase. Journals one `EmergencyReplace` record for the
    /// failed `node`, whatever it changed. Returns
    /// `(instances_added, relocations)`.
    fn emergency_replace(&mut self, node: NodeId, tel: &mut Telemetry) -> (u64, u64) {
        let (Some(ec), Some(cluster)) = (self.config.emergency, self.cluster.as_ref()) else {
            return (0, 0);
        };
        let token = tel.begin();
        let (mut grows, _) = self.instance_targets(ec.headroom, None, ec.max_instance_ops);
        let mut rng = StdRng::seed_from_u64(ec.seed ^ self.counters.node_downs);
        let (assignment, relocated) = fit_grows(
            cluster,
            &self.state,
            &mut grows,
            0,
            ec.max_instance_ops,
            &mut rng,
        );
        let (mut instances_added, relocations) = (0, relocated.len() as u64);
        // With no grow and no relocation, nothing was needed or not even a
        // pure relocation fits the surviving fleet: retries wait for the
        // node to return.
        if !grows.is_empty() || relocations > 0 {
            instances_added = grow(&mut self.state, &grows);
            let plan = Plan {
                assignment: Some(assignment),
                added: instances_added,
                relocated: relocations,
                ..Plan::default()
            };
            self.commit(None, plan, tel);
        }
        tel.end(Phase::EmergencyReplace, token);
        tel.emit(self.clock, self.counters.ticks, || {
            EventKind::EmergencyReplace {
                node,
                instances_added,
                relocations,
            }
        });
        (instances_added, relocations)
    }

    /// ρ-headroom instance targets from live inflated rates, as unit
    /// operations: one grow per instance a VNF lacks to keep
    /// `λ ≤ headroom·μ` per instance, ranked by overload ratio
    /// (descending, id ascending on ties), and — when `shrink_below` is
    /// set — one shrink per surplus instance of a VNF loaded below that
    /// ratio, in id order. Grows take the op budget first; shrinks get
    /// what is left.
    fn instance_targets(
        &self,
        headroom: f64,
        shrink_below: Option<f64>,
        max_ops: usize,
    ) -> (Vec<VnfId>, Vec<VnfId>) {
        let mut grow_candidates: Vec<(f64, VnfId)> = Vec::new();
        let mut shrinks: Vec<VnfId> = Vec::new();
        for vnf in self.state.vnf_ids() {
            let m = self.state.instances(vnf);
            if m == 0 {
                continue;
            }
            let Some(mu) = self.state.service_rate(vnf).map(|s| s.value()) else {
                continue;
            };
            // Targets provision for the retry backlog too: that traffic
            // re-offers as soon as capacity returns (zero without a retry
            // queue).
            let lambda = self.state.total_sum(vnf) + self.retry.pending_rate(vnf);
            let needed = {
                let raw = (lambda / (headroom * mu)).ceil();
                if raw.is_finite() && raw >= 1.0 {
                    raw as usize
                } else {
                    1
                }
            };
            let ratio = lambda / (m as f64 * mu);
            if needed > m {
                grow_candidates.extend(std::iter::repeat_n((ratio, vnf), needed - m));
            } else if m > needed
                && shrink_below.is_some_and(|low| ratio < low)
                && !self.state.host_down(vnf)
            {
                // A host-down VNF always looks idle; don't retire the
                // instances it will need back after relocation/recovery.
                shrinks.extend(std::iter::repeat_n(vnf, m - needed));
            }
        }
        grow_candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut grows: Vec<VnfId> = grow_candidates.into_iter().map(|(_, v)| v).collect();
        grows.truncate(max_ops);
        shrinks.truncate(max_ops - grows.len());
        (grows, shrinks)
    }

    /// A re-optimization tick. The re-placement planner (when configured
    /// and a cluster is known) runs first, so freshly added instances are
    /// available to the scheduling planner within the same tick; the
    /// refiner runs last. Each planner sees what its predecessors
    /// committed. A declined plan is counted and journaled here against
    /// its phase's `min_gain`; a plan goes to [`commit`](Self::commit).
    fn tick(&mut self, tel: &mut Telemetry) -> EventOutcome {
        self.counters.ticks += 1;
        let replacing = self.config.replace.is_some() && self.cluster.is_some();
        let refining = self.config.refiner.is_some() && self.cluster.is_some();
        if self.config.reopt.is_none() && !replacing && !refining {
            return EventOutcome::TickIgnored;
        }
        let mut done = Plan::default();
        for phase in [
            ReoptPhase::Replacement,
            ReoptPhase::Scheduling,
            ReoptPhase::Refiner,
        ] {
            let verdict = match phase {
                ReoptPhase::Replacement => self.plan_replacement(tel),
                ReoptPhase::Scheduling => self.plan_scheduling(tel),
                ReoptPhase::Refiner => self.plan_refinement(tel),
            };
            match verdict {
                Verdict::Idle => {}
                Verdict::Declined(cause, predicted_gain, required_gain) => {
                    let counters = &mut self.counters;
                    *match phase {
                        ReoptPhase::Scheduling => &mut counters.reopts_skipped,
                        ReoptPhase::Replacement => &mut counters.replaces_aborted,
                        ReoptPhase::Refiner => &mut counters.refines_rejected,
                    } += 1;
                    tel.emit(self.clock, self.counters.ticks, || {
                        EventKind::ReoptRejected {
                            phase,
                            cause: cause.to_string(),
                            predicted_gain,
                            required_gain,
                        }
                    });
                }
                Verdict::Commit(plan) => {
                    done.migrations += plan.migrations;
                    done.added += plan.added;
                    done.retired += plan.retired;
                    done.relocated += plan.relocated;
                    self.commit(Some(phase), plan, tel);
                }
            }
        }
        if done.migrations + done.added + done.retired + done.relocated == 0 {
            EventOutcome::TickSkipped
        } else {
            EventOutcome::Reoptimized {
                migrations: done.migrations,
                instances_added: done.added,
                instances_retired: done.retired,
                relocations: done.relocated,
            }
        }
    }

    /// Adopts a plan: the one place a previewed ledger or a new VNF→node
    /// assignment becomes live. Host availability is recomputed from the
    /// new mapping, so a VNF relocated off a dark node is dispatchable
    /// again at once. Adds the plan's counts, bumps its phase's applied
    /// counter and journals one `ReoptCommit` whose realized gain is the
    /// gate's gain; the emergency re-placement (`phase` `None`) journals
    /// its own record.
    fn commit(&mut self, phase: Option<ReoptPhase>, plan: Plan, tel: &mut Telemetry) {
        if let Some(ledger) = plan.ledger {
            self.state = ledger;
        }
        if let (Some(assignment), Some(cluster)) = (plan.assignment, self.cluster.as_mut()) {
            cluster.assignment = assignment;
            for (proto, &node) in cluster.protos.iter().zip(&cluster.assignment) {
                self.state
                    .set_host_down(proto.id(), cluster.node_down[node.as_usize()] > 0);
            }
        }
        let counters = &mut self.counters;
        counters.migrated_reopt += plan.migrations;
        counters.migrated_replace += plan.drains;
        counters.instances_added += plan.added;
        counters.instances_retired += plan.retired;
        counters.relocations += plan.relocated;
        *match phase {
            Some(ReoptPhase::Scheduling) => &mut counters.reopts_applied,
            Some(ReoptPhase::Replacement) => &mut counters.replaces_applied,
            Some(ReoptPhase::Refiner) => &mut counters.refines_applied,
            None => &mut counters.emergency_replaces,
        } += 1;
        if let Some(phase) = phase {
            tel.emit(self.clock, self.counters.ticks, || EventKind::ReoptCommit {
                phase,
                migrations: plan.migrations + plan.drains,
                instances_added: plan.added,
                instances_retired: plan.retired,
                relocations: plan.relocated,
                predicted_gain: plan.gain,
                realized_gain: plan.gain,
            });
        }
    }

    /// The scheduling planner: re-runs RCKK on the live request set and
    /// bounds the plan to a hysteresis-gated slice of at most
    /// `max_migrations` moves, previewed on a cloned ledger.
    fn plan_scheduling(&self, tel: &mut Telemetry) -> Verdict {
        let Some(reopt) = self.config.reopt else {
            return Verdict::Idle;
        };

        // Re-run RCKK per VNF on the live request set (raw external rates,
        // as the ledger stores them and the offline pipeline feeds its
        // scheduler) and collect the requests whose current instance
        // differs from the target, in (VNF, id) order for determinism.
        let plan_token = tel.begin();
        let mut moves: Vec<Move> = Vec::new();
        for vnf in self.state.vnf_ids() {
            let holdings = self.state.holdings(vnf);
            if holdings.is_empty() {
                continue;
            }
            let rates: Vec<ArrivalRate> = holdings.iter().map(|h| h.rate).collect();
            // Plan only over the instances that are actually up; the
            // schedule's indices are mapped back to real instance numbers.
            let ups: Vec<usize> = (0..self.state.instances(vnf))
                .filter(|&k| self.state.is_up(vnf, k))
                .collect();
            if ups.is_empty() {
                continue;
            }
            let Ok(schedule) = Rckk::new().schedule(&rates, ups.len()) else {
                // Cannot happen for a non-empty live set; treat as "no
                // plan" rather than aborting the run.
                continue;
            };
            for (i, &member) in holdings.iter().enumerate() {
                let to = ups[schedule.instance_of(i)];
                if member.home != to {
                    moves.push(Move { vnf, member, to });
                }
            }
        }
        tel.end(Phase::RckkPlan, plan_token);
        if moves.is_empty() {
            return Verdict::Declined("empty-plan", 0.0, reopt.min_gain);
        }

        // Bound the plan on a preview ledger. A plan within the budget is
        // adopted whole (the oracle path: the live assignment becomes
        // exactly the fresh RCKK schedule). Otherwise the moves are picked
        // greedily by marginal predicted-latency gain — an arbitrary
        // prefix of a full rebalance is often infeasible or even harmful,
        // because each move's target only has room once *other* movers
        // have left. Each move's O(1) latency interval spares the exact
        // probe of every move that cannot be the best. A move the ledger
        // refuses declines the plan.
        let probe_token = tel.begin();
        let now = self.state.predicted_latency();
        let mut preview = self.state.clone();
        let selected = select_greedily(
            &mut preview,
            moves,
            reopt.max_migrations,
            now,
            apply_move,
            ControllerState::predicted_latency,
            Some(&move_bounds),
        );
        tel.end(Phase::HysteresisProbe, probe_token);
        let Some((moves, after)) = selected else {
            return Verdict::Declined("invalid-plan", 0.0, reopt.min_gain);
        };
        if moves.is_empty() {
            return Verdict::Declined("no-improvement", 0.0, reopt.min_gain);
        }

        // Hysteresis: the selected moves must promise a relative
        // predicted-latency gain of at least `min_gain`. (An infeasible
        // full plan previews as infinite latency and is declined here.)
        let gain = relative_gain(now, after);
        if gain < reopt.min_gain {
            return Verdict::Declined("hysteresis", gain, reopt.min_gain);
        }
        Verdict::Commit(Plan {
            ledger: Some(preview),
            migrations: moves.len() as u64,
            gain,
            ..Plan::default()
        })
    }

    /// The re-placement planner: bounded BFDSU delta-placement over live
    /// per-VNF rates. Computes ρ-headroom instance-count targets, previews
    /// the plan (retirements with drains, additions, relocations) on a
    /// cloned ledger under the per-tick op budget `K`, and gates plans
    /// that add or relocate instances on a balanced predicted-latency
    /// gain.
    fn plan_replacement(&self, tel: &mut Telemetry) -> Verdict {
        let (Some(rc), Some(cluster)) = (self.config.replace, self.cluster.as_ref()) else {
            return Verdict::Idle;
        };

        // Phase 1: ρ-headroom targets, truncated to the budget `K`.
        let (mut grows, shrinks) =
            self.instance_targets(rc.headroom, Some(rc.shrink_headroom), rc.max_instance_ops);
        if grows.is_empty() && shrinks.is_empty() {
            return Verdict::Idle;
        }

        // Phase 2: preview retirements; a shrink whose drain does not fit
        // is cancelled (see `retire_last`).
        let mut preview = self.state.clone();
        let (mut retired, mut drains) = (0, 0);
        for &vnf in &shrinks {
            match retire_last(&mut preview, vnf) {
                Ok(Some(drained)) => {
                    drains += drained;
                    retired += 1;
                }
                Ok(None) => {}
                Err(_) => return Verdict::Declined("invalid-plan", 0.0, rc.min_gain),
            }
        }

        // Phase 3: fit the grown fleet onto the physical cluster within
        // what the retirements left of the op budget — dark nodes count
        // as full, so VNFs stranded on them relocate here even without
        // emergency handling. The per-tick RNG is derived from the tick
        // count, so runs are bit-identical at any thread count.
        let mut rng = StdRng::seed_from_u64(rc.seed ^ self.counters.ticks);
        let fit_token = tel.begin();
        let (assignment, relocated) = fit_grows(
            cluster,
            &preview,
            &mut grows,
            retired as usize,
            rc.max_instance_ops,
            &mut rng,
        );
        tel.end(Phase::PlaceDelta, fit_token);
        if grows.is_empty() && retired == 0 && relocated.is_empty() {
            return Verdict::Idle;
        }

        // Phase 4: hysteresis. Plans that add or relocate instances must
        // promise a balanced predicted-latency gain of at least `min_gain`
        // or the whole plan (retirements included) is declined;
        // pure-shrink plans are exempt — they trade latency for capacity
        // by design, gated by the low watermark instead — and journal
        // zero gains.
        let added = grow(&mut preview, &grows);
        let mut gain = 0.0;
        if !grows.is_empty() || !relocated.is_empty() {
            let probe_token = tel.begin();
            // A plan that pulls a VNF off a dark node restores service and
            // bypasses the gate: its balanced-latency gain previews as
            // zero (the dead VNF carries no live load), yet skipping it
            // would strand the VNF until the node returns.
            let restores = relocated.iter().any(|&v| self.state.host_down(v));
            gain = relative_gain(self.state.balanced_latency(), preview.balanced_latency());
            tel.end(Phase::HysteresisProbe, probe_token);
            if !restores && gain < rc.min_gain {
                return Verdict::Declined("hysteresis", gain, rc.min_gain);
            }
        }
        Verdict::Commit(Plan {
            ledger: Some(preview),
            assignment: Some(assignment),
            drains,
            added,
            retired,
            relocated: relocated.len() as u64,
            gain,
            ..Plan::default()
        })
    }

    /// The background-refinement planner: on a *quiet* tick (no node
    /// currently dark, no node outage or recovery since the last tick) run
    /// a bounded anytime metaheuristic search over the VNF→node mapping,
    /// warm-started from the live assignment, and propose the searched
    /// plan, bounded to the relocation budget, when it clears the
    /// objective-gain hysteresis over the live assignment. Every
    /// generation is timed as a `search-generation` span; the search
    /// itself derives per-individual seeds from
    /// `(seed ^ tick, generation·population + i)`, so results are
    /// bit-identical at any thread count.
    fn plan_refinement(&mut self, tel: &mut Telemetry) -> Verdict {
        let (Some(rc), Some(cluster)) = (self.config.refiner, self.cluster.as_ref()) else {
            return Verdict::Idle;
        };
        // Quiet-tick gate: outage ticks belong to the recovery machinery,
        // and a search over a degraded fleet would chase a transient
        // topology.
        let outages = self.counters.node_downs + self.counters.node_ups;
        let quiet = !cluster.any_node_down() && outages == self.outages_seen;
        self.outages_seen = outages;
        if !quiet {
            return Verdict::Idle;
        }
        let Some(problem) = problem_with_counts(cluster.nodes.clone(), &cluster.protos, |id| {
            self.state.instances(id)
        }) else {
            return Verdict::Idle;
        };
        let live = cluster.assignment.clone();
        let mut config = match rc.engine {
            Engine::Ga => SearchConfig::ga(rc.seed ^ self.counters.ticks),
            Engine::Pso => SearchConfig::pso(rc.seed ^ self.counters.ticks),
        };
        config.population = rc.population.max(1);
        config.weights = rc.weights;
        let config = config.with_initial(live.clone());
        let incumbent = objective(&problem, &live, &config.weights);
        let Ok(mut run) = SearchRun::new(&problem, &config) else {
            return Verdict::Idle;
        };
        for _ in 0..rc.generations {
            let token = tel.begin();
            run.step();
            tel.end(Phase::SearchGeneration, token);
        }
        let moves: Vec<(usize, NodeId)> = run
            .best_assignment()
            .iter()
            .zip(&live)
            .enumerate()
            .filter(|(_, (to, from))| to != from)
            .map(|(f, (&to, _))| (f, to))
            .collect();
        if moves.is_empty() {
            return Verdict::Declined("no-improvement", 0.0, rc.min_gain);
        }
        // Bound the plan. Within the budget the searched assignment is
        // adopted whole; over it, single reassignments are applied
        // greedily by marginal objective gain. Each greedy pick requires a
        // strict improvement over a feasible incumbent, and infeasible
        // intermediates score above any feasible layout, so the bounded
        // plan stays feasible move by move.
        let probe_token = tel.begin();
        let mut plan = live;
        let picked = select_greedily(
            &mut plan,
            moves,
            rc.max_moves,
            incumbent,
            |plan, (f, node)| Some((f, std::mem::replace(plan.get_mut(f)?, node))),
            |plan| objective(&problem, plan, &config.weights),
            None,
        );
        tel.end(Phase::HysteresisProbe, probe_token);
        let Some((picked, fitness)) = picked else {
            return Verdict::Declined("invalid-plan", 0.0, rc.min_gain);
        };
        // Hysteresis: the bounded plan must promise a relative objective
        // gain of at least `min_gain` over the live assignment.
        let gain = relative_gain(incumbent, fitness);
        if gain < rc.min_gain {
            let cause = if gain <= 0.0 {
                "no-improvement"
            } else {
                "hysteresis"
            };
            return Verdict::Declined(cause, gain, rc.min_gain);
        }
        debug_assert!(
            Placement::validate(&problem, &plan).is_ok(),
            "the refiner only commits feasible plans"
        );
        Verdict::Commit(Plan {
            assignment: Some(plan),
            relocated: picked.len() as u64,
            gain,
            ..Plan::default()
        })
    }
}

/// What a tick planner decided.
enum Verdict {
    /// Nothing to plan: the phase is off, the tick is not quiet, or no
    /// change is needed.
    Idle,
    /// The plan was declined: its cause slug, its predicted gain and the
    /// phase's required gain (`min_gain`).
    Declined(&'static str, f64, f64),
    /// A plan that passed its gate, for [`Controller::commit`].
    Commit(Plan),
}

/// A plan that passed its gate: what [`Controller::commit`] adopts,
/// counts and journals.
#[derive(Default)]
struct Plan {
    /// The previewed ledger to adopt.
    ledger: Option<ControllerState>,
    /// The VNF→node assignment to adopt.
    assignment: Option<Vec<NodeId>>,
    /// Requests moved by rescheduling.
    migrations: u64,
    /// Requests drained off retired instances.
    drains: u64,
    /// Instances added.
    added: u64,
    /// Instances retired.
    retired: u64,
    /// VNFs relocated to another node.
    relocated: u64,
    /// The relative gain the plan's gate measured; 0 when no gate ran.
    gain: f64,
}

/// Relative gain `(now − after) / now` of moving from score `now` to
/// `after`, 0 when `now` is not positive. Escaping a saturated (infinite)
/// `now` counts as a full gain of 1 when `after` is finite, 0 when not.
fn relative_gain(now: f64, after: f64) -> f64 {
    if now.is_infinite() {
        if after.is_finite() {
            1.0
        } else {
            0.0
        }
    } else if now > 0.0 {
        (now - after) / now
    } else {
        0.0
    }
}

/// Encloses each candidate's measure on a state, for [`select_greedily`].
type Intervals<'a, S, C> = &'a dyn Fn(&S, &[C]) -> Vec<(f64, f64)>;

/// The bounded selector behind both plan-bounding phases. Candidates
/// that all fit the `budget` are applied to `state` in order and measured
/// once. Otherwise it tries the remaining candidates on `state` (apply,
/// measure, undo) and commits the one measuring lowest, while it strictly
/// improves on the current `score`, until `budget` picks. Candidates are
/// tried in order and the first best wins ties, so the selection is
/// deterministic. `apply` performs one candidate and returns its inverse,
/// which must restore `state` bit for bit. Returns the picks in order and
/// the final score, with `state` holding every pick; `None` when `state`
/// refused a step.
///
/// `interval`, when given, encloses each remaining candidate's measure
/// (`(-∞, ∞)` for one it cannot bound). A candidate whose lower end lies
/// above the lowest upper end, or at or above `score`, cannot be the
/// first best, so only the others are tried. Every candidate that could
/// be the first best is still measured exactly, in order, so the picks,
/// the score and `state` match the selection that tries them all.
fn select_greedily<S, C: Copy>(
    state: &mut S,
    mut remaining: Vec<C>,
    budget: usize,
    mut score: f64,
    apply: impl Fn(&mut S, C) -> Option<C>,
    measure: impl Fn(&S) -> f64,
    interval: Option<Intervals<'_, S, C>>,
) -> Option<(Vec<C>, f64)> {
    if remaining.len() <= budget {
        for &candidate in &remaining {
            apply(state, candidate)?;
        }
        return Some((remaining, measure(state)));
    }
    let mut picked = Vec::with_capacity(budget);
    while picked.len() < budget && !remaining.is_empty() {
        let bounds = interval.map(|interval| interval(state, &remaining));
        let reach = bounds.as_ref().map_or(f64::INFINITY, |bounds| {
            bounds
                .iter()
                .map(|&(_, hi)| hi)
                .fold(f64::INFINITY, f64::min)
        });
        let mut best: Option<(usize, f64)> = None;
        for (i, &candidate) in remaining.iter().enumerate() {
            if let Some(bounds) = &bounds {
                let lo = bounds.get(i).map_or(f64::NEG_INFINITY, |&(lo, _)| lo);
                if !(lo < score && lo <= reach) {
                    continue;
                }
            }
            let undo = apply(state, candidate)?;
            let after = measure(state);
            apply(state, undo)?;
            if after < score && best.is_none_or(|(_, b)| after < b) {
                best = Some((i, after));
            }
        }
        let Some((i, after)) = best else { break };
        let candidate = remaining.remove(i);
        apply(state, candidate)?;
        picked.push(candidate);
        score = after;
    }
    Some((picked, score))
}

/// One request migration the scheduling phase may pick: `member` of `vnf`
/// leaves its home instance for `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Move {
    vnf: VnfId,
    member: Holding,
    to: usize,
}

/// Applies `m` to the ledger and returns its inverse; `None` when the
/// ledger refuses it.
fn apply_move(ledger: &mut ControllerState, m: Move) -> Option<Move> {
    let from = ledger.move_request(m.vnf, m.member.id, m.to).ok()?;
    Some(Move {
        vnf: m.vnf,
        member: Holding {
            home: m.to,
            ..m.member
        },
        to: from,
    })
}

/// Each move's predicted-latency interval on the ledger, from one fold of
/// it (see [`ControllerState::move_latency_bounds`]).
fn move_bounds(ledger: &ControllerState, moves: &[Move]) -> Vec<(f64, f64)> {
    let fold = ledger.latency_fold();
    moves
        .iter()
        .map(|m| {
            fold.as_ref()
                .and_then(|fold| ledger.move_latency_bounds(fold, m.vnf, &m.member, m.to))
                .unwrap_or((f64::NEG_INFINITY, f64::INFINITY))
        })
        .collect()
}

/// Drains the VNF's last instance onto its least-loaded accepting up
/// siblings (lowest index on ties) and retires it, returning how many
/// requests moved. When a member fits nowhere, or the instance will not
/// retire, the drained members move back and the shrink is cancelled
/// (`Ok(None)`), leaving the ledger as it was bit for bit. `Err` when the
/// ledger refused a move.
fn retire_last(ledger: &mut ControllerState, vnf: VnfId) -> Result<Option<u64>, ControllerError> {
    let retiring = ledger.instances(vnf).saturating_sub(1);
    let mut drained = Vec::new();
    for id in ledger.members_of(vnf, retiring) {
        let target = ledger.traffic_of(vnf, id).and_then(|(rate, delivery)| {
            (0..ledger.instances(vnf))
                .filter(|&k| k != retiring && ledger.can_accept(vnf, k, rate, delivery))
                .min_by(|&a, &b| {
                    ledger
                        .instance_sum(vnf, a)
                        .total_cmp(&ledger.instance_sum(vnf, b))
                        .then(a.cmp(&b))
                })
        });
        let Some(k) = target else { break };
        ledger.move_request(vnf, id, k)?;
        drained.push(id);
    }
    if ledger.retire_instance(vnf).is_ok() {
        return Ok(Some(drained.len() as u64));
    }
    for id in drained {
        ledger.move_request(vnf, id, retiring)?;
    }
    Ok(None)
}

/// Adds one instance per entry of `grows` to the ledger, returning how
/// many it accepted.
fn grow(ledger: &mut ControllerState, grows: &[VnfId]) -> u64 {
    grows
        .iter()
        .filter(|&&vnf| ledger.add_instance(vnf).is_ok())
        .count() as u64
}

/// The placement problem over `nodes` with the VNF prototypes rebuilt at
/// the given live instance counts; `None` when a count or the problem is
/// invalid.
fn problem_with_counts(
    nodes: Vec<ComputeNode>,
    protos: &[Vnf],
    count_of: impl Fn(VnfId) -> usize,
) -> Option<PlacementProblem> {
    let vnfs = protos
        .iter()
        .map(|p| {
            Vnf::builder(p.id(), p.kind())
                .demand_per_instance(p.demand_per_instance())
                .instances(count_of(p.id()) as u32)
                .service_rate(p.service_rate())
                .build()
                .ok()
        })
        .collect::<Option<Vec<_>>>()?;
    PlacementProblem::new(nodes, vnfs).ok()
}

/// The fit-within-budget loop shared by the tick's re-placement phase
/// and emergency re-placement. Grows `counts` (the live ledger or a
/// preview) by `grows` and fits the fleet onto the cluster's surviving
/// capacity. If it fits the current assignment nothing relocates;
/// otherwise the incremental BFDSU repacks, and the plan must fit
/// `max_ops` after the `spent` ops already used (each relocation costs
/// one). When it does not, the lowest-priority grow is dropped and the
/// fit retried; with no grow left the current assignment stands. Returns
/// the assignment to adopt and the relocated VNFs.
fn fit_grows(
    cluster: &Cluster,
    counts: &ControllerState,
    grows: &mut Vec<VnfId>,
    spent: usize,
    max_ops: usize,
    rng: &mut StdRng,
) -> (Vec<NodeId>, Vec<VnfId>) {
    let effective = cluster.effective_nodes();
    // The prior is validated against the *full-capacity* fleet: the live
    // assignment may still map VNFs onto a dark node, which the
    // zero-capacity problem would reject.
    let prior = problem_with_counts(cluster.nodes.clone(), &cluster.protos, |id| {
        counts.instances(id)
    })
    .and_then(|p| Placement::new(&p, cluster.assignment.clone()).ok());
    loop {
        let grown = problem_with_counts(effective.clone(), &cluster.protos, |id| {
            counts.instances(id) + grows.iter().filter(|&&g| g == id).count()
        });
        if let Some(problem) = grown {
            if fits_in_place(&problem, &cluster.assignment) {
                return (cluster.assignment.clone(), Vec::new());
            }
            if let Some(Ok(delta)) = prior
                .as_ref()
                .map(|prior| Bfdsu::new().place_delta(&problem, prior, rng))
            {
                if spent + grows.len() + delta.moved().len() <= max_ops {
                    let moved = delta.moved().to_vec();
                    return (delta.into_placement().assignment().to_vec(), moved);
                }
            }
        }
        if grows.pop().is_none() {
            return (cluster.assignment.clone(), Vec::new());
        }
    }
}

/// Whether `assignment` stays within every node's capacity — delegates to
/// the placement validator, so the tolerance is identical everywhere an
/// assignment is checked.
fn fits_in_place(problem: &PlacementProblem, assignment: &[NodeId]) -> bool {
    Placement::validate(problem, assignment).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_model::{ArrivalRate, DeliveryProbability, ServiceChain};
    use nfv_workload::churn::{ChurnTrace, ChurnTraceBuilder};
    use nfv_workload::{ScenarioBuilder, ServiceRatePolicy};
    use proptest::prelude::*;
    use rand::Rng;
    use std::cell::Cell;

    fn scenario() -> Scenario {
        ScenarioBuilder::new()
            .vnfs(4)
            .requests(30)
            .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
                target_utilization: 0.6,
            })
            .seed(5)
            .build()
            .unwrap()
    }

    fn base_trace(s: &Scenario) -> ChurnTrace {
        ChurnTraceBuilder::new().horizon(50.0).build(s).unwrap()
    }

    /// Replays a materialized trace through the per-event path.
    fn replay(c: &mut Controller, trace: &ChurnTrace) -> ControllerReport {
        c.run_stream(trace.events().iter().cloned(), trace.horizon())
    }

    /// [`replay`] under a telemetry session, through `handle_traced`.
    fn traced_replay(
        c: &mut Controller,
        trace: &ChurnTrace,
        tel: &mut Telemetry,
    ) -> ControllerReport {
        for event in trace {
            c.handle_traced(event, tel);
        }
        c.finish_traced(trace.horizon(), tel);
        c.report()
    }

    #[test]
    fn base_population_is_admitted_without_rejections() {
        let s = scenario();
        let mut controller = Controller::new(&s, ControllerConfig::online_only());
        let report = replay(&mut controller, &base_trace(&s));
        assert_eq!(report.admitted, s.requests().len() as u64);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.active, s.requests().len() as u64);
        assert!(report.peak_utilization < 1.0, "admission keeps rho < 1");
        assert!(report.mean_latency > 0.0);
    }

    #[test]
    fn departures_empty_the_system() {
        let s = scenario();
        let mut controller = Controller::new(&s, ControllerConfig::online_only());
        replay(&mut controller, &base_trace(&s));
        let mut t = 1.0;
        for request in s.requests() {
            let event = TimedEvent::new(t, ChurnEvent::Departure(request.id()));
            assert_eq!(controller.handle(&event), EventOutcome::Departed);
            t += 0.1;
        }
        assert_eq!(controller.report().active, 0);
        assert_eq!(controller.report().departed, s.requests().len() as u64);
        assert_eq!(controller.state().predicted_latency(), 0.0);
        // A second departure of the same id is stale, not an error.
        let event = TimedEvent::new(t, ChurnEvent::Departure(s.requests()[0].id()));
        assert_eq!(controller.handle(&event), EventOutcome::StaleDeparture);
    }

    #[test]
    fn saturating_arrivals_are_rejected_with_typed_reason() {
        let s = scenario();
        let mut controller = Controller::new(&s, ControllerConfig::online_only());
        replay(&mut controller, &base_trace(&s));
        // A single request bigger than any instance's total capacity.
        let vnf = &s.vnfs()[0];
        let monster = Request::new(
            RequestId::new(90_000),
            ServiceChain::single(vnf.id()),
            ArrivalRate::new(vnf.service_rate().value() * 2.0).unwrap(),
            DeliveryProbability::PERFECT,
        );
        let outcome = controller.handle(&TimedEvent::new(1.0, ChurnEvent::Arrival(monster)));
        assert_eq!(
            outcome,
            EventOutcome::Rejected(RejectReason::WouldOverload { vnf: vnf.id() })
        );
        assert_eq!(controller.report().rejected, 1);
    }

    #[test]
    fn instance_down_fails_over_and_up_restores_dispatch() {
        let s = scenario();
        let mut controller = Controller::new(&s, ControllerConfig::online_only());
        replay(&mut controller, &base_trace(&s));
        let vnf = s
            .vnfs()
            .iter()
            .find(|v| v.instances() >= 2)
            .expect("multi-instance vnf");
        let on_zero = controller.state().members_of(vnf.id(), 0).len();
        let outcome = controller.handle(&TimedEvent::new(
            1.0,
            ChurnEvent::InstanceDown {
                vnf: vnf.id(),
                instance: 0,
            },
        ));
        match outcome {
            EventOutcome::InstanceDownHandled { migrated, shed } => {
                assert_eq!(migrated + shed, on_zero as u64);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(controller.state().members_of(vnf.id(), 0).len(), 0);
        assert!(!controller.state().is_up(vnf.id(), 0));
        controller.handle(&TimedEvent::new(
            2.0,
            ChurnEvent::InstanceUp {
                vnf: vnf.id(),
                instance: 0,
            },
        ));
        assert!(controller.state().is_up(vnf.id(), 0));
    }

    #[test]
    fn ticks_are_ignored_without_reopt_config() {
        let s = scenario();
        let mut controller = Controller::new(&s, ControllerConfig::online_only());
        replay(&mut controller, &base_trace(&s));
        let outcome = controller.handle(&TimedEvent::new(1.0, ChurnEvent::ReoptimizeTick));
        assert_eq!(outcome, EventOutcome::TickIgnored);
        assert_eq!(controller.report().ticks, 1);
        assert_eq!(controller.report().reopts_applied, 0);
    }

    #[test]
    fn oracle_tick_rebalances_to_rckk() {
        let s = scenario();
        let mut controller = Controller::new(&s, ControllerConfig::offline_oracle());
        replay(&mut controller, &base_trace(&s));
        let before = controller.state().predicted_latency();
        let outcome = controller.handle(&TimedEvent::new(1.0, ChurnEvent::ReoptimizeTick));
        match outcome {
            EventOutcome::Reoptimized { .. } | EventOutcome::TickSkipped => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        let after = controller.state().predicted_latency();
        assert!(
            after <= before + 1e-12,
            "rebalancing must not hurt: {before} -> {after}"
        );
    }

    #[test]
    fn eviction_policy_sheds_big_victim_for_smaller_arrival() {
        // One VNF, one instance: load it near capacity with one big and
        // admit a small one that only fits if the big one is evicted.
        let s = scenario();
        let vnf = &s.vnfs()[0];
        let mu = vnf.service_rate().value();
        let mut controller = Controller::new(
            &s,
            ControllerConfig {
                shed: ShedPolicy::EvictLargest,
                ..ControllerConfig::online_only()
            },
        );
        let m = vnf.instances() as usize;
        // Fill every instance of the VNF close to capacity.
        for i in 0..m {
            let big = Request::new(
                RequestId::new(80_000 + i as u32),
                ServiceChain::single(vnf.id()),
                ArrivalRate::new(mu * 0.93).unwrap(),
                DeliveryProbability::PERFECT,
            );
            let outcome = controller.handle(&TimedEvent::new(0.0, ChurnEvent::Arrival(big)));
            assert!(matches!(outcome, EventOutcome::Admitted { .. }));
        }
        let small = Request::new(
            RequestId::new(81_000),
            ServiceChain::single(vnf.id()),
            ArrivalRate::new(mu * 0.5).unwrap(),
            DeliveryProbability::PERFECT,
        );
        let outcome = controller.handle(&TimedEvent::new(1.0, ChurnEvent::Arrival(small.clone())));
        assert!(matches!(outcome, EventOutcome::Admitted { .. }));
        let report = controller.report();
        assert_eq!(report.shed, 1);
        assert_eq!(report.admitted, m as u64 + 1);
        assert!(controller.state().home_of(vnf.id(), small.id()).is_some());
    }

    #[test]
    fn a_ledger_member_missing_from_the_active_set_rejects_its_rearrival() {
        // A restored snapshot whose ledger holds a request its active set
        // lacks: the re-arrival of that id is refused and its written
        // hops unwound, instead of panicking on the duplicate assignment.
        let s = scenario();
        let mut controller = Controller::new(&s, ControllerConfig::online_only());
        replay(&mut controller, &base_trace(&s));
        let ghost = s.requests()[0].clone();
        let mut snapshot = controller.checkpoint();
        snapshot.active.retain(|r| r.id() != ghost.id());
        let mut restored = Controller::new(&s, ControllerConfig::online_only());
        restored.restore(&snapshot).unwrap();
        let ledger = restored.state().clone();
        let outcome = restored.handle(&TimedEvent::new(60.0, ChurnEvent::Arrival(ghost)));
        assert_eq!(outcome, EventOutcome::Rejected(RejectReason::DuplicateId));
        assert_eq!(restored.state(), &ledger, "no hop stays written");
        assert_eq!(restored.report().rejected, 1);
    }

    /// A fleet where each node can hold everything twice over, so instance
    /// growth never forces a repack in these tests.
    fn big_cluster(s: &Scenario) -> (Vec<ComputeNode>, Placement) {
        use nfv_model::Capacity;
        use nfv_placement::Placer;
        let total: f64 = s.vnfs().iter().map(|v| v.total_demand().value()).sum();
        let nodes: Vec<ComputeNode> = (0..4)
            .map(|i| ComputeNode::new(NodeId::new(i), Capacity::new(total * 2.0).unwrap()))
            .collect();
        let problem = PlacementProblem::new(nodes.clone(), s.vnfs().to_vec()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let placement = Bfdsu::new()
            .place(&problem, &mut rng)
            .unwrap()
            .into_placement();
        (nodes, placement)
    }

    #[test]
    fn with_cluster_rejects_a_mismatched_placement() {
        let s = scenario();
        let (nodes, placement) = big_cluster(&s);
        // A placement for a prefix of the VNF set must be refused.
        let short = Placement::new(
            &PlacementProblem::new(nodes.clone(), s.vnfs()[..2].to_vec()).unwrap(),
            placement.assignment()[..2].to_vec(),
        )
        .unwrap();
        let err = Controller::with_cluster(&s, nodes, &short, ControllerConfig::joint_reopt())
            .unwrap_err();
        assert!(matches!(err, ControllerError::ClusterMismatch { .. }));
    }

    #[test]
    fn restore_refuses_a_snapshot_of_another_shape_and_changes_nothing() {
        let s = scenario();
        let config = ControllerConfig::joint_reopt();
        let mut source = Controller::new(&s, config);
        replay(&mut source, &base_trace(&s));
        let snapshot = source.checkpoint();
        let refuses = |target: &mut Controller, snapshot: &ControllerSnapshot, reason: &str| {
            let before = target.clone();
            match target.restore(snapshot) {
                Err(SnapshotError::Mismatch { reason: got }) => assert_eq!(got, reason),
                other => panic!("expected a mismatch, got {other:?}"),
            }
            assert_eq!(*target, before, "a refused restore changes nothing");
        };
        // Another scenario: one VNF fewer, or the same ids at other rates.
        let fewer = ScenarioBuilder::new()
            .vnfs(3)
            .requests(30)
            .seed(5)
            .build()
            .unwrap();
        refuses(
            &mut Controller::new(&fewer, config),
            &snapshot,
            "snapshot VNF ids do not match the scenario",
        );
        let slower = ScenarioBuilder::new()
            .vnfs(4)
            .requests(30)
            .seed(6)
            .build()
            .unwrap();
        assert_ne!(s.vnfs()[0].service_rate(), slower.vnfs()[0].service_rate());
        refuses(
            &mut Controller::new(&slower, config),
            &snapshot,
            "snapshot service rates do not match the scenario",
        );
        // Another cluster shape: present on one side only, or sized
        // differently.
        let (nodes, placement) = big_cluster(&s);
        let mut clustered =
            Controller::with_cluster(&s, nodes.clone(), &placement, config).unwrap();
        refuses(&mut clustered, &snapshot, "cluster presence differs");
        let clustered_snapshot = clustered.checkpoint();
        refuses(
            &mut Controller::new(&s, config),
            &clustered_snapshot,
            "cluster presence differs",
        );
        let mut wider_nodes = nodes;
        let extra = ComputeNode::new(NodeId::new(4), wider_nodes[0].capacity());
        wider_nodes.push(extra);
        let mut wider = Controller::with_cluster(&s, wider_nodes, &placement, config).unwrap();
        refuses(
            &mut wider,
            &clustered_snapshot,
            "cluster node count differs",
        );
        // The same shape restores.
        let mut target = Controller::new(&s, config);
        target.restore(&snapshot).unwrap();
        assert_eq!(target.report(), source.report());
        assert_eq!(target.state(), source.state());
    }

    #[test]
    fn replace_phase_grows_a_saturated_vnf() {
        let s = scenario();
        let (nodes, placement) = big_cluster(&s);
        let mut controller =
            Controller::with_cluster(&s, nodes, &placement, ControllerConfig::joint_reopt())
                .unwrap();
        let vnf = &s.vnfs()[0];
        let mu = vnf.service_rate().value();
        // Load every instance of VNF 0 to rho = 0.93, above the 0.9 grow
        // watermark.
        for i in 0..vnf.instances() as usize {
            let big = Request::new(
                RequestId::new(70_000 + i as u32),
                ServiceChain::single(vnf.id()),
                ArrivalRate::new(mu * 0.93).unwrap(),
                DeliveryProbability::PERFECT,
            );
            let outcome = controller.handle(&TimedEvent::new(0.0, ChurnEvent::Arrival(big)));
            assert!(matches!(outcome, EventOutcome::Admitted { .. }));
        }
        let before = controller.state().instances(vnf.id());
        let balanced_before = controller.state().balanced_latency();
        let outcome = controller.handle(&TimedEvent::new(1.0, ChurnEvent::ReoptimizeTick));
        match outcome {
            EventOutcome::Reoptimized {
                instances_added, ..
            } => {
                assert!(instances_added >= 1, "the grow watermark was crossed");
            }
            other => panic!("expected a grow, got {other:?}"),
        }
        assert!(controller.state().instances(vnf.id()) > before);
        assert!(controller.state().balanced_latency() < balanced_before);
        let report = controller.report();
        assert_eq!(report.replaces_applied, 1);
        assert_eq!(report.replaces_aborted, 0);
        assert!(report.instances_added >= 1);
        assert!(
            report.instances_added + report.instances_retired + report.relocations <= 6,
            "per-tick ops stay within the budget"
        );
    }

    #[test]
    fn replace_phase_shrinks_an_idle_fleet_bounded_by_k() {
        let s = scenario();
        let (nodes, placement) = big_cluster(&s);
        let mut controller =
            Controller::with_cluster(&s, nodes, &placement, ControllerConfig::joint_reopt())
                .unwrap();
        // No load at all: every multi-instance VNF is below the shrink
        // watermark, targeting one instance each.
        let shrinkable: u64 = s.vnfs().iter().map(|v| u64::from(v.instances()) - 1).sum();
        assert!(shrinkable > 0, "scenario has multi-instance VNFs");
        let outcome = controller.handle(&TimedEvent::new(1.0, ChurnEvent::ReoptimizeTick));
        match outcome {
            EventOutcome::Reoptimized {
                migrations,
                instances_added,
                instances_retired,
                relocations,
            } => {
                assert_eq!(migrations, 0);
                assert_eq!(instances_added, 0);
                assert_eq!(relocations, 0);
                assert_eq!(instances_retired, shrinkable.min(6), "truncated to K");
            }
            other => panic!("expected retirements, got {other:?}"),
        }
        let report = controller.report();
        assert_eq!(report.replaces_applied, 1);
        assert_eq!(report.migrated_replace, 0, "idle instances drain nothing");
        // Pure-shrink plans are exempt from the latency gate.
        assert_eq!(report.replaces_aborted, 0);
    }

    #[test]
    fn refiner_commits_a_searched_plan_on_a_quiet_tick() {
        use crate::RefinerConfig;
        let s = scenario();
        let (nodes, _) = big_cluster(&s);
        // A deliberately spread placement — one VNF per node round-robin —
        // that the searcher can repack onto far fewer nodes.
        let problem = PlacementProblem::new(nodes.clone(), s.vnfs().to_vec()).unwrap();
        let spread: Vec<NodeId> = (0..s.vnfs().len())
            .map(|i| NodeId::new((i % nodes.len()) as u32))
            .collect();
        let placement = Placement::new(&problem, spread).unwrap();
        let config = ControllerConfig {
            refiner: Some(RefinerConfig::bounded()),
            ..ControllerConfig::online_only()
        };
        let mut controller = Controller::with_cluster(&s, nodes, &placement, config).unwrap();
        replay(&mut controller, &base_trace(&s));
        let outcome = controller.handle(&TimedEvent::new(1.0, ChurnEvent::ReoptimizeTick));
        match outcome {
            EventOutcome::Reoptimized { relocations, .. } => {
                assert!(relocations >= 1, "the spread layout must be repacked");
                assert!(relocations <= RefinerConfig::bounded().max_moves as u64);
            }
            other => panic!("expected a refinement, got {other:?}"),
        }
        let report = controller.report();
        assert_eq!(report.refines_applied, 1);
        assert_eq!(report.refines_rejected, 0);
        assert!(report.relocations >= 1);
        // A second tick finds the incumbent already refined; whatever
        // residual gain remains must stay within the move budget again.
        controller.handle(&TimedEvent::new(2.0, ChurnEvent::ReoptimizeTick));
        let report = controller.report();
        assert_eq!(report.refines_applied + report.refines_rejected, 2);
    }

    #[test]
    fn refiner_is_gated_by_outages_and_stays_a_strict_observer() {
        let s = scenario();
        let (nodes, placement) = big_cluster(&s);
        let trace = ChurnTraceBuilder::new()
            .horizon(400.0)
            .arrival_rate(0.5)
            .mean_holding(30.0)
            .tick_period(20.0)
            .node_fleet(4)
            .node_mtbf(80.0)
            .node_mttr(25.0)
            .seed(9)
            .build(&s)
            .unwrap();
        let run = |tel: &mut Telemetry| {
            let mut c = Controller::with_cluster(
                &s,
                nodes.clone(),
                &placement,
                ControllerConfig::refined(),
            )
            .unwrap();
            let report = traced_replay(&mut c, &trace, tel);
            (c, report)
        };
        let (plain, plain_report) = run(&mut Telemetry::disabled());
        let mut tel = Telemetry::enabled();
        let (traced, traced_report) = run(&mut tel);
        assert_eq!(plain, traced, "telemetry must not change any decision");
        assert_eq!(plain_report, traced_report);
        assert!(
            plain_report.refines_applied + plain_report.refines_rejected > 0,
            "some quiet tick ran the refiner: {plain_report}"
        );
        assert!(
            plain_report.refines_applied + plain_report.refines_rejected <= plain_report.ticks,
            "at most one refinement attempt per tick"
        );
        let artifacts = tel.finish();
        assert!(
            artifacts.events.iter().any(|e| matches!(
                e.kind,
                EventKind::ReoptCommit {
                    phase: ReoptPhase::Refiner,
                    ..
                } | EventKind::ReoptRejected {
                    phase: ReoptPhase::Refiner,
                    ..
                }
            )),
            "refiner decisions are journaled with their own phase"
        );
        // Every refiner generation was timed.
        assert!(
            artifacts.profile.summary(Phase::SearchGeneration).count() > 0,
            "search generations appear in the phase profile"
        );
    }

    #[test]
    fn joint_runs_are_deterministic() {
        let s = scenario();
        let (nodes, placement) = big_cluster(&s);
        let trace = ChurnTraceBuilder::new()
            .horizon(80.0)
            .arrival_rate(0.5)
            .mean_holding(30.0)
            .tick_period(20.0)
            .seed(9)
            .build(&s)
            .unwrap();
        let run = |nodes: Vec<ComputeNode>| {
            let mut c =
                Controller::with_cluster(&s, nodes, &placement, ControllerConfig::joint_reopt())
                    .unwrap();
            replay(&mut c, &trace);
            c
        };
        let a = run(nodes.clone());
        let b = run(nodes);
        assert_eq!(a, b, "same seed, same trace => bit-identical controller");
    }

    #[test]
    fn histograms_cover_the_run() {
        let s = scenario();
        let trace = ChurnTraceBuilder::new()
            .horizon(80.0)
            .arrival_rate(0.5)
            .mean_holding(30.0)
            .tick_period(20.0)
            .seed(9)
            .build(&s)
            .unwrap();
        let mut controller = Controller::new(&s, ControllerConfig::periodic_reopt());
        let mut tick_reports = Vec::new();
        for event in &trace {
            controller.handle(event);
            if matches!(event.event(), ChurnEvent::ReoptimizeTick) {
                tick_reports.push(controller.report());
            }
        }
        controller.finish_traced(trace.horizon(), &mut Telemetry::disabled());
        let latency = controller.latency_histogram(8).unwrap();
        assert_eq!(latency.count() as usize, trace.len());
        assert_eq!(tick_reports.len(), 3); // ticks at 20/40/60
    }

    #[test]
    fn telemetry_is_a_strict_observer() {
        let s = scenario();
        let (nodes, placement) = big_cluster(&s);
        let trace = ChurnTraceBuilder::new()
            .horizon(400.0)
            .arrival_rate(0.5)
            .mean_holding(30.0)
            .tick_period(20.0)
            .node_fleet(4)
            .node_mtbf(80.0)
            .node_mttr(25.0)
            .seed(9)
            .build(&s)
            .unwrap();
        let build = || {
            Controller::with_cluster(&s, nodes.clone(), &placement, ControllerConfig::resilient())
                .unwrap()
        };
        let run = |tel: &mut Telemetry| {
            let mut c = build();
            let report = traced_replay(&mut c, &trace, tel);
            (c, report)
        };
        let (plain, plain_report) = run(&mut Telemetry::disabled());
        let mut tel = Telemetry::enabled();
        let (traced, traced_report) = run(&mut tel);
        assert_eq!(plain, traced, "telemetry must not change any decision");
        assert_eq!(plain_report, traced_report);

        // The owned entry point the fleet drains through is the same
        // path: same controller, report and journal bytes.
        let mut owned = build();
        let mut owned_tel = Telemetry::enabled();
        for event in trace.events().iter().cloned() {
            owned.ingest(event, &mut owned_tel);
        }
        owned.finish_traced(trace.horizon(), &mut owned_tel);
        assert_eq!(owned, traced, "ingest decides exactly like handle_traced");
        assert_eq!(owned.report(), traced_report);

        let artifacts = tel.finish();
        assert_eq!(
            owned_tel.finish().journal_jsonl(),
            artifacts.journal_jsonl(),
            "ingest journals exactly like handle_traced"
        );
        assert!(!artifacts.events.is_empty());
        assert!(artifacts
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Admit { .. })));
        // Ticks happened, so the series sampled them.
        assert_eq!(artifacts.series.len() as u64, traced_report.ticks);
        // Seq numbers are dense journal positions.
        for (i, event) in artifacts.events.iter().enumerate() {
            assert_eq!(event.seq, i as u64);
        }
    }

    #[test]
    fn journal_orders_a_node_outage_causally() {
        let s = scenario();
        let (nodes, placement) = big_cluster(&s);
        let trace = ChurnTraceBuilder::new()
            .horizon(400.0)
            .arrival_rate(0.5)
            .mean_holding(60.0)
            .tick_period(20.0)
            .node_fleet(4)
            .node_mtbf(80.0)
            .node_mttr(25.0)
            .seed(11)
            .build(&s)
            .unwrap();
        let mut c =
            Controller::with_cluster(&s, nodes, &placement, ControllerConfig::resilient()).unwrap();
        let mut tel = Telemetry::enabled();
        let report = traced_replay(&mut c, &trace, &mut tel);
        assert!(report.node_downs > 0, "the trace contains node outages");
        let events = tel.finish().events;
        let downs: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, EventKind::NodeDown { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(downs.len() as u64, report.node_downs);
        // Every first-window NodeDown is immediately followed (in journal
        // order, before any later event time) by its sheds/retries and an
        // EmergencyReplace record for the same node.
        for &i in &downs {
            let EventKind::NodeDown {
                node, vnfs_lost, ..
            } = events[i].kind
            else {
                unreachable!()
            };
            if vnfs_lost == 0 {
                continue; // overlapping window, already handled
            }
            let replace = events[i..]
                .iter()
                .find(|e| matches!(e.kind, EventKind::EmergencyReplace { .. }))
                .expect("an emergency re-placement follows a first-window NodeDown");
            let EventKind::EmergencyReplace { node: rn, .. } = replace.kind else {
                unreachable!()
            };
            assert_eq!(rn, node, "the re-placement names the failed node");
            assert_eq!(replace.time, events[i].time, "same virtual instant");
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::NodeUp { .. })),
            "recoveries are journaled too"
        );
    }

    /// A ledger of 3 VNFs with at least 2–6 instances each, filled below `μ` with
    /// rates of 1–6 times `μ/40` (so equal rates, and exact ties between
    /// moves, are common, and a move can land a target on or past `μ`),
    /// and a move to a random other instance for about 60% of its members.
    fn random_plan(seed: u64) -> (ControllerState, Vec<Move>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = ScenarioBuilder::new()
            .vnfs(3)
            .requests(30)
            .seed(seed)
            .build()
            .unwrap();
        let mut ledger = ControllerState::new(&s);
        let vnfs: Vec<VnfId> = ledger.vnf_ids().collect();
        for &vnf in &vnfs {
            let want = rng.gen_range(2..=6);
            while ledger.instances(vnf) < want {
                ledger.add_instance(vnf).unwrap();
            }
        }
        for id in 0..rng.gen_range(10u32..150) {
            let vnf = vnfs[rng.gen_range(0..vnfs.len())];
            let k = rng.gen_range(0..ledger.instances(vnf));
            let mu = ledger.service_rate(vnf).unwrap().value();
            let rate = ArrivalRate::new(mu * f64::from(rng.gen_range(1u32..=6)) / 40.0).unwrap();
            let delivery = DeliveryProbability::new(if rng.gen_bool(0.3) { 0.9 } else { 1.0 });
            let delivery = delivery.unwrap();
            if ledger.instance_sum(vnf, k) + rate.inflated_by_loss(delivery).value() < mu {
                ledger
                    .add_request(vnf, k, RequestId::new(id), rate, delivery)
                    .unwrap();
            }
        }
        let mut moves = Vec::new();
        for &vnf in &vnfs {
            let m = ledger.instances(vnf);
            for member in ledger.holdings(vnf) {
                if rng.gen_bool(0.6) {
                    let to = (member.home + rng.gen_range(1..m)) % m;
                    moves.push(Move { vnf, member, to });
                }
            }
        }
        (ledger, moves)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn bounded_selection_picks_what_exhaustive_selection_picks(
            seed in 0u64..1_000_000,
            budget in 1usize..10,
        ) {
            let (ledger, moves) = random_plan(seed);
            let now = ledger.predicted_latency();
            let select = |interval: Option<Intervals<'_, ControllerState, Move>>| {
                let mut preview = ledger.clone();
                let selected = select_greedily(
                    &mut preview,
                    moves.clone(),
                    budget,
                    now,
                    apply_move,
                    ControllerState::predicted_latency,
                    interval,
                );
                (selected.unwrap(), preview)
            };
            // Every interval the bounded selection consults must hold its
            // move's exact score.
            let finite = Cell::new(0usize);
            let checked = |state: &ControllerState, remaining: &[Move]| {
                let bounds = move_bounds(state, remaining);
                for (&m, &(lo, hi)) in remaining.iter().zip(&bounds) {
                    let mut probe = state.clone();
                    apply_move(&mut probe, m).unwrap();
                    let exact = probe.predicted_latency();
                    assert!(lo <= exact && exact <= hi, "{m:?}: {exact} outside [{lo}, {hi}]");
                    finite.set(finite.get() + usize::from(hi.is_finite()));
                }
                bounds
            };
            let ((exact_picks, exact_score), exact_ledger) = select(None);
            let ((picks, score), bounded_ledger) = select(Some(&checked));
            prop_assert_eq!(picks, exact_picks);
            prop_assert_eq!(score.to_bits(), exact_score.to_bits());
            prop_assert!(bounded_ledger == exact_ledger);
            prop_assert!(moves.is_empty() || finite.get() > 0, "no move was bounded");
        }
    }
}
