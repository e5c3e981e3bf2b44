//! Seeded churn traces: timed event streams over a base [`Scenario`].
//!
//! The paper schedules a *static* request set; its §IV.A explicitly defers
//! dynamic arrivals and departures to an online component. This module
//! generates the input for such a component: a deterministic, virtual-time
//! stream of [`ChurnEvent`]s — request arrivals and departures, instance
//! outages and recoveries, and periodic re-optimization ticks — produced
//! from an explicit seed so that every run over the same parameters yields
//! the identical trace. There is no wall clock anywhere: event times are
//! plain `f64` seconds of virtual time.
//!
//! The trace always begins with the base scenario's own requests arriving
//! at `t = 0` in id order, which lets a consumer warm up to exactly the
//! offline problem before churn starts.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use nfv_model::{NodeId, Request, RequestId, VnfId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Scenario, WorkloadError};

/// One event in a churn trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// A new request enters the system and asks to be admitted.
    Arrival(Request),
    /// An active request leaves the system.
    Departure(RequestId),
    /// A service instance of a VNF fails or is drained.
    InstanceDown {
        /// The VNF whose instance went down.
        vnf: VnfId,
        /// Index of the instance within the VNF (`0..M_f`).
        instance: usize,
    },
    /// A previously-down service instance returns.
    InstanceUp {
        /// The VNF whose instance recovered.
        vnf: VnfId,
        /// Index of the instance within the VNF (`0..M_f`).
        instance: usize,
    },
    /// A whole compute node fails, taking down every instance it hosts at
    /// once. The trace is placement-agnostic: it names only the node, and
    /// the consumer resolves which VNFs are hosted against its live
    /// placement when the event fires.
    NodeDown {
        /// The failed node.
        node: NodeId,
    },
    /// A previously-failed compute node returns to service.
    NodeUp {
        /// The recovered node.
        node: NodeId,
    },
    /// A periodic signal asking the control plane to re-optimize.
    ReoptimizeTick,
}

/// A [`ChurnEvent`] stamped with its virtual-time occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    time: f64,
    event: ChurnEvent,
}

impl TimedEvent {
    /// Creates a timed event (times must be finite and non-negative).
    #[must_use]
    pub fn new(time: f64, event: ChurnEvent) -> Self {
        debug_assert!(time.is_finite() && time >= 0.0);
        Self { time, event }
    }

    /// Virtual occurrence time in seconds.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The event itself.
    #[must_use]
    pub fn event(&self) -> &ChurnEvent {
        &self.event
    }

    /// Decomposes into `(time, event)`, consuming the wrapper — the owned
    /// path replay engines use to move an arrival's request into the
    /// controller without cloning it.
    #[must_use]
    pub fn into_parts(self) -> (f64, ChurnEvent) {
        (self.time, self.event)
    }
}

/// A finite, time-sorted stream of churn events.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTrace {
    events: Vec<TimedEvent>,
    horizon: f64,
}

impl ChurnTrace {
    /// The events in non-decreasing time order.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The virtual-time horizon the trace was generated for.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Iterates over the events in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, TimedEvent> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a ChurnTrace {
    type Item = &'a TimedEvent;
    type IntoIter = std::slice::Iter<'a, TimedEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Seeded generator of [`ChurnTrace`]s over a base [`Scenario`].
///
/// Churn arrivals form a Poisson process whose requests are cloned (with
/// fresh ids) from uniformly drawn base-scenario requests, so the churned
/// traffic matches the base workload's rate/chain/loss distribution.
/// Holding times, when enabled, are exponential and apply to base and
/// churned requests alike.
///
/// # Examples
///
/// ```
/// use nfv_workload::churn::ChurnTraceBuilder;
/// use nfv_workload::ScenarioBuilder;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scenario = ScenarioBuilder::new().vnfs(4).requests(20).seed(1).build()?;
/// let trace = ChurnTraceBuilder::new()
///     .horizon(100.0)
///     .arrival_rate(0.5)
///     .mean_holding(40.0)
///     .tick_period(25.0)
///     .seed(7)
///     .build(&scenario)?;
/// assert!(trace.len() >= 20); // at least the base arrivals
/// let again = ChurnTraceBuilder::new()
///     .horizon(100.0)
///     .arrival_rate(0.5)
///     .mean_holding(40.0)
///     .tick_period(25.0)
///     .seed(7)
///     .build(&scenario)?;
/// assert_eq!(trace, again); // same seed, same trace
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTraceBuilder {
    seed: u64,
    horizon: f64,
    arrival_rate: f64,
    mean_holding: Option<f64>,
    tick_period: Option<f64>,
    outage_rate: f64,
    mean_outage: f64,
    node_fleet: usize,
    node_mtbf: Option<f64>,
    node_mttr: f64,
    rack_size: usize,
}

impl ChurnTraceBuilder {
    /// Starts a builder with no churn, no outages and no ticks over a
    /// 100-second horizon.
    #[must_use]
    pub fn new() -> Self {
        Self {
            seed: 0,
            horizon: 100.0,
            arrival_rate: 0.0,
            mean_holding: None,
            tick_period: None,
            outage_rate: 0.0,
            mean_outage: 10.0,
            node_fleet: 0,
            node_mtbf: None,
            node_mttr: 30.0,
            rack_size: 1,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the virtual-time horizon in seconds.
    #[must_use]
    pub fn horizon(mut self, seconds: f64) -> Self {
        self.horizon = seconds;
        self
    }

    /// Sets the Poisson rate of churn arrivals, in requests per virtual
    /// second. Zero (the default) disables churn arrivals.
    #[must_use]
    pub fn arrival_rate(mut self, per_second: f64) -> Self {
        self.arrival_rate = per_second;
        self
    }

    /// Enables departures: every request (base and churned) holds for an
    /// exponential time with this mean before departing.
    #[must_use]
    pub fn mean_holding(mut self, seconds: f64) -> Self {
        self.mean_holding = Some(seconds);
        self
    }

    /// Enables periodic [`ChurnEvent::ReoptimizeTick`]s with this period.
    #[must_use]
    pub fn tick_period(mut self, seconds: f64) -> Self {
        self.tick_period = Some(seconds);
        self
    }

    /// Sets the Poisson rate of instance outages (events per virtual
    /// second, spread over all instances). Zero (default) disables them.
    #[must_use]
    pub fn outage_rate(mut self, per_second: f64) -> Self {
        self.outage_rate = per_second;
        self
    }

    /// Sets the mean exponential duration of an outage in seconds.
    #[must_use]
    pub fn mean_outage(mut self, seconds: f64) -> Self {
        self.mean_outage = seconds;
        self
    }

    /// Sets the number of compute nodes addressable by node-outage events.
    /// Node outages need both a fleet size and an MTBF
    /// ([`node_mtbf`](Self::node_mtbf)) to be generated.
    #[must_use]
    pub fn node_fleet(mut self, nodes: usize) -> Self {
        self.node_fleet = nodes;
        self
    }

    /// Enables node outages: each fault group (a node, or a rack of
    /// [`rack_size`](Self::rack_size) nodes) alternates between service
    /// and outage, with exponential up-times of this mean.
    #[must_use]
    pub fn node_mtbf(mut self, seconds: f64) -> Self {
        self.node_mtbf = Some(seconds);
        self
    }

    /// Sets the mean exponential repair time of a node outage in seconds.
    #[must_use]
    pub fn node_mttr(mut self, seconds: f64) -> Self {
        self.node_mttr = seconds;
        self
    }

    /// Groups consecutive nodes into correlated fault domains of this size:
    /// all nodes of a "rack" fail and recover together (same timestamps,
    /// consecutive events). The default of 1 keeps nodes independent.
    #[must_use]
    pub fn rack_size(mut self, nodes: usize) -> Self {
        self.rack_size = nodes;
        self
    }

    /// Generates the trace.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if the horizon, rates,
    /// or durations are not finite/positive where required.
    pub fn build(&self, scenario: &Scenario) -> Result<ChurnTrace, WorkloadError> {
        self.validate()?;
        let (mut events, mut churn) = self.sparse_events(scenario, |rng, seq| {
            // Churn arrivals: Poisson process of fresh requests cloned from
            // uniformly drawn base requests — the materialized reference
            // that `stream` re-derives lazily.
            let mut churn = Vec::new();
            let mut next_id = first_churn_id(scenario);
            if self.arrival_rate > 0.0 {
                let mut t = sample_exp(rng, self.arrival_rate);
                while t < self.horizon {
                    let template =
                        &scenario.requests()[rng.gen_range(0..scenario.requests().len())];
                    let request = Request::new(
                        RequestId::new(next_id),
                        template.chain().clone(),
                        template.arrival_rate(),
                        template.delivery(),
                    );
                    next_id += 1;
                    let id = request.id();
                    churn.push((t, *seq, ChurnEvent::Arrival(request)));
                    *seq += 1;
                    if let Some(mean) = self.mean_holding {
                        let departs = t + sample_exp(rng, 1.0 / mean);
                        if departs < self.horizon {
                            churn.push((departs, *seq, ChurnEvent::Departure(id)));
                            *seq += 1;
                        }
                    }
                    t += sample_exp(rng, self.arrival_rate);
                }
            }
            churn
        });
        events.append(&mut churn);
        events.sort_by(by_time_then_seq);
        // A fresh exact-size buffer: collecting in place would keep the
        // larger sort tuples' allocation for the trace's whole life.
        let mut timed = Vec::with_capacity(events.len());
        timed.extend(events.into_iter().map(|(t, _, e)| TimedEvent::new(t, e)));
        Ok(ChurnTrace {
            events: timed,
            horizon: self.horizon,
        })
    }

    /// Generates the trace as a lazy stream instead of a materialized
    /// `Vec`: the event sequence is *identical* to
    /// [`build`](Self::build)'s — bit for bit, including every RNG draw —
    /// but only the sparse streams (base population, instance and node
    /// outages, ticks) are held in memory up front. Churn arrivals are
    /// re-derived on demand from a second same-seed RNG and their
    /// departures wait in a small heap of in-flight requests, so a
    /// million-event trace streams at `O(base + sparse + in-flight)`
    /// memory rather than `O(events)`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] exactly as
    /// [`build`](Self::build) would.
    pub fn stream<'a>(&self, scenario: &'a Scenario) -> Result<ChurnStream<'a>, WorkloadError> {
        self.validate()?;
        let (mut fixed, (mut churn_rng, churn_seq)) = self.sparse_events(scenario, |rng, seq| {
            // Snapshot the RNG at the head of the churn phase, then advance
            // the primary RNG through the phase drawing exactly what
            // `build` draws — counting sequence numbers without
            // materializing events, so the streams drawn *after* churn land
            // on their exact seqs. Note a horizon-clipped departure
            // consumes a draw but no seq.
            let head = (rng.clone(), *seq);
            if self.arrival_rate > 0.0 {
                let mut t = sample_exp(rng, self.arrival_rate);
                while t < self.horizon {
                    let _ = rng.gen_range(0..scenario.requests().len());
                    *seq += 1;
                    if let Some(mean) = self.mean_holding {
                        let departs = t + sample_exp(rng, 1.0 / mean);
                        if departs < self.horizon {
                            *seq += 1;
                        }
                    }
                    t += sample_exp(rng, self.arrival_rate);
                }
            }
            head
        });
        fixed.sort_by(by_time_then_seq);
        // Re-draw the first inter-arrival gap on the lazy RNG so it sits
        // exactly where `build`'s loop would be after its own first draw.
        let pending_arrival = if self.arrival_rate > 0.0 {
            let t = sample_exp(&mut churn_rng, self.arrival_rate);
            (t < self.horizon).then_some(t)
        } else {
            None
        };
        Ok(ChurnStream {
            scenario,
            horizon: self.horizon,
            arrival_rate: self.arrival_rate,
            mean_holding: self.mean_holding,
            fixed,
            fixed_pos: 0,
            rng: churn_rng,
            churn_seq,
            pending_arrival,
            next_id: first_churn_id(scenario),
            departures: BinaryHeap::new(),
        })
    }

    /// The sparse streams both [`build`](Self::build) and
    /// [`stream`](Self::stream) hold in memory, drawn from one seeded RNG
    /// in generation order: the base population, then the churn phase
    /// `churn` (handed the RNG and the next sequence number, which it
    /// advances past the churn events; its result is passed through), then
    /// instance outages, node outages and ticks. Events come back
    /// unsorted as `(time, seq, event)`; the sequence numbers break time
    /// ties exactly as the materialized trace does.
    fn sparse_events<R>(
        &self,
        scenario: &Scenario,
        churn: impl FnOnce(&mut StdRng, &mut usize) -> R,
    ) -> (Vec<(f64, usize, ChurnEvent)>, R) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events: Vec<(f64, usize, ChurnEvent)> = Vec::new();
        let mut seq = 0usize;

        // Base population: the scenario's own requests arrive at t = 0 in
        // id order, then (optionally) hold and depart.
        for request in scenario.requests() {
            events.push((0.0, seq, ChurnEvent::Arrival(request.clone())));
            seq += 1;
            if let Some(mean) = self.mean_holding {
                let holding = sample_exp(&mut rng, 1.0 / mean);
                if holding < self.horizon {
                    events.push((holding, seq, ChurnEvent::Departure(request.id())));
                    seq += 1;
                }
            }
        }

        let churned = churn(&mut rng, &mut seq);

        // Instance outages: each picks a uniform (VNF, instance) pair and
        // stays down for an exponential duration. Overlapping outages of
        // the same instance are allowed; consumers treat Down/Up as
        // idempotent state flips.
        if self.outage_rate > 0.0 {
            let mut t = sample_exp(&mut rng, self.outage_rate);
            while t < self.horizon {
                let vnf = &scenario.vnfs()[rng.gen_range(0..scenario.vnfs().len())];
                let instance = rng.gen_range(0..vnf.instances() as usize);
                let vnf = vnf.id();
                events.push((t, seq, ChurnEvent::InstanceDown { vnf, instance }));
                seq += 1;
                let back = t + sample_exp(&mut rng, 1.0 / self.mean_outage);
                if back < self.horizon {
                    events.push((back, seq, ChurnEvent::InstanceUp { vnf, instance }));
                    seq += 1;
                }
                t += sample_exp(&mut rng, self.outage_rate);
            }
        }

        // Node outages: an alternating-renewal process per fault group —
        // single nodes, or consecutive "racks" that fail together. Groups
        // are processed in index order and this stream is drawn *after*
        // the instance-outage stream, so traces without node outages are
        // bit-identical to those of earlier builders. The process is
        // placement-agnostic: whichever VNFs sit on the node when the
        // event fires are the ones affected.
        if let Some(mtbf) = self.node_mtbf {
            let rack = self.rack_size.max(1);
            for first in (0..self.node_fleet).step_by(rack) {
                let members: Vec<NodeId> = (first..(first + rack).min(self.node_fleet))
                    .map(|n| NodeId::new(n as u32))
                    .collect();
                let mut t = sample_exp(&mut rng, 1.0 / mtbf);
                while t < self.horizon {
                    for &node in &members {
                        events.push((t, seq, ChurnEvent::NodeDown { node }));
                        seq += 1;
                    }
                    let back = t + sample_exp(&mut rng, 1.0 / self.node_mttr);
                    if back < self.horizon {
                        for &node in &members {
                            events.push((back, seq, ChurnEvent::NodeUp { node }));
                            seq += 1;
                        }
                    }
                    t = back + sample_exp(&mut rng, 1.0 / mtbf);
                }
            }
        }

        // Re-optimization ticks on a fixed period.
        if let Some(period) = self.tick_period {
            let mut t = period;
            while t < self.horizon {
                events.push((t, seq, ChurnEvent::ReoptimizeTick));
                seq += 1;
                t += period;
            }
        }
        (events, churned)
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(WorkloadError::InvalidParameter {
                reason: "churn horizon must be finite and positive",
            });
        }
        if !(self.arrival_rate.is_finite() && self.arrival_rate >= 0.0) {
            return Err(WorkloadError::InvalidParameter {
                reason: "churn arrival rate must be finite and non-negative",
            });
        }
        if let Some(mean) = self.mean_holding {
            if !(mean.is_finite() && mean > 0.0) {
                return Err(WorkloadError::InvalidParameter {
                    reason: "mean holding time must be finite and positive",
                });
            }
        }
        if let Some(period) = self.tick_period {
            if !(period.is_finite() && period > 0.0) {
                return Err(WorkloadError::InvalidParameter {
                    reason: "tick period must be finite and positive",
                });
            }
        }
        if !(self.outage_rate.is_finite() && self.outage_rate >= 0.0) {
            return Err(WorkloadError::InvalidParameter {
                reason: "outage rate must be finite and non-negative",
            });
        }
        if !(self.mean_outage.is_finite() && self.mean_outage > 0.0) {
            return Err(WorkloadError::InvalidParameter {
                reason: "mean outage duration must be finite and positive",
            });
        }
        if let Some(mtbf) = self.node_mtbf {
            if !(mtbf.is_finite() && mtbf > 0.0) {
                return Err(WorkloadError::InvalidParameter {
                    reason: "node MTBF must be finite and positive",
                });
            }
        }
        if !(self.node_mttr.is_finite() && self.node_mttr > 0.0) {
            return Err(WorkloadError::InvalidParameter {
                reason: "node MTTR must be finite and positive",
            });
        }
        if self.rack_size == 0 {
            return Err(WorkloadError::InvalidParameter {
                reason: "rack size must be at least 1",
            });
        }
        Ok(())
    }
}

impl Default for ChurnTraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A churn departure whose arrival has been emitted but whose departure
/// time lies in the future: the stream's in-flight set. Min-ordered by
/// `(time, seq)` via [`Reverse`] in the heap.
#[derive(Debug, Clone)]
struct PendingDeparture {
    time: f64,
    seq: usize,
    id: RequestId,
}

impl PartialEq for PendingDeparture {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for PendingDeparture {}

impl PartialOrd for PendingDeparture {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingDeparture {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Departure times are strictly positive and finite, so total_cmp
        // agrees with the numeric order build() sorts by; unique seqs
        // break ties exactly like the trace sort does.
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A lazily generated churn trace: yields exactly the [`TimedEvent`]
/// sequence [`ChurnTraceBuilder::build`] would materialize, in the same
/// order, without ever holding the churn arrivals in memory.
///
/// Produced by [`ChurnTraceBuilder::stream`]. Internally a three-way
/// `(time, seq)` merge between the pre-sorted sparse streams, the next
/// not-yet-emitted Poisson arrival, and a min-heap of in-flight
/// departures.
#[derive(Debug, Clone)]
pub struct ChurnStream<'a> {
    scenario: &'a Scenario,
    horizon: f64,
    arrival_rate: f64,
    mean_holding: Option<f64>,
    /// Base population, outages, and ticks — pre-sorted by `(time, seq)`.
    fixed: Vec<(f64, usize, ChurnEvent)>,
    /// Cursor into `fixed`: the next not-yet-emitted sparse event.
    fixed_pos: usize,
    /// Second same-seed RNG, positioned mid-churn-phase: its next draw is
    /// the template index of `pending_arrival`.
    rng: StdRng,
    /// Sequence number the next churn-phase push would receive.
    churn_seq: usize,
    /// Time of the next churn arrival, already known to precede the
    /// horizon; `None` once the Poisson process has run past it.
    pending_arrival: Option<f64>,
    next_id: u32,
    departures: BinaryHeap<Reverse<PendingDeparture>>,
}

/// An owned snapshot of a [`ChurnStream`]'s cursor: the RNG state, the
/// sparse-event position, the next pending Poisson arrival, and the
/// in-flight departure heap. [`ChurnStream::restore`] rewinds a stream
/// built from the *same* builder and scenario to this exact point, after
/// which it yields a bit-identical event suffix — the crash-recovery
/// primitive that lets a replayed tenant resume its trace mid-run without
/// double-pumping events.
#[derive(Debug, Clone)]
pub struct ChurnCursor {
    rng: StdRng,
    fixed_pos: usize,
    churn_seq: usize,
    pending_arrival: Option<f64>,
    next_id: u32,
    departures: BinaryHeap<Reverse<PendingDeparture>>,
}

impl ChurnStream<'_> {
    /// The virtual-time horizon the stream was generated for.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Captures the stream's full cursor state. Replaying the remaining
    /// events after a [`restore`](Self::restore) from this cursor yields
    /// the identical suffix bit for bit.
    #[must_use]
    pub fn checkpoint(&self) -> ChurnCursor {
        ChurnCursor {
            rng: self.rng.clone(),
            fixed_pos: self.fixed_pos,
            churn_seq: self.churn_seq,
            pending_arrival: self.pending_arrival,
            next_id: self.next_id,
            departures: self.departures.clone(),
        }
    }

    /// Rewinds (or fast-forwards) the stream to a cursor previously taken
    /// from a stream built by the same builder over the same scenario.
    /// The sparse event table is immutable and shared, so only the cursor
    /// state moves; a cursor from a differently-configured stream yields
    /// a well-formed but meaningless suffix.
    pub fn restore(&mut self, cursor: &ChurnCursor) {
        self.rng = cursor.rng.clone();
        self.fixed_pos = cursor.fixed_pos.min(self.fixed.len());
        self.churn_seq = cursor.churn_seq;
        self.pending_arrival = cursor.pending_arrival;
        self.next_id = cursor.next_id;
        self.departures = cursor.departures.clone();
    }

    /// Emits the pending churn arrival, drawing its template, departure,
    /// and successor exactly as `build`'s churn loop body does.
    fn emit_churn_arrival(&mut self) -> TimedEvent {
        let t = self.pending_arrival.take().expect("a pending arrival");
        let template =
            &self.scenario.requests()[self.rng.gen_range(0..self.scenario.requests().len())];
        let request = Request::new(
            RequestId::new(self.next_id),
            template.chain().clone(),
            template.arrival_rate(),
            template.delivery(),
        );
        self.next_id += 1;
        self.churn_seq += 1; // this arrival's seq
        if let Some(mean) = self.mean_holding {
            let departs = t + sample_exp(&mut self.rng, 1.0 / mean);
            if departs < self.horizon {
                self.departures.push(Reverse(PendingDeparture {
                    time: departs,
                    seq: self.churn_seq,
                    id: request.id(),
                }));
                self.churn_seq += 1;
            }
        }
        let next = t + sample_exp(&mut self.rng, self.arrival_rate);
        if next < self.horizon {
            self.pending_arrival = Some(next);
        }
        TimedEvent::new(t, ChurnEvent::Arrival(request))
    }
}

/// Which of the three merge sources currently holds the minimal event.
#[derive(Clone, Copy)]
enum StreamSource {
    Fixed,
    Arrival,
    Departure,
}

impl Iterator for ChurnStream<'_> {
    type Item = TimedEvent;

    fn next(&mut self) -> Option<TimedEvent> {
        // Every event not yet generated (future churn arrivals and their
        // departures) has a time >= the pending arrival's and a larger
        // seq, so the minimum over these three candidates is the global
        // next event. The comparator mirrors the trace sort: numeric
        // time order, seq as tie-break.
        let lt = |a: (f64, usize), b: (f64, usize)| {
            a.0.partial_cmp(&b.0)
                .expect("times are finite")
                .then(a.1.cmp(&b.1))
                .is_lt()
        };
        let mut best: Option<((f64, usize), StreamSource)> = self
            .fixed
            .get(self.fixed_pos)
            .map(|&(t, s, _)| ((t, s), StreamSource::Fixed));
        if let Some(t) = self.pending_arrival {
            let key = (t, self.churn_seq);
            if best.is_none_or(|(k, _)| lt(key, k)) {
                best = Some((key, StreamSource::Arrival));
            }
        }
        if let Some(Reverse(d)) = self.departures.peek() {
            let key = (d.time, d.seq);
            if best.is_none_or(|(k, _)| lt(key, k)) {
                best = Some((key, StreamSource::Departure));
            }
        }
        match best?.1 {
            StreamSource::Fixed => {
                let (t, _, ref e) = self.fixed[self.fixed_pos];
                self.fixed_pos += 1;
                Some(TimedEvent::new(t, e.clone()))
            }
            StreamSource::Arrival => Some(self.emit_churn_arrival()),
            StreamSource::Departure => {
                let Reverse(d) = self.departures.pop().expect("peeked");
                Some(TimedEvent::new(d.time, ChurnEvent::Departure(d.id)))
            }
        }
    }
}

/// Inverse-CDF exponential sample with the given rate.
fn sample_exp(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

/// The id of the first churn arrival: one past the largest base id.
fn first_churn_id(scenario: &Scenario) -> u32 {
    scenario
        .requests()
        .iter()
        .map(|r| r.id().as_usize())
        .max()
        .map_or(0, |m| m + 1) as u32
}

/// The trace order: numeric time, generation sequence on ties.
fn by_time_then_seq(a: &(f64, usize, ChurnEvent), b: &(f64, usize, ChurnEvent)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .expect("times are finite")
        .then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioBuilder;

    fn scenario() -> Scenario {
        ScenarioBuilder::new()
            .vnfs(4)
            .requests(25)
            .seed(3)
            .build()
            .unwrap()
    }

    fn full_builder() -> ChurnTraceBuilder {
        ChurnTraceBuilder::new()
            .horizon(200.0)
            .arrival_rate(0.8)
            .mean_holding(50.0)
            .tick_period(40.0)
            .outage_rate(0.05)
            .mean_outage(15.0)
            .seed(11)
    }

    #[test]
    fn base_requests_arrive_first_in_id_order() {
        let s = scenario();
        let trace = ChurnTraceBuilder::new().build(&s).unwrap();
        assert_eq!(trace.len(), s.requests().len());
        for (event, request) in trace.iter().zip(s.requests()) {
            assert_eq!(event.time(), 0.0);
            match event.event() {
                ChurnEvent::Arrival(r) => assert_eq!(r.id(), request.id()),
                other => panic!("expected arrival, got {other:?}"),
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_traces() {
        let s = scenario();
        let a = full_builder().build(&s).unwrap();
        let b = full_builder().build(&s).unwrap();
        assert_eq!(a, b);
        let c = full_builder().seed(12).build(&s).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn built_traces_hold_no_spare_capacity() {
        let trace = full_builder().build(&scenario()).unwrap();
        assert!(!trace.is_empty());
        assert_eq!(trace.events.capacity(), trace.len());
    }

    #[test]
    fn events_are_time_sorted_within_horizon() {
        let trace = full_builder().build(&scenario()).unwrap();
        let mut last = 0.0;
        for event in &trace {
            assert!(event.time() >= last);
            assert!(event.time() < trace.horizon());
            last = event.time();
        }
    }

    #[test]
    fn churn_ids_never_collide_with_base_ids() {
        let s = scenario();
        let trace = full_builder().build(&s).unwrap();
        let base_max = s
            .requests()
            .iter()
            .map(|r| r.id().as_usize())
            .max()
            .unwrap();
        let mut churn_arrivals = 0;
        for event in &trace {
            if let ChurnEvent::Arrival(r) = event.event() {
                if event.time() > 0.0 {
                    assert!(r.id().as_usize() > base_max);
                    churn_arrivals += 1;
                }
            }
        }
        assert!(
            churn_arrivals > 0,
            "expected churn arrivals at rate 0.8 over 200s"
        );
    }

    #[test]
    fn departures_reference_known_arrivals() {
        let trace = full_builder().build(&scenario()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for event in &trace {
            match event.event() {
                ChurnEvent::Arrival(r) => {
                    assert!(seen.insert(r.id()), "duplicate arrival id {:?}", r.id());
                }
                ChurnEvent::Departure(id) => {
                    assert!(seen.contains(id), "departure of unseen {id:?}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn ticks_land_on_the_period_grid() {
        let trace = ChurnTraceBuilder::new()
            .horizon(100.0)
            .tick_period(30.0)
            .build(&scenario())
            .unwrap();
        let ticks: Vec<f64> = trace
            .iter()
            .filter(|e| matches!(e.event(), ChurnEvent::ReoptimizeTick))
            .map(TimedEvent::time)
            .collect();
        assert_eq!(ticks, vec![30.0, 60.0, 90.0]);
    }

    #[test]
    fn outages_address_real_instances() {
        let s = scenario();
        let trace = full_builder().outage_rate(0.5).build(&s).unwrap();
        for event in &trace {
            if let ChurnEvent::InstanceDown { vnf, instance }
            | ChurnEvent::InstanceUp { vnf, instance } = event.event()
            {
                let v = s.vnf(*vnf).expect("outage names a scenario VNF");
                assert!(*instance < v.instances() as usize);
            }
        }
    }

    #[test]
    fn node_outages_are_bounded_and_alternate() {
        let s = scenario();
        let trace = ChurnTraceBuilder::new()
            .horizon(400.0)
            .node_fleet(6)
            .node_mtbf(60.0)
            .node_mttr(20.0)
            .seed(17)
            .build(&s)
            .unwrap();
        let mut down = [false; 6];
        let mut saw_node_events = false;
        for event in &trace {
            match event.event() {
                ChurnEvent::NodeDown { node } => {
                    saw_node_events = true;
                    let i = node.as_usize();
                    assert!(i < 6, "node index within the fleet");
                    assert!(!down[i], "a node fails only while in service");
                    down[i] = true;
                }
                ChurnEvent::NodeUp { node } => {
                    let i = node.as_usize();
                    assert!(down[i], "a node recovers only while down");
                    down[i] = false;
                }
                _ => {}
            }
        }
        assert!(saw_node_events, "MTBF 60s over 400s yields outages");
    }

    #[test]
    fn rack_members_fail_and_recover_together() {
        let s = scenario();
        let trace = ChurnTraceBuilder::new()
            .horizon(400.0)
            .node_fleet(6)
            .node_mtbf(80.0)
            .node_mttr(25.0)
            .rack_size(3)
            .seed(21)
            .build(&s)
            .unwrap();
        // Collect per-node outage timestamps; rack peers (0-2, 3-5) must
        // share exactly the same down and up times.
        let mut downs: Vec<Vec<f64>> = vec![Vec::new(); 6];
        let mut ups: Vec<Vec<f64>> = vec![Vec::new(); 6];
        for event in &trace {
            match event.event() {
                ChurnEvent::NodeDown { node } => downs[node.as_usize()].push(event.time()),
                ChurnEvent::NodeUp { node } => ups[node.as_usize()].push(event.time()),
                _ => {}
            }
        }
        assert!(downs.iter().any(|d| !d.is_empty()), "some rack failed");
        for rack in [[0usize, 1, 2], [3, 4, 5]] {
            for &peer in &rack[1..] {
                assert_eq!(downs[rack[0]], downs[peer], "correlated failures");
                assert_eq!(ups[rack[0]], ups[peer], "correlated repairs");
            }
        }
    }

    #[test]
    fn node_fleet_without_mtbf_changes_nothing() {
        let s = scenario();
        let plain = full_builder().build(&s).unwrap();
        let with_fleet = full_builder().node_fleet(8).build(&s).unwrap();
        assert_eq!(plain, with_fleet, "node outages need an MTBF to enable");
    }

    #[test]
    fn stream_yields_exactly_the_built_trace() {
        let s = scenario();
        for builder in [
            ChurnTraceBuilder::new(),                           // base arrivals only
            ChurnTraceBuilder::new().arrival_rate(1.5).seed(5), // churn, no departures
            full_builder(),                                     // churn + holding + outages + ticks
            full_builder()
                .node_fleet(6)
                .node_mtbf(45.0)
                .node_mttr(12.0)
                .rack_size(2), // plus correlated node outages
        ] {
            let trace = builder.build(&s).unwrap();
            let streamed: Vec<TimedEvent> = builder.stream(&s).unwrap().collect();
            assert_eq!(streamed.as_slice(), trace.events());
            assert_eq!(builder.stream(&s).unwrap().horizon(), trace.horizon());
        }
    }

    #[test]
    fn cursor_checkpoint_restore_replays_the_identical_suffix() {
        let s = scenario();
        let builder = full_builder()
            .node_fleet(6)
            .node_mtbf(45.0)
            .node_mttr(12.0)
            .rack_size(2);
        let total = builder.build(&s).unwrap().len();
        for taken in [0, 1, total / 3, total / 2, total - 1] {
            let mut stream = builder.stream(&s).unwrap();
            for _ in 0..taken {
                stream.next().unwrap();
            }
            let cursor = stream.checkpoint();
            let suffix: Vec<TimedEvent> = stream.collect();

            // A fresh stream fast-forwarded through the cursor resumes
            // mid-trace with the bit-identical suffix...
            let mut replayed = builder.stream(&s).unwrap();
            replayed.restore(&cursor);
            let replayed: Vec<TimedEvent> = replayed.collect();
            assert_eq!(replayed, suffix, "restore after {taken} events");

            // ...and a drained stream rewinds to the same point.
            let mut rewound = builder.stream(&s).unwrap();
            rewound.by_ref().for_each(drop);
            rewound.restore(&cursor);
            let rewound: Vec<TimedEvent> = rewound.collect();
            assert_eq!(rewound, suffix, "rewind after {taken} events");
        }
    }

    #[test]
    fn stream_validates_like_build() {
        let s = scenario();
        assert!(ChurnTraceBuilder::new().horizon(0.0).stream(&s).is_err());
        assert!(ChurnTraceBuilder::new()
            .arrival_rate(-1.0)
            .stream(&s)
            .is_err());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let s = scenario();
        assert!(ChurnTraceBuilder::new().horizon(0.0).build(&s).is_err());
        assert!(ChurnTraceBuilder::new()
            .horizon(f64::NAN)
            .build(&s)
            .is_err());
        assert!(ChurnTraceBuilder::new()
            .arrival_rate(-1.0)
            .build(&s)
            .is_err());
        assert!(ChurnTraceBuilder::new()
            .mean_holding(0.0)
            .build(&s)
            .is_err());
        assert!(ChurnTraceBuilder::new()
            .tick_period(-2.0)
            .build(&s)
            .is_err());
        assert!(ChurnTraceBuilder::new()
            .outage_rate(f64::INFINITY)
            .build(&s)
            .is_err());
        assert!(ChurnTraceBuilder::new().mean_outage(0.0).build(&s).is_err());
        assert!(ChurnTraceBuilder::new()
            .node_fleet(4)
            .node_mtbf(0.0)
            .build(&s)
            .is_err());
        assert!(ChurnTraceBuilder::new().node_mttr(-1.0).build(&s).is_err());
        assert!(ChurnTraceBuilder::new().rack_size(0).build(&s).is_err());
    }
}
