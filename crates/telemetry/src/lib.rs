//! Deterministic observability for the online NFV control plane.
//!
//! Three layers, all strict observers of the controller:
//!
//! - a structured **event journal** ([`TraceEvent`]/[`EventKind`]):
//!   typed admit/reject/shed/retry/outage/re-optimization records kept
//!   in a bounded in-memory ring and written out once per format
//!   by [`TelemetryArtifacts::journal_jsonl`] (one JSON object per line)
//!   and [`TelemetryArtifacts::journal_csv`] (the fixed-column per-event
//!   trace shape), each under a schema-version header; the JSONL journal
//!   reads back through [`parse_jsonl_journal`], the CSV one is
//!   write-only;
//! - **timing spans** ([`Phase`]/[`PhaseProfile`]): wall-clock durations
//!   of the hot phases (BFDSU delta-placement, RCKK planning, the
//!   hysteresis probe, retry drain, emergency re-placement) aggregated
//!   into `nfv-metrics` summaries;
//! - a **per-tick time-series** ([`TickSample`]/[`TickSeries`]): ρ,
//!   balanced latency, retry backlog and nodes-in-service snapshots with
//!   bounded memory and in-order cross-worker merging;
//! - a fleet-facing **observability plane**: causal [`SpanTree`]s for
//!   flame-style wall-clock attribution, a deterministic metrics
//!   [`Registry`] with Prometheus text and hand-rolled JSON exporters,
//!   and a bounded flight-recorder [`Postmortem`] window captured for
//!   quarantined tenants.
//!
//! # Marks and rewinds
//!
//! Crash recovery rewinds a session instead of copying it.
//! [`Telemetry::mark`] records where the session stands — the sequence
//! counter, the journal ring's and tick series' lengths and drop counts,
//! and each phase's O(1) streaming statistics — and
//! [`Telemetry::rewind`] truncates the same session back to that point,
//! so a checkpoint's telemetry part costs O(phases) and owns no heap
//! memory. The ring and series are bounded, so they may evict entries
//! the mark still needs. Under a live mark an evicted entry that was
//! retained at the mark moves into a side buffer instead of being
//! dropped. That buffer never holds more than the ring held at the mark,
//! and the rewind puts it back in front, so the rewound session equals
//! one that never ran past the mark. A session keeps one live mark: a
//! new mark retires the old one, and a mark the session cannot honour
//! is refused with [`RewindError`], never a panic or an inexact rewind.
//! The fleet's tenant checkpoints pair a mark with a controller snapshot;
//! the snapshot's per-event latency sample stream is the one part of
//! such a checkpoint that still grows with history.
//!
//! # Determinism contract
//!
//! Telemetry must never change what the controller computes:
//!
//! - [`Telemetry::disabled`] is a `None` behind one branch — no
//!   allocation, no clock reads, no RNG draws; the event/sample closures
//!   passed to [`Telemetry::emit`]/[`Telemetry::sample_tick`] are not
//!   even invoked;
//! - enabled telemetry only *reads* controller state; span durations are
//!   the only wall-clock values and they flow into [`PhaseProfile`]
//!   summaries, never back into any decision;
//! - journal and series content derive purely from the deterministic
//!   virtual-time run, so same-seed runs emit bit-identical journals at
//!   any thread count (wall-clock span durations are the one documented
//!   exception, and they live outside the journal).
//!
//! # Examples
//!
//! ```
//! use nfv_telemetry::{EventKind, Telemetry};
//! use nfv_model::RequestId;
//!
//! let mut tel = Telemetry::enabled();
//! tel.emit(1.5, 0, || EventKind::Admit { request: RequestId::new(7), hops: 2 });
//! let artifacts = tel.finish();
//! assert_eq!(artifacts.events.len(), 1);
//!
//! // The disabled path records nothing and never runs the closure.
//! let mut off = Telemetry::disabled();
//! off.emit(1.5, 0, || unreachable!("disabled telemetry must not build events"));
//! assert!(off.finish().events.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
pub mod json;
mod recorder;
mod registry;
mod ring;
mod series;
mod sink;
mod span;
mod trace;

pub use event::{EventKind, ReoptPhase, TraceEvent, CSV_HEADER};
pub use export::escape_label;
pub use recorder::{Postmortem, FLIGHT_RECORDER_WINDOW};
pub use registry::{Registry, RegistryError};
pub use series::{TickSample, TickSeries, SERIES_CSV_HEADER};
pub use sink::{parse_jsonl_journal, JournalError, JOURNAL_SCHEMA_VERSION};
pub use span::{Phase, PhaseProfile, SpanToken, Stopwatch};
pub use trace::{SpanId, SpanTree};

use nfv_metrics::OnlineStats;
use ring::{Ring, RingMark};

/// Everything a telemetry session collected, returned by
/// [`Telemetry::finish`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryArtifacts {
    /// The journal retained by the in-memory ring, oldest first, with
    /// dense re-assigned sequence numbers after merging.
    pub events: Vec<TraceEvent>,
    /// Journal records evicted from the ring to honor its bound.
    pub dropped_events: u64,
    /// Per-phase wall-clock timing summaries.
    pub profile: PhaseProfile,
    /// The per-tick time-series.
    pub series: TickSeries,
}

impl TelemetryArtifacts {
    /// Merges many sessions' artifacts in iteration order, re-assigning
    /// dense sequence numbers once over the merged journal. Callers pass
    /// the parts in an order that is a pure function of the seed, never
    /// of the thread count — policy order for the experiment runners
    /// (the order `par_map` returns), shard-id order for the fleet
    /// (tenants in owned order within each shard) — so the merged
    /// artifacts are byte-identical at any parallelism.
    #[must_use]
    pub fn merged<I: IntoIterator<Item = TelemetryArtifacts>>(parts: I) -> Self {
        let mut all = TelemetryArtifacts::default();
        for part in parts {
            all.dropped_events += part.dropped_events;
            all.events.extend(part.events);
            all.profile.merge(&part.profile);
            all.series.merge(&part.series);
        }
        for (seq, event) in all.events.iter_mut().enumerate() {
            event.seq = seq as u64;
        }
        all
    }

    /// The journal as JSONL: a `{"schema_version":N}` header line, then
    /// one event per line — the shape [`parse_jsonl_journal`] reads back.
    /// An empty journal renders as the empty string.
    #[must_use]
    pub fn journal_jsonl(&self) -> String {
        self.render_journal(sink::jsonl_header(), TraceEvent::to_json)
    }

    /// The journal as CSV: a `# schema_version=N` comment line and
    /// [`CSV_HEADER`], then one row per event. Write-only: nothing reads
    /// it back. An empty journal renders as the empty string.
    #[must_use]
    pub fn journal_csv(&self) -> String {
        self.render_journal(sink::csv_header(), TraceEvent::to_csv_row)
    }

    fn render_journal(&self, header: String, line: fn(&TraceEvent) -> String) -> String {
        if self.events.is_empty() {
            return String::new();
        }
        let mut out = header;
        out.push('\n');
        for event in &self.events {
            out.push_str(&line(event));
            out.push('\n');
        }
        out
    }
}

struct Inner {
    seq: u64,
    ring: Ring<TraceEvent>,
    profile: PhaseProfile,
    series: TickSeries,
    /// The live mark, if one was taken, with the journal events and tick
    /// samples it owns that the ring and series evicted since.
    live: Option<Live>,
}

/// A session's live mark and its side buffers. Each buffer holds at most
/// what its ring retained at the mark, so at most one capacity.
struct Live {
    position: Position,
    events: Vec<TraceEvent>,
    samples: Vec<TickSample>,
}

/// Everything a mark records: counters and lengths only.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Position {
    seq: u64,
    ring: RingMark,
    series: RingMark,
    phases: [OnlineStats; Phase::ALL.len()],
}

/// A position in one telemetry session, taken by [`Telemetry::mark`] and
/// returned to by [`Telemetry::rewind`].
///
/// A mark records the sequence counter, the journal ring's and tick
/// series' lengths and drop counts, and each phase's streaming
/// statistics — O(phases) integers and floats, no heap memory. It copies
/// no recorded data: the session itself keeps whatever the mark needs
/// (see [`Telemetry::mark`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryMark {
    position: Option<Position>,
}

/// Why [`Telemetry::rewind`] refused a mark; the session is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RewindError {
    /// The mark is not the session's live mark: a later
    /// [`Telemetry::mark`] superseded it, another session took it, or
    /// one of the two is disabled and the other is not.
    NotLive,
}

impl std::fmt::Display for RewindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotLive => write!(f, "the mark is not this session's live mark"),
        }
    }
}

impl std::error::Error for RewindError {}

/// A telemetry session handle, threaded by `&mut` through the
/// controller's event loop; [`Telemetry::mark`]/[`Telemetry::rewind`]
/// rewind a session for checkpoint-based crash recovery. See the crate
/// docs for the determinism contract.
pub struct Telemetry {
    inner: Option<Box<Inner>>,
}

impl Telemetry {
    /// Default journal ring capacity (events retained in memory).
    pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;
    /// Default time-series capacity (tick samples retained).
    pub const DEFAULT_SAMPLE_CAPACITY: usize = 4_096;

    /// The no-op session: records nothing, costs one branch per call
    /// site, and never invokes the event/sample closures.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled session with the default ring and series capacities.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_capacity(Self::DEFAULT_EVENT_CAPACITY, Self::DEFAULT_SAMPLE_CAPACITY)
    }

    /// An enabled session retaining at most `max_events` journal records
    /// and `max_samples` tick samples in memory.
    #[must_use]
    pub fn with_capacity(max_events: usize, max_samples: usize) -> Self {
        Self {
            inner: Some(Box::new(Inner {
                seq: 0,
                ring: Ring::new(max_events),
                profile: PhaseProfile::new(),
                series: TickSeries::new(max_samples),
                live: None,
            })),
        }
    }

    /// Whether this session records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one journal record at virtual time `time` during tick
    /// `tick`. The closure builds the payload only when the session is
    /// enabled, so the disabled path does no formatting or allocation.
    pub fn emit<F: FnOnce() -> EventKind>(&mut self, time: f64, tick: u64, kind: F) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let event = TraceEvent {
            seq: inner.seq,
            time,
            tick,
            kind: kind(),
        };
        inner.seq += 1;
        match inner.live.as_mut() {
            Some(live) => inner
                .ring
                .push_marked(event, live.position.ring, &mut live.events),
            None => {
                inner.ring.push(event);
            }
        }
    }

    /// Opens a timing span (reads the clock only when enabled).
    pub fn begin(&self) -> SpanToken {
        SpanToken::start(self.is_enabled())
    }

    /// Closes a timing span into `phase`'s duration summary.
    pub fn end(&mut self, phase: Phase, token: SpanToken) {
        if let (Some(inner), Some(seconds)) = (self.inner.as_mut(), token.elapsed_seconds()) {
            inner.profile.record(phase, seconds);
        }
    }

    /// Records one per-tick sample; the closure runs only when the
    /// session is enabled.
    pub fn sample_tick<F: FnOnce() -> TickSample>(&mut self, sample: F) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        match inner.live.as_mut() {
            Some(live) => {
                inner
                    .series
                    .ring
                    .push_marked(sample(), live.position.series, &mut live.samples);
            }
            None => inner.series.push(sample()),
        }
    }

    /// Marks the session's current position for a later
    /// [`rewind`](Self::rewind), in O(phases) time, copying nothing.
    ///
    /// The new mark becomes the session's *live* mark and retires the
    /// previous one. From now on, an entry the journal ring or tick
    /// series retained at the mark and then evicts to honor its capacity
    /// moves into a side buffer instead of being dropped, so a rewind is
    /// exact however far the session ran on. The buffers hold at most
    /// what the ring and series retained at the mark. A disabled session
    /// hands out a disabled mark.
    #[must_use = "a mark that is not kept cannot be rewound to"]
    pub fn mark(&mut self) -> TelemetryMark {
        let Some(inner) = self.inner.as_mut() else {
            return TelemetryMark { position: None };
        };
        let position = Position {
            seq: inner.seq,
            ring: inner.ring.mark(),
            series: inner.series.ring.mark(),
            phases: inner.profile.mark(),
        };
        match inner.live.as_mut() {
            Some(live) => {
                live.position = position;
                live.events.clear();
                live.samples.clear();
            }
            None => {
                inner.live = Some(Live {
                    position,
                    events: Vec::new(),
                    samples: Vec::new(),
                });
            }
        }
        TelemetryMark {
            position: Some(position),
        }
    }

    /// Rewinds the session to its live mark, discarding everything
    /// recorded since: journal events and tick samples are truncated
    /// (evicted ones put back from the side buffers), the sequence
    /// counter is reset, and each phase keeps only its spans from before
    /// the mark. The mark stays live, so the session can rewind to it
    /// again.
    ///
    /// # Errors
    ///
    /// [`RewindError::NotLive`] when `mark` is not this session's live
    /// mark; nothing changes then.
    pub fn rewind(&mut self, mark: &TelemetryMark) -> Result<(), RewindError> {
        let Some(inner) = self.inner.as_mut() else {
            return match mark.position {
                None => Ok(()),
                Some(_) => Err(RewindError::NotLive),
            };
        };
        let Some(live) = inner
            .live
            .as_mut()
            .filter(|live| Some(live.position) == mark.position)
        else {
            return Err(RewindError::NotLive);
        };
        let position = live.position;
        inner.seq = position.seq;
        inner.ring.rewind(position.ring, &mut live.events);
        inner.series.ring.rewind(position.series, &mut live.samples);
        inner.profile.rewind(&position.phases);
        Ok(())
    }

    /// Closes the session and returns the collected artifacts (empty for
    /// a disabled session).
    #[must_use]
    pub fn finish(self) -> TelemetryArtifacts {
        let Some(inner) = self.inner else {
            return TelemetryArtifacts::default();
        };
        TelemetryArtifacts {
            dropped_events: inner.ring.dropped(),
            events: inner.ring.into_vec(),
            profile: inner.profile,
            series: inner.series,
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry::disabled"),
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("events", &inner.ring.len())
                .field("dropped", &inner.ring.dropped())
                .field("spans", &inner.profile.total_spans())
                .field("samples", &inner.series.len())
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_model::{NodeId, RequestId};

    #[test]
    fn disabled_session_is_inert_and_lazy() {
        let mut tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.emit(0.0, 0, || panic!("emit closure ran on the disabled path"));
        tel.sample_tick(|| panic!("sample closure ran on the disabled path"));
        let token = tel.begin();
        tel.end(Phase::RckkPlan, token);
        let artifacts = tel.finish();
        assert_eq!(artifacts, TelemetryArtifacts::default());
    }

    #[test]
    fn enabled_session_journals_in_emission_order() {
        let mut tel = Telemetry::enabled();
        tel.emit(1.0, 0, || EventKind::NodeDown {
            node: NodeId::new(3),
            vnfs_lost: 2,
            shed: 5,
        });
        tel.emit(2.0, 0, || EventKind::NodeUp {
            node: NodeId::new(3),
            vnfs_restored: 2,
        });
        let token = tel.begin();
        tel.end(Phase::EmergencyReplace, token);
        let artifacts = tel.finish();
        assert_eq!(artifacts.events.len(), 2);
        assert_eq!(artifacts.events[0].seq, 0);
        assert_eq!(artifacts.events[1].seq, 1);
        assert_eq!(artifacts.events[0].kind.label(), "NodeDown");
        assert_eq!(
            artifacts.profile.summary(Phase::EmergencyReplace).count(),
            1
        );
        let jsonl = artifacts.journal_jsonl();
        assert_eq!(jsonl.lines().count(), 3, "header plus one line per event");
        assert_eq!(parse_jsonl_journal(&jsonl).unwrap(), artifacts.events);
    }

    #[test]
    fn merge_renumbers_and_appends_in_order() {
        let mut a = Telemetry::enabled();
        a.emit(1.0, 0, || EventKind::Admit {
            request: RequestId::new(1),
            hops: 1,
        });
        let mut b = Telemetry::enabled();
        b.emit(2.0, 0, || EventKind::Admit {
            request: RequestId::new(2),
            hops: 1,
        });
        let merged = TelemetryArtifacts::merged([a.finish(), b.finish()]);
        assert_eq!(merged.events.len(), 2);
        assert_eq!(merged.events[0].seq, 0);
        assert_eq!(merged.events[1].seq, 1);
        assert_eq!(merged.events[1].time, 2.0);
    }

    #[test]
    fn rewind_returns_to_bit_identical_artifacts() {
        let admit = |id: u32| EventKind::Admit {
            request: RequestId::new(id),
            hops: 1,
        };
        let mut tel = Telemetry::enabled();
        let mut reference = Telemetry::enabled();
        for session in [&mut tel, &mut reference] {
            session.emit(1.0, 0, || admit(1));
        }
        let mark = tel.mark();
        // Diverge, then rewind and replay the same tail on both.
        tel.emit(9.0, 1, || admit(9));
        tel.rewind(&mark).unwrap();
        for session in [&mut tel, &mut reference] {
            session.emit(2.0, 1, || admit(2));
        }
        assert_eq!(tel.finish(), reference.finish());
    }

    #[test]
    fn disabled_marks_rewind_only_disabled_sessions() {
        let mut off = Telemetry::disabled();
        let off_mark = off.mark();
        assert_eq!(off.rewind(&off_mark), Ok(()));
        let mut on = Telemetry::enabled();
        let on_mark = on.mark();
        assert_eq!(on.rewind(&off_mark), Err(RewindError::NotLive));
        assert_eq!(off.rewind(&on_mark), Err(RewindError::NotLive));
        assert!(!off.is_enabled());
    }

    #[test]
    fn ring_bound_counts_dropped_events() {
        let mut tel = Telemetry::with_capacity(2, 2);
        for i in 0..5u32 {
            tel.emit(f64::from(i), 0, || EventKind::Admit {
                request: RequestId::new(i),
                hops: 1,
            });
        }
        let artifacts = tel.finish();
        assert_eq!(artifacts.events.len(), 2);
        assert_eq!(artifacts.dropped_events, 3);
        assert_eq!(artifacts.events[0].seq, 3, "most recent events survive");
    }
}
