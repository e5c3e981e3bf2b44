//! Deterministic observability for the online NFV control plane.
//!
//! Three layers, all strict observers of the controller:
//!
//! - a structured **event journal** ([`TraceEvent`]/[`EventKind`]):
//!   typed admit/reject/shed/retry/outage/re-optimization records kept
//!   in a bounded in-memory [`RingSink`] and written out once per format
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
mod series;
mod sink;
mod span;
mod trace;

pub use event::{EventKind, ReoptPhase, TraceEvent, CSV_HEADER};
pub use export::{escape_label, unescape_label};
pub use recorder::{Postmortem, FLIGHT_RECORDER_WINDOW};
pub use registry::{Registry, RegistryError};
pub use series::{TickSample, TickSeries, SERIES_CSV_HEADER};
pub use sink::{parse_jsonl_journal, JournalError, RingSink, JOURNAL_SCHEMA_VERSION};
pub use span::{Phase, PhaseProfile, SpanToken, Stopwatch};
pub use trace::{SpanId, SpanTree};

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
    ring: RingSink,
    profile: PhaseProfile,
    series: TickSeries,
}

/// A point-in-time copy of a telemetry session's collected state,
/// produced by [`Telemetry::snapshot`] and reapplied by
/// [`Telemetry::restore`].
///
/// The snapshot captures the journal ring (events plus drop counter),
/// the sequence counter, the timing profile, and the tick series — the
/// session's full state.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    inner: Option<(u64, RingSink, PhaseProfile, TickSeries)>,
}

impl TelemetrySnapshot {
    /// The most recent `limit` journal events captured in the snapshot,
    /// oldest first — the flight recorder reads its post-mortem window
    /// through this. Empty for a disabled session's snapshot.
    #[must_use]
    pub fn recent_events(&self, limit: usize) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |(_, ring, _, _)| {
                let skip = ring.len().saturating_sub(limit);
                ring.events().skip(skip).cloned().collect()
            })
    }

    /// The tick series captured in the snapshot, if the session was
    /// enabled.
    #[must_use]
    pub fn series(&self) -> Option<&TickSeries> {
        self.inner.as_ref().map(|(_, _, _, series)| series)
    }
}

/// A telemetry session handle, threaded by `&mut` through the
/// controller's event loop; [`Telemetry::snapshot`]/[`Telemetry::restore`]
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
                ring: RingSink::new(max_events),
                profile: PhaseProfile::new(),
                series: TickSeries::new(max_samples),
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
        inner.ring.record(&event);
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
        if let Some(inner) = self.inner.as_mut() {
            inner.series.push(sample());
        }
    }

    /// Captures the session's collected state for later [`restore`].
    /// Disabled sessions snapshot to (and restore from) the disabled
    /// state.
    ///
    /// [`restore`]: Telemetry::restore
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            inner: self.inner.as_ref().map(|inner| {
                (
                    inner.seq,
                    inner.ring.clone(),
                    inner.profile.clone(),
                    inner.series.clone(),
                )
            }),
        }
    }

    /// Rewinds the session to a previously captured [`snapshot`],
    /// discarding everything recorded since.
    ///
    /// [`snapshot`]: Telemetry::snapshot
    pub fn restore(&mut self, snapshot: &TelemetrySnapshot) {
        self.inner = snapshot.inner.as_ref().map(|(seq, ring, profile, series)| {
            Box::new(Inner {
                seq: *seq,
                ring: ring.clone(),
                profile: profile.clone(),
                series: series.clone(),
            })
        });
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
            events: inner.ring.into_events(),
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
    fn snapshot_restore_rewinds_to_bit_identical_artifacts() {
        let mut tel = Telemetry::enabled();
        tel.emit(1.0, 0, || EventKind::Admit {
            request: RequestId::new(1),
            hops: 1,
        });
        let snap = tel.snapshot();
        let mut reference = Telemetry::enabled();
        reference.restore(&snap);
        // Diverge, then rewind and replay the same tail on both.
        tel.emit(9.0, 1, || EventKind::Admit {
            request: RequestId::new(9),
            hops: 3,
        });
        tel.restore(&snap);
        for session in [&mut tel, &mut reference] {
            session.emit(2.0, 1, || EventKind::Admit {
                request: RequestId::new(2),
                hops: 2,
            });
        }
        assert_eq!(tel.finish(), reference.finish());
    }

    #[test]
    fn disabled_snapshot_restores_to_disabled() {
        let tel = Telemetry::disabled();
        let snap = tel.snapshot();
        let mut target = Telemetry::enabled();
        target.restore(&snap);
        assert!(!target.is_enabled());
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
