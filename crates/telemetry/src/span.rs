//! Wall-clock timing spans around the controller's hot phases.
//!
//! This is the **only** module in the workspace's library code that may
//! read the wall clock (`tests/determinism_audit.rs` allowlists exactly
//! this file). The measurements are strictly observational: span
//! durations feed [`PhaseProfile`] summaries and never flow back into
//! any decision, so results with telemetry on and off stay bit-identical
//! (pinned by the thread-invariance tests).

use std::fmt::Write as _;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use nfv_metrics::{OnlineStats, Summary};

/// The instrumented hot phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Incremental BFDSU delta-placement (tick re-placement fit loop).
    PlaceDelta,
    /// RCKK re-planning over the live request set.
    RckkPlan,
    /// Try-apply-measure-undo hysteresis probe (plan preview + greedy
    /// move selection).
    HysteresisProbe,
    /// Draining due entries from the retry/backoff queue.
    RetryDrain,
    /// Out-of-tick emergency re-placement after a node failure.
    EmergencyReplace,
    /// One generation of the background refiner's placement search.
    SearchGeneration,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 6] = [
        Phase::PlaceDelta,
        Phase::RckkPlan,
        Phase::HysteresisProbe,
        Phase::RetryDrain,
        Phase::EmergencyReplace,
        Phase::SearchGeneration,
    ];

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::PlaceDelta => "place-delta",
            Phase::RckkPlan => "rckk-plan",
            Phase::HysteresisProbe => "hysteresis-probe",
            Phase::RetryDrain => "retry-drain",
            Phase::EmergencyReplace => "emergency-replace",
            Phase::SearchGeneration => "search-generation",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::PlaceDelta => 0,
            Phase::RckkPlan => 1,
            Phase::HysteresisProbe => 2,
            Phase::RetryDrain => 3,
            Phase::EmergencyReplace => 4,
            Phase::SearchGeneration => 5,
        }
    }
}

/// An open span. Disabled telemetry hands out empty tokens, so the
/// disabled path never touches the clock.
#[derive(Debug)]
#[must_use = "a span token should be closed with Telemetry::end"]
pub struct SpanToken(Option<Instant>);

impl SpanToken {
    /// Opens a span (reads the clock only when `enabled`).
    pub(crate) fn start(enabled: bool) -> Self {
        Self(enabled.then(Instant::now))
    }

    /// Seconds since the span opened; `None` for a disabled token.
    pub(crate) fn elapsed_seconds(&self) -> Option<f64> {
        self.0.map(|start| start.elapsed().as_secs_f64())
    }
}

/// A plain wall-clock stopwatch for observers outside the controller's
/// span machinery (the fleet loop times its epoch phases with this).
/// It lives here because this module is the workspace's only licensed
/// clock reader; like [`SpanToken`], its measurements are strictly
/// observational and must never flow back into a decision.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Seconds elapsed since [`start`](Self::start).
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Per-phase duration summaries (seconds), aggregated with the
/// `nfv-metrics` accumulators so cross-worker merging reuses the tested
/// [`Summary::merge`] path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    durations: [Summary; Phase::ALL.len()],
}

impl Default for PhaseProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self {
            durations: std::array::from_fn(|_| Summary::new()),
        }
    }

    /// Records one span duration.
    pub fn record(&mut self, phase: Phase, seconds: f64) {
        self.durations[phase.index()].push(seconds);
    }

    /// The duration summary of one phase.
    #[must_use]
    pub fn summary(&self, phase: Phase) -> &Summary {
        &self.durations[phase.index()]
    }

    /// Spans recorded across all phases.
    #[must_use]
    pub fn total_spans(&self) -> u64 {
        self.durations.iter().map(Summary::count).sum()
    }

    /// Merges another profile (cross-worker aggregation).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.durations.iter_mut().zip(&other.durations) {
            mine.merge(theirs);
        }
    }

    /// Each phase's streaming statistics, the O(1) position
    /// [`rewind`](Self::rewind) returns to.
    pub(crate) fn mark(&self) -> [OnlineStats; Phase::ALL.len()] {
        std::array::from_fn(|i| *self.durations[i].stats())
    }

    /// Drops every span recorded since `mark` was taken from this
    /// profile.
    pub(crate) fn rewind(&mut self, mark: &[OnlineStats; Phase::ALL.len()]) {
        for (summary, stats) in self.durations.iter_mut().zip(mark) {
            summary.truncate(*stats);
        }
    }

    /// A fixed-width table of per-phase timings in microseconds. The
    /// numbers are wall-clock and vary run to run; only the row set is
    /// stable.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "phase", "spans", "total us", "mean us", "min us", "max us"
        );
        for phase in Phase::ALL {
            let s = self.summary(phase);
            let us = 1e6;
            let total: f64 = s.samples().as_slice().iter().sum();
            let _ = writeln!(
                out,
                "{:<18} {:>7} {:>12.1} {:>12.2} {:>12.2} {:>12.2}",
                phase.name(),
                s.count(),
                total * us,
                s.mean() * us,
                s.min().unwrap_or(0.0) * us,
                s.max().unwrap_or(0.0) * us,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_measure_only_when_enabled() {
        assert!(SpanToken::start(false).elapsed_seconds().is_none());
        let token = SpanToken::start(true);
        let elapsed = token.elapsed_seconds().unwrap();
        assert!(elapsed >= 0.0);
    }

    #[test]
    fn profile_records_and_merges_per_phase() {
        let mut a = PhaseProfile::new();
        a.record(Phase::RckkPlan, 0.001);
        a.record(Phase::RckkPlan, 0.003);
        let mut b = PhaseProfile::new();
        b.record(Phase::RckkPlan, 0.002);
        b.record(Phase::RetryDrain, 0.004);
        a.merge(&b);
        assert_eq!(a.summary(Phase::RckkPlan).count(), 3);
        assert_eq!(a.summary(Phase::RetryDrain).count(), 1);
        assert_eq!(a.summary(Phase::PlaceDelta).count(), 0);
        assert_eq!(a.total_spans(), 4);
        assert!((a.summary(Phase::RckkPlan).mean() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn render_lists_every_phase_once() {
        let mut p = PhaseProfile::new();
        p.record(Phase::PlaceDelta, 0.5);
        let table = p.render();
        for phase in Phase::ALL {
            assert_eq!(table.matches(phase.name()).count(), 1, "{table}");
        }
        assert_eq!(table.lines().count(), Phase::ALL.len() + 1);
    }
}
