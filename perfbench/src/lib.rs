//! End-to-end and per-layer benchmark of the online NFV control plane.
//!
//! One command runs one named workload at one seed for a fixed number of
//! seconds, checks the workload's outputs, and prints one JSON line of
//! metrics: the end-to-end metrics by default, the per-layer metrics with
//! `--trace 1`. Everything is measured from outside the program: the
//! benchmark times its own calls into the crates' public APIs and reads
//! the tracing the program already exposes (`TelemetryArtifacts::profile`,
//! `FleetOutcome::spans`). See `README.md` beside this package.

mod fleet;
mod layers;
mod outage;
mod replay;
mod stats;

use std::error::Error;
use std::fmt::Write as _;

use stats::{median, peak_rss_mib, percentile};

/// Errors that stop a run before it can report (bad inputs, workload
/// generation failures). A failed output check is not an error: it is
/// reported as `correct: false`.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One controller at a time replaying million-event churn through the
    /// whole-stream batched entry point.
    Replay,
    /// 256 tenants on 16 shards, drained on 2 worker threads.
    Fleet,
    /// A paper-scale cluster with node outages, driven event by event.
    Outage,
    /// The fleet under seeded recoverable faults, paired with the
    /// undisturbed run.
    Chaos,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Replay,
        Workload::Fleet,
        Workload::Outage,
        Workload::Chaos,
    ];

    /// The name the command line takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::Fleet => "fleet",
            Workload::Outage => "outage",
            Workload::Chaos => "chaos",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is the benchmark; `Smoke` is the self-tests'
/// miniature of the same workload, which exercises every code path in a
/// fraction of a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Test-sized inputs.
    Smoke,
}

/// One invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the timed loop runs, seconds.
    pub seconds: f64,
    /// Per-layer metrics (program tracing on) instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

impl Options {
    /// Command-line synopsis.
    pub const USAGE: &'static str = "usage: perfbench --workload <replay|fleet|outage|chaos> \
                                     [--seed N (default 42)] [--seconds S (default 20)] \
                                     [--trace 0|1 (default 0)]";

    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag, missing value or
    /// malformed number.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut workload = None;
        let mut options = Options {
            workload: Workload::Replay,
            seed: 42,
            seconds: 20.0,
            trace: false,
            scale: Scale::Full,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    options.seed = value
                        .parse()
                        .map_err(|_| format!("--seed takes an integer, got {value:?}"))?;
                }
                "--seconds" => {
                    options.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| {
                            format!("--seconds takes a positive number, got {value:?}")
                        })?;
                }
                "--trace" => {
                    options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        options.workload = workload.ok_or("--workload is required")?;
        Ok(options)
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("events_per_s", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("served_ratio", "ratio"),
    ("mean_response_ms", "ms"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
];

/// The per-layer metrics, in `BENCHMARK.json` order. Every workload
/// prints all of them; a layer the workload never runs reads 0. Time
/// spent in a layer that only some workloads run is a share of the traced
/// call's wall time (`bench.traced_wall_s`), never an absolute time, so
/// no time metric reads a constant 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("workload.stream_ns_per_event", "ns"),
    ("controller.ledger_add_ns", "ns"),
    ("controller.ledger_remove_ns", "ns"),
    ("controller.admit_check_ns", "ns"),
    ("controller.predicted_latency_ns", "ns"),
    ("controller.balanced_w_ns", "ns"),
    ("controller.balanced_w_scratch_ns", "ns"),
    ("controller.ledger_clone_us", "us"),
    ("controller.checkpoint_us", "us"),
    ("controller.restore_us", "us"),
    ("controller.checkpoint_samples", "count"),
    ("controller.arrival_share", "%"),
    ("controller.arrival_n", "count"),
    ("controller.departure_share", "%"),
    ("controller.departure_n", "count"),
    ("controller.node_down_share", "%"),
    ("controller.node_down_n", "count"),
    ("controller.hysteresis_probe_share", "%"),
    ("controller.hysteresis_probe_n", "count"),
    ("controller.retry_drain_share", "%"),
    ("controller.retry_drain_n", "count"),
    ("controller.emergency_replace_share", "%"),
    ("controller.emergency_replace_n", "count"),
    ("controller.reopt_apply_ratio", "ratio"),
    ("controller.retry_admit_ratio", "ratio"),
    ("scheduling.rckk_plan_share", "%"),
    ("scheduling.rckk_plan_n", "count"),
    ("placement.place_delta_share", "%"),
    ("placement.place_delta_n", "count"),
    ("placement.replace_apply_ratio", "ratio"),
    ("search.generation_share", "%"),
    ("search.generation_n", "count"),
    ("search.refine_apply_ratio", "ratio"),
    ("fleet.pump_share", "%"),
    ("fleet.drain_share", "%"),
    ("fleet.drain_skew", "ratio"),
    ("fleet.handoff_share", "%"),
    ("fleet.finish_share", "%"),
    ("fleet.epoch_other_share", "%"),
    ("fleet.checkpoint_share", "%"),
    ("fleet.checkpoint_growth", "ratio"),
    ("fleet.restore_share", "%"),
    ("fleet.recovery_overhead_pct", "%"),
    ("fleet.epochs", "count"),
    ("fleet.migrations", "count"),
    ("fleet.migration_cost", "count"),
    ("fleet.shard_event_skew", "ratio"),
    ("fleet.checkpoints", "count"),
    ("fleet.restores", "count"),
    ("fleet.replay_ratio", "ratio"),
    ("parallel.round_us", "us"),
    ("telemetry.journal_events", "count"),
    ("telemetry.dropped_events", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.attributed_share", "%"),
    ("bench.timer_overhead_ns", "ns"),
];

/// Output checks of one run. A failed check marks the run incorrect and
/// every operation failed; it never skips the run.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The failed checks, in the order they were made.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// What a workload hands back: its metrics, the operations (trace events)
/// it attempted, its output checks, and human-readable notes (the layer
/// attribution) for standard error.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Trace events fed to the program across every timed call.
    pub attempted: u64,
    /// Output checks.
    pub checks: Checks,
    /// Lines for standard error.
    pub notes: Vec<String>,
}

/// The result line of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations (trace events) attempted.
    pub attempted: u64,
    /// Operations failed: all of them when a check failed, else 0.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    fn from_measured(measured: &Measured) -> Self {
        let finite = measured.metrics.iter().all(|m| m.value.is_finite());
        let correct = measured.checks.failures().is_empty() && finite && measured.attempted > 0;
        let attempted = measured.attempted.max(1);
        RunResult {
            correct,
            attempted,
            failed: if correct { 0 } else { attempted },
            metrics: measured
                .metrics
                .iter()
                .map(|m| Metric {
                    value: if m.value.is_finite() { m.value } else { 0.0 },
                    ..m.clone()
                })
                .collect(),
        }
    }

    /// The value of one metric.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON object the benchmark prints last. Values keep
    /// every digit (`f64` display is the shortest exact round trip).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one invocation: the workload's timed loop, its checks, and the
/// end-to-end or per-layer metrics. Notes and failed checks go to
/// standard error.
///
/// # Errors
///
/// Input generation failures and errors the program returns.
pub fn run(options: &Options) -> BenchResult<RunResult> {
    let measured = match options.workload {
        Workload::Replay => replay::run(options)?,
        Workload::Fleet | Workload::Chaos => fleet::run(options)?,
        Workload::Outage => outage::run(options)?,
    };
    for note in &measured.notes {
        eprintln!("{note}");
    }
    for failure in measured.checks.failures() {
        eprintln!("check failed: {failure}");
    }
    Ok(RunResult::from_measured(&measured))
}

/// Silences exactly the panics the chaos workload injects into shard
/// workers (the supervised drain catches and repairs them), the same
/// filter the `figures` binary installs; every other panic reaches the
/// default hook untouched.
pub fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected shard-worker panic"));
        if !injected {
            default_hook(info);
        }
    }));
}

/// What every workload's untraced timed loop collects for the end-to-end
/// metrics.
#[derive(Debug, Default)]
struct EndToEnd {
    /// Wall time of each repeated set-up, seconds.
    setup_seconds: Vec<f64>,
    /// Events per second of each timed call.
    events_per_second: Vec<f64>,
    /// Wall time of each control period (tick or epoch), seconds, one
    /// list per timed call.
    tick_seconds: Vec<Vec<f64>>,
    /// `1 − (rejected + shed − retry_admitted) / (admitted + rejected)`.
    served_ratio: f64,
    /// Time-weighted predicted response time (Eq. 11), seconds.
    mean_response_seconds: f64,
}

impl EndToEnd {
    /// The median over the timed calls of each call's `q`-quantile
    /// control period: the tail is a property of one call's ticks, and the
    /// median over calls keeps a call the host slowed down from setting
    /// it.
    fn tick_percentile(&self, q: f64) -> f64 {
        let per_call: Vec<f64> = self.tick_seconds.iter().map(|t| percentile(t, q)).collect();
        median(&per_call)
    }

    fn metrics(&self) -> BenchResult<Vec<Metric>> {
        let values = [
            median(&self.events_per_second),
            median(&self.setup_seconds),
            peak_rss_mib()?,
            self.served_ratio,
            self.mean_response_seconds * 1e3,
            self.tick_percentile(0.5) * 1e3,
            self.tick_percentile(0.95) * 1e3,
        ];
        Ok(END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect())
    }
}

/// The per-layer sheet: one value per [`PER_LAYER`] entry, 0 until set.
#[derive(Debug)]
struct LayerSheet {
    values: [f64; PER_LAYER.len()],
}

impl LayerSheet {
    fn new() -> Self {
        Self {
            values: [0.0; PER_LAYER.len()],
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let index = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.values[index] = value;
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

/// `part / whole` as a percentage, 0 for an empty whole.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `num / den`, 0 for a zero denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
