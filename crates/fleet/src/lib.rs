//! A deterministic multi-tenant fleet loop: N independent tenant
//! controllers, sharded over the shared `nfv-parallel` pool, driven by
//! one virtual clock.
//!
//! The paper optimizes a single cluster; a fleet serving many users runs
//! *hundreds* of such optimizations concurrently in one process. This
//! crate multiplexes them without surrendering the repo's core contract:
//! same seed, same results, **bit for bit, at any thread count**.
//!
//! The moving parts:
//!
//! - **Tenants** — each an isolated world: its own scenario, its own
//!   lazy churn stream (seeded via [`tenant_seed`]), its own
//!   [`Controller`].
//! - **Channels** — bounded buffers between each tenant's trace stream
//!   and its controller. A backpressure round pumps the stream until the
//!   channel is full or the epoch boundary is reached, then drains the
//!   channel; a tenant's rounds depend on its own stream alone, so
//!   backpressure is part of the deterministic schedule, not an accident
//!   of timing — and the bound decides how many rounds run, never what a
//!   tenant computes (an injected chaos duplicate aside: it is lost on a
//!   full channel).
//! - **Shards** — disjoint tenant sets. Each epoch is exactly one
//!   supervised pool call in which every shard runs its own rounds —
//!   stream generation, chaos logging and draining all on the pool —
//!   with results folded in shard-id order, so thread count never changes
//!   an outcome. Each shard task runs under [`nfv_parallel::catch_task`],
//!   so a panicking worker's shard survives the unwind.
//! - **Epochs** — the virtual clock advances in fixed steps; every event
//!   with `time ≤ boundary` is pumped and drained (possibly over several
//!   backpressure rounds) before the fleet crosses the boundary.
//! - **Handoff** — every `rebalance_every` epochs the busiest tenant of
//!   the most-loaded shard migrates to the least-loaded shard as a
//!   two-phase retire/add with conservation accounting ([`MigrationRecord`]
//!   records each move).
//!
//! Journals merge per shard in shard-id order
//! ([`TelemetryArtifacts::merged`]), so the fleet journal is one
//! byte-identical artifact at 1, 2, or 8 threads.
//!
//! # Chaos & recovery
//!
//! [`run_with_faults`] drives the same loop under a [`FaultPlan`] of
//! injected control-plane faults, all through one fault path. At the
//! start of every faulted epoch each installed tenant is checkpointed
//! (controller snapshot + a mark on the tenant's telemetry session +
//! processed count) and armed with its own faults of the epoch; from
//! then on every event it pumps is recorded in its replay log. A worker
//! panic mid-epoch is contained by the supervised pool call; the
//! poisoned shard is restored on the main thread from its checkpoints,
//! caught up by replaying its logs, and finishes its rounds there under
//! [`nfv_parallel::catch_task`] (an epoch without checkpoints has nothing
//! to restore, so a panic there — or a second one — is a
//! [`FleetError::Pool`]). At the epoch boundary each tenant disarms and
//! reports the faults that fired; channel drops/duplicates, tenant
//! crashes, and injected conservation corruption are repaired the same
//! way — restore plus full-epoch replay — so a recoverable faulted run
//! produces a **byte-identical** merged journal, fleet report, and epoch
//! records to the undisturbed run. A tenant whose checkpoint is itself
//! corrupt is retired through the quarantine path (its checkpoint-time
//! counters frozen into the totals, [`FleetError`]-free); a wedged drain
//! surfaces as a typed [`FleetError::PumpStalled`]. Recovery telemetry
//! (`CheckpointTaken`/`FaultInjected`/`ShardRestored`/
//! `TenantQuarantined`, every cause a [`FaultKind::label`]) goes to a
//! separate chaos journal so the tenant journal keeps its byte-identity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod handoff;
mod shard;

use nfv_controller::{Controller, ControllerConfig, ControllerReport};
use nfv_metrics::{sorted_percentile, Histogram};
use nfv_parallel::{catch_task, default_threads, derive_seed, TaskPanic};
use nfv_telemetry::{
    EventKind, Phase, PhaseProfile, Postmortem, Registry, SpanTree, Stopwatch, Telemetry,
    TelemetryArtifacts, TickSeries, FLIGHT_RECORDER_WINDOW,
};
use nfv_workload::churn::ChurnTraceBuilder;
use nfv_workload::tenancy::tenant_seed;
use nfv_workload::{Scenario, ScenarioBuilder, ServiceRatePolicy, TenantId, WorkloadError};

use channel::EventChannel;
use handoff::HandoffLayer;
pub use handoff::MigrationRecord;
use shard::{Shard, SlotCheckpoint, TenantSlot};

// Re-exported so fleet callers can build fault plans without a separate
// `nfv-chaos` dependency.
pub use nfv_chaos::{FaultKind, FaultPlan, FaultRates};

/// Why a fleet run refused to start or aborted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// The spec fails a sanity bound.
    InvalidSpec(&'static str),
    /// Building a tenant scenario or trace failed.
    Workload(WorkloadError),
    /// A shard task panicked on the pool.
    Pool(TaskPanic),
    /// A tenant's counters failed the conservation check during handoff
    /// (`phase` is `retire`, `transit`, or `install`).
    ConservationViolated {
        /// The tenant whose accounting broke.
        tenant: TenantId,
        /// Which handoff phase detected it.
        phase: &'static str,
    },
    /// A shard's backpressure round moved nothing — nothing pumped,
    /// nothing drained, events still buffered — so its rounds would spin
    /// forever.
    PumpStalled {
        /// The first tenant (shard order, tenant order) holding
        /// undrained events: on the lowest stalled shard.
        tenant: TenantId,
        /// The epoch that stalled.
        epoch: u64,
    },
    /// A checkpoint restore failed during crash recovery.
    RestoreFailed {
        /// The tenant whose snapshot did not restore.
        tenant: TenantId,
        /// The epoch the recovery ran in.
        epoch: u64,
    },
    /// The handoff layer chose a tenant the source shard no longer owns —
    /// the ownership view desynced from the shard (e.g. a concurrent
    /// quarantine retired it between selection and retire).
    HandoffDesynced {
        /// The tenant the handoff tried to retire.
        tenant: TenantId,
        /// The shard that was expected to own it.
        shard: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidSpec(reason) => write!(f, "invalid fleet spec: {reason}"),
            Self::Workload(err) => write!(f, "tenant workload: {err}"),
            Self::Pool(err) => write!(f, "shard pool: {err}"),
            Self::ConservationViolated { tenant, phase } => {
                write!(f, "conservation violated for {tenant} at {phase}")
            }
            Self::PumpStalled { tenant, epoch } => {
                write!(f, "pump stalled on {tenant} in epoch {epoch}")
            }
            Self::RestoreFailed { tenant, epoch } => {
                write!(f, "checkpoint restore failed for {tenant} in epoch {epoch}")
            }
            Self::HandoffDesynced { tenant, shard } => {
                write!(f, "handoff desynced: shard {shard} does not own {tenant}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Workload(err) => Some(err),
            Self::Pool(err) => Some(err),
            _ => None,
        }
    }
}

/// Everything that defines one fleet run. A spec is a pure value: two
/// runs of the same spec produce byte-identical outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of tenants.
    pub tenants: usize,
    /// Number of shards the tenants are partitioned over.
    pub shards: usize,
    /// VNFs per tenant scenario.
    pub vnfs: usize,
    /// Base requests per tenant scenario.
    pub requests: usize,
    /// Per-instance utilization target of the scenario generator.
    pub target_utilization: f64,
    /// Virtual-time horizon of every tenant's trace, seconds.
    pub horizon: f64,
    /// Poisson churn arrival rate per tenant, events/second.
    pub arrival_rate: f64,
    /// Mean exponential holding time, seconds.
    pub mean_holding: f64,
    /// Re-optimization tick period per tenant, seconds.
    pub tick_period: f64,
    /// Virtual seconds per fleet epoch.
    pub epoch: f64,
    /// Bound of each tenant's event channel.
    pub channel_capacity: usize,
    /// Initiate a handoff every this many epochs (`0` disables).
    pub rebalance_every: u64,
    /// Fleet seed; every tenant seed derives from it.
    pub seed: u64,
    /// Whether the run records the observability plane: the causal span
    /// tree, the metrics registry, per-tenant latency percentiles, the
    /// SLO-violation counter, and flight-recorder post-mortems. Purely
    /// observational — results are bit-identical with it on or off.
    pub observability: bool,
    /// Per-tenant latency SLO threshold, seconds: tick samples whose
    /// balanced latency exceeds it count into
    /// [`FleetReport::slo_violations`].
    pub slo_latency: f64,
    /// The controller configuration every tenant runs.
    pub controller: ControllerConfig,
    /// Worker threads the shards' epoch work runs on (`0` = process
    /// default).
    pub threads: usize,
}

impl FleetSpec {
    /// A small smoke-test fleet: 4 tenants on 2 shards, rebalancing
    /// aggressively so the handoff path is exercised even in tests.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            tenants: 4,
            shards: 2,
            vnfs: 3,
            requests: 12,
            target_utilization: 0.6,
            horizon: 40.0,
            arrival_rate: 0.5,
            mean_holding: 10.0,
            tick_period: 20.0,
            epoch: 10.0,
            channel_capacity: 16,
            rebalance_every: 1,
            seed: 11,
            observability: true,
            slo_latency: 0.05,
            controller: ControllerConfig::periodic_reopt(),
            threads: 0,
        }
    }

    /// The smoke spec scaled to `tenants` tenants on `shards` shards.
    #[must_use]
    pub fn sized(tenants: usize, shards: usize) -> Self {
        Self {
            tenants,
            shards,
            ..Self::smoke()
        }
    }

    fn validate(&self) -> Result<(), FleetError> {
        if self.tenants == 0 {
            return Err(FleetError::InvalidSpec("tenants must be >= 1"));
        }
        if self.shards == 0 {
            return Err(FleetError::InvalidSpec("shards must be >= 1"));
        }
        if self.vnfs == 0 || self.requests == 0 {
            return Err(FleetError::InvalidSpec(
                "tenant scenarios must be non-empty",
            ));
        }
        if !(self.horizon.is_finite() && self.horizon > 0.0) {
            return Err(FleetError::InvalidSpec(
                "horizon must be positive and finite",
            ));
        }
        if !(self.epoch.is_finite() && self.epoch > 0.0) {
            return Err(FleetError::InvalidSpec("epoch must be positive and finite"));
        }
        if self.channel_capacity == 0 {
            return Err(FleetError::InvalidSpec("channel capacity must be >= 1"));
        }
        if !(self.slo_latency.is_finite() && self.slo_latency > 0.0) {
            return Err(FleetError::InvalidSpec(
                "slo latency must be positive and finite",
            ));
        }
        Ok(())
    }

    /// Number of epochs the run spans.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        (self.horizon / self.epoch).ceil().max(1.0) as u64
    }
}

/// Fleet-wide counter totals at one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochRecord {
    /// The epoch index (0-based).
    pub epoch: u64,
    /// Virtual time of the epoch's end.
    pub end_time: f64,
    /// Events processed during this epoch (all shards).
    pub events: u64,
    /// Cumulative fleet admissions at the boundary.
    pub admitted: u64,
    /// Cumulative fleet retry admissions at the boundary.
    pub retry_admitted: u64,
    /// Active requests across the fleet at the boundary.
    pub active: u64,
    /// Cumulative departures at the boundary.
    pub departed: u64,
    /// Cumulative sheds at the boundary.
    pub shed: u64,
}

impl EpochRecord {
    /// Whether the fleet-wide conservation law holds at this boundary.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.admitted + self.retry_admitted == self.active + self.departed + self.shed
    }
}

/// Aggregated results of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Tenants in the fleet.
    pub tenants: usize,
    /// Shards the fleet ran on.
    pub shards: usize,
    /// Epochs executed.
    pub epochs: u64,
    /// Total events processed.
    pub events: u64,
    /// Total admissions across all tenants.
    pub admitted: u64,
    /// Total rejections across all tenants.
    pub rejected: u64,
    /// Total departures across all tenants.
    pub departed: u64,
    /// Total sheds across all tenants.
    pub shed: u64,
    /// Total retry admissions across all tenants.
    pub retry_admitted: u64,
    /// Requests still active at the horizon.
    pub active: u64,
    /// Completed cross-shard migrations.
    pub migrations: u64,
    /// Total state carried across shard boundaries (active requests +
    /// pending retries at retire time, summed over migrations).
    pub migration_cost: u64,
    /// Mean virtual-time latency of a handoff (retire → install),
    /// seconds; `0.0` when no migration happened.
    pub mean_rebalance_latency: f64,
    /// Events processed per shard, shard-id order.
    pub shard_events: Vec<u64>,
    /// Tick samples whose balanced latency exceeded
    /// [`FleetSpec::slo_latency`], fleet-wide (0 with observability
    /// disabled).
    pub slo_violations: u64,
    /// Per-tenant latency percentiles, tenant-id order (empty with
    /// observability disabled).
    pub tenant_latency: Vec<TenantLatencyStats>,
}

/// Per-tenant latency percentiles over the run's tick series, seconds.
/// Derived purely from the deterministic virtual-time series, so the
/// values are bit-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLatencyStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Tick samples the percentiles were computed over.
    pub samples: u64,
    /// Median balanced latency, seconds (0 with no samples).
    pub p50: f64,
    /// 95th-percentile balanced latency, seconds.
    pub p95: f64,
    /// 99th-percentile balanced latency, seconds.
    pub p99: f64,
}

/// Counters of the chaos/recovery machinery for one run. All zeros for
/// an undisturbed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Tenant checkpoints taken at faulted epoch starts.
    pub checkpoints: u64,
    /// Faults that actually fired (a scheduled channel fault whose event
    /// index was never pumped, or a fault on a parked tenant, does not).
    pub faults_injected: u64,
    /// Whole-shard restores after contained worker panics.
    pub shard_restores: u64,
    /// Per-tenant epoch-boundary restores (crashes, channel faults,
    /// detected corruption).
    pub tenant_restores: u64,
    /// Tenants retired through the quarantine path.
    pub tenants_quarantined: u64,
    /// Events replayed from logs to catch restored tenants up.
    pub events_replayed: u64,
}

/// A tenant retired from the fleet because its state could not be
/// recovered (its checkpoint was corrupt). Its last valid checkpoint
/// counters stay frozen in the fleet totals, keeping the fleet-wide
/// conservation law intact.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The retired tenant.
    pub tenant: TenantId,
    /// The epoch whose boundary sweep quarantined it.
    pub epoch: u64,
    /// The fault-kind slug that made recovery impossible.
    pub cause: &'static str,
    /// The checkpoint-time counter report frozen into the totals.
    pub report: ControllerReport,
}

/// Everything a fleet run produces.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The aggregated counters.
    pub report: FleetReport,
    /// Per-epoch fleet totals, epoch order.
    pub epoch_records: Vec<EpochRecord>,
    /// Completed migrations, oldest first.
    pub migrations: Vec<MigrationRecord>,
    /// Final per-tenant reports, tenant-id order (quarantined tenants
    /// report their frozen checkpoint counters).
    pub tenant_reports: Vec<(TenantId, ControllerReport)>,
    /// The merged fleet journal (per-shard, shard-id order).
    pub artifacts: TelemetryArtifacts,
    /// Chaos/recovery counters (all zeros without faults).
    pub recovery: RecoveryReport,
    /// Tenants retired through the quarantine path, oldest first.
    pub quarantines: Vec<QuarantineRecord>,
    /// The separate chaos journal (checkpoints, injections, restores,
    /// quarantines) — kept out of [`artifacts`](Self::artifacts) so the
    /// tenant journal stays byte-identical under recoverable faults.
    pub chaos_artifacts: TelemetryArtifacts,
    /// The causal span tree of the run's wall-clock: fleet run → epoch →
    /// {handoff, checkpoint, restore, quarantine, drain shard N → pump},
    /// where `drain shard N` is the shard's whole epoch work and its
    /// `pump` child the part spent pumping, plus per-shard controller
    /// phase attribution. Structure is deterministic; durations are
    /// wall-clock. Empty with observability disabled.
    pub spans: SpanTree,
    /// The deterministic metrics registry, merged in shard-id order
    /// (quarantined tenants last). Byte-identical dumps at any thread
    /// count. Empty with observability disabled.
    pub registry: Registry,
    /// Flight-recorder post-mortem windows, one per quarantined tenant
    /// in quarantine order (empty with observability disabled).
    pub postmortems: Vec<Postmortem>,
}

/// Fixed shape of the per-tenant latency histograms (`lo`, `hi`, bins).
const LATENCY_HISTOGRAM: (f64, f64, usize) = (0.0, 0.1, 20);
/// Fixed shape of the per-shard retry-backlog histograms.
const BACKLOG_HISTOGRAM: (f64, f64, usize) = (0.0, 32.0, 16);

/// Accumulates one tenant's controller counters into a positional
/// aggregate, so the registry sees one `controller_*_total` write per
/// counter per *shard* instead of per tenant (the per-tenant version
/// cost 26 map lookups + string allocations per tenant, which dominated
/// the plane's overhead at 256 tenants). The counter list has a fixed
/// order, so positions line up across reports.
fn accumulate_counters(totals: &mut Vec<(&'static str, u64)>, report: &ControllerReport) {
    if totals.is_empty() {
        *totals = report.counters();
        return;
    }
    for (slot, (name, value)) in totals.iter_mut().zip(report.counters()) {
        debug_assert_eq!(slot.0, name, "counter order is fixed");
        slot.1 += value;
    }
}

/// Flushes a [`accumulate_counters`] aggregate into a registry slice.
fn flush_counters(registry: &mut Registry, totals: &[(&'static str, u64)]) {
    for (name, value) in totals {
        registry.counter_add(format!("controller_{name}_total"), *value);
    }
}

/// An empty histogram of one of the fixed shapes above. The shapes are
/// valid compile-time constants, so this never returns `None` in
/// practice; the `Option` just keeps the crate's zero panic-site budget.
fn fixed_histogram((lo, hi, bins): (f64, f64, usize)) -> Option<Histogram> {
    Histogram::new(lo, hi, bins)
}

/// What closing the run collects, shard by shard in shard-id order
/// (tenant order within each shard), quarantined tenants last: the final
/// reports, the journal parts and — with the observability plane on —
/// the registry, the per-tenant latency percentiles and the SLO breaches.
/// The fold is serial, so the registry fills in the same order however
/// many workers drained the epochs, and its dump is byte-identical at
/// any thread count.
struct Closing {
    obs: bool,
    slo_latency: f64,
    registry: Registry,
    slo_violations: u64,
    tenant_latency: Vec<TenantLatencyStats>,
    /// Reused across tenants so the percentile pass allocates nothing per
    /// tenant (a [`Summary`](nfv_metrics::Summary) costs two allocations
    /// and a sorted copy per call, which adds up at 256 tenants).
    latency_scratch: Vec<f64>,
    tenant_reports: Vec<(TenantId, ControllerReport)>,
    parts: Vec<TelemetryArtifacts>,
}

impl Closing {
    /// Folds one shard's closed tenants in, the registry's `shard` label
    /// set to `label`: controller counters through
    /// [`accumulate_counters`], each tenant's latency histogram and
    /// percentiles, the shard's retry-backlog histogram, and SLO
    /// breaches. Returns the tenants' merged controller phase profile
    /// (`None` with the plane off).
    fn observe_shard(
        &mut self,
        label: &str,
        tenants: Vec<(TenantId, ControllerReport, TelemetryArtifacts)>,
    ) -> Option<PhaseProfile> {
        let mut profile = self.obs.then(PhaseProfile::new);
        let mut counters = Vec::new();
        let mut backlog = self
            .obs
            .then(|| fixed_histogram(BACKLOG_HISTOGRAM))
            .flatten();
        for (tenant, report, artifacts) in tenants {
            if self.obs {
                accumulate_counters(&mut counters, &report);
                self.observe_tenant(&mut backlog, tenant, &artifacts.series);
            }
            if let Some(profile) = profile.as_mut() {
                profile.merge(&artifacts.profile);
            }
            self.tenant_reports.push((tenant, report));
            self.parts.push(artifacts);
        }
        flush_counters(&mut self.registry, &counters);
        if let Some(hist) = backlog.filter(|hist| hist.count() > 0) {
            self.registry.histogram_insert(
                Registry::labeled("shard_retry_backlog", "shard", label),
                hist,
            );
        }
        profile
    }

    /// Folds one tenant's tick series in: balanced-latency samples into
    /// the tenant's latency histogram (built locally and inserted once —
    /// per-sample `histogram_record` re-validation dominated the plane's
    /// overhead at 256 tenants), retry-backlog samples into the shard's
    /// `backlog`, breaches into `slo_violations`, and the percentiles of
    /// the finite latencies into `tenant_latency`.
    fn observe_tenant(
        &mut self,
        backlog: &mut Option<Histogram>,
        tenant: TenantId,
        series: &TickSeries,
    ) {
        let mut latency_hist = fixed_histogram(LATENCY_HISTOGRAM);
        let scratch = &mut self.latency_scratch;
        scratch.clear();
        for sample in series.samples() {
            if let Some(hist) = latency_hist.as_mut() {
                hist.push(sample.balanced_latency);
            }
            if let Some(hist) = backlog.as_mut() {
                #[allow(clippy::cast_precision_loss)]
                hist.push(sample.retry_backlog as f64);
            }
            if sample.balanced_latency.is_finite() {
                scratch.push(sample.balanced_latency);
            }
            if sample.balanced_latency > self.slo_latency {
                self.slo_violations += 1;
            }
        }
        if let Some(hist) = latency_hist.filter(|hist| hist.count() > 0) {
            // Tenant ids are digits, which never need label escaping, so
            // the key skips `Registry::labeled`'s escape pass.
            self.registry.histogram_insert(
                format!("tenant_latency_seconds{{tenant=\"{}\"}}", tenant.as_u32()),
                hist,
            );
        }
        scratch.sort_unstable_by(f64::total_cmp);
        self.tenant_latency.push(TenantLatencyStats {
            tenant,
            samples: scratch.len() as u64,
            p50: sorted_percentile(scratch, 0.5),
            p95: sorted_percentile(scratch, 0.95),
            p99: sorted_percentile(scratch, 0.99),
        });
    }
}

/// Sums the fleet-wide counters: every installed tenant, the parked
/// one, and the frozen reports of quarantined tenants — shard order then
/// tenant order (all-integer, so order only matters for determinism of
/// iteration, which is fixed anyway).
fn fleet_totals(
    shards: &[Shard],
    handoff: &HandoffLayer,
    quarantines: &[QuarantineRecord],
    epoch: u64,
    end_time: f64,
) -> EpochRecord {
    let mut record = EpochRecord {
        epoch,
        end_time,
        ..EpochRecord::default()
    };
    let mut add = |r: &ControllerReport| {
        record.admitted += r.admitted;
        record.retry_admitted += r.retry_admitted;
        record.active += r.active;
        record.departed += r.departed;
        record.shed += r.shed;
    };
    for shard in shards {
        for slot in shard.slots() {
            add(&slot.report());
        }
    }
    if let Some(parked) = handoff.parked_report() {
        add(parked);
    }
    for quarantine in quarantines {
        add(&quarantine.report);
    }
    record
}

/// Runs a fleet to its horizon.
///
/// # Errors
///
/// [`FleetError`] for an invalid spec, a workload-generation failure, a
/// shard panic on the pool, or a conservation violation during handoff.
pub fn run(spec: &FleetSpec) -> Result<FleetOutcome, FleetError> {
    run_with_faults(spec, &FaultPlan::none())
}

/// Runs a fleet to its horizon under an injected [`FaultPlan`].
///
/// With the empty plan this is exactly [`run`]. With a plan of
/// *recoverable* faults (see [`FaultRates::recoverable`]) the run
/// produces a byte-identical merged journal, fleet report, and epoch
/// records to the undisturbed run — crash recovery via epoch
/// checkpoints and event replay is transparent. Unrecoverable faults
/// degrade gracefully and typed: a corrupt checkpoint quarantines its
/// tenant (frozen counters, no panic), a wedged drain surfaces as
/// [`FleetError::PumpStalled`].
///
/// # Errors
///
/// Everything [`run`] can return, plus [`FleetError::PumpStalled`] for
/// a wedged channel and [`FleetError::RestoreFailed`] if a checkpoint
/// snapshot does not restore.
pub fn run_with_faults(spec: &FleetSpec, plan: &FaultPlan) -> Result<FleetOutcome, FleetError> {
    spec.validate()?;
    let threads = if spec.threads == 0 {
        default_threads()
    } else {
        spec.threads
    };
    let chaos_on = !plan.is_empty();
    // Observability plane. Span durations are the only wall-clock values
    // and never flow back into a decision; the tree's structure, the
    // registry, the percentiles, and the postmortems all derive from the
    // deterministic virtual-time run.
    let obs = spec.observability;
    let run_watch = obs.then(Stopwatch::start);
    let mut spans = SpanTree::new();
    let root_span = obs.then(|| spans.root("fleet run", 0.0));
    let mut postmortems: Vec<Postmortem> = Vec::new();
    let scenarios: Vec<Scenario> = (0..spec.tenants)
        .map(|t| {
            ScenarioBuilder::new()
                .vnfs(spec.vnfs)
                .requests(spec.requests)
                .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
                    target_utilization: spec.target_utilization,
                })
                .seed(tenant_seed(spec.seed, TenantId::new(t as u32)))
                .build()
                .map_err(FleetError::Workload)
        })
        .collect::<Result<_, _>>()?;
    // Every stream is built before any controller: building each beside
    // its controller interleaves their long-lived allocations on the heap
    // and measurably raises the run's peak resident memory.
    let mut streams = Vec::with_capacity(spec.tenants);
    for (t, scenario) in scenarios.iter().enumerate() {
        streams.push(
            ChurnTraceBuilder::new()
                .horizon(spec.horizon)
                .arrival_rate(spec.arrival_rate)
                .mean_holding(spec.mean_holding)
                .tick_period(spec.tick_period)
                .seed(derive_seed(spec.seed, t as u64))
                .stream(scenario)
                .map_err(FleetError::Workload)?,
        );
    }
    let mut shards: Vec<Shard<'_>> = (0..spec.shards).map(Shard::new).collect();
    for ((t, scenario), stream) in scenarios.iter().enumerate().zip(streams) {
        shards[t % spec.shards].install(TenantSlot::new(
            TenantId::new(t as u32),
            Controller::new(scenario, spec.controller),
            stream,
            EventChannel::new(spec.channel_capacity),
            Telemetry::enabled(),
        ));
    }
    let epochs = spec.epochs();
    let mut handoff = HandoffLayer::default();
    let mut epoch_records = Vec::with_capacity(epochs as usize);
    let mut processed_before = 0u64;
    // Chaos state. The chaos journal is separate from the tenant
    // journals so recoverable faults leave the merged fleet journal
    // byte-identical.
    let mut chaos_tel = if chaos_on {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut recovery = RecoveryReport::default();
    let mut quarantines: Vec<QuarantineRecord> = Vec::new();
    // Each quarantined tenant's frozen report and checkpoint-time
    // artifacts, closed after the live shards.
    let mut frozen: Vec<(TenantId, ControllerReport, TelemetryArtifacts)> = Vec::new();
    let mut checkpoints: Vec<Option<SlotCheckpoint>> = (0..spec.tenants).map(|_| None).collect();
    for epoch in 0..epochs {
        let epoch_watch = obs.then(Stopwatch::start);
        let epoch_span = root_span.map(|root| spans.child(root, format!("epoch {epoch}"), 0.0));
        let handoff_watch = obs.then(Stopwatch::start);
        handoff.install_due(&mut shards, epoch)?;
        if let (Some(watch), Some(span)) = (handoff_watch, epoch_span) {
            spans.accumulate(span, "handoff", watch.elapsed_seconds());
        }
        let faults = plan.for_epoch(epoch as usize);
        let epoch_faulted = !faults.is_empty();
        let epoch_start = epoch as f64 * spec.epoch;
        let epoch_end = spec.horizon.min((epoch + 1) as f64 * spec.epoch);

        // Checkpoint every installed tenant at the faulted epoch's start
        // (after install_due, so a freshly installed tenant is covered)
        // and arm it with its own faults of the epoch. A fault naming a
        // parked (in transit) or quarantined tenant arms no slot and never
        // fires.
        if epoch_faulted {
            let checkpoint_watch = obs.then(Stopwatch::start);
            for shard in &mut shards {
                for slot in shard.slots_mut() {
                    checkpoints[slot.tenant().as_usize()] = Some(slot.checkpoint());
                    slot.arm(faults);
                }
                recovery.checkpoints += shard.tenants() as u64;
                chaos_tel.emit(epoch_start, epoch, || EventKind::CheckpointTaken {
                    shard: shard.id() as u64,
                    tenants: shard.tenants() as u64,
                });
            }
            if let (Some(watch), Some(span)) = (checkpoint_watch, epoch_span) {
                spans.accumulate(span, "checkpoint", watch.elapsed_seconds());
            }
        }

        // The final epoch flushes everything, horizon-clamped streams
        // included, so no event is left behind a fractional boundary.
        let boundary = if epoch + 1 == epochs {
            f64::MAX
        } else {
            (epoch + 1) as f64 * spec.epoch
        };
        // One supervised pool call runs every shard's backpressure rounds:
        // each worker's panic is contained by `catch_task`, so the shards
        // (borrowed mutably through the pool) survive the unwind.
        let results = nfv_parallel::par_map_indexed(
            threads,
            shards.iter_mut().collect(),
            |_, shard: &mut Shard| {
                let id = shard.id();
                let inject = faults.contains(&FaultKind::ShardPanic { shard: id });
                catch_task(id, || shard.rounds(boundary, inject, obs))
            },
        )
        .map_err(FleetError::Pool)?;
        let mut shard_seconds = Vec::with_capacity(shards.len());
        let mut stall = None;
        for (shard, result) in shards.iter_mut().zip(results) {
            let rounds = match result {
                Ok(rounds) => rounds,
                // An epoch that took no checkpoints has nothing to restore
                // the poisoned shard to.
                Err(panic) if !epoch_faulted => return Err(FleetError::Pool(panic)),
                // The worker died mid-epoch: restore every tenant of the
                // poisoned shard from its epoch checkpoint, replay the
                // epoch's pumped events so far, and finish the shard's
                // rounds here, still supervised.
                Err(_) => {
                    let restore_watch = obs.then(Stopwatch::start);
                    let id = shard.id();
                    let first_tenant = shard
                        .slots()
                        .first()
                        .map_or(u64::MAX, |s| u64::from(s.tenant().as_u32()));
                    recovery.faults_injected += 1;
                    chaos_tel.emit(epoch_end, epoch, || EventKind::FaultInjected {
                        cause: FaultKind::ShardPanic { shard: id }.label().into(),
                        shard: id as u64,
                        tenant: first_tenant,
                    });
                    let (_, replayed) = shard.recover(&checkpoints, epoch, |_| true)?;
                    recovery.shard_restores += 1;
                    recovery.events_replayed += replayed;
                    chaos_tel.emit(epoch_end, epoch, || EventKind::ShardRestored {
                        shard: id as u64,
                        replayed,
                    });
                    if let (Some(watch), Some(span)) = (restore_watch, epoch_span) {
                        spans.accumulate(span, "restore", watch.elapsed_seconds());
                    }
                    catch_task(id, || shard.rounds(boundary, false, obs))
                        .map_err(FleetError::Pool)?
                }
            };
            shard_seconds.push((rounds.seconds, rounds.pump_seconds));
            stall = stall.or(rounds.stalled);
        }
        if let Some(tenant) = stall {
            // A shard's round moved nothing with events still buffered:
            // the lowest such shard's first stuck tenant.
            return Err(FleetError::PumpStalled { tenant, epoch });
        }
        // Each shard's epoch work is one child, its pumping one child of
        // that: the shards run concurrently, so no phase of theirs sits
        // beside the epoch's serial phases.
        if let Some(span) = epoch_span {
            for (i, (total, pump)) in shard_seconds.into_iter().enumerate() {
                let drain = spans.child(span, format!("drain shard {i}"), total);
                spans.child(drain, "pump", pump);
            }
        }

        // The epoch-boundary sweep: every tenant disarms and reports the
        // faults that fired (a fired corruption breaks its counters), then
        // every tenant that crashed, saw a channel fault fire, or fails
        // the conservation law is restored and replayed — or quarantined,
        // when the corrupt one is its checkpoint.
        if epoch_faulted {
            let sweep_watch = obs.then(Stopwatch::start);
            let mut quarantine_seconds = 0.0;
            for shard in &mut shards {
                let id = shard.id() as u64;
                let mut to_restore: Vec<TenantId> = Vec::new();
                let mut to_quarantine: Vec<(TenantId, &'static str)> = Vec::new();
                for slot in shard.slots_mut() {
                    let tenant = slot.tenant();
                    let fired = slot.disarm();
                    let mut restore = !slot.report().conserves();
                    let mut quarantine = None;
                    for fault in fired {
                        recovery.faults_injected += 1;
                        chaos_tel.emit(epoch_end, epoch, || EventKind::FaultInjected {
                            cause: fault.label().into(),
                            shard: id,
                            tenant: u64::from(tenant.as_u32()),
                        });
                        match fault {
                            FaultKind::TenantCrash { .. }
                            | FaultKind::ChannelDrop { .. }
                            | FaultKind::ChannelDup { .. } => restore = true,
                            FaultKind::CorruptCheckpoint { .. } => quarantine = Some(fault.label()),
                            _ => {}
                        }
                    }
                    if let Some(cause) = quarantine {
                        to_quarantine.push((tenant, cause));
                    } else if restore {
                        to_restore.push(tenant);
                    }
                }
                let (restored, replayed) = shard.recover(&checkpoints, epoch, |slot| {
                    to_restore.contains(&slot.tenant())
                })?;
                recovery.tenant_restores += restored;
                if restored > 0 {
                    recovery.events_replayed += replayed;
                    chaos_tel.emit(epoch_end, epoch, || EventKind::ShardRestored {
                        shard: id,
                        replayed,
                    });
                }
                let quarantine_watch = obs.then(Stopwatch::start);
                for (tenant, cause) in to_quarantine {
                    let (Some(slot), Some(checkpoint)) =
                        (shard.retire(tenant), checkpoints[tenant.as_usize()].take())
                    else {
                        continue;
                    };
                    // The slot's own session, rewound to the checkpoint
                    // and closed: its frozen journal, series and profile.
                    let artifacts = slot.quarantine(&checkpoint, epoch)?;
                    recovery.tenants_quarantined += 1;
                    chaos_tel.emit(epoch_end, epoch, || EventKind::TenantQuarantined {
                        tenant: u64::from(tenant.as_u32()),
                        cause: cause.into(),
                    });
                    // Flight-recorder dump: the checkpoint's journal tail
                    // and counters, frozen at the moment of quarantine.
                    if obs {
                        let window = artifacts
                            .events
                            .len()
                            .saturating_sub(FLIGHT_RECORDER_WINDOW);
                        postmortems.push(Postmortem::new(
                            u64::from(tenant.as_u32()),
                            epoch,
                            cause,
                            artifacts.events[window..].to_vec(),
                            checkpoint.report.counters(),
                        ));
                    }
                    quarantines.push(QuarantineRecord {
                        tenant,
                        epoch,
                        cause,
                        report: checkpoint.report.clone(),
                    });
                    frozen.push((tenant, checkpoint.report, artifacts));
                }
                if let Some(watch) = quarantine_watch {
                    quarantine_seconds += watch.elapsed_seconds();
                }
            }
            if let (Some(watch), Some(span)) = (sweep_watch, epoch_span) {
                let total = watch.elapsed_seconds();
                spans.accumulate(span, "restore", (total - quarantine_seconds).max(0.0));
                spans.accumulate(span, "quarantine", quarantine_seconds);
            }
        }

        let processed_now: u64 = shards.iter().map(Shard::processed).sum();
        let mut record = fleet_totals(&shards, &handoff, &quarantines, epoch, epoch_end);
        record.events = processed_now - processed_before;
        processed_before = processed_now;
        epoch_records.push(record);
        // Initiate a handoff only when its install epoch still exists.
        if spec.rebalance_every > 0 && (epoch + 1) % spec.rebalance_every == 0 && epoch + 2 < epochs
        {
            let initiate_watch = obs.then(Stopwatch::start);
            handoff.initiate(&mut shards, epoch, spec.epoch)?;
            if let (Some(watch), Some(span)) = (initiate_watch, epoch_span) {
                spans.accumulate(span, "handoff", watch.elapsed_seconds());
            }
        }
        // Set LAST so the epoch span covers every phase child and the
        // `(other)` residual sums exactly to the measured epoch time.
        if let (Some(watch), Some(span)) = (epoch_watch, epoch_span) {
            spans.set_seconds(span, watch.elapsed_seconds());
        }
    }
    debug_assert!(handoff.idle(), "every handoff installs before the run ends");
    let migrations = handoff.records().to_vec();
    // Close every tenant at the horizon and merge journals per shard in
    // shard-id order (tenant order within each shard), the quarantined
    // tenants' checkpoint-time parts last, under the "quarantined" shard
    // label.
    let finish_watch = obs.then(Stopwatch::start);
    let shard_events: Vec<u64> = shards.iter().map(Shard::processed).collect();
    let mut closing = Closing {
        obs,
        slo_latency: spec.slo_latency,
        registry: Registry::new(),
        slo_violations: 0,
        tenant_latency: Vec::new(),
        latency_scratch: Vec::new(),
        tenant_reports: Vec::with_capacity(spec.tenants),
        parts: Vec::with_capacity(spec.tenants),
    };
    for shard in shards {
        let label = shard.id().to_string();
        if obs {
            closing.registry.counter_add(
                Registry::labeled("fleet_shard_events_total", "shard", &label),
                shard.processed(),
            );
        }
        let profile = closing.observe_shard(&label, shard.finish(spec.horizon));
        if let (Some(root), Some(profile)) = (root_span, profile) {
            let total: f64 = Phase::ALL
                .iter()
                .map(|p| profile.summary(*p).samples().as_slice().iter().sum::<f64>())
                .sum();
            let node = spans.child(root, format!("controller phases shard {label}"), total);
            spans.graft_profile(node, &profile);
        }
    }
    closing.observe_shard("quarantined", frozen);
    let Closing {
        mut registry,
        slo_violations,
        mut tenant_latency,
        mut tenant_reports,
        parts,
        ..
    } = closing;
    let artifacts = TelemetryArtifacts::merged(parts);
    tenant_reports.sort_by_key(|(tenant, _)| *tenant);
    let mut report = FleetReport {
        tenants: spec.tenants,
        shards: spec.shards,
        epochs,
        events: shard_events.iter().sum(),
        admitted: 0,
        rejected: 0,
        departed: 0,
        shed: 0,
        retry_admitted: 0,
        active: 0,
        migrations: migrations.len() as u64,
        migration_cost: migrations
            .iter()
            .map(|m| m.carried_active + m.carried_retry)
            .sum(),
        mean_rebalance_latency: if migrations.is_empty() {
            0.0
        } else {
            migrations.iter().map(|m| m.latency).sum::<f64>() / migrations.len() as f64
        },
        shard_events,
        slo_violations,
        tenant_latency: {
            tenant_latency.sort_by_key(|stats| stats.tenant);
            tenant_latency
        },
    };
    for (_, r) in &tenant_reports {
        report.admitted += r.admitted;
        report.rejected += r.rejected;
        report.departed += r.departed;
        report.shed += r.shed;
        report.retry_admitted += r.retry_admitted;
        report.active += r.active;
    }
    if obs {
        registry.counter_add("fleet_slo_violations_total", slo_violations);
        registry.counter_add("fleet_migrations_total", report.migrations);
        registry.gauge_set("fleet_active", report.active as f64);
        registry.gauge_set("fleet_tenants", spec.tenants as f64);
        registry.gauge_set("fleet_shards", spec.shards as f64);
        registry.gauge_set(
            "fleet_mean_rebalance_latency_seconds",
            report.mean_rebalance_latency,
        );
    }
    if let (Some(watch), Some(root)) = (finish_watch, root_span) {
        spans.accumulate(root, "finish", watch.elapsed_seconds());
    }
    if let (Some(watch), Some(root)) = (run_watch, root_span) {
        spans.set_seconds(root, watch.elapsed_seconds());
    }
    Ok(FleetOutcome {
        report,
        epoch_records,
        migrations,
        tenant_reports,
        artifacts,
        recovery,
        quarantines,
        chaos_artifacts: chaos_tel.finish(),
        spans,
        registry,
        postmortems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_conserves_and_migrates() {
        let outcome = run(&FleetSpec::smoke()).unwrap();
        let report = &outcome.report;
        assert!(report.events > 0);
        assert!(report.admitted > 0);
        assert_eq!(
            report.admitted + report.retry_admitted,
            report.active + report.departed + report.shed,
            "fleet-wide conservation"
        );
        for record in &outcome.epoch_records {
            assert!(record.conserved(), "epoch {} conserves", record.epoch);
        }
        assert_eq!(report.epochs as usize, outcome.epoch_records.len());
        assert_eq!(report.events, report.shard_events.iter().sum::<u64>());
    }

    #[test]
    fn same_spec_runs_are_byte_identical() {
        let spec = FleetSpec::smoke();
        let a = run(&spec).unwrap();
        let b = run(&spec).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.epoch_records, b.epoch_records);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.tenant_reports, b.tenant_reports);
        assert_eq!(
            a.artifacts.journal_jsonl(),
            b.artifacts.journal_jsonl(),
            "merged journals byte-identical"
        );
    }

    #[test]
    fn invalid_specs_are_refused() {
        let mut spec = FleetSpec::smoke();
        spec.tenants = 0;
        assert!(matches!(run(&spec), Err(FleetError::InvalidSpec(_))));
        let mut spec = FleetSpec::smoke();
        spec.epoch = 0.0;
        assert!(matches!(run(&spec), Err(FleetError::InvalidSpec(_))));
        let mut spec = FleetSpec::smoke();
        spec.channel_capacity = 0;
        assert!(matches!(run(&spec), Err(FleetError::InvalidSpec(_))));
    }

    #[test]
    fn rebalancing_moves_tenants_without_changing_tenant_outcomes() {
        // The same fleet with handoff disabled: tenants are independent,
        // so per-tenant reports must be identical — migration moves
        // *where* a tenant runs, never *what* it computes.
        let with = run(&FleetSpec::smoke()).unwrap();
        let without = run(&FleetSpec {
            rebalance_every: 0,
            ..FleetSpec::smoke()
        })
        .unwrap();
        assert!(
            with.report.migrations > 0,
            "smoke spec must exercise handoff"
        );
        assert_eq!(without.report.migrations, 0);
        assert_eq!(with.tenant_reports, without.tenant_reports);
    }
}
