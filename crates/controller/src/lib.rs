//! An online NFV control plane: churn-driven dispatch, admission control,
//! and bounded re-optimization.
//!
//! The offline pipeline (`nfv-placement` + `nfv-scheduling`) answers "given
//! this request set, what is the best placement and schedule?". This crate
//! answers the operational question that follows: how to *keep* a good
//! assignment while requests arrive and depart and instances fail, without
//! ever overloading an instance and without re-shuffling the whole data
//! plane on every event.
//!
//! The moving parts:
//!
//! - [`ControllerState`] — a load ledger tracking, per VNF instance, the
//!   Kleinrock-merged loss-inflated arrival rate (Eq. (7) of the paper)
//!   with incremental `add_request` / `remove_request` / `move_request`
//!   updates that restore sums bit-for-bit.
//! - [`Controller`] — the event loop. Arrivals are dispatched to the
//!   least-loaded *up* instance of each chain hop, refused (with a typed
//!   [`RejectReason`]) if any hop would be driven to `ρ ≥ 1`; a
//!   configurable [`ShedPolicy`] can instead evict a larger request to
//!   make room. Instance outages trigger failover; periodic
//!   [`ReoptimizeTick`](nfv_workload::churn::ChurnEvent::ReoptimizeTick)
//!   events re-run the paper's RCKK scheduler on the live request set and
//!   apply a migration plan bounded by [`ReoptConfig`] (hysteresis on the
//!   predicted latency gain, per-tick migration budget). When the
//!   controller knows the physical cluster
//!   ([`Controller::with_cluster`]), a [`ReplaceConfig`] additionally
//!   enables a *re-placement* phase on each tick: per-VNF instance-count
//!   targets are derived from the live rates by a ρ-headroom rule, and a
//!   bounded incremental BFDSU pass may add, retire, or relocate at most
//!   `K` instances per tick, gated by a hysteresis on the relative gain
//!   in balanced predicted latency.
//! - Node-level failure domains — a
//!   [`NodeDown`](nfv_workload::churn::ChurnEvent::NodeDown) takes down
//!   every instance of every VNF the node hosts at once (the ledger tracks
//!   per-instance outage *depth* plus a whole-VNF `host_down` flag, so
//!   overlapping outages recover correctly). An [`EmergencyConfig`]
//!   triggers immediate out-of-tick re-placement over the surviving nodes;
//!   a [`RetryConfig`] re-offers shed and rejected arrivals with
//!   deterministic exponential backoff + jitter; and while any node is
//!   dark a brownout admission mode tightens the acceptance threshold.
//! - Background refinement — a [`RefinerConfig`] runs a bounded anytime
//!   metaheuristic search (`nfv-search`, GA or PSO) over the VNF→node
//!   mapping on *quiet* ticks (no node dark, no outage since the last
//!   tick), warm-started from the live assignment; a searched plan is
//!   bounded to a relocation budget and gated on its relative objective
//!   gain over the live assignment.
//! - [`ControllerReport`] — counters and derived statistics snapshotted in
//!   virtual time for observability.
//!
//! Everything is deterministic: the controller is driven purely by the
//! trace's virtual clock and never consults wall-clock time or ambient
//! randomness, so two same-seed runs produce identical reports.
//!
//! Plans and commits: a tick runs its three phases in order —
//! re-placement, scheduling, refiner — and each is a planner that reads
//! the live state and returns a verdict: nothing to do, a declined plan
//! (cause slug, predicted gain, the phase's `min_gain`), or a plan that
//! passed its gate. The tick counts and journals every decline
//! (`ReoptRejected`) in one place and hands every plan to one private
//! `commit`, the only code that adopts a previewed ledger or a new
//! VNF→node assignment: it recomputes host availability, adds the plan's
//! counts, bumps the phase's applied counter and journals one
//! `ReoptCommit`. The emergency re-placement commits through the same
//! `commit` without a phase and journals its own `EmergencyReplace`.
//!
//! Ingestion: every entry point — [`Controller::handle`],
//! [`Controller::handle_traced`], the owned [`Controller::ingest`],
//! [`Controller::run_stream`] and the batched
//! [`Controller::run_stream_batched`] /
//! [`Controller::run_stream_batched_traced`] — is a thin wrapper over one
//! private event core, and [`Controller::finish_traced`] closes a run.
//!
//! Observability: the core threads an `nfv_telemetry::Telemetry` session
//! through the loop. Telemetry is a strict observer — an entry point
//! called with `Telemetry::disabled()` is exactly its untraced twin, and
//! enabled telemetry never changes a decision, draws randomness, or
//! advances virtual time, so results are bit-identical with telemetry on
//! or off (pinned by the thread-invariance tests in `nfv-core`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
mod config;
mod controller;
mod error;
mod ledger;
mod report;
mod retry;
mod snapshot;
mod wheel;

pub use config::{
    ControllerConfig, EmergencyConfig, RefinerConfig, RejectReason, ReoptConfig, ReplaceConfig,
    RetryConfig, ShedPolicy,
};
pub use controller::{Controller, EventOutcome};
pub use error::ControllerError;
pub use ledger::ControllerState;
pub use report::ControllerReport;
pub use retry::RetryRefusal;
pub use snapshot::{ControllerSnapshot, SnapshotError};
