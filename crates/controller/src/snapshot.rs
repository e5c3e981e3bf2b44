//! Checkpoint snapshots of a [`Controller`]'s dynamic state.
//!
//! A [`ControllerSnapshot`] captures everything a controller mutates
//! while consuming a churn trace — a clone of the ledger, the active
//! requests, the retry wheel, the counters, the latency integral and
//! sample stream and the cluster's dynamic assignment — but none of the
//! static shape (config, node fleet), which the restoring side already
//! has.
//! [`Controller::restore`] applied to a controller built from the same
//! scenario and config rewinds it bit-for-bit: every subsequent event
//! produces the same outcome, journal record and report as the original
//! would have.
//!
//! Snapshots live in memory only. The fleet's crash recovery keeps them
//! as values and nothing reads a persisted form, so there is no text
//! encoding; a use that needs durable checkpoints brings a codec together
//! with its reader.
//!
//! [`Controller`]: crate::Controller
//! [`Controller::restore`]: crate::Controller::restore

use nfv_model::Request;

use crate::{ControllerReport, ControllerState};

/// Why a snapshot could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The snapshot does not fit the controller it was applied to: it
    /// was taken from another scenario (VNF ids or service rates differ)
    /// or another cluster shape (cluster presence or size differs).
    Mismatch {
        /// What did not match.
        reason: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Mismatch { reason } => {
                write!(f, "snapshot does not fit this controller: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A point-in-time capture of a controller's dynamic state. Produced by
/// [`Controller::checkpoint`] and applied by [`Controller::restore`].
///
/// [`Controller::checkpoint`]: crate::Controller::checkpoint
/// [`Controller::restore`]: crate::Controller::restore
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSnapshot {
    /// Virtual clock at capture time.
    pub(crate) clock: f64,
    /// `∫ L(t) dt` accumulated so far.
    pub(crate) latency_integral: f64,
    /// Predicted latency after the last handled event.
    pub(crate) current_latency: f64,
    /// The counter block, as a report whose derived fields are unused.
    pub(crate) counters: ControllerReport,
    /// `node_downs + node_ups` at the refiner's last quiet-tick check.
    pub(crate) outages_seen: u64,
    /// Latency samples in insertion order.
    pub(crate) latency_samples: Vec<f64>,
    /// The ledger.
    pub(crate) state: ControllerState,
    /// Active requests in ascending id order.
    pub(crate) active: Vec<Request>,
    /// The retry queue's next sequence number.
    pub(crate) retry_seq: u64,
    /// Pending retries in key order as
    /// `(due_bits, entry_seq, attempt, request)`.
    pub(crate) retry_entries: Vec<(u64, u64, u32, Request)>,
    /// Dynamic cluster state `(assignment node ids, node outage
    /// depths)`; `None` when the controller runs without a cluster.
    pub(crate) cluster: Option<(Vec<u32>, Vec<u32>)>,
}
