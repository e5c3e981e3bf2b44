//! Versioned checkpoint snapshots of a [`Controller`]'s dynamic state.
//!
//! A [`ControllerSnapshot`] captures everything a controller mutates
//! while consuming a churn trace — the ledger's member runs and outage
//! depths, the active-request set, the retry wheel, the counters, the
//! latency integrals and sample streams, the archived report snapshots
//! and the cluster's dynamic assignment — but none of the static shape
//! (scenario, config, node fleet), which the restoring side already has.
//! [`Controller::restore`] applied to a controller built from the same
//! scenario and config rewinds it bit-for-bit: every subsequent event
//! produces the same outcome, journal record and report as the original
//! would have.
//!
//! The serialized form is hand-rolled (the vendored `serde` is
//! marker-only): a line-oriented document of
//! flat JSON objects. Line 1 is a versioned header carrying the section
//! lengths, so the parser is strictly positional; floats that must
//! round-trip bit-exactly travel either through the journal's
//! shortest-round-trip formatting (scalars) or as hexadecimal IEEE-754
//! bit patterns (sample streams and rate fields). Unknown versions and
//! shape mismatches are refused with a typed [`SnapshotError`], never a
//! panic — a corrupt checkpoint must degrade gracefully.
//!
//! [`Controller`]: crate::Controller
//! [`Controller::restore`]: crate::Controller::restore

use std::fmt::Write as _;

use nfv_model::{ArrivalRate, DeliveryProbability, Request, RequestId, ServiceChain, VnfId};
use nfv_telemetry::json::{self, JsonObject, JsonValue};

use crate::ledger::SlabExport;
use crate::ControllerReport;

/// Format version written by [`ControllerSnapshot::to_jsonl`]; decoding
/// refuses any other version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The document declares a version this build does not understand.
    UnsupportedVersion {
        /// The version the document declared.
        found: u64,
    },
    /// A line of the document failed to parse.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What the decoder objected to.
        reason: &'static str,
    },
    /// The decoded snapshot does not fit the controller it was applied
    /// to (different scenario shape, cluster presence, or counter set).
    Mismatch {
        /// What did not match.
        reason: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            Self::Malformed { line, reason } => {
                write!(f, "malformed snapshot at line {line}: {reason}")
            }
            Self::Mismatch { reason } => {
                write!(f, "snapshot does not fit this controller: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A point-in-time capture of a controller's dynamic state. Produced by
/// [`Controller::checkpoint`], applied by [`Controller::restore`], and
/// (de)serialized by [`to_jsonl`](Self::to_jsonl) /
/// [`from_jsonl`](Self::from_jsonl).
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
    /// The counter block as `(name, value)` pairs in declaration order;
    /// restore refuses a pair set that does not exactly match the
    /// build's counter names (the versioning story for counters).
    pub(crate) counters: Vec<(String, u64)>,
    /// Latency samples in insertion order.
    pub(crate) latency_samples: Vec<f64>,
    /// Utilization samples in insertion order.
    pub(crate) utilization_samples: Vec<f64>,
    /// Archived per-tick report snapshots.
    pub(crate) reports: Vec<ControllerReport>,
    /// The ledger's dynamic state per VNF.
    pub(crate) slabs: Vec<SlabExport>,
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

impl ControllerSnapshot {
    /// Serializes the snapshot as a line-oriented JSON document (see the
    /// module docs for the format).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut push = |line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        let mut header = JsonObject::new();
        header
            .field_u64("snapshot_version", u64::from(SNAPSHOT_VERSION))
            .field_f64("clock", self.clock)
            .field_f64("latency_integral", self.latency_integral)
            .field_f64("current_latency", self.current_latency)
            .field_u64("retry_seq", self.retry_seq)
            .field_u64("latency_samples", self.latency_samples.len() as u64)
            .field_u64("utilization_samples", self.utilization_samples.len() as u64)
            .field_u64("reports", self.reports.len() as u64)
            .field_u64("slabs", self.slabs.len() as u64)
            .field_u64("active", self.active.len() as u64)
            .field_u64("retry_entries", self.retry_entries.len() as u64)
            .field_u64("cluster", u64::from(self.cluster.is_some()));
        push(header.finish());

        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters.field_u64(name, *value);
        }
        push(counters.finish());

        let mut latency = JsonObject::new();
        latency.field_str("bits", &bits_list(&self.latency_samples));
        push(latency.finish());
        let mut utilization = JsonObject::new();
        utilization.field_str("bits", &bits_list(&self.utilization_samples));
        push(utilization.finish());

        for report in &self.reports {
            push(report.to_json());
        }
        for slab in &self.slabs {
            let mut obj = JsonObject::new();
            obj.field_u64("vnf", u64::from(slab.vnf))
                .field_u64("host_down", u64::from(slab.host_down))
                .field_str("down", &u32_list(&slab.down))
                .field_str("members", &member_runs(&slab.members));
            push(obj.finish());
        }
        for request in &self.active {
            push(request_line(request, None));
        }
        for (due_bits, seq, attempt, request) in &self.retry_entries {
            push(request_line(request, Some((*due_bits, *seq, *attempt))));
        }
        if let Some((assignment, node_down)) = &self.cluster {
            let mut obj = JsonObject::new();
            obj.field_str("assignment", &u32_list(assignment))
                .field_str("node_down", &u32_list(node_down));
            push(obj.finish());
        }
        out
    }

    /// Decodes a document produced by [`to_jsonl`](Self::to_jsonl).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for a foreign version,
    /// [`SnapshotError::Malformed`] (with the 1-based line number) for
    /// anything that fails to parse or carries an out-of-domain value.
    pub fn from_jsonl(document: &str) -> Result<Self, SnapshotError> {
        let mut lines = document.lines().enumerate();
        let mut next = |section: &'static str| -> Result<(usize, &str), SnapshotError> {
            let _ = section;
            lines
                .next()
                .map(|(at, line)| (at + 1, line))
                .ok_or(SnapshotError::Malformed {
                    line: 0,
                    reason: "document truncated",
                })
        };
        let parse = |at: usize, line: &str| -> Result<Vec<(String, JsonValue)>, SnapshotError> {
            json::parse_object(line).map_err(|_| SnapshotError::Malformed {
                line: at,
                reason: "invalid JSON object",
            })
        };

        let (at, line) = next("header")?;
        let header = parse(at, line)?;
        let header_u64 = |key: &'static str| {
            json::get_u64(&header, key).ok_or(SnapshotError::Malformed {
                line: at,
                reason: "missing header integer",
            })
        };
        let header_f64 = |key: &'static str| {
            json::get_f64(&header, key).ok_or(SnapshotError::Malformed {
                line: at,
                reason: "missing header float",
            })
        };
        let version = header_u64("snapshot_version")?;
        if version != u64::from(SNAPSHOT_VERSION) {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let clock = header_f64("clock")?;
        let latency_integral = header_f64("latency_integral")?;
        let current_latency = header_f64("current_latency")?;
        let retry_seq = header_u64("retry_seq")?;
        let count = |key: &'static str| -> Result<usize, SnapshotError> {
            usize::try_from(header_u64(key)?).map_err(|_| SnapshotError::Malformed {
                line: at,
                reason: "section length overflows usize",
            })
        };
        let n_latency = count("latency_samples")?;
        let n_utilization = count("utilization_samples")?;
        let n_reports = count("reports")?;
        let n_slabs = count("slabs")?;
        let n_active = count("active")?;
        let n_retry = count("retry_entries")?;
        let has_cluster = header_u64("cluster")? != 0;

        let (at, line) = next("counters")?;
        let counters = parse(at, line)?
            .into_iter()
            .map(|(key, value)| match value {
                JsonValue::Raw(raw) => {
                    raw.parse::<u64>()
                        .map(|v| (key, v))
                        .map_err(|_| SnapshotError::Malformed {
                            line: at,
                            reason: "counter value is not a u64",
                        })
                }
                JsonValue::Str(_) => Err(SnapshotError::Malformed {
                    line: at,
                    reason: "counter value is not a u64",
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut samples = |expected: usize| -> Result<Vec<f64>, SnapshotError> {
            let (at, line) = next("samples")?;
            let fields = parse(at, line)?;
            let bits = json::get_str(&fields, "bits").ok_or(SnapshotError::Malformed {
                line: at,
                reason: "missing sample bits",
            })?;
            let values = parse_bits_list(bits)
                .map_err(|reason| SnapshotError::Malformed { line: at, reason })?;
            if values.len() != expected {
                return Err(SnapshotError::Malformed {
                    line: at,
                    reason: "sample count disagrees with header",
                });
            }
            Ok(values)
        };
        let latency_samples = samples(n_latency)?;
        let utilization_samples = samples(n_utilization)?;

        let mut reports = Vec::with_capacity(n_reports);
        for _ in 0..n_reports {
            let (at, line) = next("report")?;
            reports.push(ControllerReport::from_json(line).map_err(|_| {
                SnapshotError::Malformed {
                    line: at,
                    reason: "invalid report line",
                }
            })?);
        }

        let mut slabs = Vec::with_capacity(n_slabs);
        for _ in 0..n_slabs {
            let (at, line) = next("slab")?;
            let fields = parse(at, line)?;
            let bad = |reason| SnapshotError::Malformed { line: at, reason };
            let vnf = json::get_u64(&fields, "vnf")
                .and_then(|v| u32::try_from(v).ok())
                .ok_or(bad("missing slab vnf id"))?;
            let host_down = json::get_u64(&fields, "host_down").ok_or(bad("missing host_down"))?;
            let down =
                parse_u32_list(json::get_str(&fields, "down").ok_or(bad("missing down depths"))?)
                    .map_err(bad)?;
            let members = parse_member_runs(
                json::get_str(&fields, "members").ok_or(bad("missing member runs"))?,
            )
            .map_err(bad)?;
            slabs.push(SlabExport {
                vnf,
                down,
                host_down: host_down != 0,
                members,
            });
        }

        let mut active = Vec::with_capacity(n_active);
        for _ in 0..n_active {
            let (at, line) = next("active request")?;
            let (request, key) = parse_request_line(at, &parse(at, line)?)?;
            if key.is_some() {
                return Err(SnapshotError::Malformed {
                    line: at,
                    reason: "active request carries retry keys",
                });
            }
            active.push(request);
        }

        let mut retry_entries = Vec::with_capacity(n_retry);
        for _ in 0..n_retry {
            let (at, line) = next("retry entry")?;
            let (request, key) = parse_request_line(at, &parse(at, line)?)?;
            let (due_bits, seq, attempt) = key.ok_or(SnapshotError::Malformed {
                line: at,
                reason: "retry entry misses its wheel key",
            })?;
            retry_entries.push((due_bits, seq, attempt, request));
        }

        let cluster = if has_cluster {
            let (at, line) = next("cluster")?;
            let fields = parse(at, line)?;
            let bad = |reason| SnapshotError::Malformed { line: at, reason };
            let assignment = parse_u32_list(
                json::get_str(&fields, "assignment").ok_or(bad("missing assignment"))?,
            )
            .map_err(bad)?;
            let node_down = parse_u32_list(
                json::get_str(&fields, "node_down").ok_or(bad("missing node_down depths"))?,
            )
            .map_err(bad)?;
            Some((assignment, node_down))
        } else {
            None
        };

        if lines.next().is_some() {
            return Err(SnapshotError::Malformed {
                line: 0,
                reason: "trailing lines after the declared sections",
            });
        }

        Ok(Self {
            clock,
            latency_integral,
            current_latency,
            counters,
            latency_samples,
            utilization_samples,
            reports,
            slabs,
            active,
            retry_seq,
            retry_entries,
            cluster,
        })
    }
}

/// Finite floats as space-separated hexadecimal IEEE-754 bit patterns —
/// exact by construction, no text-float round-trip involved.
fn bits_list(values: &[f64]) -> String {
    let mut out = String::new();
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{:x}", value.to_bits());
    }
    out
}

fn parse_bits_list(text: &str) -> Result<Vec<f64>, &'static str> {
    text.split_ascii_whitespace()
        .map(|word| {
            u64::from_str_radix(word, 16)
                .map(f64::from_bits)
                .map_err(|_| "invalid sample bit pattern")
        })
        .collect()
}

fn u32_list(values: &[u32]) -> String {
    let mut out = String::new();
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{value}");
    }
    out
}

fn parse_u32_list(text: &str) -> Result<Vec<u32>, &'static str> {
    text.split_ascii_whitespace()
        .map(|word| word.parse::<u32>().map_err(|_| "invalid u32 list entry"))
        .collect()
}

/// Per-instance member runs: runs joined by `;`, members within a run by
/// spaces, one member as `id:rate_bits:delivery_bits` (bits hexadecimal).
fn member_runs(runs: &[Vec<(u32, f64, f64)>]) -> String {
    let mut out = String::new();
    for (k, run) in runs.iter().enumerate() {
        if k > 0 {
            out.push(';');
        }
        for (i, (id, rate, delivery)) in run.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{id}:{:x}:{:x}", rate.to_bits(), delivery.to_bits());
        }
    }
    out
}

/// One decoded ledger run: `(request id, rate bits, delivery bits)` per
/// member, in ledger order.
type MemberRun = Vec<(u32, f64, f64)>;

fn parse_member_runs(text: &str) -> Result<Vec<MemberRun>, &'static str> {
    text.split(';')
        .map(|run| {
            run.split_ascii_whitespace()
                .map(|member| {
                    let mut parts = member.split(':');
                    let id = parts
                        .next()
                        .and_then(|p| p.parse::<u32>().ok())
                        .ok_or("invalid member id")?;
                    let rate = parts
                        .next()
                        .and_then(|p| u64::from_str_radix(p, 16).ok())
                        .map(f64::from_bits)
                        .ok_or("invalid member rate bits")?;
                    let delivery = parts
                        .next()
                        .and_then(|p| u64::from_str_radix(p, 16).ok())
                        .map(f64::from_bits)
                        .ok_or("invalid member delivery bits")?;
                    if parts.next().is_some() {
                        return Err("trailing member fields");
                    }
                    Ok((id, rate, delivery))
                })
                .collect()
        })
        .collect()
}

/// One request as a flat object; retry entries append their wheel key.
fn request_line(request: &Request, key: Option<(u64, u64, u32)>) -> String {
    let mut chain = String::new();
    for (i, vnf) in request.chain().as_slice().iter().enumerate() {
        if i > 0 {
            chain.push(' ');
        }
        let _ = write!(chain, "{}", vnf.index());
    }
    let mut obj = JsonObject::new();
    obj.field_u64("id", u64::from(request.id().index()))
        .field_u64("rate_bits", request.arrival_rate().value().to_bits())
        .field_u64("delivery_bits", request.delivery().value().to_bits())
        .field_str("chain", &chain);
    if let Some((due_bits, seq, attempt)) = key {
        obj.field_u64("due_bits", due_bits)
            .field_u64("entry_seq", seq)
            .field_u64("attempt", u64::from(attempt));
    }
    obj.finish()
}

type ParsedRequest = (Request, Option<(u64, u64, u32)>);

fn parse_request_line(
    at: usize,
    fields: &[(String, JsonValue)],
) -> Result<ParsedRequest, SnapshotError> {
    let bad = |reason| SnapshotError::Malformed { line: at, reason };
    let id = json::get_u64(fields, "id")
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(bad("missing request id"))?;
    let rate = ArrivalRate::new(f64::from_bits(
        json::get_u64(fields, "rate_bits").ok_or(bad("missing rate bits"))?,
    ))
    .map_err(|_| bad("request rate out of domain"))?;
    let delivery = DeliveryProbability::new(f64::from_bits(
        json::get_u64(fields, "delivery_bits").ok_or(bad("missing delivery bits"))?,
    ))
    .map_err(|_| bad("request delivery out of domain"))?;
    let chain = json::get_str(fields, "chain")
        .ok_or(bad("missing chain"))?
        .split_ascii_whitespace()
        .map(|word| word.parse::<u32>().map(VnfId::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| bad("invalid chain entry"))?;
    let chain = ServiceChain::new(chain).map_err(|_| bad("invalid service chain"))?;
    let request = Request::new(RequestId::new(id), chain, rate, delivery);
    let key = match (
        json::get_u64(fields, "due_bits"),
        json::get_u64(fields, "entry_seq"),
        json::get_u64(fields, "attempt"),
    ) {
        (Some(due_bits), Some(seq), Some(attempt)) => Some((
            due_bits,
            seq,
            u32::try_from(attempt).map_err(|_| bad("attempt overflows u32"))?,
        )),
        (None, None, None) => None,
        _ => return Err(bad("partial retry wheel key")),
    };
    Ok((request, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ControllerSnapshot {
        let chain = ServiceChain::new(vec![VnfId::new(0), VnfId::new(2)]).unwrap();
        let request = |id: u32| {
            Request::new(
                RequestId::new(id),
                chain.clone(),
                ArrivalRate::new(0.1 + f64::from(id)).unwrap(),
                DeliveryProbability::new(0.97).unwrap(),
            )
        };
        ControllerSnapshot {
            clock: 12.75,
            latency_integral: 1.0 / 3.0,
            current_latency: 0.125,
            counters: vec![("admitted".into(), 7), ("rejected".into(), 2)],
            latency_samples: vec![0.1, 1.0 / 7.0, 3e-9],
            utilization_samples: vec![0.5],
            reports: vec![ControllerReport {
                time: 1.0,
                admitted: 1,
                rejected: 0,
                departed: 0,
                shed: 0,
                migrated_failover: 0,
                migrated_reopt: 0,
                migrated_replace: 0,
                ticks: 1,
                reopts_applied: 0,
                reopts_skipped: 1,
                instances_added: 0,
                instances_retired: 0,
                relocations: 0,
                replaces_applied: 0,
                replaces_aborted: 0,
                node_downs: 0,
                node_ups: 0,
                stale_outage_events: 0,
                emergency_replaces: 0,
                retries_attempted: 0,
                retry_admitted: 0,
                retry_abandoned: 0,
                refines_applied: 0,
                refines_rejected: 0,
                retry_pending: 0,
                active: 1,
                mean_latency: 0.25,
                current_latency: 0.25,
                peak_utilization: 0.5,
            }],
            slabs: vec![
                SlabExport {
                    vnf: 0,
                    down: vec![0, 2],
                    host_down: false,
                    members: vec![vec![(1, 1.1, 0.97), (4, 2.3, 1.0)], vec![]],
                },
                SlabExport {
                    vnf: 2,
                    down: vec![0],
                    host_down: true,
                    members: vec![vec![(1, 1.1, 0.97)]],
                },
            ],
            active: vec![request(1), request(4)],
            retry_seq: 9,
            retry_entries: vec![(3.5f64.to_bits(), 2, 1, request(6))],
            cluster: Some((vec![0, 1, 0], vec![0, 3, 0])),
        }
    }

    #[test]
    fn jsonl_round_trips_bit_for_bit() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_jsonl();
        let decoded = ControllerSnapshot::from_jsonl(&text).unwrap();
        assert_eq!(decoded, snapshot);
        // Bit-exactness of the float carriers, explicitly.
        for (a, b) in decoded
            .latency_samples
            .iter()
            .zip(&snapshot.latency_samples)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.to_jsonl(), text, "re-encoding is stable");
    }

    #[test]
    fn cluster_free_snapshot_round_trips() {
        let mut snapshot = sample_snapshot();
        snapshot.cluster = None;
        snapshot.retry_entries.clear();
        let decoded = ControllerSnapshot::from_jsonl(&snapshot.to_jsonl()).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn foreign_versions_and_corruption_are_typed_errors() {
        let snapshot = sample_snapshot();
        let text = snapshot.to_jsonl();
        let bumped = text.replacen("\"snapshot_version\":1", "\"snapshot_version\":99", 1);
        assert_eq!(
            ControllerSnapshot::from_jsonl(&bumped),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
        let truncated: String = text
            .lines()
            .take(3)
            .flat_map(|l| [l, "\n"])
            .collect::<String>();
        assert!(matches!(
            ControllerSnapshot::from_jsonl(&truncated),
            Err(SnapshotError::Malformed { .. })
        ));
        let trailing = format!("{text}{{}}\n");
        assert!(matches!(
            ControllerSnapshot::from_jsonl(&trailing),
            Err(SnapshotError::Malformed { .. })
        ));
        let garbled = text.replacen("\"bits\":\"", "\"bits\":\"zz ", 1);
        assert!(matches!(
            ControllerSnapshot::from_jsonl(&garbled),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
