//! Typed journal records.

use serde::{Deserialize, Serialize};

use nfv_model::{NodeId, RequestId, VnfId};

use crate::json::{self, JsonError, JsonObject};

/// Which controller tick phase a re-optimization record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReoptPhase {
    /// The re-placement phase (instance adds/retirements/relocations via
    /// bounded BFDSU).
    Replacement,
    /// The scheduling phase (request migrations via RCKK).
    Scheduling,
    /// The background refiner phase (searcher-found relocations applied
    /// during quiet ticks).
    Refiner,
}

impl ReoptPhase {
    /// Stable journal name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Replacement => "replacement",
            Self::Scheduling => "scheduling",
            Self::Refiner => "refiner",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "replacement" => Some(Self::Replacement),
            "scheduling" => Some(Self::Scheduling),
            "refiner" => Some(Self::Refiner),
            _ => None,
        }
    }
}

/// What happened, with the ids and magnitudes needed to reconstruct the
/// episode afterwards. Cause fields are short stable slugs (e.g.
/// `"node-down"`, `"would-overload"`, `"hysteresis"`), not prose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EventKind {
    /// An arrival (or base-population request) was admitted.
    Admit {
        /// The admitted request.
        request: RequestId,
        /// Chain hops placed.
        hops: u64,
    },
    /// An arrival was refused by admission control.
    Reject {
        /// The refused request.
        request: RequestId,
        /// Why (the `RejectReason` slug).
        cause: String,
    },
    /// An active request was dropped (eviction, failed failover, or a
    /// node outage).
    Shed {
        /// The dropped request.
        request: RequestId,
        /// Why it was dropped.
        cause: String,
    },
    /// A refused/shed request was queued for a backoff re-offer.
    RetryScheduled {
        /// The queued request.
        request: RequestId,
        /// 0-based attempt number of the scheduled re-offer.
        attempt: u64,
        /// Virtual due time of the re-offer.
        due: f64,
    },
    /// A queued re-offer succeeded.
    RetryAdmitted {
        /// The re-admitted request.
        request: RequestId,
        /// 0-based attempt number that succeeded.
        attempt: u64,
    },
    /// A request ran out of retry budget (or found the queue full) and is
    /// lost for good.
    RetryAbandoned {
        /// The abandoned request.
        request: RequestId,
        /// Why (the `RetryRefusal` slug).
        cause: String,
    },
    /// One instance went down and its requests were failed over or shed.
    InstanceDown {
        /// The VNF owning the instance.
        vnf: VnfId,
        /// Zero-based instance slot.
        slot: u64,
        /// Requests moved to surviving siblings.
        migrated: u64,
        /// Requests shed because nothing could hold them.
        shed: u64,
    },
    /// One instance came back up.
    InstanceUp {
        /// The VNF owning the instance.
        vnf: VnfId,
        /// Zero-based instance slot.
        slot: u64,
    },
    /// A whole node went dark.
    NodeDown {
        /// The failed node.
        node: NodeId,
        /// VNFs that lost all instances at once.
        vnfs_lost: u64,
        /// Requests shed (each once, however many lost hops).
        shed: u64,
    },
    /// A dark node returned to service.
    NodeUp {
        /// The recovered node.
        node: NodeId,
        /// VNFs still assigned to it that became dispatchable again.
        vnfs_restored: u64,
    },
    /// An out-of-tick emergency re-placement ran after a node failure.
    EmergencyReplace {
        /// The node whose failure triggered it.
        node: NodeId,
        /// Replacement instances added.
        instances_added: u64,
        /// VNFs relocated onto surviving nodes.
        relocations: u64,
    },
    /// A tick phase committed its (bounded) plan.
    ReoptCommit {
        /// Which tick phase.
        phase: ReoptPhase,
        /// Requests moved.
        migrations: u64,
        /// Instances added.
        instances_added: u64,
        /// Instances retired.
        instances_retired: u64,
        /// Instances relocated.
        relocations: u64,
        /// Relative gain the plan's gate measured: in predicted latency
        /// (scheduling), balanced predicted latency (re-placement; 0 for a
        /// pure shrink, which bypasses the gate) or the placement
        /// objective (refiner).
        predicted_gain: f64,
        /// The gate's gain again, until a counterfactual audit measures
        /// what the commit bought.
        realized_gain: f64,
    },
    /// A tick phase computed a plan and threw it away.
    ReoptRejected {
        /// Which tick phase.
        phase: ReoptPhase,
        /// Why: `"hysteresis"`, `"empty-plan"`, `"no-improvement"`, or
        /// `"invalid-plan"` when the ledger refused a planned step.
        cause: String,
        /// Relative gain the plan promised, as in `ReoptCommit` (an
        /// objective gain for the refiner); 0 when no gate ran.
        predicted_gain: f64,
        /// The phase's hysteresis threshold (`min_gain`).
        required_gain: f64,
    },
    /// A fleet supervisor checkpointed one shard at an epoch boundary.
    CheckpointTaken {
        /// The checkpointed shard.
        shard: u64,
        /// Tenants captured in the checkpoint.
        tenants: u64,
    },
    /// The chaos harness injected one control-plane fault.
    FaultInjected {
        /// The fault-kind slug (e.g. `"shard-panic"`, `"channel-drop"`).
        cause: String,
        /// The shard the fault landed on.
        shard: u64,
        /// The tenant the fault targeted (the shard's first tenant for
        /// shard-wide faults).
        tenant: u64,
    },
    /// A faulted shard was restored from its epoch checkpoint and caught
    /// up by replaying the epoch's pumped events.
    ShardRestored {
        /// The restored shard.
        shard: u64,
        /// Events replayed to catch the shard up.
        replayed: u64,
    },
    /// A tenant whose state could not be recovered was retired from the
    /// fleet with its last checkpointed counters frozen into the totals.
    TenantQuarantined {
        /// The retired tenant.
        tenant: u64,
        /// Why recovery was impossible (e.g. `"corrupt-checkpoint"`).
        cause: String,
    },
}

impl EventKind {
    /// Stable journal/CSV label of the variant.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Admit { .. } => "Admit",
            Self::Reject { .. } => "Reject",
            Self::Shed { .. } => "Shed",
            Self::RetryScheduled { .. } => "RetryScheduled",
            Self::RetryAdmitted { .. } => "RetryAdmitted",
            Self::RetryAbandoned { .. } => "RetryAbandoned",
            Self::InstanceDown { .. } => "InstanceDown",
            Self::InstanceUp { .. } => "InstanceUp",
            Self::NodeDown { .. } => "NodeDown",
            Self::NodeUp { .. } => "NodeUp",
            Self::EmergencyReplace { .. } => "EmergencyReplace",
            Self::ReoptCommit { .. } => "ReoptCommit",
            Self::ReoptRejected { .. } => "ReoptRejected",
            Self::CheckpointTaken { .. } => "CheckpointTaken",
            Self::FaultInjected { .. } => "FaultInjected",
            Self::ShardRestored { .. } => "ShardRestored",
            Self::TenantQuarantined { .. } => "TenantQuarantined",
        }
    }
}

/// One journal record: a sequence number (journal order), the virtual
/// time and tick count at emission, and the typed payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Position in the journal (0-based, dense).
    pub seq: u64,
    /// Virtual time of the emission, seconds.
    pub time: f64,
    /// Re-optimization ticks observed when the record was emitted.
    pub tick: u64,
    /// The typed payload.
    pub kind: EventKind,
}

/// Header of the CSV journal shape (one row per event, fixed columns;
/// inapplicable columns stay empty, extra magnitudes go to `Detail`).
pub const CSV_HEADER: &str = "Event,Time,Tick,Request,Vnf,Instance,Node,Cause,Detail";

impl TraceEvent {
    /// Encodes the record as one flat JSON object (one journal line).
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("event", self.kind.label())
            .field_u64("seq", self.seq)
            .field_f64("time", self.time)
            .field_u64("tick", self.tick);
        match &self.kind {
            EventKind::Admit { request, hops } => {
                obj.field_u64("request", u64::from(request.index()))
                    .field_u64("hops", *hops);
            }
            EventKind::Reject { request, cause } | EventKind::Shed { request, cause } => {
                obj.field_u64("request", u64::from(request.index()))
                    .field_str("cause", cause);
            }
            EventKind::RetryScheduled {
                request,
                attempt,
                due,
            } => {
                obj.field_u64("request", u64::from(request.index()))
                    .field_u64("attempt", *attempt)
                    .field_f64("due", *due);
            }
            EventKind::RetryAdmitted { request, attempt } => {
                obj.field_u64("request", u64::from(request.index()))
                    .field_u64("attempt", *attempt);
            }
            EventKind::RetryAbandoned { request, cause } => {
                obj.field_u64("request", u64::from(request.index()))
                    .field_str("cause", cause);
            }
            EventKind::InstanceDown {
                vnf,
                slot,
                migrated,
                shed,
            } => {
                obj.field_u64("vnf", u64::from(vnf.index()))
                    .field_u64("slot", *slot)
                    .field_u64("migrated", *migrated)
                    .field_u64("shed", *shed);
            }
            EventKind::InstanceUp { vnf, slot } => {
                obj.field_u64("vnf", u64::from(vnf.index()))
                    .field_u64("slot", *slot);
            }
            EventKind::NodeDown {
                node,
                vnfs_lost,
                shed,
            } => {
                obj.field_u64("node", u64::from(node.index()))
                    .field_u64("vnfs_lost", *vnfs_lost)
                    .field_u64("shed", *shed);
            }
            EventKind::NodeUp {
                node,
                vnfs_restored,
            } => {
                obj.field_u64("node", u64::from(node.index()))
                    .field_u64("vnfs_restored", *vnfs_restored);
            }
            EventKind::EmergencyReplace {
                node,
                instances_added,
                relocations,
            } => {
                obj.field_u64("node", u64::from(node.index()))
                    .field_u64("instances_added", *instances_added)
                    .field_u64("relocations", *relocations);
            }
            EventKind::ReoptCommit {
                phase,
                migrations,
                instances_added,
                instances_retired,
                relocations,
                predicted_gain,
                realized_gain,
            } => {
                obj.field_str("phase", phase.name())
                    .field_u64("migrations", *migrations)
                    .field_u64("instances_added", *instances_added)
                    .field_u64("instances_retired", *instances_retired)
                    .field_u64("relocations", *relocations)
                    .field_f64("predicted_gain", *predicted_gain)
                    .field_f64("realized_gain", *realized_gain);
            }
            EventKind::ReoptRejected {
                phase,
                cause,
                predicted_gain,
                required_gain,
            } => {
                obj.field_str("phase", phase.name())
                    .field_str("cause", cause)
                    .field_f64("predicted_gain", *predicted_gain)
                    .field_f64("required_gain", *required_gain);
            }
            EventKind::CheckpointTaken { shard, tenants } => {
                obj.field_u64("shard", *shard)
                    .field_u64("tenants", *tenants);
            }
            EventKind::FaultInjected {
                cause,
                shard,
                tenant,
            } => {
                obj.field_str("cause", cause)
                    .field_u64("shard", *shard)
                    .field_u64("tenant", *tenant);
            }
            EventKind::ShardRestored { shard, replayed } => {
                obj.field_u64("shard", *shard)
                    .field_u64("replayed", *replayed);
            }
            EventKind::TenantQuarantined { tenant, cause } => {
                obj.field_u64("tenant", *tenant).field_str("cause", cause);
            }
        }
        obj.finish()
    }

    /// Decodes one journal line.
    ///
    /// # Errors
    ///
    /// [`JsonError`] when the line is malformed or misses a field the
    /// labelled variant requires.
    #[allow(clippy::too_many_lines)]
    pub fn from_json(line: &str) -> Result<Self, JsonError> {
        let fields = json::parse_object(line)?;
        let missing = |message| JsonError { message, at: 0 };
        let str_of = |key| {
            json::get_str(&fields, key)
                .map(String::from)
                .ok_or(missing("missing string field"))
        };
        let u64_of = |key| json::get_u64(&fields, key).ok_or(missing("missing integer field"));
        let f64_of = |key| json::get_f64(&fields, key).ok_or(missing("missing float field"));
        let id_u32 = |key| {
            u64_of(key).and_then(|v| u32::try_from(v).map_err(|_| missing("id out of range")))
        };
        let phase_of = || {
            json::get_str(&fields, "phase")
                .and_then(ReoptPhase::from_name)
                .ok_or(missing("missing or unknown phase"))
        };
        let label = json::get_str(&fields, "event").ok_or(missing("missing event label"))?;
        let kind = match label {
            "Admit" => EventKind::Admit {
                request: RequestId::new(id_u32("request")?),
                hops: u64_of("hops")?,
            },
            "Reject" => EventKind::Reject {
                request: RequestId::new(id_u32("request")?),
                cause: str_of("cause")?,
            },
            "Shed" => EventKind::Shed {
                request: RequestId::new(id_u32("request")?),
                cause: str_of("cause")?,
            },
            "RetryScheduled" => EventKind::RetryScheduled {
                request: RequestId::new(id_u32("request")?),
                attempt: u64_of("attempt")?,
                due: f64_of("due")?,
            },
            "RetryAdmitted" => EventKind::RetryAdmitted {
                request: RequestId::new(id_u32("request")?),
                attempt: u64_of("attempt")?,
            },
            "RetryAbandoned" => EventKind::RetryAbandoned {
                request: RequestId::new(id_u32("request")?),
                cause: str_of("cause")?,
            },
            "InstanceDown" => EventKind::InstanceDown {
                vnf: VnfId::new(id_u32("vnf")?),
                slot: u64_of("slot")?,
                migrated: u64_of("migrated")?,
                shed: u64_of("shed")?,
            },
            "InstanceUp" => EventKind::InstanceUp {
                vnf: VnfId::new(id_u32("vnf")?),
                slot: u64_of("slot")?,
            },
            "NodeDown" => EventKind::NodeDown {
                node: NodeId::new(id_u32("node")?),
                vnfs_lost: u64_of("vnfs_lost")?,
                shed: u64_of("shed")?,
            },
            "NodeUp" => EventKind::NodeUp {
                node: NodeId::new(id_u32("node")?),
                vnfs_restored: u64_of("vnfs_restored")?,
            },
            "EmergencyReplace" => EventKind::EmergencyReplace {
                node: NodeId::new(id_u32("node")?),
                instances_added: u64_of("instances_added")?,
                relocations: u64_of("relocations")?,
            },
            "ReoptCommit" => EventKind::ReoptCommit {
                phase: phase_of()?,
                migrations: u64_of("migrations")?,
                instances_added: u64_of("instances_added")?,
                instances_retired: u64_of("instances_retired")?,
                relocations: u64_of("relocations")?,
                predicted_gain: f64_of("predicted_gain")?,
                realized_gain: f64_of("realized_gain")?,
            },
            "ReoptRejected" => EventKind::ReoptRejected {
                phase: phase_of()?,
                cause: str_of("cause")?,
                predicted_gain: f64_of("predicted_gain")?,
                required_gain: f64_of("required_gain")?,
            },
            "CheckpointTaken" => EventKind::CheckpointTaken {
                shard: u64_of("shard")?,
                tenants: u64_of("tenants")?,
            },
            "FaultInjected" => EventKind::FaultInjected {
                cause: str_of("cause")?,
                shard: u64_of("shard")?,
                tenant: u64_of("tenant")?,
            },
            "ShardRestored" => EventKind::ShardRestored {
                shard: u64_of("shard")?,
                replayed: u64_of("replayed")?,
            },
            "TenantQuarantined" => EventKind::TenantQuarantined {
                tenant: u64_of("tenant")?,
                cause: str_of("cause")?,
            },
            _ => return Err(missing("unknown event label")),
        };
        Ok(Self {
            seq: u64_of("seq")?,
            time: f64_of("time")?,
            tick: u64_of("tick")?,
            kind,
        })
    }

    /// Encodes the record as one CSV row under [`CSV_HEADER`] — the
    /// per-event trace shape NFV orchestrators commonly emit (fixed
    /// `Event,Time,...,Reason`-style columns).
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        let mut request = String::new();
        let mut vnf = String::new();
        let mut instance = String::new();
        let mut node = String::new();
        let mut cause = String::new();
        let mut detail = String::new();
        match &self.kind {
            EventKind::Admit { request: r, hops } => {
                request = r.to_string();
                detail = format!("hops={hops}");
            }
            EventKind::Reject {
                request: r,
                cause: c,
            }
            | EventKind::Shed {
                request: r,
                cause: c,
            } => {
                request = r.to_string();
                cause.clone_from(c);
            }
            EventKind::RetryScheduled {
                request: r,
                attempt,
                due,
            } => {
                request = r.to_string();
                detail = format!("attempt={attempt} due={due:.6}");
            }
            EventKind::RetryAdmitted {
                request: r,
                attempt,
            } => {
                request = r.to_string();
                detail = format!("attempt={attempt}");
            }
            EventKind::RetryAbandoned {
                request: r,
                cause: c,
            } => {
                request = r.to_string();
                cause.clone_from(c);
            }
            EventKind::InstanceDown {
                vnf: v,
                slot,
                migrated,
                shed,
            } => {
                vnf = v.to_string();
                instance = format!("{slot}");
                detail = format!("migrated={migrated} shed={shed}");
            }
            EventKind::InstanceUp { vnf: v, slot } => {
                vnf = v.to_string();
                instance = format!("{slot}");
            }
            EventKind::NodeDown {
                node: n,
                vnfs_lost,
                shed,
            } => {
                node = n.to_string();
                detail = format!("vnfs_lost={vnfs_lost} shed={shed}");
            }
            EventKind::NodeUp {
                node: n,
                vnfs_restored,
            } => {
                node = n.to_string();
                detail = format!("vnfs_restored={vnfs_restored}");
            }
            EventKind::EmergencyReplace {
                node: n,
                instances_added,
                relocations,
            } => {
                node = n.to_string();
                detail = format!("added={instances_added} relocated={relocations}");
            }
            EventKind::ReoptCommit {
                phase,
                migrations,
                instances_added,
                instances_retired,
                relocations,
                predicted_gain,
                realized_gain,
            } => {
                cause = phase.name().to_string();
                detail = format!(
                    "migrations={migrations} added={instances_added} retired={instances_retired} \
                     relocated={relocations} predicted={predicted_gain:.6} realized={realized_gain:.6}"
                );
            }
            EventKind::ReoptRejected {
                phase,
                cause: c,
                predicted_gain,
                required_gain,
            } => {
                cause = format!("{}:{c}", phase.name());
                detail = format!("predicted={predicted_gain:.6} required={required_gain:.6}");
            }
            EventKind::CheckpointTaken { shard, tenants } => {
                detail = format!("shard={shard} tenants={tenants}");
            }
            EventKind::FaultInjected {
                cause: c,
                shard,
                tenant,
            } => {
                cause.clone_from(c);
                detail = format!("shard={shard} tenant={tenant}");
            }
            EventKind::ShardRestored { shard, replayed } => {
                detail = format!("shard={shard} replayed={replayed}");
            }
            EventKind::TenantQuarantined { tenant, cause: c } => {
                cause.clone_from(c);
                detail = format!("tenant={tenant}");
            }
        }
        format!(
            "{},{:.6},{},{},{},{},{},{},{}",
            self.kind.label(),
            self.time,
            self.tick,
            request,
            vnf,
            instance,
            node,
            csv_field(&cause),
            csv_field(&detail),
        )
    }
}

/// Quotes a CSV field when it contains a separator or quote.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        let kinds = vec![
            EventKind::Admit {
                request: RequestId::new(7),
                hops: 3,
            },
            EventKind::Reject {
                request: RequestId::new(8),
                cause: "would-overload".into(),
            },
            EventKind::Shed {
                request: RequestId::new(9),
                cause: "node-down".into(),
            },
            EventKind::RetryScheduled {
                request: RequestId::new(9),
                attempt: 2,
                due: 17.25,
            },
            EventKind::RetryAdmitted {
                request: RequestId::new(9),
                attempt: 2,
            },
            EventKind::RetryAbandoned {
                request: RequestId::new(10),
                cause: "budget-exhausted".into(),
            },
            EventKind::InstanceDown {
                vnf: VnfId::new(1),
                slot: 0,
                migrated: 4,
                shed: 1,
            },
            EventKind::InstanceUp {
                vnf: VnfId::new(1),
                slot: 0,
            },
            EventKind::NodeDown {
                node: NodeId::new(2),
                vnfs_lost: 3,
                shed: 11,
            },
            EventKind::NodeUp {
                node: NodeId::new(2),
                vnfs_restored: 2,
            },
            EventKind::EmergencyReplace {
                node: NodeId::new(2),
                instances_added: 2,
                relocations: 1,
            },
            EventKind::ReoptCommit {
                phase: ReoptPhase::Scheduling,
                migrations: 5,
                instances_added: 0,
                instances_retired: 0,
                relocations: 0,
                predicted_gain: 0.125,
                realized_gain: 0.125,
            },
            EventKind::ReoptRejected {
                phase: ReoptPhase::Replacement,
                cause: "hysteresis".into(),
                predicted_gain: -0.5,
                required_gain: 0.01,
            },
            EventKind::ReoptCommit {
                phase: ReoptPhase::Refiner,
                migrations: 0,
                instances_added: 0,
                instances_retired: 0,
                relocations: 3,
                predicted_gain: 0.04,
                realized_gain: 0.04,
            },
            EventKind::ReoptRejected {
                phase: ReoptPhase::Refiner,
                cause: "min-gain".into(),
                predicted_gain: 0.002,
                required_gain: 0.01,
            },
            EventKind::CheckpointTaken {
                shard: 1,
                tenants: 4,
            },
            EventKind::FaultInjected {
                cause: "shard-panic".into(),
                shard: 1,
                tenant: 3,
            },
            EventKind::ShardRestored {
                shard: 1,
                replayed: 17,
            },
            EventKind::TenantQuarantined {
                tenant: 3,
                cause: "corrupt-checkpoint".into(),
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                seq: i as u64,
                time: 0.1 * i as f64,
                tick: i as u64 / 3,
                kind,
            })
            .collect()
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for event in samples() {
            let line = event.to_json();
            let back = TraceEvent::from_json(&line).unwrap();
            assert_eq!(back, event, "journal line {line}");
        }
    }

    #[test]
    fn json_rejects_missing_fields_and_unknown_labels() {
        assert!(TraceEvent::from_json(r#"{"event":"Admit","seq":0,"time":0,"tick":0}"#).is_err());
        assert!(
            TraceEvent::from_json(r#"{"event":"Nonsense","seq":0,"time":0,"tick":0}"#).is_err()
        );
        assert!(TraceEvent::from_json("not json").is_err());
    }

    #[test]
    fn csv_rows_have_the_fixed_column_count() {
        let columns = CSV_HEADER.split(',').count();
        for event in samples() {
            let row = event.to_csv_row();
            // Quoted fields in these samples never contain commas, so a
            // plain split is a valid column count here.
            assert_eq!(row.split(',').count(), columns, "row {row}");
            assert!(row.starts_with(event.kind.label()));
        }
    }

    #[test]
    fn csv_quotes_embedded_separators() {
        let event = TraceEvent {
            seq: 0,
            time: 1.0,
            tick: 0,
            kind: EventKind::Shed {
                request: RequestId::new(1),
                cause: "a,b\"c".into(),
            },
        };
        assert!(event.to_csv_row().contains("\"a,b\"\"c\""));
    }

    #[test]
    fn non_finite_gains_survive_the_journal() {
        let event = TraceEvent {
            seq: 0,
            time: 1.0,
            tick: 1,
            kind: EventKind::ReoptRejected {
                phase: ReoptPhase::Scheduling,
                cause: "hysteresis".into(),
                predicted_gain: f64::NEG_INFINITY,
                required_gain: 0.01,
            },
        };
        let back = TraceEvent::from_json(&event.to_json()).unwrap();
        assert_eq!(back, event);
    }
}
