//! Per-layer probes every workload shares: ledger operation costs on
//! ledgers sampled from the workload's own run, controller checkpoint and
//! restore, the worker pool's round trip, and the controller's phase
//! profile. Each probe times calls into a crate's public API from here;
//! nothing inside the program is instrumented.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use nfv_controller::{Controller, ControllerError, ControllerReport, ControllerState};
use nfv_model::{ArrivalRate, DeliveryProbability, Request, RequestId, VnfId};
use nfv_parallel::par_map_indexed;
use nfv_telemetry::{Phase, PhaseProfile};
use nfv_workload::churn::{ChurnEvent, TimedEvent};
use nfv_workload::Scenario;

use crate::stats::{median, per_call_seconds};
use crate::{ratio, share, BenchResult, Checks, LayerSheet};

/// The move-and-back probe moves every this-many member of an instance.
const PROBE_STRIDE: usize = 4;
/// Requests the admission check is timed on, per sampled ledger.
const ADMIT_PROBES: usize = 256;
/// Seconds each per-ledger timing loop runs for.
const PROBE_BUDGET: f64 = 2e-3;

/// One request hop the move-and-back probe moves to a sibling instance
/// and back.
struct Move {
    vnf: VnfId,
    origin: usize,
    target: usize,
    id: RequestId,
    rate: ArrivalRate,
    delivery: DeliveryProbability,
}

/// A ledger captured mid-run, with the moves and admission probes timed
/// on it.
pub(crate) struct LedgerSample {
    ledger: ControllerState,
    moves: Vec<Move>,
    probes: Vec<Request>,
}

impl LedgerSample {
    /// Captures `ledger`, looking up its members' rates in `requests`.
    pub(crate) fn capture(
        ledger: &ControllerState,
        requests: &HashMap<RequestId, Request>,
    ) -> Self {
        let mut moves = Vec::new();
        let mut probes = Vec::new();
        for vnf in ledger.vnf_ids() {
            let instances = ledger.instances(vnf);
            for origin in 0..instances {
                for id in ledger
                    .members_of(vnf, origin)
                    .into_iter()
                    .step_by(PROBE_STRIDE)
                {
                    let Some(request) = requests.get(&id) else {
                        continue;
                    };
                    moves.push(Move {
                        vnf,
                        origin,
                        target: (origin + 1) % instances,
                        id,
                        rate: request.arrival_rate(),
                        delivery: request.delivery(),
                    });
                    if probes.len() < ADMIT_PROBES {
                        probes.push(request.clone());
                    }
                }
            }
        }
        Self {
            ledger: ledger.clone(),
            moves,
            probes,
        }
    }
}

/// Seconds per operation of the ledger layer, averaged over the samples.
#[derive(Debug, Default)]
pub(crate) struct LedgerCosts {
    pub add: f64,
    pub remove: f64,
    pub admit_check: f64,
    pub predicted_latency: f64,
    pub balanced_w: f64,
    pub balanced_w_scratch: f64,
    pub clone: f64,
}

impl LedgerCosts {
    pub(crate) fn record(&self, sheet: &mut LayerSheet) {
        sheet.set("controller.ledger_add_ns", self.add * 1e9);
        sheet.set("controller.ledger_remove_ns", self.remove * 1e9);
        sheet.set("controller.admit_check_ns", self.admit_check * 1e9);
        sheet.set(
            "controller.predicted_latency_ns",
            self.predicted_latency * 1e9,
        );
        sheet.set("controller.balanced_w_ns", self.balanced_w * 1e9);
        sheet.set(
            "controller.balanced_w_scratch_ns",
            self.balanced_w_scratch * 1e9,
        );
        sheet.set("controller.ledger_clone_us", self.clone * 1e6);
    }
}

/// The admission test the controller runs per arrival: the least-loaded
/// up instance of every hop must stay strictly stable. Returns the chosen
/// instance per hop, or `None` on refusal.
fn admit_check(ledger: &ControllerState, request: &Request) -> Option<Vec<(VnfId, usize)>> {
    let mut hops = Vec::with_capacity(request.chain().len());
    for &vnf in request.chain() {
        let k = ledger.least_loaded_up(vnf)?;
        if !ledger.can_accept_within(vnf, k, request.arrival_rate(), request.delivery(), 1.0) {
            return None;
        }
        hops.push((vnf, k));
    }
    Some(hops)
}

/// A bare-ledger replay of a stream's arrivals and departures.
#[derive(Default)]
pub(crate) struct Drive {
    /// Arrivals the admission test accepted.
    pub admitted: u64,
    /// `add_request` calls (one per admitted hop).
    pub adds: u64,
    /// `remove_request` calls (one per departing hop).
    pub removes: u64,
    /// Admission tests run (one per arrival).
    pub checks: u64,
    /// Ledgers captured at the requested ticks.
    pub samples: Vec<LedgerSample>,
}

/// Drives `events` through `ControllerState` calls alone — the online
/// controller's admission test, one add per admitted hop, one remove per
/// departing hop — capturing the ledger at the given (1-based) ticks.
pub(crate) fn drive_ledger(
    scenario: &Scenario,
    events: impl Iterator<Item = TimedEvent>,
    sample_ticks: &[u64],
) -> Result<Drive, ControllerError> {
    let mut ledger = ControllerState::new(scenario);
    let mut active: HashMap<RequestId, Request> = HashMap::new();
    let mut drive = Drive::default();
    let mut ticks = 0u64;
    for event in events {
        match event.into_parts().1 {
            ChurnEvent::Arrival(request) => {
                drive.checks += 1;
                if active.contains_key(&request.id()) {
                    continue;
                }
                let Some(hops) = admit_check(&ledger, &request) else {
                    continue;
                };
                for (vnf, k) in hops {
                    let (rate, delivery) = (request.arrival_rate(), request.delivery());
                    ledger.add_request(vnf, k, request.id(), rate, delivery)?;
                    drive.adds += 1;
                }
                drive.admitted += 1;
                active.insert(request.id(), request);
            }
            ChurnEvent::Departure(id) => {
                if let Some(request) = active.remove(&id) {
                    for &vnf in request.chain() {
                        ledger.remove_request(vnf, id);
                        drive.removes += 1;
                    }
                }
            }
            ChurnEvent::ReoptimizeTick => {
                ticks += 1;
                if sample_ticks.contains(&ticks) {
                    drive.samples.push(LedgerSample::capture(&ledger, &active));
                }
            }
            _ => {}
        }
    }
    Ok(drive)
}

/// Times the ledger layer on each sample. Adds and removes come from the
/// hysteresis probe's move-and-back round trip, batched per direction so
/// the clock read is amortized; the round trip must restore the ledger
/// exactly, which is checked.
pub(crate) fn ledger_costs(samples: &[LedgerSample], checks: &mut Checks) -> LedgerCosts {
    let (mut add_s, mut adds, mut remove_s, mut removes) = (0.0, 0u64, 0.0, 0u64);
    let mut admit = Vec::new();
    let mut predicted = Vec::new();
    let mut balanced = Vec::new();
    let mut scratch = Vec::new();
    let mut clone = Vec::new();
    for sample in samples.iter().filter(|s| !s.moves.is_empty()) {
        let mut ledger = sample.ledger.clone();
        let mut intact = true;
        let started = Instant::now();
        while adds == 0 || started.elapsed().as_secs_f64() < PROBE_BUDGET {
            for (from_origin, into_target) in [(true, true), (false, false)] {
                let t = Instant::now();
                for m in &sample.moves {
                    let from = if from_origin { m.origin } else { m.target };
                    intact &= ledger.remove_request(m.vnf, m.id) == Some(from);
                }
                remove_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                for m in &sample.moves {
                    let to = if into_target { m.target } else { m.origin };
                    intact &= ledger
                        .add_request(m.vnf, to, m.id, m.rate, m.delivery)
                        .is_ok();
                }
                add_s += t.elapsed().as_secs_f64();
            }
            adds += 2 * sample.moves.len() as u64;
            removes += 2 * sample.moves.len() as u64;
        }
        checks.require(intact && ledger == sample.ledger, || {
            "the move-and-back round trip did not restore the ledger bit for bit".into()
        });
        let probes = &sample.probes;
        admit.push(
            per_call_seconds(PROBE_BUDGET, || {
                for request in probes {
                    black_box(admit_check(&ledger, request));
                }
            }) / probes.len().max(1) as f64,
        );
        predicted.push(per_call_seconds(PROBE_BUDGET, || {
            black_box(ledger.predicted_latency());
        }));
        balanced.push(per_call_seconds(PROBE_BUDGET, || {
            black_box(ledger.balanced_latency());
        }));
        scratch.push(per_call_seconds(PROBE_BUDGET, || {
            black_box(ledger.balanced_latency_from_scratch());
        }));
        clone.push(per_call_seconds(PROBE_BUDGET, || {
            black_box(ledger.clone());
        }));
        checks.require(
            ledger.balanced_latency().to_bits() == ledger.balanced_latency_from_scratch().to_bits(),
            || "cached balanced-W differs from the from-scratch oracle".into(),
        );
    }
    checks.require(adds > 0, || {
        "no sampled ledger had a member to probe".into()
    });
    LedgerCosts {
        add: add_s / adds.max(1) as f64,
        remove: remove_s / removes.max(1) as f64,
        admit_check: median(&admit),
        predicted_latency: median(&predicted),
        balanced_w: median(&balanced),
        balanced_w_scratch: median(&scratch),
        clone: median(&clone),
    }
}

/// Times `checkpoint()` on `controller` and `restore()` into copies of
/// `fresh` (a controller built from the same scenario and config), and
/// checks the restored controller reports what the original does.
pub(crate) fn checkpoint_costs(
    controller: &Controller,
    fresh: &Controller,
    sheet: &mut LayerSheet,
    checks: &mut Checks,
) {
    let snapshot = controller.checkpoint();
    let checkpoint = per_call_seconds(0.05, || {
        black_box(controller.checkpoint());
    });
    let mut restores = Vec::new();
    let mut restored_ok = true;
    let started = Instant::now();
    while restores.len() < 5 || started.elapsed().as_secs_f64() < 0.05 {
        let mut target = fresh.clone();
        let t = Instant::now();
        let result = target.restore(&snapshot);
        restores.push(t.elapsed().as_secs_f64());
        restored_ok &= result.is_ok() && target.report() == controller.report();
    }
    checks.require(restored_ok, || {
        "a restored controller does not report what the checkpointed one does".into()
    });
    sheet.set("controller.checkpoint_us", checkpoint * 1e6);
    sheet.set("controller.restore_us", median(&restores) * 1e6);
    let samples = controller.latency_histogram(1).map_or(0, |h| h.count());
    sheet.set("controller.checkpoint_samples", samples as f64);
}

/// One `par_map_indexed` round over 16 empty tasks at `threads` workers.
pub(crate) fn parallel_round(threads: usize, sheet: &mut LayerSheet) {
    let round = per_call_seconds(0.05, || {
        black_box(
            par_map_indexed(threads, vec![0u8; 16], |i, _| i)
                .map(|v| v.len())
                .ok(),
        );
    });
    sheet.set("parallel.round_us", round * 1e6);
}

/// Seconds per event of stream generation alone: `drain` generates and
/// counts the workload's streams with no controller; the median of three
/// drains is recorded as `workload.stream_ns_per_event` and returned.
pub(crate) fn stream_cost(
    sheet: &mut LayerSheet,
    mut drain: impl FnMut() -> BenchResult<u64>,
) -> BenchResult<f64> {
    let mut per_event = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let events = drain()?;
        per_event.push(started.elapsed().as_secs_f64() / events.max(1) as f64);
    }
    let cost = median(&per_event);
    sheet.set("workload.stream_ns_per_event", cost * 1e9);
    Ok(cost)
}

/// Records every controller phase of `profile` as a share of `wall` with
/// its span count, and returns the phases' summed seconds (they never
/// nest, so the sum covers each instant once).
pub(crate) fn record_profile(profile: &PhaseProfile, wall: f64, sheet: &mut LayerSheet) -> f64 {
    let rows = [
        (Phase::HysteresisProbe, "controller.hysteresis_probe"),
        (Phase::RetryDrain, "controller.retry_drain"),
        (Phase::EmergencyReplace, "controller.emergency_replace"),
        (Phase::RckkPlan, "scheduling.rckk_plan"),
        (Phase::PlaceDelta, "placement.place_delta"),
        (Phase::SearchGeneration, "search.generation"),
    ];
    let mut covered = 0.0;
    for (phase, stem) in rows {
        let summary = profile.summary(phase);
        let seconds: f64 = summary.samples().as_slice().iter().sum();
        let spans = summary.count();
        covered += seconds;
        sheet.set(&format!("{stem}_share"), share(seconds, wall));
        sheet.set(&format!("{stem}_n"), spans as f64);
    }
    covered
}

/// Records the decision ratios of the summed reports.
pub(crate) fn record_ratios<'a>(
    reports: impl IntoIterator<Item = &'a ControllerReport>,
    sheet: &mut LayerSheet,
) {
    // (applied, attempted) per ratio, summed over the reports.
    let mut sums = [(0u64, 0u64); 4];
    for r in reports {
        for (sum, (applied, attempted)) in sums.iter_mut().zip([
            (r.reopts_applied, r.reopts_applied + r.reopts_skipped),
            (r.retry_admitted, r.retries_attempted),
            (r.replaces_applied, r.replaces_applied + r.replaces_aborted),
            (r.refines_applied, r.refines_applied + r.refines_rejected),
        ]) {
            sum.0 += applied;
            sum.1 += attempted;
        }
    }
    let names = [
        "controller.reopt_apply_ratio",
        "controller.retry_admit_ratio",
        "placement.replace_apply_ratio",
        "search.refine_apply_ratio",
    ];
    for (name, (applied, attempted)) in names.into_iter().zip(sums) {
        sheet.set(name, ratio(applied, attempted));
    }
}

/// Served share of offered requests over the summed reports:
/// `1 − (rejected + shed − retry_admitted) / (admitted + rejected)`.
pub(crate) fn served_ratio<'a>(reports: impl IntoIterator<Item = &'a ControllerReport>) -> f64 {
    let (mut lost, mut offered) = (0u64, 0u64);
    for r in reports {
        lost += (r.rejected + r.shed).saturating_sub(r.retry_admitted);
        offered += r.admitted + r.rejected;
    }
    1.0 - ratio(lost, offered)
}

/// The geometric mean over the controllers of each one's time-weighted
/// mean response time (paper Eq. 11), seconds. Per-tenant response times
/// spread over a decade (a few tenants run near saturation), so the
/// geometric mean summarizes the typical controller without letting one
/// outlier set the figure.
pub(crate) fn typical_response<'a>(reports: impl IntoIterator<Item = &'a ControllerReport>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for r in reports {
        log_sum += r.mean_latency.ln();
        n += 1;
    }
    (log_sum / f64::from(n.max(1))).exp()
}

/// Whether a report satisfies `admitted + retry_admitted == active +
/// departed + shed`.
pub(crate) fn conserves(r: &ControllerReport) -> bool {
    r.admitted + r.retry_admitted == r.active + r.departed + r.shed
}
