//! The live load ledger: who is assigned where, at what rate.
//!
//! Storage is struct-of-arrays: VNFs live in a dense slab vector addressed
//! through a `u32` id→slot table, and each instance's members are a flat
//! run sorted by request id. The replay hot path (millions of churn events)
//! never touches a tree node; every lookup is an array index or a binary
//! search over a contiguous run.

use std::cell::Cell;
use std::cmp::Ordering;

use nfv_model::{ArrivalRate, DeliveryProbability, RequestId, ServiceRate, VnfId};
use nfv_queueing::InstanceLoad;
use nfv_workload::Scenario;

use crate::ControllerError;

/// Sentinel in the id→slab table for a VNF the scenario doesn't have.
const NO_VNF: u32 = u32::MAX;

/// One request's share of an instance: the id-sorted member runs are the
/// source of truth for the cached sums.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Member {
    id: RequestId,
    rate: ArrivalRate,
    delivery: DeliveryProbability,
    /// Loss-inflated rate `λ_r/P_r`, precomputed once at insertion so every
    /// id-order recomputation adds the exact same addends and an add
    /// followed by a remove restores the sums bit for bit.
    inflated: f64,
}

/// Per-VNF slice of the ledger.
#[derive(Debug)]
struct VnfSlab {
    service: ServiceRate,
    /// Outage depth per instance: 0 means up. Overlapping outage windows
    /// stack, so the first `InstanceUp` of two overlapping outages does
    /// *not* resurrect the instance — only the last one does.
    down: Vec<u32>,
    /// Whole-VNF unavailability: the hosting compute node is dark. Every
    /// instance of the VNF is unavailable regardless of its own
    /// per-instance outage depth.
    host_down: bool,
    /// Members of each instance as a run sorted by request id. The runs
    /// (not running sums) are the source of truth: sums are recomputed
    /// from them in id order on every mutation, so an `add` followed by a
    /// `remove` restores the previous sums *bit for bit* — a running
    /// `+= / -=` would not, because float subtraction does not undo
    /// addition.
    members: Vec<Vec<Member>>,
    /// Cached Kleinrock-merged loss-inflated rate `Λ_k = Σ λ_r/P_r` per
    /// instance, recomputed from `members` after each mutation.
    sums: Vec<f64>,
    /// Cached external rate `Σ λ_r` per instance, recomputed in the same
    /// id-order pass as `sums` — exactly the accumulation order of
    /// [`InstanceLoad::add_request`], so `predicted_latency` can skip the
    /// per-member walk without perturbing a single bit.
    ext: Vec<f64>,
    /// Lazily cached `(flat external, inflated total)` pair for
    /// [`ControllerState::balanced_latency`]. `None` means dirty; member
    /// and instance-set mutations invalidate it, up/down transitions do
    /// not (the up-instance count is always read fresh). The refresh walks
    /// the runs in canonical `(instance, id)` order, so the cached value is
    /// always bit-identical to a from-scratch recompute.
    agg: Cell<Option<(f64, f64)>>,
}

/// `clone` is what `derive` writes; `clone_from` copies field by field
/// into the target's own vectors, so a restore reuses them instead of
/// allocating afresh.
impl Clone for VnfSlab {
    fn clone(&self) -> Self {
        Self {
            service: self.service,
            down: self.down.clone(),
            host_down: self.host_down,
            members: self.members.clone(),
            sums: self.sums.clone(),
            ext: self.ext.clone(),
            agg: self.agg.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.service.clone_from(&source.service);
        self.down.clone_from(&source.down);
        self.host_down.clone_from(&source.host_down);
        self.members.clone_from(&source.members);
        self.sums.clone_from(&source.sums);
        self.ext.clone_from(&source.ext);
        self.agg.clone_from(&source.agg);
    }
}

impl PartialEq for VnfSlab {
    fn eq(&self, other: &Self) -> bool {
        // The lazy balanced-W aggregate is deliberately excluded: it is a
        // pure function of the fields below, and whether it is currently
        // materialized is not part of the ledger's logical state.
        self.service == other.service
            && self.down == other.down
            && self.host_down == other.host_down
            && self.members == other.members
            && self.sums == other.sums
            && self.ext == other.ext
    }
}

impl VnfSlab {
    fn instance_up(&self, k: usize) -> bool {
        !self.host_down && self.down.get(k) == Some(&0)
    }

    fn up_instances(&self) -> usize {
        if self.host_down {
            0
        } else {
            self.down.iter().filter(|&&d| d == 0).count()
        }
    }

    /// Recomputes the cached per-instance sums from the member run in id
    /// order — one pass, two independent accumulators, the same addend
    /// sequence as the `BTreeMap`-era ledger.
    fn recompute(&mut self, k: usize) {
        let mut inflated = 0.0;
        let mut external = 0.0;
        for member in &self.members[k] {
            inflated += member.inflated;
            external += member.rate.value();
        }
        self.sums[k] = inflated;
        self.ext[k] = external;
        self.agg.set(None);
    }

    /// Locates a request across this VNF's instances: `(instance, run
    /// position)`. One binary search per run — the slab keeps no separate
    /// home map.
    fn find(&self, id: RequestId) -> Option<(usize, usize)> {
        self.members.iter().enumerate().find_map(|(k, run)| {
            run.binary_search_by_key(&id, |m| m.id)
                .ok()
                .map(|pos| (k, pos))
        })
    }

    /// The balanced-W aggregate `(Σ λ_r, Σ Λ_k)`, refreshed from the runs
    /// in canonical `(instance, id)` order when dirty.
    fn balanced_agg(&self) -> (f64, f64) {
        if let Some(agg) = self.agg.get() {
            return agg;
        }
        let agg = self.balanced_agg_uncached();
        self.agg.set(Some(agg));
        agg
    }

    /// From-scratch balanced-W aggregate, never touching the cache.
    fn balanced_agg_uncached(&self) -> (f64, f64) {
        let external: f64 = self.members.iter().flatten().map(|m| m.rate.value()).sum();
        let inflated: f64 = self.sums.iter().sum();
        (external, inflated)
    }
}

/// Load ledger over every VNF of a scenario: tracks, per service instance,
/// the set of assigned requests and their Kleinrock-merged loss-inflated
/// arrival rate `Λ_k^f = Σ λ_r / P_r` (Eq. (7) of the paper), supporting
/// incremental assignment and removal under churn.
///
/// # Examples
///
/// ```
/// use nfv_controller::ControllerState;
/// use nfv_workload::ScenarioBuilder;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scenario = ScenarioBuilder::new().vnfs(4).requests(20).seed(1).build()?;
/// let mut state = ControllerState::new(&scenario);
/// let request = &scenario.requests()[0];
/// let vnf = request.chain().as_slice()[0];
/// let k = state.least_loaded_up(vnf).unwrap();
/// state.add_request(vnf, k, request.id(), request.arrival_rate(), request.delivery())?;
/// assert_eq!(state.home_of(vnf, request.id()), Some(k));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ControllerState {
    /// Raw `VnfId` index → dense slab slot (`NO_VNF` for unknown ids).
    index: Vec<u32>,
    /// VNF ids in ascending order, parallel to `slabs`.
    ids: Vec<VnfId>,
    /// Dense per-VNF slabs, in `ids` order.
    slabs: Vec<VnfSlab>,
}

/// Like `VnfSlab`'s: `clone` as derived, `clone_from` reusing the
/// target's vectors (`Controller::restore` copies a snapshot's ledger
/// this way).
impl Clone for ControllerState {
    fn clone(&self) -> Self {
        Self {
            index: self.index.clone(),
            ids: self.ids.clone(),
            slabs: self.slabs.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.index.clone_from(&source.index);
        self.ids.clone_from(&source.ids);
        self.slabs.clone_from(&source.slabs);
    }
}

impl PartialEq for ControllerState {
    fn eq(&self, other: &Self) -> bool {
        // `index` is derived from `ids`; comparing it again would be
        // redundant.
        self.ids == other.ids && self.slabs == other.slabs
    }
}

impl ControllerState {
    /// Creates an all-idle, all-up ledger matching a scenario's VNF fleet.
    #[must_use]
    pub fn new(scenario: &Scenario) -> Self {
        let mut entries: Vec<(VnfId, VnfSlab)> = scenario
            .vnfs()
            .iter()
            .map(|vnf| {
                let m = vnf.instances() as usize;
                (
                    vnf.id(),
                    VnfSlab {
                        service: vnf.service_rate(),
                        down: vec![0; m],
                        host_down: false,
                        members: vec![Vec::new(); m],
                        sums: vec![0.0; m],
                        ext: vec![0.0; m],
                        agg: Cell::new(None),
                    },
                )
            })
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        let table = entries.last().map_or(0, |(id, _)| id.as_usize() + 1);
        let mut index = vec![NO_VNF; table];
        let mut ids = Vec::with_capacity(entries.len());
        let mut slabs = Vec::with_capacity(entries.len());
        // A `VnfId` is a `u32`, so the slots below the `NO_VNF` sentinel
        // cover the fleet.
        for ((id, slab), slot) in entries.into_iter().zip(0..NO_VNF) {
            index[id.as_usize()] = slot;
            ids.push(id);
            slabs.push(slab);
        }
        Self { index, ids, slabs }
    }

    fn slot(&self, vnf: VnfId) -> Option<usize> {
        match self.index.get(vnf.as_usize()).copied() {
            Some(slot) if slot != NO_VNF => Some(slot as usize),
            _ => None,
        }
    }

    fn slab(&self, vnf: VnfId) -> Option<&VnfSlab> {
        self.slot(vnf).map(|s| &self.slabs[s])
    }

    fn slab_mut(&mut self, vnf: VnfId) -> Option<&mut VnfSlab> {
        self.slot(vnf).map(|s| &mut self.slabs[s])
    }

    fn slab_or_err(&mut self, vnf: VnfId) -> Result<&mut VnfSlab, ControllerError> {
        self.slab_mut(vnf)
            .ok_or(ControllerError::UnknownVnf { vnf })
    }

    /// Number of instances of a VNF (0 for an unknown VNF).
    #[must_use]
    pub fn instances(&self, vnf: VnfId) -> usize {
        self.slab(vnf).map_or(0, |l| l.sums.len())
    }

    /// The VNF's service rate `μ_f`, if the VNF exists.
    #[must_use]
    pub fn service_rate(&self, vnf: VnfId) -> Option<ServiceRate> {
        self.slab(vnf).map(|l| l.service)
    }

    /// Whether an instance is currently up: its own outage depth is zero
    /// *and* its hosting node (if the controller tracks one) is in
    /// service.
    #[must_use]
    pub fn is_up(&self, vnf: VnfId, instance: usize) -> bool {
        self.slab(vnf).is_some_and(|l| l.instance_up(instance))
    }

    /// Opens one outage window on an instance (outage depth `+= 1`).
    /// Returns `false` — and changes nothing — when the coordinates don't
    /// name a live instance, so the caller can count the event as stale.
    pub fn mark_down(&mut self, vnf: VnfId, instance: usize) -> bool {
        let Some(depth) = self.slab_mut(vnf).and_then(|l| l.down.get_mut(instance)) else {
            return false;
        };
        *depth += 1;
        true
    }

    /// Closes one outage window on an instance (outage depth `-= 1`).
    /// Returns `false` — and changes nothing — when the coordinates don't
    /// name a live instance *or* the instance has no open outage window
    /// (a stale recovery for an instance that was re-placed away, or a
    /// duplicate `InstanceUp`).
    pub fn mark_up(&mut self, vnf: VnfId, instance: usize) -> bool {
        let Some(depth) = self.slab_mut(vnf).and_then(|l| l.down.get_mut(instance)) else {
            return false;
        };
        if *depth == 0 {
            return false;
        }
        *depth -= 1;
        true
    }

    /// Current outage depth of an instance (0 when up or unknown).
    #[must_use]
    pub fn outage_depth(&self, vnf: VnfId, instance: usize) -> u32 {
        self.slab(vnf)
            .and_then(|l| l.down.get(instance))
            .copied()
            .unwrap_or(0)
    }

    /// Sets or clears whole-VNF unavailability (the hosting node went dark
    /// or returned). Unknown VNFs are ignored.
    pub fn set_host_down(&mut self, vnf: VnfId, down: bool) {
        if let Some(slab) = self.slab_mut(vnf) {
            slab.host_down = down;
        }
    }

    /// Whether the VNF's hosting node is currently marked dark.
    #[must_use]
    pub fn host_down(&self, vnf: VnfId) -> bool {
        self.slab(vnf).is_some_and(|l| l.host_down)
    }

    /// Whether every VNF has at least one up instance — the availability
    /// predicate the resilience experiments track over time.
    #[must_use]
    pub fn fully_available(&self) -> bool {
        self.slabs.iter().all(|l| l.up_instances() > 0)
    }

    /// Merged loss-inflated rate `Λ_k^f` of one instance.
    #[must_use]
    pub fn instance_sum(&self, vnf: VnfId, instance: usize) -> f64 {
        self.slab(vnf)
            .and_then(|l| l.sums.get(instance))
            .copied()
            .unwrap_or(0.0)
    }

    /// All per-instance merged rates of one VNF.
    #[must_use]
    pub fn sums(&self, vnf: VnfId) -> &[f64] {
        self.slab(vnf).map_or(&[], |l| &l.sums)
    }

    /// The *up* instance with the smallest merged rate (lowest index on
    /// ties — the same rule as the offline crate's `OnlineDispatcher`), or
    /// `None` if every instance is down or the VNF is unknown.
    #[must_use]
    pub fn least_loaded_up(&self, vnf: VnfId) -> Option<usize> {
        let slab = self.slab(vnf)?;
        // The sums are finite, so the `Equal` fallback never fires;
        // `total_cmp` would order them the same at ~30% more per call.
        slab.sums
            .iter()
            .enumerate()
            .filter(|&(k, _)| slab.instance_up(k))
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(Ordering::Equal))
            .map(|(k, _)| k)
    }

    /// Whether an instance is up and would stay strictly stable
    /// (`Λ + λ/P < μ`, Eq. (9)) after admitting the given traffic.
    #[must_use]
    pub fn can_accept(
        &self,
        vnf: VnfId,
        instance: usize,
        rate: ArrivalRate,
        delivery: DeliveryProbability,
    ) -> bool {
        self.can_accept_within(vnf, instance, rate, delivery, 1.0)
    }

    /// Like [`can_accept`](Self::can_accept), but against a tightened
    /// utilization budget: the merged rate after admission must stay
    /// strictly below `headroom · μ`. `headroom = 1.0` is plain strict
    /// stability; the brownout admission mode passes a smaller fraction
    /// while any node is down.
    #[must_use]
    pub fn can_accept_within(
        &self,
        vnf: VnfId,
        instance: usize,
        rate: ArrivalRate,
        delivery: DeliveryProbability,
        headroom: f64,
    ) -> bool {
        let Some(slab) = self.slab(vnf) else {
            return false;
        };
        if !slab.instance_up(instance) {
            return false;
        }
        slab.sums[instance] + rate.inflated_by_loss(delivery).value()
            < headroom * slab.service.value()
    }

    /// Assigns a request to an instance.
    ///
    /// # Errors
    ///
    /// [`ControllerError::UnknownVnf`] / [`ControllerError::NoSuchInstance`]
    /// for bad coordinates, [`ControllerError::DuplicateAssignment`] if the
    /// request already sits on some instance of this VNF.
    pub fn add_request(
        &mut self,
        vnf: VnfId,
        instance: usize,
        id: RequestId,
        rate: ArrivalRate,
        delivery: DeliveryProbability,
    ) -> Result<(), ControllerError> {
        let slab = self.slab_or_err(vnf)?;
        if instance >= slab.members.len() {
            return Err(ControllerError::NoSuchInstance { vnf, instance });
        }
        if slab.find(id).is_some() {
            return Err(ControllerError::DuplicateAssignment { vnf, request: id });
        }
        let pos = slab.members[instance]
            .binary_search_by_key(&id, |m| m.id)
            .expect_err("not a duplicate");
        slab.members[instance].insert(
            pos,
            Member {
                id,
                rate,
                delivery,
                inflated: rate.inflated_by_loss(delivery).value(),
            },
        );
        slab.recompute(instance);
        Ok(())
    }

    /// Removes a request from whatever instance of `vnf` holds it,
    /// returning that instance, or `None` if the request is not assigned.
    pub fn remove_request(&mut self, vnf: VnfId, id: RequestId) -> Option<usize> {
        let slab = self.slab_mut(vnf)?;
        let (instance, pos) = slab.find(id)?;
        slab.members[instance].remove(pos);
        slab.recompute(instance);
        Some(instance)
    }

    /// Moves a request's stored member — id, rate, delivery and the
    /// precomputed inflated rate — from whatever instance of `vnf` holds
    /// it onto instance `to`, returning the instance it left. A pure move
    /// with no admission check: the ledger ends `==` to
    /// [`remove_request`](Self::remove_request) followed by
    /// [`add_request`](Self::add_request) with the stored rates, bit for
    /// bit, and moving back to the returned instance undoes it.
    ///
    /// # Errors
    ///
    /// [`ControllerError::UnknownVnf`] / [`ControllerError::NoSuchInstance`]
    /// for bad coordinates, [`ControllerError::NotAssigned`] when no
    /// instance of `vnf` holds the request. The ledger is unchanged on
    /// error.
    pub fn move_request(
        &mut self,
        vnf: VnfId,
        id: RequestId,
        to: usize,
    ) -> Result<usize, ControllerError> {
        let slab = self.slab_or_err(vnf)?;
        if to >= slab.members.len() {
            return Err(ControllerError::NoSuchInstance { vnf, instance: to });
        }
        let (from, pos) = slab
            .find(id)
            .ok_or(ControllerError::NotAssigned { vnf, request: id })?;
        let member = slab.members[from].remove(pos);
        slab.recompute(from);
        let at = slab.members[to].partition_point(|m| m.id < id);
        slab.members[to].insert(at, member);
        slab.recompute(to);
        Ok(from)
    }

    /// The instance of `vnf` currently serving `id`.
    #[must_use]
    pub fn home_of(&self, vnf: VnfId, id: RequestId) -> Option<usize> {
        self.slab(vnf).and_then(|l| l.find(id)).map(|(k, _)| k)
    }

    /// The arrival rate and delivery probability stored for `id` on `vnf`,
    /// or `None` if no instance of `vnf` holds it.
    #[must_use]
    pub(crate) fn traffic_of(
        &self,
        vnf: VnfId,
        id: RequestId,
    ) -> Option<(ArrivalRate, DeliveryProbability)> {
        let slab = self.slab(vnf)?;
        let (k, pos) = slab.find(id)?;
        let member = &slab.members[k][pos];
        Some((member.rate, member.delivery))
    }

    /// Every request assigned to any instance of `vnf` with its stored
    /// rates and the instance holding it, in ascending id order.
    #[must_use]
    pub(crate) fn holdings(&self, vnf: VnfId) -> Vec<Holding> {
        let Some(slab) = self.slab(vnf) else {
            return Vec::new();
        };
        let mut holdings: Vec<Holding> = slab
            .members
            .iter()
            .enumerate()
            .flat_map(|(home, run)| {
                run.iter().map(move |m| Holding {
                    id: m.id,
                    rate: m.rate,
                    inflated: m.inflated,
                    home,
                })
            })
            .collect();
        holdings.sort_unstable_by_key(|h| h.id);
        holdings
    }

    /// Ids of every request assigned to any instance of `vnf`, ascending.
    #[must_use]
    pub fn active_ids(&self, vnf: VnfId) -> Vec<RequestId> {
        self.holdings(vnf).into_iter().map(|h| h.id).collect()
    }

    /// Ids of the requests on one instance, ascending.
    #[must_use]
    pub fn members_of(&self, vnf: VnfId, instance: usize) -> Vec<RequestId> {
        self.slab(vnf)
            .and_then(|l| l.members.get(instance))
            .map_or_else(Vec::new, |run| run.iter().map(|m| m.id).collect())
    }

    /// Number of requests on one instance.
    #[must_use]
    pub fn member_count(&self, vnf: VnfId, instance: usize) -> usize {
        self.slab(vnf)
            .and_then(|l| l.members.get(instance))
            .map_or(0, Vec::len)
    }

    /// Reconstructs the queueing-theoretic [`InstanceLoad`] of an instance
    /// by merging its members in id order.
    #[must_use]
    pub fn instance_load(&self, vnf: VnfId, instance: usize) -> Option<InstanceLoad> {
        let slab = self.slab(vnf)?;
        let run = slab.members.get(instance)?;
        let mut load = InstanceLoad::new(slab.service);
        for member in run {
            load.add_request(member.rate, member.delivery);
        }
        Some(load)
    }

    /// Utilization `ρ = Λ/μ` of one instance, or `0.0` for coordinates
    /// the ledger does not track — an unknown VNF *or* an out-of-range
    /// instance index (callers replaying foreign traces can name either).
    /// Use [`try_utilization`](Self::try_utilization) to distinguish bad
    /// coordinates from a genuinely idle instance.
    #[must_use]
    pub fn utilization(&self, vnf: VnfId, instance: usize) -> f64 {
        self.try_utilization(vnf, instance).unwrap_or(0.0)
    }

    /// Checked utilization `ρ = Λ/μ` of one instance.
    ///
    /// # Errors
    ///
    /// [`ControllerError::UnknownVnf`] /
    /// [`ControllerError::NoSuchInstance`] for coordinates the ledger
    /// does not track (formerly an index panic on an out-of-range
    /// instance).
    pub fn try_utilization(&self, vnf: VnfId, instance: usize) -> Result<f64, ControllerError> {
        let slab = self.slab(vnf).ok_or(ControllerError::UnknownVnf { vnf })?;
        let sum = slab
            .sums
            .get(instance)
            .ok_or(ControllerError::NoSuchInstance { vnf, instance })?;
        Ok(sum / slab.service.value())
    }

    /// The highest per-instance utilization `ρ = Λ_k/μ_f` across the whole
    /// fleet — alloc-free, and order-independent because `max` over
    /// non-negative finite ratios does not depend on visit order.
    #[must_use]
    pub fn peak_utilization(&self) -> f64 {
        let mut peak = 0.0_f64;
        for slab in &self.slabs {
            let mu = slab.service.value();
            for &sum in &slab.sums {
                peak = peak.max(sum / mu);
            }
        }
        peak
    }

    /// Iterates over the VNF ids in ascending order.
    pub fn vnf_ids(&self) -> impl Iterator<Item = VnfId> + '_ {
        self.ids.iter().copied()
    }

    /// Number of *up* instances of a VNF (0 for an unknown VNF or one
    /// whose hosting node is dark).
    #[must_use]
    pub fn up_count(&self, vnf: VnfId) -> usize {
        self.slab(vnf).map_or(0, VnfSlab::up_instances)
    }

    /// Total Kleinrock-merged loss-inflated rate `Λ_f = Σ_k Λ_k^f` over
    /// every instance of a VNF. Sums the cached per-instance sums in
    /// index order, so the value is bit-stable across clones.
    #[must_use]
    pub fn total_sum(&self, vnf: VnfId) -> f64 {
        self.slab(vnf).map_or(0.0, |l| l.sums.iter().sum())
    }

    /// Appends a fresh, empty, up instance to a VNF (a scale-out step of
    /// the re-placement phase) and returns its index. Followed by
    /// [`retire_instance`](Self::retire_instance), the ledger is restored
    /// `==` bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`ControllerError::UnknownVnf`] if the VNF does not exist.
    pub fn add_instance(&mut self, vnf: VnfId) -> Result<usize, ControllerError> {
        let slab = self.slab_or_err(vnf)?;
        slab.down.push(0);
        slab.members.push(Vec::new());
        slab.sums.push(0.0);
        slab.ext.push(0.0);
        slab.agg.set(None);
        Ok(slab.sums.len() - 1)
    }

    /// Removes the *last* instance of a VNF (a scale-in step; only the
    /// highest index may retire so surviving indices stay dense and stable)
    /// and returns the removed index. The instance must be empty — drain
    /// its members to siblings first.
    ///
    /// # Errors
    ///
    /// [`ControllerError::UnknownVnf`] for a bad id,
    /// [`ControllerError::LastInstance`] when only one instance remains,
    /// [`ControllerError::InstanceOccupied`] when requests still sit on the
    /// last instance.
    pub fn retire_instance(&mut self, vnf: VnfId) -> Result<usize, ControllerError> {
        let slab = self.slab_or_err(vnf)?;
        if slab.sums.len() <= 1 {
            return Err(ControllerError::LastInstance { vnf });
        }
        let last = slab.sums.len() - 1;
        if !slab.members[last].is_empty() {
            return Err(ControllerError::InstanceOccupied {
                vnf,
                instance: last,
            });
        }
        slab.down.pop();
        slab.members.pop();
        slab.sums.pop();
        slab.ext.pop();
        slab.agg.set(None);
        Ok(last)
    }

    /// Checks that `other` was built from a scenario with this ledger's
    /// VNF ids and service rates — the static shape a checkpointed
    /// ledger must share with the ledger it replaces. Instance counts,
    /// member runs and outage depths are dynamic state, carried whole by
    /// the checkpoint's clone.
    ///
    /// # Errors
    ///
    /// A static reason naming the first difference.
    pub(crate) fn fits(&self, other: &Self) -> Result<(), &'static str> {
        if self.ids != other.ids {
            return Err("snapshot VNF ids do not match the scenario");
        }
        if self
            .slabs
            .iter()
            .zip(&other.slabs)
            .any(|(mine, theirs)| mine.service != theirs.service)
        {
            return Err("snapshot service rates do not match the scenario");
        }
        Ok(())
    }

    /// The predicted average delivery response time *if every VNF's live
    /// load were split evenly across its up instances* — the metric the
    /// re-placement hysteresis gates on. [`predicted_latency`] reflects the
    /// current (possibly lopsided) assignment, under which a freshly added
    /// empty instance changes nothing; the balanced projection credits the
    /// scheduling pass that follows a scale-out within the same tick.
    ///
    /// Per VNF with `m` up instances, total inflated rate `Λ` and total
    /// external rate `λ_ext`: each instance carries `Λ/m`, contributing
    /// `m · ρ/(1−ρ)` expected packets with `ρ = Λ/(m·μ)`; the system-wide
    /// mean is `Σ_f m_f·E[N_f] / Σ_f λ_ext_f` (Little's law over
    /// Eq. (11)), the same aggregation as [`predicted_latency`]. Idle
    /// systems report 0; a VNF with live load and no up instance (or
    /// `ρ ≥ 1`, impossible under strict admission) reports infinity.
    ///
    /// The per-VNF `(λ_ext, Λ)` pair is maintained incrementally: member
    /// mutations mark the owning VNF dirty and the next probe refreshes
    /// only dirty VNFs, in the same canonical `(instance, id)` order as a
    /// full recompute — so repeated hysteresis probes inside a tick cost
    /// `O(changed VNFs)` yet stay bit-identical to
    /// [`balanced_latency_from_scratch`](Self::balanced_latency_from_scratch).
    ///
    /// [`predicted_latency`]: Self::predicted_latency
    #[must_use]
    pub fn balanced_latency(&self) -> f64 {
        self.balanced_latency_with(VnfSlab::balanced_agg)
    }

    /// [`balanced_latency`](Self::balanced_latency) recomputed from the
    /// member runs alone, bypassing the incremental per-VNF aggregate —
    /// the reference oracle the equivalence property tests compare
    /// against.
    #[must_use]
    pub fn balanced_latency_from_scratch(&self) -> f64 {
        self.balanced_latency_with(VnfSlab::balanced_agg_uncached)
    }

    fn balanced_latency_with(&self, agg: impl Fn(&VnfSlab) -> (f64, f64)) -> f64 {
        let mut packets = 0.0;
        let mut total_external = 0.0;
        for slab in &self.slabs {
            let (external, inflated) = agg(slab);
            if external == 0.0 {
                continue;
            }
            let m = slab.up_instances();
            if m == 0 {
                return f64::INFINITY;
            }
            let rho = inflated / (m as f64 * slab.service.value());
            if rho >= 1.0 {
                return f64::INFINITY;
            }
            packets += m as f64 * rho / (1.0 - rho);
            total_external += external;
        }
        if total_external == 0.0 {
            0.0
        } else {
            packets / total_external
        }
    }

    /// The system-wide predicted average delivery response time: every
    /// instance's `W(f,k)` (Eq. (11)) weighted by its external arrival
    /// rate, divided by the total external rate — i.e. the expected
    /// per-hop-summed latency of a random in-flight packet. Idle systems
    /// report 0; an unstable instance (impossible under strict admission)
    /// reports infinity.
    ///
    /// Runs in `O(instances)` off the cached `(Λ_k, λ_ext_k)` pairs; the
    /// arithmetic below replays [`InstanceLoad::mean_delivery_response_time`]
    /// (stability domain check, idle-instance service time, `ρ/(1−ρ)`
    /// divided by the external rate) operation for operation, so the value
    /// is bit-identical to rebuilding every instance's load from its
    /// members.
    #[must_use]
    pub fn predicted_latency(&self) -> f64 {
        match self.latency_fold() {
            None => f64::INFINITY,
            Some(fold) if fold.external == 0.0 => 0.0,
            Some(fold) => fold.weighted / fold.external,
        }
    }

    /// The fold behind [`predicted_latency`](Self::predicted_latency):
    /// every non-empty instance's [`eq11_term`] and external rate, summed
    /// in `(VNF, instance)` order. `None` when an instance lies outside
    /// the stability domain.
    pub(crate) fn latency_fold(&self) -> Option<LatencyFold> {
        let mut fold = LatencyFold {
            weighted: 0.0,
            external: 0.0,
            terms: 0,
        };
        for slab in &self.slabs {
            for k in 0..slab.sums.len() {
                if slab.members[k].is_empty() {
                    continue;
                }
                let ext = slab.ext[k];
                fold.weighted += eq11_term(slab.sums[k], ext, slab.service)?;
                fold.external += ext;
                fold.terms += 1;
            }
        }
        Some(fold)
    }

    /// Encloses, in O(1), the [`predicted_latency`](Self::predicted_latency)
    /// this ledger would report after moving `member` of `vnf` from its
    /// home instance `s` to instance `t`. `fold` must be this ledger's
    /// [`latency_fold`](Self::latency_fold). `None` when the move cannot
    /// be bounded cheaply (bad coordinates, `t` equal to the home, a merged
    /// rate too close to `μ` to tell); the caller then measures it.
    ///
    /// A move within one VNF changes four quantities of the fold: the
    /// Eq. (11) term `ρ/(1−ρ)` and the external rate at `s` and at `t`.
    /// Every other term keeps its bits, and the external total is
    /// unchanged in real arithmetic. The estimate swaps the two terms in
    /// the fold's numerator `W`, re-evaluated at `Λ_s − a` and `Λ_t + a`
    /// (`a` the member's inflated rate), and keeps the denominator `E`.
    /// With `γ(j) = j·u/(1 − j·u)` and `u = 2⁻⁵³`, the interval is widened,
    /// in real arithmetic, by:
    ///
    /// - per re-evaluated term, `5·β/σ² + 3·γ(4)·t` (see [`moved_term`]):
    ///   its `ρ` is within `β` of the one the ledger re-sums, the slope of
    ///   `ρ/(1−ρ)` is at most `(2/σ)²` in between, and each side rounds at
    ///   most four times more;
    /// - in `W`, `3·γ(N)·S` for the current and the moved fold of at most
    ///   `N` terms (one more than this fold's length), each within `γ(N)`
    ///   of its real sum and at most `~1.01·S` for `S = W + t_s + t_t`, and
    ///   `γ(4)·S` for the estimate's own four roundings;
    /// - in `E`, `3·γ(n)` of the two runs' external sums (both runs re-sum
    ///   the same real total, each within `γ(n)` for runs of at most `n`
    ///   members) and `3·γ(N)·E` for the two folds.
    ///
    /// Fewer than 24 further roundings — the exact fold's division and the
    /// interval's own arithmetic — each move an endpoint by at most `u`
    /// times the upper endpoint, hence the final `γ(24)` slop.
    pub(crate) fn move_latency_bounds(
        &self,
        fold: &LatencyFold,
        vnf: VnfId,
        member: &Holding,
        t: usize,
    ) -> Option<(f64, f64)> {
        let slab = self.slab(vnf)?;
        let s = member.home;
        let (n_s, n_t) = (slab.members.get(s)?.len(), slab.members.get(t)?.len());
        if s == t || n_s == 0 {
            return None;
        }
        let old_term = |k: usize, run: usize| {
            if run == 0 {
                Some(0.0)
            } else {
                eq11_term(slab.sums[k], slab.ext[k], slab.service)
            }
        };
        let (old_s, old_t) = (old_term(s, n_s)?, old_term(t, n_t)?);
        let mu = slab.service.value();
        // A source left empty drops out of the fold exactly.
        let (new_s, err_s) = if n_s == 1 {
            (0.0, 0.0)
        } else {
            moved_term((slab.sums[s] - member.inflated) / mu, n_s)?
        };
        let (new_t, err_t) = moved_term((slab.sums[t] + member.inflated) / mu, n_t + 1)?;
        if new_t == f64::INFINITY {
            return Some((f64::INFINITY, f64::INFINITY));
        }
        let estimate = fold.weighted - old_s - old_t + new_s + new_t;
        let scale = fold.weighted + new_s.abs() + new_t;
        let folds = gamma(fold.terms + 1);
        let numerator = (gamma(4) + 3.0 * folds) * scale + 2.0 * (err_s + err_t);
        let denominator = 3.0 * gamma(n_s.max(n_t + 1)) * (slab.ext[s] + slab.ext[t])
            + 3.0 * folds * fold.external;
        if fold.external <= denominator {
            return None;
        }
        let hi = (estimate + numerator) / (fold.external - denominator);
        let slop = gamma(24) * hi;
        let lo = (estimate - numerator) / (fold.external + denominator) - slop;
        hi.is_finite().then_some((lo, hi + slop))
    }
}

/// A request as the scheduling phase plans it: its stored rates and the
/// instance holding it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Holding {
    pub(crate) id: RequestId,
    pub(crate) rate: ArrivalRate,
    /// The stored loss-inflated rate `λ_r/P_r`.
    pub(crate) inflated: f64,
    /// The instance holding the request.
    pub(crate) home: usize,
}

/// The Eq. (11) fold over every non-empty instance, in ledger order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatencyFold {
    /// `Σ ext·W(f,k)`.
    weighted: f64,
    /// `Σ ext`.
    external: f64,
    /// How many instances the fold visited.
    terms: usize,
}

/// One non-empty instance's addend `ext·W(f,k)` to the Eq. (11) fold
/// (`ρ/(1−ρ)` up to rounding), or `None` outside `Mm1Queue::new`'s
/// stability domain. The arithmetic replays
/// [`InstanceLoad::mean_delivery_response_time`] operation for operation.
fn eq11_term(lambda: f64, ext: f64, service: ServiceRate) -> Option<f64> {
    let mu = service.value();
    if !(lambda.is_finite() && lambda >= 0.0 && lambda < mu) {
        return None;
    }
    let w = if ext == 0.0 {
        service.mean_service_time()
    } else {
        let rho = lambda / mu;
        (rho / (1.0 - rho)) / ext
    };
    Some(ext * w)
}

/// The estimated term `ρ/(1−ρ)` at utilization `rho` of an instance whose
/// run (`run` members at its longest) gains or loses one member, and how
/// far the term the ledger computes after the move can lie from it (see
/// [`ControllerState::move_latency_bounds`]).
///
/// The estimate's merged rate `Λ ± a` and the ledger's re-summed one are
/// both within `γ(run)` of the run's real sum, relative to the larger of
/// the sums before and after, so with the two divisions by `μ` the
/// utilizations differ by at most `β = 3·γ(run + 2)·max(1, ρ)`. For
/// computed slack `σ = 1 − ρ ≥ 4·β` every `ρ` in between keeps a real slack
/// of at least `σ/2`. An infinite estimate marks a merged rate surely past
/// `μ` (the ledger's `ρ` then exceeds 1 by more than a rounding); `None`
/// one too close to `μ` to tell.
fn moved_term(rho: f64, run: usize) -> Option<(f64, f64)> {
    let beta = 3.0 * gamma(run + 2) * rho.max(1.0);
    let slack = 1.0 - rho;
    if slack >= 4.0 * beta {
        let term = rho / slack;
        Some((
            term,
            5.0 * beta / (slack * slack) + 3.0 * gamma(4) * term.abs(),
        ))
    } else if rho - 2.0 * beta > 1.0 {
        Some((f64::INFINITY, 0.0))
    } else {
        None
    }
}

/// Higham's `γ(j) = j·u/(1 − j·u)`, the relative error bound of `j`
/// roundings with unit roundoff `u = 2⁻⁵³`.
fn gamma(j: usize) -> f64 {
    let ju = j as f64 * (f64::EPSILON / 2.0);
    ju / (1.0 - ju)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_workload::ScenarioBuilder;

    fn state() -> (Scenario, ControllerState) {
        let scenario = ScenarioBuilder::new()
            .vnfs(4)
            .requests(24)
            .seed(2)
            .build()
            .unwrap();
        let state = ControllerState::new(&scenario);
        (scenario, state)
    }

    #[test]
    fn fresh_ledger_is_idle_and_up() {
        let (scenario, state) = state();
        for vnf in scenario.vnfs() {
            assert_eq!(state.instances(vnf.id()), vnf.instances() as usize);
            for k in 0..state.instances(vnf.id()) {
                assert!(state.is_up(vnf.id(), k));
                assert_eq!(state.instance_sum(vnf.id(), k), 0.0);
                assert_eq!(state.member_count(vnf.id(), k), 0);
            }
        }
    }

    #[test]
    fn add_then_remove_restores_sums_bit_for_bit() {
        let (scenario, mut state) = state();
        // Pre-load a few requests so the removal lands on non-trivial sums.
        for request in &scenario.requests()[..6] {
            for &vnf in request.chain() {
                let k = state.least_loaded_up(vnf).unwrap();
                state
                    .add_request(
                        vnf,
                        k,
                        request.id(),
                        request.arrival_rate(),
                        request.delivery(),
                    )
                    .unwrap();
            }
        }
        let snapshot = state.clone();
        let extra = &scenario.requests()[10];
        for &vnf in extra.chain() {
            let k = state.least_loaded_up(vnf).unwrap();
            state
                .add_request(vnf, k, extra.id(), extra.arrival_rate(), extra.delivery())
                .unwrap();
        }
        assert_ne!(state, snapshot);
        for &vnf in extra.chain() {
            assert!(state.remove_request(vnf, extra.id()).is_some());
        }
        assert_eq!(state, snapshot); // PartialEq compares f64 sums exactly
    }

    #[test]
    fn clone_from_onto_a_differing_ledger_equals_clone() {
        let (scenario, _) = state();
        let load = |state: &mut ControllerState, requests: &[nfv_model::Request]| {
            for request in requests {
                for &vnf in request.chain() {
                    let k = state.least_loaded_up(vnf).unwrap();
                    state
                        .add_request(
                            vnf,
                            k,
                            request.id(),
                            request.arrival_rate(),
                            request.delivery(),
                        )
                        .unwrap();
                }
            }
        };
        let vnf = scenario.vnfs()[0].id();
        for warm_source in [false, true] {
            let mut source = ControllerState::new(&scenario);
            load(&mut source, &scenario.requests()[..8]);
            assert!(source.mark_down(vnf, 0));
            if warm_source {
                let _ = source.balanced_latency();
            }
            // The target has another instance count, other member runs,
            // and a balanced-W cache warmed on its own members — stale
            // once the source's state lands on it.
            let mut target = ControllerState::new(&scenario);
            target.add_instance(vnf).unwrap();
            load(&mut target, &scenario.requests()[8..20]);
            let _ = target.balanced_latency();
            assert_ne!(target.instances(vnf), source.instances(vnf));
            let cloned = source.clone();
            target.clone_from(&source);
            assert_eq!(target, cloned);
            assert_eq!(target.instances(vnf), source.instances(vnf));
            assert_eq!(
                target.balanced_latency().to_bits(),
                cloned.balanced_latency().to_bits()
            );
            assert_eq!(
                target.balanced_latency().to_bits(),
                source.balanced_latency_from_scratch().to_bits()
            );
            assert_eq!(
                target.predicted_latency().to_bits(),
                cloned.predicted_latency().to_bits()
            );
        }
    }

    #[test]
    fn utilization_of_bad_coordinates_is_typed_not_a_panic() {
        let (scenario, mut state) = state();
        let vnf = scenario.vnfs()[0].id();
        let request = &scenario.requests()[0];
        state
            .add_request(
                vnf,
                0,
                request.id(),
                request.arrival_rate(),
                request.delivery(),
            )
            .unwrap();
        assert!(state.utilization(vnf, 0) > 0.0);
        assert_eq!(state.try_utilization(vnf, 0), Ok(state.utilization(vnf, 0)));
        // Out-of-range instance: formerly `sums[instance]` panicked here.
        let beyond = state.instances(vnf);
        assert_eq!(state.utilization(vnf, beyond), 0.0);
        assert_eq!(
            state.try_utilization(vnf, beyond),
            Err(ControllerError::NoSuchInstance {
                vnf,
                instance: beyond
            })
        );
        let ghost = VnfId::new(9_999);
        assert_eq!(state.utilization(ghost, 0), 0.0);
        assert_eq!(
            state.try_utilization(ghost, 0),
            Err(ControllerError::UnknownVnf { vnf: ghost })
        );
    }

    #[test]
    fn least_loaded_skips_down_instances() {
        let (scenario, mut state) = state();
        let vnf = scenario
            .vnfs()
            .iter()
            .find(|v| v.instances() >= 2)
            .unwrap()
            .id();
        state.mark_down(vnf, 0);
        assert_ne!(state.least_loaded_up(vnf), Some(0));
        for k in 0..state.instances(vnf) {
            state.mark_down(vnf, k);
        }
        assert_eq!(state.least_loaded_up(vnf), None);
    }

    #[test]
    fn overlapping_outages_stack_instead_of_resurrecting() {
        // Regression: two overlapping outage windows on the same instance.
        // The first recovery must NOT bring the instance back; only the
        // last one may.
        let (scenario, mut state) = state();
        let vnf = scenario.vnfs()[0].id();
        assert!(state.mark_down(vnf, 0)); // first outage opens
        assert!(state.mark_down(vnf, 0)); // second overlaps
        assert_eq!(state.outage_depth(vnf, 0), 2);
        assert!(state.mark_up(vnf, 0)); // first outage ends
        assert!(!state.is_up(vnf, 0), "still inside the second outage");
        assert!(state.mark_up(vnf, 0)); // second outage ends
        assert!(state.is_up(vnf, 0));
        // A further recovery is stale, not a resurrection.
        assert!(!state.mark_up(vnf, 0));
        assert!(state.is_up(vnf, 0));
    }

    #[test]
    fn stale_coordinates_are_reported_not_applied() {
        let (scenario, mut state) = state();
        let vnf = scenario.vnfs()[0].id();
        let snapshot = state.clone();
        assert!(!state.mark_down(vnf, 999), "unknown instance");
        assert!(!state.mark_down(VnfId::new(999), 0), "unknown VNF");
        assert!(!state.mark_up(vnf, 0), "instance was never down");
        assert_eq!(state, snapshot, "stale events change nothing");
    }

    #[test]
    fn host_down_blanks_the_whole_vnf() {
        let (scenario, mut state) = state();
        let vnf = scenario.vnfs()[0].id();
        assert!(state.fully_available());
        state.set_host_down(vnf, true);
        assert!(state.host_down(vnf));
        assert_eq!(state.up_count(vnf), 0);
        assert_eq!(state.least_loaded_up(vnf), None);
        assert!(!state.is_up(vnf, 0));
        assert!(!state.fully_available());
        // Per-instance outage depth is preserved underneath.
        state.mark_down(vnf, 0);
        state.set_host_down(vnf, false);
        assert!(!state.is_up(vnf, 0), "its own outage window is still open");
        assert!(state.is_up(vnf, 1));
        assert!(state.fully_available());
    }

    #[test]
    fn can_accept_within_tightens_the_budget() {
        let (scenario, state) = state();
        let vnf = &scenario.vnfs()[0];
        let mu = vnf.service_rate().value();
        let id = vnf.id();
        let near = ArrivalRate::new(mu * 0.9).unwrap();
        assert!(state.can_accept(id, 0, near, DeliveryProbability::PERFECT));
        assert!(!state.can_accept_within(id, 0, near, DeliveryProbability::PERFECT, 0.85));
        let small = ArrivalRate::new(mu * 0.5).unwrap();
        assert!(state.can_accept_within(id, 0, small, DeliveryProbability::PERFECT, 0.85));
    }

    #[test]
    fn can_accept_enforces_strict_stability_and_up() {
        let (scenario, mut state) = state();
        let vnf = &scenario.vnfs()[0];
        let mu = vnf.service_rate().value();
        let id = vnf.id();
        let exact = ArrivalRate::new(mu).unwrap();
        let below = ArrivalRate::new(mu * 0.999).unwrap();
        assert!(!state.can_accept(id, 0, exact, DeliveryProbability::PERFECT));
        assert!(state.can_accept(id, 0, below, DeliveryProbability::PERFECT));
        state.mark_down(id, 0);
        assert!(!state.can_accept(id, 0, below, DeliveryProbability::PERFECT));
    }

    #[test]
    fn duplicate_and_bad_coordinates_error() {
        let (scenario, mut state) = state();
        let request = &scenario.requests()[0];
        let vnf = request.chain().as_slice()[0];
        state
            .add_request(
                vnf,
                0,
                request.id(),
                request.arrival_rate(),
                request.delivery(),
            )
            .unwrap();
        assert!(matches!(
            state.add_request(
                vnf,
                0,
                request.id(),
                request.arrival_rate(),
                request.delivery()
            ),
            Err(ControllerError::DuplicateAssignment { .. })
        ));
        assert!(matches!(
            state.add_request(
                vnf,
                999,
                RequestId::new(9999),
                request.arrival_rate(),
                request.delivery()
            ),
            Err(ControllerError::NoSuchInstance { .. })
        ));
        assert!(matches!(
            state.add_request(
                VnfId::new(999),
                0,
                RequestId::new(9999),
                request.arrival_rate(),
                request.delivery()
            ),
            Err(ControllerError::UnknownVnf { .. })
        ));
        assert_eq!(state.remove_request(vnf, RequestId::new(4242)), None);
    }

    #[test]
    fn move_request_errors_are_typed_and_change_nothing() {
        let (scenario, mut state) = state();
        let request = &scenario.requests()[0];
        let vnf = request.chain().as_slice()[0];
        state
            .add_request(
                vnf,
                0,
                request.id(),
                request.arrival_rate(),
                request.delivery(),
            )
            .unwrap();
        let before = state.clone();
        let ghost = VnfId::new(9_999);
        assert_eq!(
            state.move_request(ghost, request.id(), 0),
            Err(ControllerError::UnknownVnf { vnf: ghost })
        );
        let beyond = state.instances(vnf);
        assert_eq!(
            state.move_request(vnf, request.id(), beyond),
            Err(ControllerError::NoSuchInstance {
                vnf,
                instance: beyond
            })
        );
        let stranger = RequestId::new(4242);
        assert_eq!(
            state.move_request(vnf, stranger, 0),
            Err(ControllerError::NotAssigned {
                vnf,
                request: stranger
            })
        );
        assert_eq!(state, before, "a refused move changes nothing");
        // A move reports the instance it left; moving back restores the
        // ledger.
        let last = state.instances(vnf) - 1;
        assert_eq!(state.move_request(vnf, request.id(), last), Ok(0));
        assert_eq!(state.home_of(vnf, request.id()), Some(last));
        assert_eq!(
            state.traffic_of(vnf, request.id()),
            Some((request.arrival_rate(), request.delivery()))
        );
        assert_eq!(state.move_request(vnf, request.id(), 0), Ok(last));
        assert_eq!(state, before);
    }

    #[test]
    fn instance_load_matches_sums() {
        let (scenario, mut state) = state();
        for request in &scenario.requests()[..8] {
            for &vnf in request.chain() {
                let k = state.least_loaded_up(vnf).unwrap();
                state
                    .add_request(
                        vnf,
                        k,
                        request.id(),
                        request.arrival_rate(),
                        request.delivery(),
                    )
                    .unwrap();
            }
        }
        for vnf in scenario.vnfs() {
            for k in 0..state.instances(vnf.id()) {
                let load = state.instance_load(vnf.id(), k).unwrap();
                assert!(
                    (load.equivalent_arrival_rate() - state.instance_sum(vnf.id(), k)).abs()
                        < 1e-12
                );
                assert_eq!(load.request_count(), state.member_count(vnf.id(), k));
            }
        }
    }

    #[test]
    fn add_then_retire_instance_restores_ledger_bit_for_bit() {
        let (scenario, mut state) = state();
        for request in &scenario.requests()[..6] {
            for &vnf in request.chain() {
                let k = state.least_loaded_up(vnf).unwrap();
                state
                    .add_request(
                        vnf,
                        k,
                        request.id(),
                        request.arrival_rate(),
                        request.delivery(),
                    )
                    .unwrap();
            }
        }
        let snapshot = state.clone();
        let vnf = scenario.vnfs()[0].id();
        let m = state.instances(vnf);
        let k = state.add_instance(vnf).unwrap();
        assert_eq!(k, m);
        assert!(state.is_up(vnf, k));
        assert_eq!(state.instance_sum(vnf, k), 0.0);
        assert_ne!(state, snapshot);
        assert_eq!(state.retire_instance(vnf).unwrap(), m);
        assert_eq!(state, snapshot);
    }

    #[test]
    fn retire_refuses_occupied_and_last_instances() {
        let (scenario, mut state) = state();
        let vnf = scenario.vnfs()[0].id();
        let request = scenario
            .requests()
            .iter()
            .find(|r| r.uses(vnf))
            .expect("some request uses vnf 0");
        let last = state.instances(vnf) - 1;
        state
            .add_request(
                vnf,
                last,
                request.id(),
                request.arrival_rate(),
                request.delivery(),
            )
            .unwrap();
        assert!(matches!(
            state.retire_instance(vnf),
            Err(ControllerError::InstanceOccupied { .. })
        ));
        state.remove_request(vnf, request.id());
        // Retire down to one instance, then refuse the last.
        while state.instances(vnf) > 1 {
            state.retire_instance(vnf).unwrap();
        }
        assert!(matches!(
            state.retire_instance(vnf),
            Err(ControllerError::LastInstance { .. })
        ));
        assert!(matches!(
            state.retire_instance(VnfId::new(999)),
            Err(ControllerError::UnknownVnf { .. })
        ));
    }

    #[test]
    fn balanced_latency_drops_when_an_instance_is_added() {
        let (scenario, mut state) = state();
        assert_eq!(state.balanced_latency(), 0.0);
        for request in scenario.requests() {
            for &vnf in request.chain() {
                let k = state.least_loaded_up(vnf).unwrap();
                state
                    .add_request(
                        vnf,
                        k,
                        request.id(),
                        request.arrival_rate(),
                        request.delivery(),
                    )
                    .unwrap();
            }
        }
        let before = state.balanced_latency();
        assert!(before > 0.0 && before.is_finite());
        // predicted_latency ignores an empty instance; the balanced
        // projection must credit it.
        let vnf = scenario.vnfs()[0].id();
        let predicted_before = state.predicted_latency();
        state.add_instance(vnf).unwrap();
        assert_eq!(state.predicted_latency(), predicted_before);
        assert!(
            state.balanced_latency() < before,
            "spreading load over one more instance must lower the balanced mean"
        );
        // A loaded VNF with no up instance projects unbounded latency.
        for k in 0..state.instances(vnf) {
            state.mark_down(vnf, k);
        }
        assert_eq!(state.balanced_latency(), f64::INFINITY);
    }

    #[test]
    fn predicted_latency_is_zero_when_idle_and_positive_under_load() {
        let (scenario, mut state) = state();
        assert_eq!(state.predicted_latency(), 0.0);
        let request = &scenario.requests()[0];
        for &vnf in request.chain() {
            state
                .add_request(
                    vnf,
                    0,
                    request.id(),
                    request.arrival_rate(),
                    request.delivery(),
                )
                .unwrap();
        }
        assert!(state.predicted_latency() > 0.0);
    }

    #[test]
    fn cached_balanced_latency_matches_from_scratch_recompute() {
        let (scenario, mut state) = state();
        for request in &scenario.requests()[..12] {
            for &vnf in request.chain() {
                let k = state.least_loaded_up(vnf).unwrap();
                state
                    .add_request(
                        vnf,
                        k,
                        request.id(),
                        request.arrival_rate(),
                        request.delivery(),
                    )
                    .unwrap();
            }
        }
        let vnf = scenario.vnfs()[0].id();
        // Warm the cache, mutate, probe again: the incremental aggregate
        // must track the oracle bit for bit through every step.
        assert_eq!(
            state.balanced_latency().to_bits(),
            state.balanced_latency_from_scratch().to_bits()
        );
        state.mark_down(vnf, 0);
        assert_eq!(
            state.balanced_latency().to_bits(),
            state.balanced_latency_from_scratch().to_bits()
        );
        state.mark_up(vnf, 0);
        let extra = &scenario.requests()[20];
        for &v in extra.chain() {
            let k = state.least_loaded_up(v).unwrap();
            state
                .add_request(v, k, extra.id(), extra.arrival_rate(), extra.delivery())
                .unwrap();
            assert_eq!(
                state.balanced_latency().to_bits(),
                state.balanced_latency_from_scratch().to_bits()
            );
        }
    }
}
