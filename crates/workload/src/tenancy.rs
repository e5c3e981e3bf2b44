//! Multi-tenant trace interleaving: N independent tenant event streams
//! merged into one deterministic, virtual-time-ordered fleet stream.
//!
//! Each tenant is an isolated world — its own [`Scenario`](crate::Scenario),
//! its own churn trace, its own id space — but a fleet process consumes
//! them as a single stream. The merge order is total and seed-stable:
//! events sort by `(time, tenant, per-tenant sequence)`, so simultaneous
//! events across tenants resolve by tenant id and a tenant's own events
//! never reorder. Times are the non-negative finite virtual seconds the
//! churn layer guarantees, compared via `to_bits` (exact, no float
//! comparator).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::churn::TimedEvent;

/// Identifier of one tenant in a fleet (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// Creates a tenant id from its dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The dense index as `usize` (for slab addressing).
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// The dense index.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Derives a tenant's private seed from the fleet seed: a SplitMix64
/// finalizer over the golden-ratio-striped tenant index, so neighbouring
/// tenants get decorrelated streams while the whole fleet stays a pure
/// function of one seed.
#[must_use]
pub fn tenant_seed(fleet_seed: u64, tenant: TenantId) -> u64 {
    let mut x = fleet_seed.wrapping_add(
        u64::from(tenant.as_u32().wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One tenant's event inside the merged fleet stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEvent {
    tenant: TenantId,
    seq: u64,
    event: TimedEvent,
}

impl TenantEvent {
    /// The tenant the event belongs to.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The event's 0-based position within its tenant's own stream.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The timed event itself.
    #[must_use]
    pub fn event(&self) -> &TimedEvent {
        &self.event
    }

    /// Decomposes into `(tenant, seq, event)`, consuming the wrapper.
    #[must_use]
    pub fn into_parts(self) -> (TenantId, u64, TimedEvent) {
        (self.tenant, self.seq, self.event)
    }
}

/// Heap entry: the current head of one tenant stream, ordered by the
/// merge key `(time.to_bits(), tenant, seq)`. The BinaryHeap is a
/// max-heap, so comparisons are reversed to pop the smallest key first.
#[derive(Debug)]
struct Head {
    key: (u64, u32, u64),
    event: TimedEvent,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A lazy k-way merge of per-tenant event streams into one fleet stream
/// ordered by `(time, tenant, seq)`. Consumes the underlying iterators
/// one event at a time, so interleaving N lazy
/// [`ChurnStream`](crate::churn::ChurnStream)s never materializes a
/// tenant's whole trace.
#[derive(Debug)]
pub struct TenantInterleave<I: Iterator<Item = TimedEvent>> {
    streams: Vec<I>,
    seqs: Vec<u64>,
    heads: BinaryHeap<Head>,
}

impl<I: Iterator<Item = TimedEvent>> TenantInterleave<I> {
    /// Creates the merge over one stream per tenant; stream `i` becomes
    /// `TenantId::new(i)`. Each stream must already be in
    /// non-decreasing time order (churn traces and streams are).
    #[must_use]
    pub fn new(streams: Vec<I>) -> Self {
        let mut this = Self {
            seqs: vec![0; streams.len()],
            heads: BinaryHeap::with_capacity(streams.len()),
            streams,
        };
        for tenant in 0..this.streams.len() {
            this.refill(tenant);
        }
        this
    }

    /// Pulls the next event of `tenant`'s stream into the heap.
    fn refill(&mut self, tenant: usize) {
        if let Some(event) = self.streams[tenant].next() {
            let seq = self.seqs[tenant];
            self.seqs[tenant] += 1;
            self.heads.push(Head {
                key: (event.time().to_bits(), tenant as u32, seq),
                event,
            });
        }
    }
}

impl<I: Iterator<Item = TimedEvent>> Iterator for TenantInterleave<I> {
    type Item = TenantEvent;

    fn next(&mut self) -> Option<Self::Item> {
        let head = self.heads.pop()?;
        let (_, tenant, seq) = head.key;
        self.refill(tenant as usize);
        Some(TenantEvent {
            tenant: TenantId::new(tenant),
            seq,
            event: head.event,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnEvent, ChurnTraceBuilder};
    use crate::{ScenarioBuilder, ServiceRatePolicy};

    fn tick(time: f64) -> TimedEvent {
        TimedEvent::new(time, ChurnEvent::ReoptimizeTick)
    }

    #[test]
    fn merge_orders_by_time_then_tenant_then_seq() {
        let streams = vec![
            vec![tick(0.0), tick(2.0), tick(2.0)].into_iter(),
            vec![tick(0.0), tick(1.0)].into_iter(),
            vec![tick(2.0)].into_iter(),
        ];
        let order: Vec<(u32, u64, f64)> = TenantInterleave::new(streams)
            .map(|e| (e.tenant().as_u32(), e.seq(), e.event().time()))
            .collect();
        assert_eq!(
            order,
            vec![
                // t=0: tenants in id order.
                (0, 0, 0.0),
                (1, 0, 0.0),
                (1, 1, 1.0),
                // t=2: tenant 0's two same-time events keep their seq
                // order, tenant 2 follows.
                (0, 1, 2.0),
                (0, 2, 2.0),
                (2, 0, 2.0),
            ]
        );
    }

    #[test]
    fn merge_of_real_streams_equals_stable_sort_of_tagged_union() {
        let fleet_seed = 99u64;
        let tenants = 5u32;
        let scenarios: Vec<_> = (0..tenants)
            .map(|t| {
                ScenarioBuilder::new()
                    .vnfs(3)
                    .requests(8)
                    .service_rate_policy(ServiceRatePolicy::ScaledToLoad {
                        target_utilization: 0.5,
                    })
                    .seed(tenant_seed(fleet_seed, TenantId::new(t)))
                    .build()
                    .unwrap()
            })
            .collect();
        let builder = || {
            ChurnTraceBuilder::new()
                .horizon(30.0)
                .arrival_rate(0.7)
                .mean_holding(8.0)
                .tick_period(10.0)
        };
        // Oracle: materialize every tenant's trace, tag, stable-sort by
        // (time, tenant) — stability preserves per-tenant seq order.
        let mut oracle: Vec<(u32, TimedEvent)> = Vec::new();
        for (t, s) in scenarios.iter().enumerate() {
            let trace = builder().seed(t as u64).build(s).unwrap();
            oracle.extend(trace.events().iter().map(|e| (t as u32, e.clone())));
        }
        oracle.sort_by_key(|(t, e)| (e.time().to_bits(), *t));
        // Subject: the lazy k-way merge over the streaming generators.
        let streams: Vec<_> = scenarios
            .iter()
            .enumerate()
            .map(|(t, s)| builder().seed(t as u64).stream(s).unwrap())
            .collect();
        let merged: Vec<(u32, TimedEvent)> = TenantInterleave::new(streams)
            .map(|e| {
                let (tenant, _, event) = e.into_parts();
                (tenant.as_u32(), event)
            })
            .collect();
        assert_eq!(merged, oracle);
    }

    #[test]
    fn tenant_seeds_are_deterministic_and_distinct() {
        let a = tenant_seed(7, TenantId::new(0));
        assert_eq!(a, tenant_seed(7, TenantId::new(0)));
        let seeds: std::collections::BTreeSet<u64> =
            (0..256).map(|t| tenant_seed(7, TenantId::new(t))).collect();
        assert_eq!(seeds.len(), 256, "no collisions across a 256-fleet");
        assert_ne!(
            tenant_seed(7, TenantId::new(1)),
            tenant_seed(8, TenantId::new(1)),
            "fleet seed matters"
        );
    }

    #[test]
    fn tenant_id_formats_and_indexes() {
        let t = TenantId::new(3);
        assert_eq!(t.to_string(), "tenant3");
        assert_eq!(t.as_usize(), 3);
        assert_eq!(t.as_u32(), 3);
    }
}
