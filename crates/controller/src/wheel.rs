//! A hierarchical timer wheel: the due-time index behind [`RetryQueue`].
//!
//! The retry queue used to keep every pending re-offer in one global
//! `BTreeMap` keyed by `(due_time.to_bits(), seq)`. That is simple and
//! totally ordered, but every `pop_due` probe pays an `O(log n)` descent
//! over the *whole* pending set even when nothing is due — and with
//! hundreds of tenant controllers multiplexed in one process, the probes
//! vastly outnumber the pops. The wheel turns the common "nothing due
//! yet" probe into `O(1)`: entries are hashed by quantized due *tick*
//! into 64-slot levels of geometrically coarser resolution, and only the
//! slots the virtual clock actually crosses are ever touched.
//!
//! # Ordering contract
//!
//! The wheel is **pop-order-identical** to the `BTreeMap` it replaced,
//! bit for bit, including exact `(due.to_bits(), seq)` ties. Two
//! mechanisms guarantee it:
//!
//! * advancing the wheel to tick `T = floor(upto / resolution)` moves
//!   *every* entry with tick ≤ T into the `ready` map — and an entry's
//!   due time `d` satisfies `d ≤ upto ⇒ tick(d) ≤ T`, so everything
//!   possibly due is in `ready` before any pop;
//! * `ready` is itself keyed by `(due.to_bits(), seq)`, so the minimum
//!   of `ready` over the `d ≤ upto` subset *is* the global minimum the
//!   oracle would pop. Entries scheduled at or before the current tick
//!   (a retry re-scheduled mid-drain) insert straight into `ready`,
//!   preserving the order under interleaved schedule/pop sequences.
//!
//! The equivalence is pinned by a property test against the retained
//! `BTreeMap` oracle (see `retry.rs`).
//!
//! Quantization never reorders anything: the tick only decides *when* an
//! entry migrates into `ready`, while the pop itself always re-checks
//! the exact `f64` due time against `upto`.
//!
//! # Cost model
//!
//! `advance` walks virtual time one tick (`1/16 s`) at a time, so a run
//! pays `O(horizon / resolution)` empty-slot checks plus one cascade per
//! entry per level crossed — both trivially small next to the event
//! work. Entries further out than the wheel's span (`64^4` ticks ≈ 12
//! virtual days) wait in a far-future overflow map and are pulled in
//! logarithmically, so a pathological backoff cannot make the wheel
//! step for ever; and when the wheel holds nothing at all, `advance`
//! jumps to the target tick in `O(1)`.

use std::collections::BTreeMap;

/// Seconds of virtual time per wheel tick.
const RESOLUTION: f64 = 1.0 / 16.0;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot index mask.
const MASK: u64 = (SLOTS as u64) - 1;
/// Hierarchy depth: the wheel spans `64^LEVELS` ticks before the
/// overflow map takes over.
const LEVELS: usize = 4;

/// One scheduled entry: the oracle key it must pop under, plus the
/// caller's payload. The due time is recoverable from the key
/// (`f64::from_bits(key.0)`), so it is not stored twice.
#[derive(Debug, Clone, PartialEq)]
struct Scheduled<T> {
    key: (u64, u64),
    value: T,
}

/// The wheel. Generic over the payload so the structure stays a pure
/// due-time index; [`RetryQueue`](crate::retry) instantiates it with its
/// entry type.
///
/// Invariants:
///
/// * every entry's key is `(due.to_bits(), seq)` with `due` finite and
///   non-negative (the caller's domain check, same as the oracle's);
/// * after `advance(T)`, no entry with quantized tick ≤ `T` remains in
///   a level slot or the overflow map — they are all in `ready`;
/// * `len` counts entries across `ready`, the levels and `overflow`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TimerWheel<T> {
    /// `levels[l][s]`: entries whose tick lands in slot `s` of level `l`.
    levels: Vec<Vec<Vec<Scheduled<T>>>>,
    /// Expired entries in oracle order, awaiting a `pop_due` that covers
    /// their exact due time.
    ready: BTreeMap<(u64, u64), T>,
    /// Entries beyond the wheel's span, keyed like `ready`.
    overflow: BTreeMap<(u64, u64), T>,
    /// The tick the wheel has fully cascaded up to.
    current: u64,
    /// Entries residing in the level slots (not `ready`/`overflow`).
    in_levels: usize,
    /// Total entries.
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            ready: BTreeMap::new(),
            overflow: BTreeMap::new(),
            current: 0,
            in_levels: 0,
            len: 0,
        }
    }
}

impl<T> TimerWheel<T> {
    /// Total pending entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The quantized tick of a due time. Saturates for huge values (the
    /// `as` cast clamps), which only defers migration to `ready` — the
    /// pop still checks the exact due time.
    fn tick_of(due: f64) -> u64 {
        (due / RESOLUTION) as u64
    }

    /// Inserts an entry under its oracle key. The caller guarantees
    /// `key.0` encodes a finite, non-negative due time.
    pub(crate) fn insert(&mut self, key: (u64, u64), value: T) {
        let tick = Self::tick_of(f64::from_bits(key.0));
        self.len += 1;
        if tick <= self.current {
            // Already expired relative to the wheel position: straight
            // into `ready`, where the oracle order puts it ahead of or
            // behind its peers by `(due bits, seq)` exactly.
            self.ready.insert(key, value);
        } else {
            self.place(tick, Scheduled { key, value });
        }
    }

    /// Hashes an un-expired entry into the shallowest level whose span
    /// covers its distance from the current tick, or into the overflow
    /// map beyond the wheel's span.
    fn place(&mut self, tick: u64, entry: Scheduled<T>) {
        let delta = tick - self.current;
        for level in 0..LEVELS {
            let span_bits = SLOT_BITS * (level as u32 + 1);
            if span_bits < u64::BITS && delta >= 1u64 << span_bits {
                continue;
            }
            let slot = ((tick >> (SLOT_BITS * level as u32)) & MASK) as usize;
            self.levels[level][slot].push(entry);
            self.in_levels += 1;
            return;
        }
        self.overflow.insert(entry.key, entry.value);
    }

    /// Re-files an entry drained from a cascading slot: expired entries
    /// land in `ready`, the rest re-hash into a finer level.
    fn refile(&mut self, entry: Scheduled<T>) {
        let tick = Self::tick_of(f64::from_bits(entry.key.0));
        if tick <= self.current {
            self.ready.insert(entry.key, entry.value);
        } else {
            self.place(tick, entry);
        }
    }

    /// Advances the wheel to `target`, migrating every entry with tick
    /// ≤ `target` into `ready`. Monotone: a smaller target is a no-op.
    fn advance(&mut self, target: u64) {
        // Far-future entries whose tick the target now covers skip the
        // wheel entirely: `overflow` shares the oracle key order, so its
        // prefix is exactly the expired set.
        while let Some(entry) = self.overflow.first_entry() {
            if Self::tick_of(f64::from_bits(entry.key().0)) > target {
                break;
            }
            let (key, value) = entry.remove_entry();
            self.ready.insert(key, value);
        }
        while self.current < target {
            if self.in_levels == 0 {
                // Nothing left to cascade: jump. (Entries still in
                // `overflow` have ticks beyond `target` by the loop
                // above, and future inserts re-hash relative to the new
                // position.)
                self.current = target;
                return;
            }
            self.current += 1;
            let now = self.current;
            // Cascade every coarser level whose window wraps at this
            // tick, finest first, so entries migrate down level by
            // level exactly once per crossing.
            for level in 1..LEVELS {
                let span_bits = SLOT_BITS * level as u32;
                if now & ((1u64 << span_bits) - 1) != 0 {
                    break;
                }
                let slot = ((now >> span_bits) & MASK) as usize;
                let drained = std::mem::take(&mut self.levels[level][slot]);
                self.in_levels -= drained.len();
                for entry in drained {
                    self.refile(entry);
                }
            }
            let slot = (now & MASK) as usize;
            let drained = std::mem::take(&mut self.levels[0][slot]);
            self.in_levels -= drained.len();
            for entry in drained {
                self.refile(entry);
            }
        }
    }

    /// Removes and returns the entry with the smallest `(due bits, seq)`
    /// key among those due at or before `upto`, or `None`.
    pub(crate) fn pop_due(&mut self, upto: f64) -> Option<((u64, u64), T)> {
        if self.len == 0 {
            return None;
        }
        self.advance(Self::tick_of(upto));
        let entry = self.ready.first_entry()?;
        if f64::from_bits(entry.key().0) > upto {
            return None;
        }
        self.len -= 1;
        Some(entry.remove_entry())
    }

    /// Every pending payload in oracle key order — so reductions over
    /// the pending set (`pending_rate`'s f64 sum) visit entries in the
    /// exact order the `BTreeMap` scan did, keeping the folded values
    /// bit-identical.
    pub(crate) fn values_sorted(&self) -> Vec<&T> {
        self.entries_sorted()
            .into_iter()
            .map(|(_, value)| value)
            .collect()
    }

    /// Every pending `(key, payload)` pair in oracle key order — the
    /// wheel's canonical export shape. Re-inserting the pairs in this
    /// order into a fresh wheel reproduces the pop order bit-exactly
    /// (the snapshot/restore path relies on this).
    pub(crate) fn entries_sorted(&self) -> Vec<(&(u64, u64), &T)> {
        let mut all: Vec<(&(u64, u64), &T)> = Vec::with_capacity(self.len);
        all.extend(self.ready.iter());
        all.extend(self.overflow.iter());
        for level in &self.levels {
            for slot in level {
                for entry in slot {
                    all.push((&entry.key, &entry.value));
                }
            }
        }
        all.sort_unstable_by_key(|(key, _)| **key);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(due: f64, seq: u64) -> (u64, u64) {
        (due.to_bits(), seq)
    }

    #[test]
    fn pops_in_due_order_across_levels() {
        let mut wheel = TimerWheel::default();
        // One entry per level distance: slot-local, one rotation out,
        // two levels out, and beyond the wheel's span (overflow).
        let dues = [
            0.5,
            RESOLUTION * 100.0,
            RESOLUTION * 10_000.0,
            RESOLUTION * 20_000_000.0,
        ];
        for (i, &due) in dues.iter().enumerate().rev() {
            wheel.insert(key(due, i as u64), i);
        }
        assert_eq!(wheel.len(), 4);
        for (i, &due) in dues.iter().enumerate() {
            assert!(wheel.pop_due(due - RESOLUTION * 0.5).is_none());
            let ((bits, seq), value) = wheel.pop_due(due).expect("due now");
            assert_eq!((f64::from_bits(bits), seq, value), (due, i as u64, i));
        }
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn same_quantum_orders_by_exact_due_then_seq() {
        let mut wheel = TimerWheel::default();
        // Three entries inside one tick quantum: exact dues order them,
        // and the exact tie (same bits) falls back to seq.
        wheel.insert(key(1.03, 0), "late");
        wheel.insert(key(1.01, 1), "early-a");
        wheel.insert(key(1.01, 2), "early-b");
        assert_eq!(wheel.pop_due(2.0).unwrap().1, "early-a");
        assert_eq!(wheel.pop_due(2.0).unwrap().1, "early-b");
        assert_eq!(wheel.pop_due(2.0).unwrap().1, "late");
    }

    #[test]
    fn interleaved_insert_after_advance_goes_to_ready() {
        let mut wheel = TimerWheel::default();
        wheel.insert(key(10.0, 0), "far");
        // Advance past 5 s, then schedule something at 3 s (a re-offer
        // computed mid-drain): it must pop before the 10 s entry.
        assert!(wheel.pop_due(5.0).is_none());
        wheel.insert(key(3.0, 1), "back-dated");
        assert_eq!(wheel.pop_due(20.0).unwrap().1, "back-dated");
        assert_eq!(wheel.pop_due(20.0).unwrap().1, "far");
    }

    #[test]
    fn empty_wheel_jumps_without_stepping() {
        let mut wheel: TimerWheel<u8> = TimerWheel::default();
        // A huge probe on an empty wheel must return instantly.
        assert!(wheel.pop_due(1e15).is_none());
        wheel.insert(key(1e15 + 1.0, 0), 7);
        assert!(wheel.pop_due(1e15).is_none());
        assert_eq!(wheel.pop_due(1e15 + 2.0).unwrap().1, 7);
    }

    #[test]
    fn values_sorted_is_key_ordered() {
        let mut wheel = TimerWheel::default();
        for (i, due) in [9.0, 1.0, 5.0, 100.0, 40_000.0].into_iter().enumerate() {
            wheel.insert(key(due, i as u64), due);
        }
        let seen: Vec<f64> = wheel.values_sorted().into_iter().copied().collect();
        assert_eq!(seen, vec![1.0, 5.0, 9.0, 100.0, 40_000.0]);
    }

    #[test]
    fn reinserting_sorted_entries_reproduces_pop_order() {
        let mut wheel = TimerWheel::default();
        for (i, due) in [9.0, 1.0, 5.0, 100.0, 40_000.0, 1.0]
            .into_iter()
            .enumerate()
        {
            wheel.insert(key(due, i as u64), i);
        }
        // Advance partway so some entries sit in `ready`.
        assert!(wheel.pop_due(2.0).is_some());
        let mut rebuilt = TimerWheel::default();
        for (k, v) in wheel.entries_sorted() {
            rebuilt.insert(*k, *v);
        }
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        loop {
            match (rebuilt.pop_due(1e9), wheel.pop_due(1e9)) {
                (Some(a), Some(b)) => {
                    popped.push(a);
                    expected.push(b);
                }
                (None, None) => break,
                _ => panic!("rebuilt wheel diverged in length"),
            }
        }
        assert_eq!(popped, expected);
    }
}
