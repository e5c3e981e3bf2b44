//! The bounded FIFO behind the journal ring and the tick series, and the
//! O(1) marks a session rewinds it to.

use std::collections::VecDeque;

/// A position in a [`Ring`]: the entries it retained and the entries it
/// had evicted. Two integers, so a mark owns no heap memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RingMark {
    len: usize,
    dropped: u64,
}

/// Keeps the most recent `capacity` entries, oldest first, and counts
/// the ones that fell off the front.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ring<T> {
    capacity: usize,
    entries: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries, with room for the
    /// first 1,024 reserved up front.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
        }
    }

    /// A ring holding at most `capacity` entries that reserves nothing
    /// until the first push.
    pub(crate) fn unreserved(capacity: usize) -> Self {
        Self {
            capacity,
            entries: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends `entry`, evicting the oldest entry when the ring is full,
    /// and returns the evicted entry (`entry` itself at capacity 0).
    pub(crate) fn push(&mut self, entry: T) -> Option<T> {
        if self.capacity == 0 {
            self.dropped += 1;
            return Some(entry);
        }
        let evicted = if self.entries.len() == self.capacity {
            self.dropped += 1;
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(entry);
        evicted
    }

    /// [`push`](Self::push) under a live mark: an evicted entry that
    /// `mark` still owns moves into `held` instead of being dropped.
    pub(crate) fn push_marked(&mut self, entry: T, mark: RingMark, held: &mut Vec<T>) {
        if let Some(evicted) = self.push(entry) {
            // Eviction is oldest-first, so the first `mark.len`
            // evictions after the mark (or after a rewind to it) are
            // exactly the entries it retained; later ones came after it.
            if held.len() < mark.len {
                held.push(evicted);
            }
        }
    }

    /// The retained entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries evicted to honor the capacity bound.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Adds evictions that happened elsewhere (a merged-in part's drops).
    pub(crate) fn add_dropped(&mut self, dropped: u64) {
        self.dropped += dropped;
    }

    /// Consumes the ring into the retained entries, oldest first.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.entries.into()
    }

    /// The ring's current position.
    pub(crate) fn mark(&self) -> RingMark {
        RingMark {
            len: self.entries.len(),
            dropped: self.dropped,
        }
    }

    /// Rewinds to `mark`, this ring's live position: drops every entry
    /// pushed since and puts back in front the entries the mark owns
    /// that [`push_marked`](Self::push_marked) moved into `held`, leaving
    /// `held` empty.
    pub(crate) fn rewind(&mut self, mark: RingMark, held: &mut Vec<T>) {
        // Of the entries retained now, the oldest `mark.len - held.len()`
        // were retained at the mark and never evicted; the rest came
        // after it.
        self.entries.truncate(mark.len.saturating_sub(held.len()));
        for entry in held.drain(..).rev() {
            self.entries.push_front(entry);
        }
        self.dropped = mark.dropped;
        debug_assert_eq!(self.entries.len(), mark.len, "rewind restored the mark");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_and_counts_drops() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.into_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = Ring::new(0);
        assert_eq!(ring.push(7), Some(7));
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn rewind_restores_entries_evicted_since_the_mark() {
        let mut ring = Ring::new(3);
        for i in 0..4 {
            ring.push(i);
        }
        let before = ring.clone();
        let mark = ring.mark();
        let mut held = Vec::new();
        // Push past a whole capacity: every marked entry is evicted.
        for i in 10..15 {
            ring.push_marked(i, mark, &mut held);
        }
        assert_eq!(held, vec![1, 2, 3], "held is bounded by the mark");
        ring.rewind(mark, &mut held);
        assert_eq!(ring, before);
        assert!(held.is_empty());
        // Partly evicted, then rewound again to the same mark.
        ring.push_marked(20, mark, &mut held);
        ring.rewind(mark, &mut held);
        assert_eq!(ring, before);
    }
}
