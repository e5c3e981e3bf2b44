//! Internal Karmarkar–Karp partition machinery shared by [`crate::Rckk`],
//! [`crate::KkForward`] and [`crate::Ckk`].

use std::cmp::Ordering;

/// A (normalized) `m`-way partial partition: position `i` carries the
/// normalized rate sum `values[i]` and the set of request indices
/// `sets[i]` currently assigned to that position. Values are kept sorted in
/// descending order, with the smallest (always 0 after normalization) last
/// — exactly the representation of Algorithm 2 in the paper.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Partition {
    values: Vec<f64>,
    sets: Vec<Vec<usize>>,
}

impl Partition {
    /// The initial partition of one request: `(λ_r, 0, …, 0)` with the
    /// request alone in the first position's set.
    pub(crate) fn singleton(rate: f64, request: usize, positions: usize) -> Self {
        debug_assert!(positions >= 1);
        let mut values = vec![0.0; positions];
        values[0] = rate;
        let mut sets = vec![Vec::new(); positions];
        sets[0].push(request);
        Self { values, sets }
    }

    /// The partition's largest (first-position) value, the sort key of the
    /// `Partition_list`.
    pub(crate) fn first(&self) -> f64 {
        self.values[0]
    }

    /// Number of positions `m`.
    pub(crate) fn positions(&self) -> usize {
        self.values.len()
    }

    /// The (normalized) value at position `i`.
    pub(crate) fn value_at(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Combines two partitions position-wise through `pairing`, where
    /// position `i` of the result takes `a[i] + b[pairing(i)]`, then resorts
    /// descending and normalizes by subtracting the smallest value
    /// (Algorithm 2, steps 3–5). Both operands are consumed: each result
    /// position keeps the larger of its two member sets and appends the
    /// smaller one, so no set is copied.
    pub(crate) fn combine_with_pairing(
        mut self,
        mut other: Self,
        pairing: impl Fn(usize) -> usize,
    ) -> Self {
        debug_assert_eq!(self.positions(), other.positions());
        let mut merged: Vec<(f64, Vec<usize>)> = self
            .values
            .iter()
            .zip(self.sets.drain(..))
            .enumerate()
            .map(|(i, (&value, mut set))| {
                let j = pairing(i);
                let mut extra = std::mem::take(&mut other.sets[j]);
                if extra.len() > set.len() {
                    std::mem::swap(&mut set, &mut extra);
                }
                set.append(&mut extra);
                (value + other.values[j], set)
            })
            .collect();
        merged.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
        let floor = merged.last().map_or(0.0, |(v, _)| *v);
        self.values.clear();
        for (value, set) in merged {
            self.values.push(value - floor);
            self.sets.push(set);
        }
        self
    }

    /// Reverse-order combination (the paper's RCKK step): largest against
    /// smallest, `new[i] = a[i] + b[m−1−i]`.
    pub(crate) fn combine_reverse(self, other: Self) -> Self {
        let m = self.positions();
        self.combine_with_pairing(other, |i| m - 1 - i)
    }

    /// Forward-order combination (ablation): largest against largest,
    /// `new[i] = a[i] + b[i]`.
    pub(crate) fn combine_forward(self, other: Self) -> Self {
        self.combine_with_pairing(other, |i| i)
    }

    /// Consumes the final partition, producing the per-request instance
    /// assignment (`assignment[r] = k`) for `n` requests.
    pub(crate) fn into_assignment(self, requests: usize) -> Vec<usize> {
        let mut assignment = vec![0usize; requests];
        for (instance, set) in self.sets.into_iter().enumerate() {
            for request in set {
                assignment[request] = instance;
            }
        }
        assignment
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The copying combine that [`Partition::combine_with_pairing`]
    /// replaced: it clones both operands' sets into fresh vectors. Kept as
    /// the reference the move-based combine is pinned to.
    pub(crate) fn combine_copying(a: &Partition, b: &Partition, pairing: &[usize]) -> Partition {
        let mut merged: Vec<(f64, Vec<usize>)> = (0..a.positions())
            .map(|i| {
                let j = pairing[i];
                let mut set = a.sets[i].clone();
                set.extend_from_slice(&b.sets[j]);
                (a.values[i] + b.values[j], set)
            })
            .collect();
        merged.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(Ordering::Equal));
        let floor = merged.last().map_or(0.0, |(v, _)| *v);
        let (values, sets): (Vec<f64>, Vec<Vec<usize>>) =
            merged.into_iter().map(|(v, s)| (v - floor, s)).unzip();
        Partition { values, sets }
    }

    #[test]
    fn singleton_layout() {
        let p = Partition::singleton(5.0, 3, 4);
        assert_eq!(p.first(), 5.0);
        assert_eq!(p.positions(), 4);
        assert_eq!(p.into_assignment(4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn reverse_combination_balances() {
        // (8,0) + (5,0) reversed: (8+0, 0+5) = (8,5) -> normalized (3,0).
        let a = Partition::singleton(8.0, 0, 2);
        let b = Partition::singleton(5.0, 1, 2);
        let c = a.combine_reverse(b);
        assert_eq!(c.first(), 3.0);
        // Request 0 in the heavy position, request 1 in the light one.
        let assignment = c.into_assignment(2);
        assert_ne!(assignment[0], assignment[1]);
    }

    #[test]
    fn forward_combination_stacks() {
        // (8,0) + (5,0) forward: (13, 0) -> normalized (13, 0).
        let a = Partition::singleton(8.0, 0, 2);
        let b = Partition::singleton(5.0, 1, 2);
        let c = a.combine_forward(b);
        assert_eq!(c.first(), 13.0);
        let assignment = c.into_assignment(2);
        assert_eq!(assignment[0], assignment[1]);
    }

    #[test]
    fn normalization_keeps_smallest_at_zero() {
        let a = Partition::singleton(10.0, 0, 3);
        let b = Partition::singleton(4.0, 1, 3);
        let c = a.combine_reverse(b);
        assert_eq!(*c.values.last().unwrap(), 0.0);
        assert!(c.values.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn sets_follow_their_values_through_sorting() {
        // Three-way: a=(9,0,0) with req0; b=(7,0,0) with req1.
        // Reverse: (9+0, 0+0, 0+7) = (9,0,7) -> sorted (9,7,0) -> (9-0,7-0,0).
        let a = Partition::singleton(9.0, 0, 3);
        let b = Partition::singleton(7.0, 1, 3);
        let c = a.combine_reverse(b);
        assert_eq!(c.values, vec![9.0, 7.0, 0.0]);
        let assignment = c.clone().into_assignment(2);
        // req0 sits in position 0, req1 in position 1.
        assert_eq!(assignment, vec![0, 1]);
    }
}
