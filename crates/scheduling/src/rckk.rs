//! RCKK: the paper's reverse Karmarkar–Karp scheduling heuristic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nfv_model::ArrivalRate;

use crate::partition::Partition;
use crate::scheduler::check_inputs;
use crate::{Schedule, Scheduler, SchedulingError};

/// **R**everse **C**omplete **K**armarkar–**K**arp — Algorithm 2 of the
/// paper.
///
/// Every request starts as an `m`-position partition `(λ_r, 0, …, 0)`. The
/// algorithm repeatedly takes the two partitions with the largest leading
/// values and combines them *in reverse order* — the largest position of
/// one against the smallest of the other — then resorts the combined vector
/// descending and normalizes it by subtracting its smallest entry. After
/// `n − 1` combinations a single partition remains; its position sets are
/// the per-instance request assignments.
///
/// Reverse pairing is what makes the differencing balanced: stacking the
/// two heaviest loads apart (instead of together, cf. [`KkForward`]) keeps
/// the spread of per-instance sums small, which directly minimizes the
/// average M/M/1 response time of Eq. (15). Complexity `O(n·m·log m +
/// n·log n)` (§IV.D): each of the `n − 1` combinations sorts `m`
/// positions and *moves* the operands' member sets into the result rather
/// than copying them — each position keeps the larger of its two sets and
/// appends the smaller — so a request index moves at most `log₂ n` times
/// over the whole run.
///
/// # Examples
///
/// ```
/// use nfv_model::ArrivalRate;
/// use nfv_scheduling::{Rckk, Scheduler};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rates: Vec<ArrivalRate> =
///     [4.0, 5.0, 6.0, 7.0, 8.0].iter().map(|&v| ArrivalRate::new(v)).collect::<Result<_, _>>()?;
/// let schedule = Rckk::new().schedule(&rates, 2)?;
/// assert!(schedule.imbalance() <= 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rckk;

impl Rckk {
    /// Creates the RCKK scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for Rckk {
    fn name(&self) -> &'static str {
        "rckk"
    }

    fn schedule(
        &self,
        rates: &[ArrivalRate],
        instances: usize,
    ) -> Result<Schedule, SchedulingError> {
        differencing_schedule(rates, instances, Partition::combine_reverse)
    }
}

/// The forward-order ablation of [`Rckk`]: combination adds the two
/// partitions position-wise without reversal (`new[i] = a[i] + b[i]`),
/// stacking heavy positions together. Exists to quantify what the paper's
/// reverse pairing contributes; expect materially worse balance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KkForward;

impl KkForward {
    /// Creates the forward-combination scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for KkForward {
    fn name(&self) -> &'static str {
        "kk-forward"
    }

    fn schedule(
        &self,
        rates: &[ArrivalRate],
        instances: usize,
    ) -> Result<Schedule, SchedulingError> {
        differencing_schedule(rates, instances, Partition::combine_forward)
    }
}

/// Max-heap wrapper ordering partitions by their leading value
/// (Algorithm 2 keeps the `Partition_list` sorted by the 1st position).
struct ByFirst(Partition);

impl PartialEq for ByFirst {
    fn eq(&self, other: &Self) -> bool {
        self.0.first() == other.0.first()
    }
}

impl Eq for ByFirst {}

impl PartialOrd for ByFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .first()
            .partial_cmp(&other.0.first())
            .unwrap_or(Ordering::Equal)
    }
}

fn differencing_schedule(
    rates: &[ArrivalRate],
    instances: usize,
    combine: impl Fn(Partition, Partition) -> Partition,
) -> Result<Schedule, SchedulingError> {
    check_inputs(rates, instances)?;
    let mut heap: BinaryHeap<ByFirst> = rates
        .iter()
        .enumerate()
        .map(|(r, rate)| ByFirst(Partition::singleton(rate.value(), r, instances)))
        .collect();
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1").0;
        let b = heap.pop().expect("len > 1").0;
        heap.push(ByFirst(combine(a, b)));
    }
    let final_partition = heap.pop().expect("at least one request").0;
    let assignment = final_partition.into_assignment(rates.len());
    Schedule::new(rates.to_vec(), assignment, instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::combine_copying;
    use proptest::prelude::*;

    fn rates(values: &[f64]) -> Vec<ArrivalRate> {
        values
            .iter()
            .map(|&v| ArrivalRate::new(v).unwrap())
            .collect()
    }

    #[test]
    fn two_way_kk_textbook_instance() {
        // {8,7,6,5,4}: classic KK differencing ends with difference 2,
        // i.e. subsets summing 16 and 14; the optimal 15/15 split needs
        // complete search (CKK).
        let schedule = Rckk::new()
            .schedule(&rates(&[8.0, 7.0, 6.0, 5.0, 4.0]), 2)
            .unwrap();
        let mut sums = schedule.instance_rate_sums();
        sums.sort_by(f64::total_cmp);
        assert_eq!(sums, vec![14.0, 16.0]);
        assert_eq!(schedule.imbalance(), 2.0);
    }

    #[test]
    fn three_way_balances_close_to_perfect() {
        let schedule = Rckk::new()
            .schedule(&rates(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0]), 3)
            .unwrap();
        // Total 42, perfect would be 14 each; KK-style differencing should
        // come close (imbalance no more than the smallest element).
        assert!(
            schedule.imbalance() <= 3.0,
            "imbalance {}",
            schedule.imbalance()
        );
    }

    #[test]
    fn single_instance_degenerates_to_all_on_one() {
        let schedule = Rckk::new().schedule(&rates(&[3.0, 1.0]), 1).unwrap();
        assert_eq!(schedule.instance_rate_sums(), vec![4.0]);
    }

    #[test]
    fn more_instances_than_requests_leaves_spares_idle() {
        let schedule = Rckk::new().schedule(&rates(&[3.0, 1.0]), 4).unwrap();
        let sums = schedule.instance_rate_sums();
        assert_eq!(sums.iter().filter(|&&s| s > 0.0).count(), 2);
    }

    #[test]
    fn reverse_beats_forward_on_balance() {
        let input = rates(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        let reverse = Rckk::new().schedule(&input, 3).unwrap();
        let forward = KkForward::new().schedule(&input, 3).unwrap();
        assert!(
            reverse.imbalance() <= forward.imbalance(),
            "reverse {} vs forward {}",
            reverse.imbalance(),
            forward.imbalance()
        );
    }

    #[test]
    fn rejects_empty_inputs() {
        assert!(Rckk::new().schedule(&[], 2).is_err());
        assert!(Rckk::new().schedule(&rates(&[1.0]), 0).is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Rckk::new().name(), "rckk");
        assert_eq!(KkForward::new().name(), "kk-forward");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn moving_combines_schedule_exactly_like_copying_ones(
            // Half-unit rates from a short range, so equal rates (and the
            // ties they cause in the partition list) are common.
            halves in prop::collection::vec(1u32..24, 1..300),
            m in 1usize..13,
        ) {
            let input = rates(&halves.iter().map(|&h| f64::from(h) / 2.0).collect::<Vec<_>>());
            let reverse: Vec<usize> = (0..m).rev().collect();
            let forward: Vec<usize> = (0..m).collect();
            let copying = |pairing: &[usize]| {
                differencing_schedule(&input, m, |a, b| combine_copying(&a, &b, pairing)).unwrap()
            };
            prop_assert_eq!(Rckk::new().schedule(&input, m).unwrap(), copying(&reverse));
            prop_assert_eq!(KkForward::new().schedule(&input, m).unwrap(), copying(&forward));
        }
    }

    proptest! {
        #[test]
        fn every_request_is_assigned_exactly_once(
            values in prop::collection::vec(0.5..100.0f64, 1..60),
            m in 1usize..8,
        ) {
            let schedule = Rckk::new().schedule(&rates(&values), m).unwrap();
            prop_assert_eq!(schedule.assignment().len(), values.len());
            prop_assert!(schedule.assignment().iter().all(|&k| k < m));
            // Conservation: instance sums add up to the total rate.
            let total: f64 = values.iter().sum();
            let sum_of_sums: f64 = schedule.instance_rate_sums().iter().sum();
            prop_assert!((total - sum_of_sums).abs() < 1e-6);
        }

        #[test]
        fn imbalance_at_most_largest_rate(
            values in prop::collection::vec(0.5..100.0f64, 2..60),
            m in 2usize..6,
        ) {
            // A classical KK property for 2-way extends empirically to the
            // reverse m-way variant on positive inputs: the final spread
            // never exceeds the largest single element.
            let schedule = Rckk::new().schedule(&rates(&values), m).unwrap();
            let max_rate = values.iter().copied().fold(0.0, f64::max);
            prop_assert!(
                schedule.imbalance() <= max_rate + 1e-9,
                "imbalance {} > max rate {}",
                schedule.imbalance(),
                max_rate
            );
        }
    }
}
