//! CKK: budget-limited Complete Karmarkar–Karp search.

use nfv_model::ArrivalRate;

use crate::partition::Partition;
use crate::scheduler::check_inputs;
use crate::{Schedule, Scheduler, SchedulingError};

/// The Complete Karmarkar–Karp algorithm for multi-way partitioning (Korf,
/// IJCAI'09), in an anytime budget-limited form.
///
/// Like [`crate::Rckk`], CKK repeatedly combines the two partitions with
/// the largest leading values — but instead of committing to one pairing it
/// branches over *all* distinct position pairings of the two partitions
/// (up to `m!`), keeping the best complete schedule by makespan. The first
/// leaf explored uses the reverse pairing, so with a budget of 1 CKK
/// reduces exactly to RCKK; larger budgets approach the optimal partition.
///
/// This is the "existing approximation algorithm … that does not scale
/// well as the number of instances increases" the paper replaces with
/// RCKK: each branching step multiplies the frontier by up to `m!`
/// pairings. It earns its keep here as the small-instance oracle for
/// tests and ablations.
///
/// # Examples
///
/// ```
/// use nfv_model::ArrivalRate;
/// use nfv_scheduling::{Ckk, Scheduler};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rates: Vec<ArrivalRate> =
///     [3.0, 3.0, 2.0, 2.0, 2.0].iter().map(|&v| ArrivalRate::new(v)).collect::<Result<_, _>>()?;
/// let schedule = Ckk::new().with_leaf_budget(10_000).schedule(&rates, 2)?;
/// assert_eq!(schedule.makespan(), 6.0); // optimal {3,3} vs {2,2,2}
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ckk {
    leaf_budget: u64,
}

impl Ckk {
    /// Creates CKK with a budget of one leaf (equivalent to RCKK).
    #[must_use]
    pub fn new() -> Self {
        Self { leaf_budget: 1 }
    }

    /// Allows the search to visit up to `leaves` complete schedules.
    #[must_use]
    pub fn with_leaf_budget(mut self, leaves: u64) -> Self {
        self.leaf_budget = leaves.max(1);
        self
    }
}

impl Default for Ckk {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Ckk {
    fn name(&self) -> &'static str {
        "ckk"
    }

    fn schedule(
        &self,
        rates: &[ArrivalRate],
        instances: usize,
    ) -> Result<Schedule, SchedulingError> {
        check_inputs(rates, instances)?;
        let partitions: Vec<Partition> = rates
            .iter()
            .enumerate()
            .map(|(r, rate)| Partition::singleton(rate.value(), r, instances))
            .collect();
        let mut search = Search {
            rates,
            instances,
            best: None,
            best_makespan: f64::INFINITY,
            leaves_left: self.leaf_budget,
        };
        search.descend(partitions);
        let assignment = search.best.expect("budget >= 1 visits at least one leaf");
        Schedule::new(rates.to_vec(), assignment, instances)
    }
}

struct Search<'a> {
    rates: &'a [ArrivalRate],
    instances: usize,
    best: Option<Vec<usize>>,
    best_makespan: f64,
    leaves_left: u64,
}

impl Search<'_> {
    fn descend(&mut self, mut partitions: Vec<Partition>) {
        if self.leaves_left == 0 {
            return;
        }
        if partitions.len() == 1 {
            let assignment = partitions
                .pop()
                .expect("one left")
                .into_assignment(self.rates.len());
            let mut sums = vec![0.0; self.instances];
            for (r, &k) in assignment.iter().enumerate() {
                sums[k] += self.rates[r].value();
            }
            let makespan = sums.into_iter().fold(0.0, f64::max);
            if makespan < self.best_makespan {
                self.best_makespan = makespan;
                self.best = Some(assignment);
            }
            self.leaves_left -= 1;
            return;
        }
        // Take the two partitions with the largest leading values.
        partitions.sort_by(|a, b| {
            b.first()
                .partial_cmp(&a.first())
                .expect("values are finite")
        });
        let a = partitions.remove(0);
        let b = partitions.remove(0);

        // Branch over distinct pairings; reverse first so leaf #1 == RCKK.
        let mut pairings = all_pairings(self.instances);
        let reverse: Vec<usize> = (0..self.instances).rev().collect();
        pairings.sort_by_key(|p| *p != reverse);
        let mut seen: Vec<Vec<u64>> = Vec::new();
        for pairing in pairings {
            let combined = a.clone().combine_with_pairing(b.clone(), |i| pairing[i]);
            // Deduplicate value-identical children.
            let key: Vec<u64> = (0..self.instances)
                .map(|i| combined_value_bits(&combined, i))
                .collect();
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let mut next = partitions.clone();
            next.push(combined);
            self.descend(next);
            if self.leaves_left == 0 {
                return;
            }
        }
    }
}

fn combined_value_bits(p: &Partition, i: usize) -> u64 {
    // Partition keeps values sorted; compare by bit pattern for dedup.
    p.value_at(i).to_bits()
}

/// All permutations of `0..m` (Heap's algorithm).
fn all_pairings(m: usize) -> Vec<Vec<usize>> {
    let mut result = Vec::new();
    let mut items: Vec<usize> = (0..m).collect();
    heap_permute(&mut items, m, &mut result);
    result
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rckk;

    fn rates(values: &[f64]) -> Vec<ArrivalRate> {
        values
            .iter()
            .map(|&v| ArrivalRate::new(v).unwrap())
            .collect()
    }

    #[test]
    fn budget_one_equals_rckk() {
        let input = rates(&[9.0, 8.0, 7.0, 6.0, 5.0, 4.0]);
        for m in 2..=4 {
            let ckk = Ckk::new().schedule(&input, m).unwrap();
            let rckk = Rckk::new().schedule(&input, m).unwrap();
            assert_eq!(ckk.makespan(), rckk.makespan(), "m={m}");
        }
    }

    #[test]
    fn search_reaches_perfect_partition() {
        // {4,5,6,7,8} splits 15/15.
        let input = rates(&[4.0, 5.0, 6.0, 7.0, 8.0]);
        let schedule = Ckk::new()
            .with_leaf_budget(100_000)
            .schedule(&input, 2)
            .unwrap();
        assert_eq!(schedule.makespan(), 15.0);
    }

    #[test]
    fn search_never_worse_than_first_solution() {
        let input = rates(&[13.0, 11.0, 10.0, 8.0, 7.0, 5.0, 4.0]);
        let first = Ckk::new().schedule(&input, 3).unwrap();
        let searched = Ckk::new()
            .with_leaf_budget(50_000)
            .schedule(&input, 3)
            .unwrap();
        assert!(searched.makespan() <= first.makespan());
    }

    #[test]
    fn all_pairings_count_is_factorial() {
        assert_eq!(all_pairings(1).len(), 1);
        assert_eq!(all_pairings(2).len(), 2);
        assert_eq!(all_pairings(3).len(), 6);
        assert_eq!(all_pairings(4).len(), 24);
    }

    #[test]
    fn rejects_empty_inputs() {
        assert!(Ckk::new().schedule(&[], 2).is_err());
        assert!(Ckk::new().schedule(&rates(&[1.0]), 0).is_err());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Ckk::new().name(), "ckk");
    }
}
