//! Random service-chain generation.

use nfv_model::{ServiceChain, VnfId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::WorkloadError;

/// Generates random service chains over a VNF universe.
///
/// Each chain has a uniformly random length in `[min_len, max_len]` (the
/// paper caps chains at 6 VNFs) and visits distinct VNFs in a uniformly
/// random order — matching the paper's setting where "different requests
/// often require different VNF chains".
///
/// # Examples
///
/// ```
/// use nfv_workload::ChainGenerator;
/// use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let gen = ChainGenerator::new(10, 1, 6)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let chain = gen.generate(&mut rng)?;
/// assert!(chain.len() >= 1 && chain.len() <= 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainGenerator {
    universe: usize,
    min_len: usize,
    max_len: usize,
}

impl ChainGenerator {
    /// Creates a generator over VNF ids `0..universe` producing chains of
    /// length `min_len..=max_len`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if the universe is empty,
    /// `min_len` is zero, the bounds are inverted, or `max_len` exceeds the
    /// universe (chains cannot repeat VNFs).
    pub fn new(universe: usize, min_len: usize, max_len: usize) -> Result<Self, WorkloadError> {
        if universe == 0 {
            return Err(WorkloadError::InvalidParameter {
                reason: "empty VNF universe",
            });
        }
        if min_len == 0 || min_len > max_len {
            return Err(WorkloadError::InvalidParameter {
                reason: "chain length bounds require 1 <= min <= max",
            });
        }
        if max_len > universe {
            return Err(WorkloadError::InvalidParameter {
                reason: "max chain length exceeds VNF universe",
            });
        }
        Ok(Self {
            universe,
            min_len,
            max_len,
        })
    }

    /// The VNF universe size.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Generates one random chain.
    ///
    /// # Errors
    ///
    /// Never fails for a validated generator; the `Result` mirrors
    /// [`ServiceChain::new`] so callers need no `unwrap`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<ServiceChain, WorkloadError> {
        let len = rng.gen_range(self.min_len..=self.max_len);
        // Partial Fisher-Yates: shuffle a prefix of the universe.
        let mut ids: Vec<VnfId> = (0..self.universe as u32).map(VnfId::new).collect();
        ids.partial_shuffle(rng, len);
        // Copy out the kept prefix so the chain owns no room for the rest
        // of the universe.
        Ok(ServiceChain::new(ids[..len].to_vec())?)
    }

    /// Generates `count` chains.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`generate`](Self::generate).
    pub fn generate_many<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
    ) -> Result<Vec<ServiceChain>, WorkloadError> {
        (0..count).map(|_| self.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validates_parameters() {
        assert!(ChainGenerator::new(0, 1, 1).is_err());
        assert!(ChainGenerator::new(5, 0, 3).is_err());
        assert!(ChainGenerator::new(5, 4, 3).is_err());
        assert!(ChainGenerator::new(5, 1, 6).is_err());
        assert!(ChainGenerator::new(6, 1, 6).is_ok());
    }

    #[test]
    fn chains_respect_length_bounds_and_distinctness() {
        let gen = ChainGenerator::new(8, 2, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let chain = gen.generate(&mut rng).unwrap();
            assert!((2..=5).contains(&chain.len()));
            let mut ids: Vec<_> = chain.iter().collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), chain.len(), "chain repeats a VNF");
            assert!(ids.iter().all(|id| id.as_usize() < 8));
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let gen = ChainGenerator::new(10, 1, 6).unwrap();
        let a = gen
            .generate_many(50, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let b = gen
            .generate_many(50, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(a, b);
        let c = gen
            .generate_many(50, &mut StdRng::seed_from_u64(10))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn all_lengths_are_eventually_produced() {
        let gen = ChainGenerator::new(6, 1, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[gen.generate(&mut rng).unwrap().len()] = true;
        }
        assert!(seen[1..=6].iter().all(|&s| s), "lengths missing: {seen:?}");
    }
}
