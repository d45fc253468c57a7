//! Deterministic random initialization for tensors.

use crate::{det, Tensor};

/// A seeded random number generator for reproducible tensor
/// initialization (SplitMix64 under the hood — no external dependency,
/// identical streams on every platform).
///
/// # Example
///
/// ```
/// use lancet_tensor::TensorRng;
///
/// let mut rng = TensorRng::seed(42);
/// let a = rng.uniform(vec![2, 2], -1.0, 1.0);
/// let mut rng2 = TensorRng::seed(42);
/// let b = rng2.uniform(vec![2, 2], -1.0, 1.0);
/// assert_eq!(a, b); // same seed, same tensor
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    state: u64,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        TensorRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(det::GAMMA);
        det::mix64(self.state)
    }

    /// Uniformly distributed elements in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, shape: impl Into<crate::Shape>, lo: f32, hi: f32) -> Tensor {
        assert!(lo < hi, "uniform requires lo < hi");
        let shape = shape.into();
        let data = (0..shape.volume()).map(|_| lo + (hi - lo) * self.sample()).collect();
        Tensor::from_vec(shape, data).expect("volume matches by construction")
    }

    /// Approximately normal elements (mean 0, std `std`) via the sum of
    /// twelve uniforms (Irwin–Hall), which is plenty for initialization.
    pub fn normal(&mut self, shape: impl Into<crate::Shape>, std: f32) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.volume())
            .map(|_| {
                let s: f32 = (0..12).map(|_| self.sample()).sum();
                (s - 6.0) * std
            })
            .collect();
        Tensor::from_vec(shape, data).expect("volume matches by construction")
    }

    /// A raw `f32` sample in `[0, 1)`.
    pub fn sample(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) / (1u64 << 24) as f32
    }

    /// A uniformly random integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below requires n > 0");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_same_seed() {
        let a = TensorRng::seed(7).uniform(vec![8], 0.0, 1.0);
        let b = TensorRng::seed(7).uniform(vec![8], 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TensorRng::seed(1).uniform(vec![32], 0.0, 1.0);
        let b = TensorRng::seed(2).uniform(vec![32], 0.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = TensorRng::seed(3).uniform(vec![1000], -2.0, 3.0);
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let t = TensorRng::seed(4).normal(vec![10000], 1.0);
        let mean = t.sum() / 10000.0;
        let var = t.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 10000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn below_in_range() {
        let mut rng = TensorRng::seed(5);
        for _ in 0..100 {
            assert!(rng.below(7) < 7);
        }
    }
}
