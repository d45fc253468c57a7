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
    ///
    /// Element `i` sums draws `12i .. 12i + 12` left to right, and the
    /// generator advances by exactly `12 · len` draws. SplitMix64 is
    /// counter-based (draw `n` is `mix64(state + (n + 1) · GAMMA)`), so
    /// independent elements are computed in SIMD lanes with the same bits
    /// as drawing them one [`sample`](Self::sample) at a time.
    pub fn normal(&mut self, shape: impl Into<crate::Shape>, std: f32) -> Tensor {
        let shape = shape.into();
        let mut data = vec![0.0; shape.volume()];
        fill_normal(self.state, &mut data, std);
        self.state = self.state.wrapping_add(det::GAMMA.wrapping_mul(12 * data.len() as u64));
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

/// Fills `out` with [`TensorRng::normal`]'s elements for a generator in
/// `state`. With AVX-512DQ's 64-bit lane multiply the lanes run as
/// vectors; elsewhere the portable kernel still overlaps independent
/// lanes' multiplies. Both compute the same per-element sums in the same
/// order, so they are bit-identical.
fn fill_normal(state: u64, out: &mut [f32], std: f32) {
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::isa() == (crate::gemm::Isa::Avx512 { dq: true }) {
        // SAFETY: the probe verified AVX-512F and AVX-512DQ.
        return unsafe { fill_normal_avx512(state, out, std) };
    }
    fill_normal_portable(state, out, std);
}

/// 32 lanes: four 64-bit vectors per counter step keep `vpmullq`'s
/// latency hidden.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fill_normal_avx512(state: u64, out: &mut [f32], std: f32) {
    normal_lanes::<32>(state, out, std);
}

fn fill_normal_portable(state: u64, out: &mut [f32], std: f32) {
    normal_lanes::<4>(state, out, std);
}

/// `L` elements at a time: lane `l` of a block starting at element `i`
/// walks its own counter over draws `12(i + l) ..`, and keeps its own
/// left-to-right `f32` sum. A short last block computes all `L` lanes and
/// stores only those it covers.
#[inline(always)]
fn normal_lanes<const L: usize>(state: u64, out: &mut [f32], std: f32) {
    let mut first = [0u64; L];
    for (l, f) in first.iter_mut().enumerate() {
        *f = det::GAMMA.wrapping_mul(12 * l as u64 + 1);
    }
    let block = det::GAMMA.wrapping_mul(12 * L as u64);
    let mut base = state;
    for chunk in out.chunks_mut(L) {
        let mut ctr = first.map(|f| base.wrapping_add(f));
        let mut sum = [0.0f32; L];
        for _ in 0..12 {
            for (s, c) in sum.iter_mut().zip(&mut ctr) {
                // `>> 40` leaves 24 bits, so the i32 conversion is exact
                // (and vectorizes without AVX-512DQ's u64 → f32).
                *s += ((det::mix64(*c) >> 40) as i32) as f32 / (1u64 << 24) as f32;
                *c = c.wrapping_add(det::GAMMA);
            }
        }
        for (o, s) in chunk.iter_mut().zip(sum) {
            *o = (s - 6.0) * std;
        }
        base = base.wrapping_add(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-draw-at-a-time loop `normal` replaced: the oracle every
    /// lane kernel must match bit for bit.
    fn normal_scalar(rng: &mut TensorRng, len: usize, std: f32) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let s: f32 = (0..12).map(|_| rng.sample()).sum();
                (s - 6.0) * std
            })
            .collect()
    }

    const LENS: [usize; 10] = [0, 1, 7, 8, 9, 15, 16, 17, 1000, 4099];
    const SEEDS: [u64; 4] = [0, 1, 0xdead_beef, u64::MAX];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn normal_matches_the_scalar_loop_bit_for_bit() {
        for seed in SEEDS {
            for len in LENS {
                let mut oracle = TensorRng::seed(seed);
                let want = normal_scalar(&mut oracle, len, 0.02);
                let mut rng = TensorRng::seed(seed);
                let got = rng.normal(vec![len], 0.02);
                assert_eq!(bits(got.data()), bits(&want), "seed {seed:#x}, len {len}");
                // The state advanced by exactly 12·len draws.
                assert_eq!(rng.sample().to_bits(), oracle.sample().to_bits(), "seed {seed:#x}, len {len}");
            }
        }
    }

    #[test]
    fn every_lane_kernel_matches_the_scalar_loop() {
        type Kernel = fn(u64, &mut [f32], f32);
        let mut kernels: Vec<(&str, Kernel)> = vec![("portable", fill_normal_portable)];
        #[cfg(target_arch = "x86_64")]
        if crate::gemm::isa() == (crate::gemm::Isa::Avx512 { dq: true }) {
            // SAFETY: pushed only where the probe verified AVX-512F and
            // AVX-512DQ.
            kernels.push(("avx512", |s, o, d| unsafe { fill_normal_avx512(s, o, d) }));
        }
        for (name, kernel) in kernels {
            for seed in SEEDS {
                for len in LENS {
                    let want = normal_scalar(&mut TensorRng::seed(seed), len, 1.5);
                    let mut got = vec![f32::NAN; len];
                    kernel(seed, &mut got, 1.5);
                    assert_eq!(bits(&got), bits(&want), "{name}: seed {seed:#x}, len {len}");
                }
            }
        }
    }

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
