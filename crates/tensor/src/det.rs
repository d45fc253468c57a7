//! Deterministic hashing and pseudo-randomness: the workspace's one copy
//! of FNV-1a-64, the SplitMix64 finalizer and Knuth's MMIX LCG. Seeds,
//! routing hashes, fault draws and the store checksum rest on them, so
//! their outputs are stable contracts, pinned by the standard vectors
//! below. Call sites keep their own salts and pre-mixing.

/// FNV-1a-64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `2^44 + 0x1b3`: the FNV prime with one zero digit too many. The hash
/// gate's token hash, [`name_seed`] and the train-step pin have always
/// multiplied by it, and their outputs are pinned. Not FNV-1a proper.
pub const FNV_PRIME_WIDE: u64 = 0x1000_0000_01b3;

/// One FNV-1a step: folds `word` (a byte, or a wider word at some sites)
/// into the running hash `h`.
#[inline]
pub fn fnv1a_step(h: u64, word: u64, prime: u64) -> u64 {
    (h ^ word).wrapping_mul(prime)
}

/// Folds `bytes` into the running hash `h`, one byte per step.
#[inline]
pub fn fnv1a_extend(h: u64, bytes: &[u8], prime: u64) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a_step(h, u64::from(b), prime))
}

/// FNV-1a-64 of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes, FNV_PRIME)
}

/// The seed of a tensor keyed by `name`, so graph rewrites that renumber
/// tensor ids still bind identical values: byte-wise FNV-1a under
/// [`FNV_PRIME_WIDE`].
#[inline]
pub fn name_seed(name: &str) -> u64 {
    fnv1a_extend(FNV_OFFSET, name.as_bytes(), FNV_PRIME_WIDE)
}

/// SplitMix64's state increment (the 64-bit golden ratio), also the usual
/// multiplier for spreading a salt across the word.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// The first multiplier of [`mix64`]; some sites spread a second salt
/// with it.
pub const MIX_M1: u64 = 0xbf58_476d_1ce4_e5b9;

/// The SplitMix64 finalizer: a bijective avalanche of `z`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX_M1);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 output for generator state `state`.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    mix64(state.wrapping_add(GAMMA))
}

/// The top 53 bits of `x` as a uniform draw in `[0, 1)`.
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Knuth's MMIX linear congruential generator: good enough to schedule
/// arrivals and draw token ids.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// A generator seeded with `seed` (any value, including 0). The seed
    /// is scrambled and one draw discarded, so small seeds don't start in
    /// the low-entropy region of the lattice.
    pub fn new(seed: u64) -> Self {
        let mut lcg = Lcg::from_state(seed ^ GAMMA);
        lcg.next_u64();
        lcg
    }

    /// A generator whose first draw steps `state` as given.
    pub fn from_state(state: u64) -> Self {
        Lcg { state }
    }

    /// The next raw 64-bit state.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state =
            self.state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.state
    }

    /// A uniform draw in `(0, 1]`: never zero, so safe under `ln`.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, bound)` (the modulo bias is irrelevant at
    /// trace scale).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        (self.next_u64() >> 16) % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar", FNV_PRIME), fnv1a(b"foobar"));
        assert_ne!(name_seed("a"), fnv1a(b"a"));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // SplitMix64 seeded with 0: the state advances by GAMMA per draw.
        let stream = [0, 1, 2].map(|i: u64| splitmix64(GAMMA.wrapping_mul(i)));
        assert_eq!(stream, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
    }

    #[test]
    fn unit_f64_spans_the_half_open_interval() {
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(unit_f64(1 << 11), 1.0 / (1u64 << 53) as f64);
        assert!(unit_f64(u64::MAX) < 1.0);
    }

    #[test]
    fn lcg_steps_the_mmix_recurrence() {
        let mut lcg = Lcg::from_state(0);
        assert_eq!([lcg.next_u64(), lcg.next_u64()], [0x1405_7b7e_f767_814f, 0x1a08_ee11_84ba_6d32]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_bound_panics() {
        Lcg::new(1).next_below(0);
    }
}
