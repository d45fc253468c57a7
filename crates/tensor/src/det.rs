//! Deterministic hashing, pseudo-randomness and transcendentals: the
//! workspace's one copy of FNV-1a-64, the SplitMix64 finalizer, Knuth's
//! MMIX LCG, and the f32 [`exp`], [`tanh`] and [`ln`] every kernel uses.
//! Seeds, routing hashes, fault draws and the store checksum rest on the
//! first three, so their outputs are stable contracts, pinned by the
//! standard vectors below. Call sites keep their own salts and pre-mixing.
//!
//! The transcendentals replace the platform libm, whose `expf`/`tanhf`/
//! `logf` are not correctly rounded and differ between libc versions.
//! Each is plain f32 arithmetic in a fixed order: a Cody–Waite range
//! reduction, a fixed polynomial, and branch-free selects for the special
//! cases. They make no libm call (not even `f32::round`), and Rust never
//! contracts `a * b + c` into a fused multiply-add, so their bits are the
//! same on every ISA and libc. Having no branches, element loops over them
//! autovectorize at the default x86-64 target.

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

/// `1.5 · 2^23`: adding it to an f32 of magnitude below `2^22` rounds
/// to the nearest integer (ties to even) and leaves that integer in the
/// low mantissa bits of the sum.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split for Cody–Waite reduction: the high part has 9 significant
/// bits, so `n · LN2_HI` is exact for every exponent `n` the functions see.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `ln(2^-149)`: below it `exp` is under the smallest subnormal.
const EXP_UNDERFLOW: f32 = -103.278_93;

/// Cephes minimax coefficients, highest degree first: `e^r ≈ 1 + r +
/// r²·P(r)` on `|r| ≤ ln(2)/2`.
const EXP_P: [f32; 6] = [1.987_569_3e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 0.5];
/// `tanh(a) ≈ a + a·z·P(z)`, `z = a²`, on `a < 0.625`.
const TANH_P: [f32; 5] = [-5.704_988_7e-3, 2.063_909e-2, -5.373_971_5e-2, 1.333_144_2e-1, -3.333_328e-1];
/// `ln(1 + f) ≈ f − f²/2 + f³·P(f)` on `f ∈ [√½ − 1, √2 − 1)`.
const LN_P: [f32; 9] = [
    7.037_683_6e-2,
    -1.151_461e-1,
    1.167_699_9e-1,
    -1.242_014_1e-1,
    1.424_932_3e-1,
    -1.666_805_7e-1,
    2.000_071_6e-1,
    -2.499_999_4e-1,
    3.333_333e-1,
];

/// `P(x)` by Horner's rule, coefficients highest degree first.
#[inline]
fn horner(x: f32, c: &[f32]) -> f32 {
    c[1..].iter().fold(c[0], |acc, &k| acc * x + k)
}

/// `2^n` for `n` in `[-126, 127]`, built from the exponent bits.
#[inline]
fn pow2i(n: i32) -> f32 {
    f32::from_bits(((n + 127) << 23) as u32)
}

/// `e^x` in f32, at most 1 ULP from the exact value: against an f64
/// reference over every f32 input the worst error is 0.99 ULP for normal
/// results, and just under 1 ULP where inputs below `ln(2^-149)` flush
/// to `+0`.
///
/// Returns `+0` below `ln(2^-149)` (so the `-1e9` of an attention mask
/// and `-inf` give exactly `+0`), overflows to `+inf` above
/// `ln(f32::MAX) ≈ 88.72`, and maps NaN to NaN.
#[inline]
pub fn exp(x: f32) -> f32 {
    // Keep `n` in range. Inputs that flush to `+0` (an attention mask's
    // `-1e9`, say) are computed as `e^0` instead: scaling them down
    // would make subnormal products, which cost x86 a microcode assist
    // per lane. `min` also turns NaN into a number, restored by the last
    // select. Above the clamp the result already overflows to `+inf`.
    let xc = if x < EXP_UNDERFLOW { 0.0 } else { x.min(100.0) };
    let z = xc * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let nf = z - ROUND_MAGIC;
    let n = z.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32;
    // r = x − n·ln 2 with |r| ≲ ln(2)/2, so e^x = 2^n · e^r.
    let r = xc - nf * LN2_HI - nf * LN2_LO;
    let p = horner(r, &EXP_P) * (r * r) + r + 1.0;
    // n spans [-150, 144]: scale in two exact halves so subnormal and
    // overflowing results round once.
    let n1 = n >> 1;
    let y = p * pow2i(n1) * pow2i(n - n1);
    let y = if x < EXP_UNDERFLOW { 0.0 } else { y };
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// `tanh(x)` in f32, at most 1.5 ULP from the exact value: against an
/// f64 reference over every f32 input the worst error is 1.33 ULP, near
/// `|x| = 0.625` where the two approximations meet.
///
/// Odd to the bit: `tanh(±0) = ±0`, `tanh(±inf) = ±1`; NaN maps to NaN.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    // Below 0.625 the polynomial; above, `1 − 2/(e^2a+1)` has no
    // cancellation. Both are computed and one selected, so the loop
    // stays branch-free.
    let z = a * a;
    let small = horner(z, &TANH_P) * z * a + a;
    let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let t = if a < 0.625 { small } else { large };
    f32::from_bits(t.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// The natural logarithm in f32, at most 1 ULP from the exact value:
/// against an f64 reference over every positive f32 (subnormals
/// included) the worst error is 0.83 ULP.
///
/// `ln(1) = +0`, `ln(±0) = -inf`, `ln(+inf) = +inf`; a negative or NaN
/// input gives NaN.
#[inline]
pub fn ln(x: f32) -> f32 {
    // Scale subnormals into the normal range, then split x = 2^e · m
    // with m in [√½, √2) and f = m − 1.
    let sub = x < f32::MIN_POSITIVE;
    let xs = if sub { x * 8_388_608.0 } else { x };
    let bits = xs.to_bits() as i32;
    let e = (bits >> 23) - if sub { 126 + 23 } else { 126 };
    let m = f32::from_bits(((bits & 0x007f_ffff) | 0x3f00_0000) as u32);
    let lo = m < std::f32::consts::FRAC_1_SQRT_2;
    let e = (e - i32::from(lo)) as f32;
    let f = if lo { m + m - 1.0 } else { m - 1.0 };
    // ln x = e·ln 2 + ln(1 + f), adding the small terms first.
    let z = f * f;
    let y = horner(f, &LN_P) * f * z + LN2_LO * e - 0.5 * z;
    let r = f + y + LN2_HI * e;
    let r = if x > 0.0 {
        r
    } else if x == 0.0 {
        f32::NEG_INFINITY
    } else {
        f32::NAN
    };
    if x == f32::INFINITY {
        x
    } else {
        r
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
        // Seeded streams, recorded before `Lcg` moved here: every seeded
        // bench trace replays from these draws.
        let mut lcg = Lcg::new(0);
        assert_eq!([lcg.next_u64(), lcg.next_u64()], [0xaa80_754d_1a1a_8d4f, 0xb3c4_904a_6d27_8932]);
        let mut lcg = Lcg::new(0xbead);
        assert_eq!(lcg.next_f64().to_bits(), 0x3fd0_c6bc_3858_8900);
        assert_eq!((0..4).map(|_| lcg.next_below(1000)).collect::<Vec<_>>(), [27, 580, 641, 962]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_bound_panics() {
        Lcg::new(1).next_below(0);
    }

    /// Distance of `y` from the exact value `r`, in units of the f32 ULP
    /// at `r` (the subnormal spacing below `f32::MIN_POSITIVE`).
    fn ulp_error(y: f32, r: f64) -> f64 {
        let e = (((r.to_bits() >> 52) & 0x7ff) as i32 - 1023).max(-126);
        (f64::from(y) - r).abs() / 2f64.powi(e - 23)
    }

    /// The worst ULP error of `f` against the f64 `reference` over every
    /// `step`-th f32 bit pattern in `bits`, and the input giving it.
    fn max_ulp(f: fn(f32) -> f32, reference: fn(f64) -> f64, bits: std::ops::Range<u32>, step: usize) -> (f64, f32) {
        bits.step_by(step).map(f32::from_bits).fold((0.0, 0.0), |worst, x| {
            let e = ulp_error(f(x), reference(f64::from(x)));
            if e > worst.0 {
                (e, x)
            } else {
                worst
            }
        })
    }

    const SIGN: u32 = 0x8000_0000;

    #[test]
    fn exp_is_within_one_ulp() {
        // Every input with a finite, nonzero-or-subnormal result: both
        // signs, logarithmically dense.
        let pos = max_ulp(exp, f64::exp, 0..88.72f32.to_bits(), 601);
        let neg = max_ulp(exp, f64::exp, SIGN..SIGN | 104.0f32.to_bits(), 601);
        for (err, x) in [pos, neg] {
            assert!(err <= 1.0, "exp({x:e}) is {err:.3} ULP off");
        }
    }

    #[test]
    fn tanh_is_within_one_and_a_half_ulp() {
        let inf = f32::INFINITY.to_bits();
        for (err, x) in [max_ulp(tanh, f64::tanh, 0..inf, 601), max_ulp(tanh, f64::tanh, SIGN..SIGN | inf, 601)] {
            assert!(err <= 1.5, "tanh({x:e}) is {err:.3} ULP off");
        }
    }

    #[test]
    fn ln_is_within_one_ulp() {
        // Every positive finite f32, subnormals included.
        let (err, x) = max_ulp(ln, f64::ln, 1..f32::INFINITY.to_bits(), 601);
        assert!(err <= 1.0, "ln({x:e}) is {err:.3} ULP off");
    }

    #[test]
    fn exp_special_values() {
        // `-1e9` is the causal-mask fill: its softmax weight must be +0.
        for x in [-1e9, f32::NEG_INFINITY, f32::MIN, -105.0, -103.5] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e})");
        }
        let below_min_subnormal = f32::from_bits(EXP_UNDERFLOW.to_bits() + 1);
        assert_eq!(exp(below_min_subnormal).to_bits(), 0);
        assert_eq!(exp(EXP_UNDERFLOW), f32::from_bits(1), "smallest subnormal");
        assert!(exp(88.72).is_finite());
        for x in [88.7229, 89.0, 1e9, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert!(exp(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f32::from_bits(1)), f32::from_bits(1), "odd to the smallest subnormal");
        assert!(tanh(f32::NAN).is_nan());
        // Odd to the bit.
        for x in [1e-3f32, 0.3, 0.625, 0.7, 2.0, 9.5] {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "tanh(-{x})");
        }
    }

    #[test]
    fn ln_special_values() {
        assert_eq!(ln(1.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(ln(0.0), f32::NEG_INFINITY);
        assert_eq!(ln(-0.0), f32::NEG_INFINITY);
        assert_eq!(ln(f32::INFINITY), f32::INFINITY);
        for x in [-1.0, -f32::from_bits(1), -f32::MIN_POSITIVE, f32::NEG_INFINITY, f32::NAN] {
            assert!(ln(x).is_nan(), "ln({x:e})");
        }
    }
}
