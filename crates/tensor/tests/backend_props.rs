//! Property tests for the packed GEMM backend's determinism contract.
//!
//! The tiled engine ([`lancet_tensor::gemm`]) must be **bit-identical** to
//! the retained naive reference kernel — not merely close — for every
//! shape, operand transpose, and worker count. These tests sample random
//! problems whose dimensions straddle the blocking constants
//! (`MR`/`NR`/`MC`/`KC`/`NC`), so packed-edge and full-tile code paths are
//! both exercised, and compare `Tensor::data()` exactly.

use std::sync::Arc;

use lancet_tensor::{gemm, BufOwner, PackedTensor, Tensor, TensorRng, VecOwner};
use proptest::prelude::*;

/// Worker counts the contract quantifies over: sequential, two-way, auto.
const WORKER_COUNTS: [usize; 3] = [1, 2, 0];

fn random_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    TensorRng::seed(seed).uniform(shape, -2.0, 2.0)
}

/// Zeroes logical rows `rows` of each `m × k` slice of `a` over the depth
/// range `ks` — the capacity padding `dispatch` leaves in an expert
/// buffer. `ta` means `a` is stored transposed (`k × m`); `sign` picks
/// `+0`, `-0`, or alternating signs per row. Row ranges that start or end
/// off a multiple of the register tile's 4 rows leave partial groups.
fn zero_rows(
    a: &mut Tensor,
    m: usize,
    k: usize,
    ta: bool,
    rows: std::ops::Range<usize>,
    ks: std::ops::Range<usize>,
    sign: u8,
) {
    for slice in a.data_mut().chunks_mut(m * k) {
        for i in rows.clone() {
            let z = match sign {
                0 => 0.0,
                1 => -0.0,
                _ if i % 2 == 0 => 0.0,
                _ => -0.0,
            };
            for p in ks.clone() {
                slice[if ta { p * m + i } else { i * k + p }] = z;
            }
        }
    }
}

/// A zero row range inside `0..m`, from two proptest draws in `0..1000`.
fn row_range(m: usize, lo: usize, len: usize) -> std::ops::Range<usize> {
    let lo = lo % m;
    lo..(lo + len % (m - lo + 1))
}

/// Asserts `got` equals `want` bit for bit (so `-0` vs `+0` and NaN
/// payload differences count).
fn assert_bits(want: &Tensor, got: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.shape(), got.shape());
    for (i, (w, g)) in want.data().iter().zip(got.data()).enumerate() {
        prop_assert!(w.to_bits() == g.to_bits(), "{what}: element {i}: reference {w:?} vs {g:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::env_cases(24))]
    /// Tiled output equals the reference bit for bit across random shapes
    /// spanning the micro/macro tile edges, both transposes, and all
    /// worker counts.
    #[test]
    fn tiled_matmul_is_bit_identical(
        dims in (1usize..80, 1usize..300, 1usize..560),
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = if ta {
            random_tensor(vec![k, m], seed)
        } else {
            random_tensor(vec![m, k], seed)
        };
        let b = if tb {
            random_tensor(vec![n, k], seed ^ 0x9E37_79B9)
        } else {
            random_tensor(vec![k, n], seed ^ 0x9E37_79B9)
        };
        let reference = gemm::matmul_reference(&a, &b, ta, tb).unwrap();
        for workers in WORKER_COUNTS {
            let tiled = gemm::matmul_tiled(&a, &b, ta, tb, workers).unwrap();
            prop_assert_eq!(reference.shape(), tiled.shape());
            prop_assert!(
                reference.data() == tiled.data(),
                "matmul diverged from reference: m={m} k={k} n={n} ta={ta} tb={tb} workers={workers}"
            );
        }
    }

    /// Every slice of the batched engine is bit-identical to the reference
    /// on that slice, for every transpose combination (resolved in the
    /// packing copies, never materialized), expert count and worker
    /// count, on both sides of the small-problem cutoff (`small` keeps the
    /// whole product under 32³ multiply-adds, where the reference loop
    /// runs).
    #[test]
    fn batched_matmul_t_is_bit_identical(
        dims in (1usize..5, 1usize..40, 1usize..70, 1usize..90),
        small in any::<bool>(),
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (e, m, k, n) = if small {
            (dims.0.min(3), dims.1 % 12 + 1, dims.2 % 20 + 1, dims.3 % 20 + 1)
        } else {
            dims
        };
        let a = random_tensor(if ta { vec![e, k, m] } else { vec![e, m, k] }, seed);
        let b = random_tensor(if tb { vec![e, n, k] } else { vec![e, k, n] }, seed ^ 0x5EED);
        let mut reference = Vec::with_capacity(e * m * n);
        let slice = |x: &Tensor, bi: usize| {
            x.slice_axis(0, bi, bi + 1).unwrap().reshape(x.shape()[1..].to_vec()).unwrap()
        };
        for bi in 0..e {
            let y = gemm::matmul_reference(&slice(&a, bi), &slice(&b, bi), ta, tb).unwrap();
            reference.extend_from_slice(y.data());
        }
        let reference = Tensor::from_vec(vec![e, m, n], reference).unwrap();
        for workers in WORKER_COUNTS {
            let tiled = gemm::batched_matmul_t(&a, &b, ta, tb, workers).unwrap();
            assert_bits(
                &reference,
                &tiled,
                &format!("batched_matmul_t e={e} m={m} k={k} n={n} ta={ta} tb={tb} workers={workers}"),
            )?;
        }
    }

    /// Prepacked weight panels are a pure layout change: a matmul through
    /// a resident [`PackedTensor`] equals the reference bit for bit across
    /// ragged shapes, both `B` transposes, and all worker counts.
    #[test]
    fn prepacked_matmul_is_bit_identical(
        dims in (1usize..80, 1usize..300, 1usize..560),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = random_tensor(vec![m, k], seed);
        let b = if tb {
            random_tensor(vec![n, k], seed ^ 0x9E37_79B9)
        } else {
            random_tensor(vec![k, n], seed ^ 0x9E37_79B9)
        };
        let reference = gemm::matmul_reference(&a, &b, false, tb).unwrap();
        let packed = PackedTensor::pack(&b, tb).unwrap();
        for workers in WORKER_COUNTS {
            let fast = gemm::matmul_packed(&a, &packed, false, workers).unwrap();
            prop_assert_eq!(reference.shape(), fast.shape());
            prop_assert!(
                reference.data() == fast.data(),
                "prepacked matmul diverged: m={m} k={k} n={n} tb={tb} workers={workers}"
            );
        }
    }

    /// The batched prepacked engine matches the reference for per-expert
    /// stacks and for a shared (batch = 1) `B` broadcast across slices,
    /// including worker counts far beyond the expert count (the parallel
    /// per-slice packing regression).
    #[test]
    fn prepacked_batched_matmul_is_bit_identical(
        dims in (1usize..5, 1usize..40, 1usize..70, 1usize..90),
        shared in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (e, m, k, n) = dims;
        let a = random_tensor(vec![e, m, k], seed);
        let b = random_tensor(vec![if shared { 1 } else { e }, k, n], seed ^ 0x5EED);
        // The reference has no broadcast; materialize the shared operand.
        let b_full = if shared {
            Tensor::from_vec(vec![e, k, n], b.data().repeat(e)).unwrap()
        } else {
            b.clone()
        };
        let reference = gemm::batched_matmul_reference(&a, &b_full).unwrap();
        let packed = PackedTensor::pack_batched(&b).unwrap();
        for workers in [1, 2, 7, 16, 0] {
            let fast = gemm::batched_matmul_packed(&a, &packed, workers).unwrap();
            prop_assert!(
                reference.data() == fast.data(),
                "prepacked batched matmul diverged: e={e} m={m} k={k} n={n} shared={shared} workers={workers}"
            );
        }
    }

    /// All-zero `A` row groups are skipped by the packed kernels; the
    /// skip must reproduce the reference bits. Zero rows are drawn as
    /// trailing padding, a mid-matrix run (the `ExpertsLayout` pattern of
    /// several experts' buffers stacked into one matrix), partial 4-row
    /// groups, `-0.0` rows, and runs covering only part of the depth (one
    /// `kc` block skipped, the next not).
    #[test]
    fn zero_row_groups_are_bit_identical(
        dims in (1usize..80, 1usize..300, 1usize..300),
        zero in (0usize..1000, 0usize..1000, 0usize..1000, 0u8..3),
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let (lo, len, kz, sign) = zero;
        let mut a = random_tensor(if ta { vec![k, m] } else { vec![m, k] }, seed);
        let ks = if kz % 2 == 0 { 0..k } else { 0..(kz % k).max(1) };
        zero_rows(&mut a, m, k, ta, row_range(m, lo, len), ks, sign);
        let b = random_tensor(if tb { vec![n, k] } else { vec![k, n] }, seed ^ 0x9E37_79B9);
        let reference = gemm::matmul_reference(&a, &b, ta, tb).unwrap();
        let packed = PackedTensor::pack(&b, tb).unwrap();
        for workers in WORKER_COUNTS {
            let tiled = gemm::matmul_tiled(&a, &b, ta, tb, workers).unwrap();
            assert_bits(&reference, &tiled, "matmul_tiled")?;
            let fast = gemm::matmul_packed(&a, &packed, ta, workers).unwrap();
            assert_bits(&reference, &fast, "matmul_packed")?;
        }
    }

    /// Per-expert capacity padding in a `(E, C, H)` buffer: every slice
    /// has its own zero run, through the batched tiled and prepacked
    /// engines (per-expert and shared `B`).
    #[test]
    fn batched_zero_row_groups_are_bit_identical(
        dims in (1usize..5, 1usize..70, 1usize..90, 1usize..90),
        zero in (0usize..1000, 0usize..1000, 0u8..3),
        shared in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (e, m, k, n) = dims;
        let (lo, len, sign) = zero;
        let mut a = random_tensor(vec![e, m, k], seed);
        zero_rows(&mut a, m, k, false, row_range(m, lo, len), 0..k, sign);
        // Give each expert a different fill as well: zero its last `bi` rows.
        for (bi, slice) in a.data_mut().chunks_mut(m * k).enumerate() {
            slice[m.saturating_sub(bi) * k..].fill(0.0);
        }
        let b = random_tensor(vec![if shared { 1 } else { e }, k, n], seed ^ 0x5EED);
        let b_full = if shared {
            Tensor::from_vec(vec![e, k, n], b.data().repeat(e)).unwrap()
        } else {
            b.clone()
        };
        let reference = gemm::batched_matmul_reference(&a, &b_full).unwrap();
        let packed = PackedTensor::pack_batched(&b).unwrap();
        for workers in WORKER_COUNTS {
            let tiled = gemm::batched_matmul_t(&a, &b_full, false, false, workers).unwrap();
            assert_bits(&reference, &tiled, "batched_matmul_t")?;
            let fast = gemm::batched_matmul_packed(&a, &packed, workers).unwrap();
            assert_bits(&reference, &fast, "batched_matmul_packed")?;
        }
    }

    /// The public `Tensor::matmul_t` API routes through the tiled engine
    /// and therefore also matches the reference exactly.
    #[test]
    fn public_matmul_api_matches_reference(
        dims in (1usize..40, 1usize..40, 1usize..40),
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a_shape = if ta { vec![k, m] } else { vec![m, k] };
        let b_shape = if tb { vec![n, k] } else { vec![k, n] };
        let a = random_tensor(a_shape, seed);
        let b = random_tensor(b_shape, seed.wrapping_add(1));
        let reference = gemm::matmul_reference(&a, &b, ta, tb).unwrap();
        let api = a.matmul_t(&b, ta, tb).unwrap();
        prop_assert!(reference.data() == api.data());
    }
}

/// Regression test for the IEEE-754 zero-skip bug: a kernel that skips
/// `a == 0.0` terms silently converts `0 · inf` and `0 · NaN` (which are
/// NaN) into `0`. Non-finite values must propagate identically through
/// the reference and every packed path at every worker count — including
/// when the zero sits in an all-zero row group, which the packed kernels
/// skip only against an all-finite `B`, and through a pack rebuilt
/// zero-copy from shared panels (whose finiteness is computed lazily).
#[test]
fn non_finite_operands_propagate_through_all_paths() {
    let m = 12;
    let k = 70; // crosses MR and NR edges with a remainder
    let n = 48; // m·k·n above the small-problem cutoff
    let mut a = random_tensor(vec![m, k], 7);
    // A lone zero in row 1, and rows 4..8 (one whole register-tile row
    // group) all zero.
    a.data_mut()[k + 5] = 0.0;
    zero_rows(&mut a, m, k, false, 4..8, 0..k, 0);
    for (bad_col, bad) in [(2, f32::INFINITY), (7, f32::NAN)] {
        let mut b = random_tensor(vec![k, n], 8);
        b.data_mut()[5 * n + bad_col] = bad;
        let reference = gemm::matmul_reference(&a, &b, false, false).unwrap();
        for row in [1, 4, 7] {
            assert!(reference.data()[row * n + bad_col].is_nan(), "0 * {bad} must be NaN");
        }
        let check = |what: &str, got: &Tensor| {
            for (i, (r, t)) in reference.data().iter().zip(got.data()).enumerate() {
                assert!(r.to_bits() == t.to_bits(), "{what}: element {i}: {r:?} vs {t:?}");
            }
        };
        let packed = PackedTensor::pack(&b, false).unwrap();
        let owner: Arc<dyn BufOwner> = Arc::new(VecOwner(packed.panel_data().to_vec()));
        let shared = PackedTensor::from_shared_panels(
            owner,
            0,
            packed.panel_data().len(),
            packed.batch(),
            packed.k(),
            packed.n(),
            packed.src_shape().to_vec(),
            packed.transposed(),
        )
        .unwrap();
        let at = a.transpose2().unwrap();
        let bt = b.transpose2().unwrap();
        let packed_t = PackedTensor::pack(&bt, true).unwrap();
        // The batched paths see the same product as one expert of two;
        // the other expert's `B` is finite.
        let a3 = Tensor::from_vec(vec![2, m, k], a.data().repeat(2)).unwrap();
        let mut b3 = b.data().to_vec();
        b3.extend(random_tensor(vec![k, n], 9).data());
        let b3 = Tensor::from_vec(vec![2, k, n], b3).unwrap();
        let packed3 = PackedTensor::pack_batched(&b3).unwrap();
        let first = |y: Tensor| y.slice_axis(0, 0, 1).unwrap().reshape(vec![m, n]).unwrap();
        for workers in WORKER_COUNTS {
            check("matmul_tiled", &gemm::matmul_tiled(&a, &b, false, false, workers).unwrap());
            check("matmul_tiled ta", &gemm::matmul_tiled(&at, &b, true, false, workers).unwrap());
            check("matmul_tiled tb", &gemm::matmul_tiled(&a, &bt, false, true, workers).unwrap());
            check("matmul_packed", &gemm::matmul_packed(&a, &packed, false, workers).unwrap());
            check("matmul_packed ta", &gemm::matmul_packed(&at, &packed, true, workers).unwrap());
            check("matmul_packed tb", &gemm::matmul_packed(&a, &packed_t, false, workers).unwrap());
            check("from_shared_panels", &gemm::matmul_packed(&a, &shared, false, workers).unwrap());
            let tiled3 = gemm::batched_matmul_t(&a3, &b3, false, false, workers).unwrap();
            check("batched_matmul_t", &first(tiled3));
            let prepacked3 = gemm::batched_matmul_packed(&a3, &packed3, workers).unwrap();
            check("batched_matmul_packed", &first(prepacked3));
        }
    }
}

/// Packs hold no padding: every slice is exactly `k · n` words, including
/// when `k` and `n` cross the `KC` and `NC` panel edges unevenly (`k` 300
/// leaves a 44-deep panel row, `n` 600 an 88-wide last panel whose last
/// strip is 8 wide). Such a tight pack, serialized and rebuilt zero-copy
/// through `from_shared_panels`, multiplies bit-identically to the
/// reference, rank-2 (both `B` transposes) and batched.
#[test]
fn tight_packs_across_panel_edges_round_trip_bit_identically() {
    let (e, m, k, n) = (2, 21, 300, 600);
    let rebuild = |p: &PackedTensor| {
        let owner: Arc<dyn BufOwner> = Arc::new(VecOwner(p.panel_data().to_vec()));
        let words = p.panel_data().len();
        let (batch, shape, t) = (p.batch(), p.src_shape().to_vec(), p.transposed());
        PackedTensor::from_shared_panels(owner, 0, words, batch, p.k(), p.n(), shape, t).unwrap()
    };
    let a = random_tensor(vec![m, k], 31);
    for tb in [false, true] {
        let b = random_tensor(if tb { vec![n, k] } else { vec![k, n] }, 32);
        let packed = PackedTensor::pack(&b, tb).unwrap();
        assert_eq!(packed.panel_data().len(), k * n);
        let shared = rebuild(&packed);
        assert_eq!(shared, packed);
        let reference = gemm::matmul_reference(&a, &b, false, tb).unwrap();
        for workers in WORKER_COUNTS {
            let y = gemm::matmul_packed(&a, &shared, false, workers).unwrap();
            assert_eq!(y.data(), reference.data(), "tb={tb} workers={workers}");
        }
    }
    let a3 = random_tensor(vec![e, m, k], 33);
    let b3 = random_tensor(vec![e, k, n], 34);
    let packed3 = PackedTensor::pack_batched(&b3).unwrap();
    assert_eq!(packed3.panel_data().len(), e * k * n);
    let reference = gemm::batched_matmul_reference(&a3, &b3).unwrap();
    for workers in WORKER_COUNTS {
        let y = gemm::batched_matmul_packed(&a3, &rebuild(&packed3), workers).unwrap();
        assert_eq!(y.data(), reference.data(), "batched workers={workers}");
    }
    // A window sized for the old padded layout no longer describes a pack.
    let padded = gemm::KC * gemm::NC * k.div_ceil(gemm::KC) * n.div_ceil(gemm::NC);
    let owner: Arc<dyn BufOwner> = Arc::new(VecOwner(vec![0.0; padded]));
    assert!(PackedTensor::from_shared_panels(owner, 0, padded, 1, k, n, vec![k, n], false).is_err());
}
