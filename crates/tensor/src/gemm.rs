//! The packed, cache-blocked matmul engine behind [`Tensor::matmul`],
//! [`Tensor::matmul_t`], [`Tensor::batched_matmul`] and the executor's
//! transposed batched products ([`batched_matmul_t`]).
//!
//! # Why packing
//!
//! The seed kernel walked `a_at`/`b_at` index closures per element — a
//! branch and a strided load per multiply, and no cache reuse: each output
//! row re-streamed the whole `B` matrix from memory. This module instead
//! follows the classic GotoBLAS/BLIS structure:
//!
//! 1. **Pack `B` once** into `kc × nc` panels of `NR`-wide column strips
//!    (transposes are resolved during packing, so the micro-kernel only
//!    ever streams contiguous data). The panels tile a `K × N` slice
//!    exactly, with no padding: a slice packs into `k · n` words, and
//!    panel `(kci, nci)` (rows `p0 = kci · kc`, columns `j0 = nci · nc`)
//!    starts at `p0 · n + kcb · j0`, where `kcb = min(kc, k − p0)` is
//!    the depth of its panel row.
//! 2. **Pack `A`** per `mc × kc` block into a worker-local buffer,
//!    interleaved in `MR`-row groups (transposes are resolved here too,
//!    so a transposed operand is never materialized).
//! 3. A **register-tiled micro-kernel** updates an `MR × NR` output tile
//!    with the accumulators held in registers across the whole `kc`
//!    depth — one output load and one store per tile instead of one per
//!    `k` step. On x86-64 an AVX-512 or AVX2-compiled copy of the kernel
//!    is selected at runtime (vectorizing across *independent* output
//!    elements only, so lane width never changes results; no FMA
//!    contraction is used).
//!
//! The blocking is fixed: [`MC`], [`KC`] and [`NC`] cut every product,
//! and a store file records them so panels packed under any other
//! blocking are refused at load. Weights that never change between calls
//! can skip step 1 entirely by being packed once into a
//! [`PackedTensor`] and multiplied via [`matmul_packed`] /
//! [`batched_matmul_packed`].
//!
//! Every tile, full or remainder, runs the same `MR × NR` sweep. The
//! last `MR` group of packed `A` is zero-filled to `MR` rows, and a
//! panel's last strip narrower than `NR` is copied once per panel into a
//! zero-padded `kcb × NR` scratch strip; only the valid `rows × w`
//! accumulators are loaded from and stored back to `out`, and the padded
//! lanes are computed and discarded.
//!
//! # Determinism contract
//!
//! Every kernel in this module accumulates each output element in **the
//! same order: `k` ascending** (`kc` blocks ascending, offsets ascending
//! inside a block — exactly the reference kernel's order). Workers split
//! the *output* by row blocks, so each element is written by one task.
//! The accumulator tile is loaded from and stored back to `out` per `kc`
//! block, so the adds stay left-associated and `k`-ascending. Consequently
//! [`matmul_tiled`], [`matmul_packed`] and every slice of
//! [`batched_matmul_t`] are all bit-identical to [`matmul_reference`] for
//! every shape, transpose combination, worker count, and SIMD path —
//! enforced by `tests/backend_props.rs` and relied on by the fig05
//! equivalence harness.
//!
//! The same argument makes the executor's attention products
//! (`Q·Kᵀ`, `P·V`, `dY·Vᵀ`, `Pᵀ·dY`, one [`batched_matmul_t`] slice per
//! `(batch, head)`) bit-equal to the scalar loops they replaced: each of
//! those loops summed its products from `+0` with the contraction index
//! ascending, which is exactly this order. The score gradients with
//! respect to `Q` and `K` stay loops, because they skip causally masked
//! positions outright: as a product, the `0 · ∞` or `0 · NaN` a masked
//! position can hold would turn into NaN instead of being skipped.
//!
//! The packed kernels skip one kind of arithmetic whose result is known
//! exactly: an `MR`-row group of packed `A` that is all `== 0.0` (either
//! sign; NaN is not zero) within a `kc` block, multiplied against a `B`
//! slice whose values are all finite. Every entry point's `out` starts at
//! `+0`, and a `k`-ascending round-to-nearest sum that starts at `+0` can
//! never become `-0` (`x + y` is `-0` only when both are `-0`). With
//! finite `b`, each skipped product `±0 · b` is `±0`, and adding `±0` to
//! any value other than `-0` returns it unchanged — so the skip writes the
//! same bits as the reference. This is what keeps MoE capacity padding
//! (the zero rows `dispatch` writes into `(E, C, H)` expert buffers) from
//! costing multiply-adds. A non-finite `B` slice disables the skip, so
//! `0 · ∞` and `0 · NaN` still propagate as NaN per IEEE 754 — the seed
//! kernel's per-element `a == 0.0` short-circuit dropped them. Finiteness
//! is computed once per `B` slice inside the packing copy (`pack_b`) and
//! cached on [`PackedTensor`], never rescanned per call.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::pack::PackedTensor;
use crate::pool::{self, SharedSliceMut};
use crate::{Result, Tensor, TensorError};

/// Rows per packed `A` block (output rows processed per task step).
pub const MC: usize = 64;
/// Depth of a packed panel (the `k`-blocking factor).
pub const KC: usize = 256;
/// Columns per packed `B` panel.
pub const NC: usize = 512;
/// Output rows per register tile.
const MR: usize = 4;
/// Output columns per register tile (the width of a packed `B` strip).
/// `MR × NR` accumulators fit the 16 AVX2 vector registers; with AVX-512
/// each row is a single 16-lane register.
const NR: usize = 16;

/// Problems smaller than this many multiply-adds skip packing and run the
/// reference kernel directly (identical bits, less setup).
const SMALL_GEMM: usize = 32 * 32 * 32;

/// Validates rank-2 shapes and resolves virtual transposes to `(m, k, n)`.
fn matmul_dims(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<(usize, usize, usize)> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "matmul", expected: 2, actual: a.rank() });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "matmul", expected: 2, actual: b.rank() });
    }
    let (ar, ac) = (a.shape()[0], a.shape()[1]);
    let (br, bc) = (b.shape()[0], b.shape()[1]);
    let (m, ka) = if ta { (ac, ar) } else { (ar, ac) };
    let (kb, n) = if tb { (bc, br) } else { (br, bc) };
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok((m, ka, n))
}

/// The retained naive kernel: a per-element triple loop over index
/// closures, kept as the executable specification the tiled engine is
/// tested against (and as the benchmark baseline).
///
/// Accumulation order per output element is `k` ascending. No zero
/// short-circuit: `0 · ∞ = NaN` propagates per IEEE 754.
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul_t`].
pub fn matmul_reference(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b, ta, tb)?;
    let mut out = vec![0.0f32; m * n];
    reference_into(m, k, n, a.data(), a.shape()[1], ta, b.data(), b.shape()[1], tb, &mut out);
    Tensor::from_vec(vec![m, n], out)
}

#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn reference_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ac: usize,
    ta: bool,
    b: &[f32],
    bc: usize,
    tb: bool,
    out: &mut [f32],
) {
    let a_at = |i: usize, p: usize| if ta { a[p * ac + i] } else { a[i * ac + p] };
    let b_at = |p: usize, j: usize| if tb { b[j * bc + p] } else { b[p * bc + j] };
    for i in 0..m {
        for p in 0..k {
            let av = a_at(i, p);
            for j in 0..n {
                out[i * n + j] += av * b_at(p, j);
            }
        }
    }
}

/// The packed, cache-blocked, multi-threaded matmul.
///
/// `workers = 0` auto-sizes from the shared pool
/// ([`pool::default_workers`]); `workers = 1` runs sequentially on the
/// calling thread. Any worker count is bit-identical to
/// [`matmul_reference`].
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul_t`].
pub fn matmul_tiled(a: &Tensor, b: &Tensor, ta: bool, tb: bool, workers: usize) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b, ta, tb)?;
    if m * k * n <= SMALL_GEMM {
        return matmul_reference(a, b, ta, tb);
    }
    let mut out = vec![0.0f32; m * n];
    let w = pool::resolve_workers(workers);
    let (bpack, finite) = pack_b(1, k, n, b.data(), b.shape()[1], tb, w);
    gemm_packed(m, k, n, a.data(), a.shape()[1], ta, &bpack, finite[0], &mut out, w);
    Tensor::from_vec(vec![m, n], out)
}

/// Matmul against a weight already resident in panel layout: the
/// steady-state serving fast path, skipping `pack_b` entirely.
///
/// Bit-identical to [`matmul_reference`] and to the repacking paths.
/// The packed operand must be rank-2 (`batch == 1`).
///
/// # Errors
///
/// [`TensorError::RankMismatch`] for a non-rank-2 `a`;
/// [`TensorError::ShapeMismatch`] when `a`'s inner dimension disagrees
/// with the packed `k` or the packed operand is batched.
pub fn matmul_packed(a: &Tensor, b: &PackedTensor, ta: bool, workers: usize) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch { op: "matmul", expected: 2, actual: a.rank() });
    }
    let (ar, ac) = (a.shape()[0], a.shape()[1]);
    let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
    if b.batch() != 1 || k != b.k() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.src_shape().to_vec(),
        });
    }
    let n = b.n();
    let mut out = vec![0.0f32; m * n];
    let w = pool::resolve_workers(workers);
    gemm_packed(m, k, n, a.data(), ac, ta, b.panels(0), b.finite()[0], &mut out, w);
    Tensor::from_vec(vec![m, n], out)
}

/// Reference batched matmul `(B, M, K) x (B, K, N)`: the naive loop, one
/// expert at a time, no zero short-circuit.
///
/// # Errors
///
/// Same conditions as [`Tensor::batched_matmul`].
pub fn batched_matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (bt, m, k, n) = batched_dims(a, b, false, false)?;
    let mut out = vec![0.0f32; bt * m * n];
    batched_reference_into(bt, m, k, n, a, false, b, false, &mut out);
    Tensor::from_vec(vec![bt, m, n], out)
}

/// The reference loop over every slice of a batched product, resolving
/// virtual transposes per slice.
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn batched_reference_into(
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &Tensor,
    ta: bool,
    b: &Tensor,
    tb: bool,
    out: &mut [f32],
) {
    let (ac, bc) = (a.shape()[2], b.shape()[2]);
    for bi in 0..bt {
        reference_into(
            m,
            k,
            n,
            &a.data()[bi * m * k..(bi + 1) * m * k],
            ac,
            ta,
            &b.data()[bi * k * n..(bi + 1) * k * n],
            bc,
            tb,
            &mut out[bi * m * n..(bi + 1) * m * n],
        );
    }
}

/// Batched matmul with optional per-slice transposes: `(B, M, K) x (B, K,
/// N) -> (B, M, N)`, where `ta` reads each stored `(K, M)` slice of `a` as
/// its transpose and `tb` each stored `(N, K)` slice of `b` — resolved in
/// the packing copies, never materialized. Packs every slice's panels in
/// parallel over the shared pool, then splits the `(slice, row-block)`
/// grid across workers, so parallelism does not collapse when `B` is
/// smaller than the worker count. Products with at most `SMALL_GEMM`
/// multiply-adds in total run the reference loop.
///
/// Every slice is bit-identical to [`matmul_reference`] on it, for any
/// `workers` (`0` = auto).
///
/// # Errors
///
/// [`TensorError::RankMismatch`] unless both operands are rank-3;
/// [`TensorError::ShapeMismatch`] when the batch axes or the contraction
/// dimensions (after transposes) disagree.
pub fn batched_matmul_t(a: &Tensor, b: &Tensor, ta: bool, tb: bool, workers: usize) -> Result<Tensor> {
    let (bt, m, k, n) = batched_dims(a, b, ta, tb)?;
    let mut out = vec![0.0f32; bt * m * n];
    if bt * m * k * n <= SMALL_GEMM {
        batched_reference_into(bt, m, k, n, a, ta, b, tb, &mut out);
    } else {
        let w = pool::resolve_workers(workers);
        let (bpack, finite) = pack_b(bt, k, n, b.data(), b.shape()[2], tb, w);
        batched_gemm_packed(bt, m, k, n, a.data(), a.shape()[2], ta, &bpack, &finite, &mut out, w);
    }
    Tensor::from_vec(vec![bt, m, n], out)
}

/// Batched matmul against prepacked per-expert (or shared) weight panels:
/// `(B, M, K) x packed (B, K, N) -> (B, M, N)`.
///
/// A packed operand with `batch == 1` is broadcast across the batch axis —
/// the shared-`B` case packs (and stores) one panel set instead of `B`
/// copies. Bit-identical to [`batched_matmul_reference`] against the
/// equivalent materialized operand.
///
/// # Errors
///
/// [`TensorError::RankMismatch`] for a non-rank-3 `a`;
/// [`TensorError::ShapeMismatch`] when the batch axes disagree (and the
/// packed operand is not broadcastable) or the inner dimensions disagree.
pub fn batched_matmul_packed(a: &Tensor, b: &PackedTensor, workers: usize) -> Result<Tensor> {
    if a.rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "batched_matmul",
            expected: 3,
            actual: a.rank(),
        });
    }
    let (bt, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    if (b.batch() != bt && b.batch() != 1) || k != b.k() {
        return Err(TensorError::ShapeMismatch {
            op: "batched_matmul",
            lhs: a.shape().to_vec(),
            rhs: b.src_shape().to_vec(),
        });
    }
    let n = b.n();
    let mut out = vec![0.0f32; bt * m * n];
    let w = pool::resolve_workers(workers);
    batched_gemm_packed(bt, m, k, n, a.data(), k, false, b.buf(), b.finite(), &mut out, w);
    Tensor::from_vec(vec![bt, m, n], out)
}

/// Validates rank-3 shapes and resolves per-slice virtual transposes to
/// `(batch, m, k, n)`.
fn batched_dims(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<(usize, usize, usize, usize)> {
    if a.rank() != 3 || b.rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "batched_matmul",
            expected: 3,
            actual: if a.rank() != 3 { a.rank() } else { b.rank() },
        });
    }
    let (bt, ar, ac) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (b2, br, bc) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
    let (k2, n) = if tb { (bc, br) } else { (br, bc) };
    if bt != b2 || k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "batched_matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok((bt, m, k, n))
}

/// Resolves panel index `panel` to its geometry: `(p0, j0, kcb, ncb)`.
/// The panel starts at word `p0 · n + kcb · j0` of its packed slice: the
/// panel rows above it fill `p0 · n` words, and the panels to its left in
/// its own row `kcb · j0`.
fn panel_dims(k: usize, n: usize, panel: usize, num_nc: usize) -> (usize, usize, usize, usize) {
    let (kci, nci) = (panel / num_nc, panel % num_nc);
    let (p0, j0) = (kci * KC, nci * NC);
    (p0, j0, KC.min(k - p0), NC.min(n - j0))
}

/// Flags, lane by lane, whether `row` (at most `NR` values) holds a
/// non-finite value: `∞` and NaN are exactly the values whose magnitude
/// bits are at least `0x7f80_0000`. Lane-wise flags need no reduction per
/// row, so the check vectorizes into the packing copy at almost no cost.
#[inline(always)]
fn flag_non_finite(bad: &mut [u32; NR], row: &[f32]) {
    for (flag, x) in bad.iter_mut().zip(row) {
        *flag |= u32::from((x.to_bits() & 0x7fff_ffff) as i32 >= 0x7f80_0000);
    }
}

/// Whether every value of `xs` is finite.
pub(crate) fn all_finite(xs: &[f32]) -> bool {
    let mut bad = [0; NR];
    xs.chunks(NR).for_each(|row| flag_non_finite(&mut bad, row));
    bad == [0; NR]
}

/// Fills `dst` (length `kcb * ncb`) with panel `panel` of `B`, resolving a
/// virtual transpose, and returns whether every copied value is finite.
/// Within a panel, columns are grouped into `NR`-wide strips; strip `s`
/// starts at `s * kcb * NR`, is `pp`-major and contiguous, so the
/// micro-kernel streams `B` linearly while sweeping `k`.
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn pack_panel(
    k: usize,
    n: usize,
    b: &[f32],
    bc: usize,
    tb: bool,
    panel: usize,
    num_nc: usize,
    dst: &mut [f32],
) -> bool {
    let (p0, j0, kcb, ncb) = panel_dims(k, n, panel, num_nc);
    let mut bad = [0; NR];
    for (s, strip) in dst[..kcb * ncb].chunks_mut(kcb * NR).enumerate() {
        let c0 = s * NR;
        let w = NR.min(ncb - c0);
        for pp in 0..kcb {
            let row = &mut strip[pp * w..pp * w + w];
            if tb {
                for (c, x) in row.iter_mut().enumerate() {
                    *x = b[(j0 + c0 + c) * bc + (p0 + pp)];
                }
            } else {
                let src = (p0 + pp) * bc + j0 + c0;
                row.copy_from_slice(&b[src..src + w]);
            }
            flag_non_finite(&mut bad, row);
        }
    }
    bad == [0; NR]
}

/// Packs the `bt` contiguous `K × N` slices of `B` (stored stride `bc`,
/// resolving a virtual transpose) into panel layout, parallelizing over
/// the full `(slice, panel)` grid. Every slice packs into exactly `k · n`
/// words, slice `bi` starting at `bi · k · n`; within it, panel `(kci,
/// nci)` starts at `p0 · n + kcb · j0` (`panel_dims`), so no panel is
/// padded. Also returns, per slice, whether every value is finite — the
/// condition for the zero-group skip (module docs).
/// Backs the per-call packing of the tiled paths and
/// [`PackedTensor`]'s constructors.
pub(crate) fn pack_b(
    bt: usize,
    k: usize,
    n: usize,
    b: &[f32],
    bc: usize,
    tb: bool,
    workers: usize,
) -> (Vec<f32>, Vec<bool>) {
    let num_nc = n.div_ceil(NC);
    let per = k.div_ceil(KC) * num_nc;
    let mut pack = vec![0.0f32; bt * k * n];
    let nonfinite: Vec<AtomicBool> = (0..bt).map(|_| AtomicBool::new(false)).collect();
    let view = SharedSliceMut::new(&mut pack);
    pool::par_ranges(bt * per, workers, |units| {
        for u in units {
            let (bi, panel) = (u / per, u % per);
            let (p0, j0, kcb, ncb) = panel_dims(k, n, panel, num_nc);
            let base = bi * k * n + p0 * n + kcb * j0;
            // SAFETY: (slice, panel) ranges are disjoint across tasks.
            let dst = unsafe { view.range_mut(base..base + kcb * ncb) };
            let src = &b[bi * k * n..(bi + 1) * k * n];
            if !pack_panel(k, n, src, bc, tb, panel, num_nc, dst) {
                nonfinite[bi].store(true, Ordering::Relaxed);
            }
        }
    });
    (pack, nonfinite.iter().map(|f| !f.load(Ordering::Relaxed)).collect())
}

/// Arguments threaded through the blocked kernels.
struct Gemm<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    /// Stored column count of `a` (stride between stored rows).
    ac: usize,
    ta: bool,
    bpack: &'a [f32],
    /// Whether every value of this product's `B` is finite — the
    /// condition under which all-zero `A` row groups may be skipped.
    b_finite: bool,
    num_nc: usize,
    out: SharedSliceMut<'a>,
    /// Element offset of this product's output inside `out` (the batched
    /// kernel points every slice's tasks at one shared buffer).
    out_base: usize,
}

/// Runs the packed kernel over `out`, splitting `mc` row blocks across at
/// most `workers` tasks.
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn gemm_packed(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ac: usize,
    ta: bool,
    bpack: &[f32],
    b_finite: bool,
    out: &mut [f32],
    workers: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let g = Gemm {
        m,
        k,
        n,
        a,
        ac,
        ta,
        bpack,
        b_finite,
        num_nc: n.div_ceil(NC),
        out: SharedSliceMut::new(out),
        out_base: 0,
    };
    pool::par_ranges(m.div_ceil(MC), workers, |blocks| compute_blocks(&g, blocks));
}

/// Runs the packed kernel for every slice of a batched product over one
/// shared `(slice, row-block)` task grid. Each `A` slice is `m · k`
/// contiguous words with stored row stride `ac`, read transposed when
/// `ta`. `b_finite` holds one flag per `B` slice; a single flag means one
/// panel set broadcast across the batch axis.
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn batched_gemm_packed(
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ac: usize,
    ta: bool,
    bpack: &[f32],
    b_finite: &[bool],
    out: &mut [f32],
    workers: usize,
) {
    if bt == 0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let num_mc = m.div_ceil(MC);
    let num_nc = n.div_ceil(NC);
    let view = SharedSliceMut::new(out);
    pool::par_ranges(bt * num_mc, workers, |units| {
        // Group the contiguous unit range by slice so each slice gets one
        // `compute_blocks` call (one `apack` buffer) per task.
        let mut u = units.start;
        while u < units.end {
            let bi = u / num_mc;
            let end = ((bi + 1) * num_mc).min(units.end);
            let bs = if b_finite.len() == 1 { 0 } else { bi };
            let g = Gemm {
                m,
                k,
                n,
                a: &a[bi * m * k..(bi + 1) * m * k],
                ac,
                ta,
                bpack: &bpack[bs * k * n..(bs + 1) * k * n],
                b_finite: b_finite[bs],
                num_nc,
                out: view,
                out_base: bi * m * n,
            };
            compute_blocks(&g, (u - bi * num_mc)..(end - bi * num_mc));
            u = end;
        }
    });
}

/// The widest SIMD level this CPU runs, probed once per process: the
/// crate's one CPU-feature check, shared by the GEMM micro-kernel and
/// [`TensorRng::normal`](crate::TensorRng::normal).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512F; `dq` when AVX-512DQ (64-bit lane multiplies) is also
    /// present.
    Avx512 { dq: bool },
    Avx2,
    Portable,
}

#[cfg(target_arch = "x86_64")]
pub(crate) fn isa() -> Isa {
    use std::sync::OnceLock;
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx512f") {
            Isa::Avx512 { dq: std::arch::is_x86_feature_detected!("avx512dq") }
        } else if std::arch::is_x86_feature_detected!("avx2") {
            Isa::Avx2
        } else {
            Isa::Portable
        }
    })
}

/// The SIMD path the micro-kernel dispatches to on this machine:
/// `"avx512"`, `"avx2"`, or `"portable"`, recorded next to benchmark
/// results so a timing is never compared across ISAs unknowingly.
pub fn detected_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            Isa::Avx512 { .. } => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Portable => "portable",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable"
    }
}

/// Dispatches a block range to the widest kernel the CPU supports. The
/// AVX-512/AVX2 copies differ only in codegen (16/8-lane vectorization of
/// the same loops, across independent output elements) — results are
/// bit-identical.
fn compute_blocks(g: &Gemm<'_>, blocks: std::ops::Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    {
        match isa() {
            // SAFETY: the matching CPU feature was verified at runtime.
            Isa::Avx512 { .. } => return unsafe { compute_blocks_avx512(g, blocks) },
            // SAFETY: as above.
            Isa::Avx2 => return unsafe { compute_blocks_avx2(g, blocks) },
            Isa::Portable => {}
        }
    }
    compute_blocks_portable(g, blocks);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn compute_blocks_avx512(g: &Gemm<'_>, blocks: std::ops::Range<usize>) {
    compute_blocks_impl(g, blocks);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compute_blocks_avx2(g: &Gemm<'_>, blocks: std::ops::Range<usize>) {
    compute_blocks_impl(g, blocks);
}

fn compute_blocks_portable(g: &Gemm<'_>, blocks: std::ops::Range<usize>) {
    compute_blocks_impl(g, blocks);
}

/// The blocked loop nest for a contiguous range of `MC` row blocks.
/// `#[inline(always)]` so each dispatch wrapper compiles its own copy
/// with its own target features.
#[inline(always)]
fn compute_blocks_impl(g: &Gemm<'_>, blocks: std::ops::Range<usize>) {
    let mut apack = vec![0.0f32; MC.min(g.m).next_multiple_of(MR) * KC.min(g.k)];
    // Lanes `n % NR..NR` of each `NR`-wide row are never written, so
    // they stay zero: every panel of a product has the same narrow last
    // strip.
    let mut bedge = vec![0.0f32; KC.min(g.k) * NR];
    for blk in blocks {
        let i0 = blk * MC;
        let mcb = MC.min(g.m - i0);
        let o0 = g.out_base + i0 * g.n;
        // SAFETY: `(slice, row-block)` output ranges are disjoint across
        // tasks.
        let out_rows = unsafe { g.out.range_mut(o0..o0 + mcb * g.n) };
        for kci in 0..g.k.div_ceil(KC) {
            let p0 = kci * KC;
            let kcb = KC.min(g.k - p0);
            let astrips = &mut apack[..mcb.next_multiple_of(MR) * kcb];
            pack_a(g, i0, mcb, p0, kcb, astrips);
            for nci in 0..g.num_nc {
                let j0 = nci * NC;
                let ncb = NC.min(g.n - j0);
                let base = p0 * g.n + kcb * j0;
                let panel = &g.bpack[base..base + kcb * ncb];
                macro_tile(out_rows, g.n, j0, mcb, kcb, ncb, astrips, panel, g.b_finite, &mut bedge);
            }
        }
    }
}

/// Copies the `mcb × kcb` block of `A` at `(i0, p0)` into `apack`
/// (`mcb` rounded up to whole `MR` groups), resolving a virtual
/// transpose. Rows are interleaved in `MR`-row groups: group `g` starts
/// at `g * MR * kcb`, is `pp`-major with its `MR` values contiguous per
/// `k` step, matching the micro-kernel's broadcast order. The rows past
/// `mcb` in the last group are zero.
#[inline(always)]
fn pack_a(g: &Gemm<'_>, i0: usize, mcb: usize, p0: usize, kcb: usize, apack: &mut [f32]) {
    for (grp, chunk) in apack.chunks_exact_mut(MR * kcb).enumerate() {
        let r0 = grp * MR;
        let rows = MR.min(mcb - r0);
        for (pp, dst) in chunk.chunks_exact_mut(MR).enumerate() {
            for (r, x) in dst.iter_mut().enumerate() {
                let (i, p) = (i0 + r0 + r, p0 + pp);
                *x = if r >= rows {
                    0.0
                } else if g.ta {
                    g.a[p * g.ac + i]
                } else {
                    g.a[i * g.ac + p]
                };
            }
        }
    }
}

/// Accumulates an `mcb × ncb` output tile as a grid of `MR × NR` register
/// tiles, every one through [`tile`]. A last `B` strip narrower than `NR`
/// is first copied into the zero-padded `bedge` so it has the full
/// strip's shape. The `out` slice covers rows `i0..i0+mcb` of the full
/// output (stride `n`); columns `j0` onward are updated. When
/// `b_finite`, an all-zero `A` row group is skipped: it would add only
/// `±0` to sums that started at `+0` (module docs).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat slice+stride kernel signature
fn macro_tile(
    out: &mut [f32],
    n: usize,
    j0: usize,
    mcb: usize,
    kcb: usize,
    ncb: usize,
    apack: &[f32],
    panel: &[f32],
    b_finite: bool,
    bedge: &mut [f32],
) {
    let (full, w) = (ncb / NR, ncb % NR);
    if w > 0 {
        let narrow = &panel[full * kcb * NR..];
        for (dst, src) in bedge.chunks_exact_mut(NR).zip(narrow.chunks_exact(w)) {
            dst[..w].copy_from_slice(src);
        }
    }
    for (grp, astrip) in apack.chunks_exact(MR * kcb).enumerate() {
        if b_finite && astrip.iter().all(|&x| x == 0.0) {
            continue;
        }
        let r0 = grp * MR;
        let rows = MR.min(mcb - r0);
        for (s, bstrip) in panel.chunks_exact(kcb * NR).enumerate() {
            tile(out, n, r0 * n + j0 + s * NR, rows, NR, astrip, bstrip);
        }
        if w > 0 {
            tile(out, n, r0 * n + j0 + full * NR, rows, w, astrip, &bedge[..kcb * NR]);
        }
    }
}

/// One `MR × NR` register tile at `out[off..]` (stride `n`): the valid
/// `rows × w` outputs are loaded into the accumulator, swept over the
/// whole strip depth, and stored back; padded lanes are discarded.
#[inline(always)]
fn tile(out: &mut [f32], n: usize, off: usize, rows: usize, w: usize, astrip: &[f32], bstrip: &[f32]) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate().take(rows) {
        accr[..w].copy_from_slice(&out[off + r * n..off + r * n + w]);
    }
    let acc = sweep(acc, astrip, bstrip);
    for (r, accr) in acc.iter().enumerate().take(rows) {
        out[off + r * n..off + r * n + w].copy_from_slice(&accr[..w]);
    }
}

/// The register-tiled inner kernel: every `k` step of an `MR`-row `A`
/// group times an `NR`-wide `B` strip, added into the accumulator (`k`
/// ascending, left-associated adds — the reference accumulation order).
/// The fixed-size `NR` loops vectorize across independent output
/// elements; there is no reduction, so lane width cannot change results.
/// The accumulator goes in and out by value: a whole-array local that
/// stays in registers, which the runtime-length loads and stores of an
/// edge tile would otherwise force to memory.
#[inline(always)]
fn sweep(mut acc: [[f32; NR]; MR], astrip: &[f32], bstrip: &[f32]) -> [[f32; NR]; MR] {
    for (a, b) in astrip.chunks_exact(MR).zip(bstrip.chunks_exact(NR)) {
        let b: &[f32; NR] = b.try_into().expect("strip width");
        for (accr, &ar) in acc.iter_mut().zip(a) {
            for (o, &bv) in accr.iter_mut().zip(b) {
                *o += ar * bv;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    fn close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.data(), b.data(), "tiled must be bit-identical to reference");
    }

    #[test]
    fn tiled_matches_reference_beyond_block_bounds() {
        let mut rng = TensorRng::seed(11);
        // Shapes straddling MC/KC/NC boundaries, including remainders.
        for (m, k, n) in [(1, 1, 1), (5, 7, 3), (64, 256, 512), (65, 257, 513), (130, 300, 70)] {
            let a = rng.uniform(vec![m, k], -1.0, 1.0);
            let b = rng.uniform(vec![k, n], -1.0, 1.0);
            let reference = matmul_reference(&a, &b, false, false).unwrap();
            for workers in [1, 2, 0] {
                close(&matmul_tiled(&a, &b, false, false, workers).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn transposed_operands_match_reference() {
        let mut rng = TensorRng::seed(12);
        let (m, k, n) = (70, 90, 110);
        for (ta, tb) in [(false, true), (true, false), (true, true)] {
            let a_dims = if ta { vec![k, m] } else { vec![m, k] };
            let b_dims = if tb { vec![n, k] } else { vec![k, n] };
            let a = rng.uniform(a_dims, -1.0, 1.0);
            let b = rng.uniform(b_dims, -1.0, 1.0);
            let reference = matmul_reference(&a, &b, ta, tb).unwrap();
            close(&matmul_tiled(&a, &b, ta, tb, 0).unwrap(), &reference);
        }
    }

    #[test]
    fn batched_matches_reference() {
        let mut rng = TensorRng::seed(13);
        for (bt, m, k, n) in [(1, 40, 50, 60), (3, 33, 65, 40), (8, 16, 64, 48)] {
            let a = rng.uniform(vec![bt, m, k], -1.0, 1.0);
            let b = rng.uniform(vec![bt, k, n], -1.0, 1.0);
            let reference = batched_matmul_reference(&a, &b).unwrap();
            for workers in [1, 2, 0] {
                close(&batched_matmul_t(&a, &b, false, false, workers).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn batched_parallel_packing_is_bit_identical_beyond_expert_count() {
        // Regression for the old path that packed each expert's panels
        // with `workers: 1` inside a per-expert task: the rebuilt kernel
        // parallelizes the (expert, panel) and (expert, row-block) grids,
        // so worker counts far beyond `bt` must still be bit-identical.
        let mut rng = TensorRng::seed(14);
        let (bt, m, k, n) = (2, 130, 257, 100);
        let a = rng.uniform(vec![bt, m, k], -1.0, 1.0);
        let b = rng.uniform(vec![bt, k, n], -1.0, 1.0);
        let reference = batched_matmul_reference(&a, &b).unwrap();
        for workers in [1, 2, 3, 7, 16, 0] {
            close(&batched_matmul_t(&a, &b, false, false, workers).unwrap(), &reference);
        }
    }

    #[test]
    fn non_finite_inputs_propagate() {
        // 0 · ∞ must be NaN (the seed kernel's zero short-circuit dropped it).
        let a = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 1], vec![f32::INFINITY, 2.0]).unwrap();
        let y = matmul_reference(&a, &b, false, false).unwrap();
        assert!(y.data()[0].is_nan(), "0·∞ + 1·2 must be NaN, got {}", y.data()[0]);
        let yt = matmul_tiled(&a, &b, false, false, 0).unwrap();
        assert!(yt.data()[0].is_nan());
    }

    #[test]
    fn shape_errors_match_api() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        assert!(matmul_tiled(&a, &b, false, false, 0).is_err());
        assert!(matmul_tiled(&a, &b, false, true, 0).is_ok());
        assert!(matmul_reference(&a, &Tensor::zeros(vec![3]), false, false).is_err());
    }
}
