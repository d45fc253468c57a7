//! Prepacked weight panels: pay [`pack_b`](crate::gemm) once, reuse
//! forever.
//!
//! Every call through [`Tensor::matmul`](crate::Tensor::matmul) packs its
//! `B` operand into the GEMM's panel layout before computing. For model
//! weights — bound once into a serving plan and then multiplied on every
//! request — that repacking is pure steady-state overhead, and for small
//! `m` (a decode step multiplies a handful of rows against a large weight)
//! it *dominates* the call. A [`PackedTensor`] holds the panel layout
//! itself: built once (at `Plan::build` time, or when a decode model
//! loads), then consumed by
//! [`matmul_packed`](crate::gemm::matmul_packed) /
//! [`batched_matmul_packed`](crate::gemm::batched_matmul_packed), which
//! skip `pack_b` entirely.
//!
//! Packing only moves values into the fixed [`KC`](crate::gemm::KC) ×
//! [`NC`](crate::gemm::NC) panel layout, so a packed multiply is
//! bit-identical to the repacking path (and to
//! [`matmul_reference`](crate::gemm::matmul_reference)).
//!
//! A pack also caches, per batch slice, whether every value is finite —
//! the condition for the GEMM's exact zero-row-group skip (see the
//! [`gemm`] determinism contract). Packs built here compute
//! it inside the packing copy; packs rebuilt zero-copy from a store
//! ([`PackedTensor::from_shared_panels`]) compute it on their first
//! multiply, so loading stays a mapping.
//!
//! # Staleness
//!
//! A `PackedTensor` is a snapshot of the source values at pack time.
//! [`PackedTensor::matches`] checks shape/transpose metadata only — cheap
//! enough for a per-call guard — so holders are responsible for
//! invalidating packs when the source tensor is rebound (the executor's
//! `Bindings` drop a tensor's pack on every rebinding for this reason).

use std::sync::{Arc, OnceLock};

use crate::gemm;
use crate::storage::{Buf, BufOwner};
use crate::{pool, Result, Tensor, TensorError};

/// A `B` operand resident in the GEMM's panel layout.
///
/// Rank-2 sources pack to `batch == 1`; rank-3 sources (per-expert weight
/// stacks) pack each leading slice and record `batch == B`. A `batch == 1`
/// pack broadcasts across the batch axis of
/// [`batched_matmul_packed`](crate::gemm::batched_matmul_packed).
#[derive(Debug, Clone)]
pub struct PackedTensor {
    buf: Buf,
    batch: usize,
    k: usize,
    n: usize,
    src_shape: Vec<usize>,
    transposed: bool,
    /// Per batch slice, whether every value is finite. Set by the packing
    /// copy; filled on first use for zero-copy store panels. Clones share
    /// it (their values are the same), and the `Arc` keeps the struct
    /// small.
    finite: Arc<OnceLock<Vec<bool>>>,
}

/// Equality of the packed operand itself; the finiteness cache is derived
/// from `buf` and may not be filled yet on one side.
impl PartialEq for PackedTensor {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
            && self.batch == other.batch
            && self.k == other.k
            && self.n == other.n
            && self.src_shape == other.src_shape
            && self.transposed == other.transposed
    }
}

impl PackedTensor {
    /// Packs a rank-2 operand (resolving a virtual transpose), auto-sizing
    /// workers.
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] unless `b` is rank-2.
    pub fn pack(b: &Tensor, transpose_b: bool) -> Result<PackedTensor> {
        if b.rank() != 2 {
            return Err(TensorError::RankMismatch { op: "pack", expected: 2, actual: b.rank() });
        }
        let (br, bc) = (b.shape()[0], b.shape()[1]);
        let (k, n) = if transpose_b { (bc, br) } else { (br, bc) };
        Ok(Self::packed(b, 1, k, n, bc, transpose_b))
    }

    /// Packs a rank-3 `(B, K, N)` operand, every slice in parallel over
    /// the shared pool.
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] unless `b` is rank-3.
    pub fn pack_batched(b: &Tensor) -> Result<PackedTensor> {
        if b.rank() != 3 {
            return Err(TensorError::RankMismatch { op: "pack", expected: 3, actual: b.rank() });
        }
        let (bt, k, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
        Ok(Self::packed(b, bt, k, n, n, false))
    }

    /// Packs the `batch` `K × N` slices of `b` (stored row stride `bc`)
    /// over the shared pool.
    fn packed(b: &Tensor, batch: usize, k: usize, n: usize, bc: usize, transposed: bool) -> PackedTensor {
        let w = pool::resolve_workers(0);
        let (buf, finite) = gemm::pack_b(batch, k, n, b.data(), bc, transposed, w);
        PackedTensor {
            buf: Buf::Owned(buf),
            batch,
            k,
            n,
            src_shape: b.shape().to_vec(),
            transposed,
            finite: Arc::new(OnceLock::from(finite)),
        }
    }

    /// Reconstructs packed panels from a shared buffer owner — the
    /// zero-copy load path used by the `lancet-store` model format, which
    /// serializes panels with [`PackedTensor::panel_data`] at pack time so
    /// replicas skip re-packing at load.
    ///
    /// The window must hold exactly `batch` panel slices for `(k, n)`
    /// (i.e. `words == batch * k * n`: panels are never padded), laid
    /// out exactly as [`PackedTensor::pack`] /
    /// [`PackedTensor::pack_batched`] produce them; the panel layout is
    /// part of the store's format contract.
    ///
    /// # Errors
    ///
    /// [`TensorError::LengthMismatch`] if the window is out of the owner's
    /// bounds or `words` disagrees with the metadata;
    /// [`TensorError::RankMismatch`] if `src_shape`/`batch` are not a
    /// valid rank-2 or rank-3 pack description.
    #[allow(clippy::too_many_arguments)]
    pub fn from_shared_panels(
        owner: Arc<dyn BufOwner>,
        offset: usize,
        words: usize,
        batch: usize,
        k: usize,
        n: usize,
        src_shape: Vec<usize>,
        transposed: bool,
    ) -> Result<PackedTensor> {
        let rank_ok = match src_shape.len() {
            2 => batch == 1,
            3 => batch == src_shape[0] && !transposed,
            _ => false,
        };
        if !rank_ok {
            return Err(TensorError::RankMismatch {
                op: "pack",
                expected: if batch == 1 { 2 } else { 3 },
                actual: src_shape.len(),
            });
        }
        let expected = batch.saturating_mul(k).saturating_mul(n);
        if words != expected {
            return Err(TensorError::LengthMismatch { expected, actual: words });
        }
        let total = owner.as_f32().len();
        let buf = Buf::shared(owner, offset, words).ok_or(TensorError::LengthMismatch {
            expected: offset.saturating_add(words),
            actual: total,
        })?;
        Ok(PackedTensor {
            buf,
            batch,
            k,
            n,
            src_shape,
            transposed,
            finite: Arc::default(),
        })
    }

    /// The raw panel buffer (all batch slices, contiguous) — the bytes the
    /// model store serializes so a later [`PackedTensor::from_shared_panels`]
    /// can rebuild these panels without re-packing.
    pub fn panel_data(&self) -> &[f32] {
        self.buf.as_slice()
    }

    /// Whether the panels are borrowed zero-copy from a shared owner.
    pub fn is_shared(&self) -> bool {
        self.buf.is_shared()
    }

    /// Whether these panels were packed from a tensor of `b`'s shape with
    /// the same transpose interpretation — the checked fast-path guard.
    ///
    /// Metadata only: it cannot detect that `b`'s *values* changed since
    /// packing. Holders must invalidate packs on rebinding.
    pub fn matches(&self, b: &Tensor, transpose_b: bool) -> bool {
        self.src_shape == b.shape() && self.transposed == transpose_b
    }

    /// Leading batch extent (`1` for a rank-2 source).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Inner (contraction) dimension after transpose resolution.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-column dimension after transpose resolution.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shape of the tensor the panels were packed from.
    pub fn src_shape(&self) -> &[usize] {
        &self.src_shape
    }

    /// Whether the source was interpreted as transposed while packing.
    pub fn transposed(&self) -> bool {
        self.transposed
    }

    /// Heap bytes held by the panel buffer — the memory cost of keeping
    /// this weight resident in packed form (surfaced by the serve plan
    /// cache stats).
    pub fn bytes(&self) -> u64 {
        (self.buf.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Panels of batch slice `bi`.
    pub(crate) fn panels(&self, bi: usize) -> &[f32] {
        let len = self.k * self.n;
        &self.buf.as_slice()[bi * len..(bi + 1) * len]
    }

    /// The whole panel buffer (all batch slices, contiguous).
    pub(crate) fn buf(&self) -> &[f32] {
        self.buf.as_slice()
    }

    /// Per batch slice, whether every packed value is finite (scanned on
    /// first call for store-loaded panels).
    pub(crate) fn finite(&self) -> &[bool] {
        self.finite
            .get_or_init(|| (0..self.batch).map(|bi| gemm::all_finite(self.panels(bi))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{batched_matmul_packed, batched_matmul_reference, matmul_packed, matmul_reference};
    use crate::TensorRng;

    #[test]
    fn packed_matmul_is_bit_identical() {
        let mut rng = TensorRng::seed(21);
        let (m, k, n) = (33, 257, 70);
        let a = rng.uniform(vec![m, k], -1.0, 1.0);
        for tb in [false, true] {
            let b = rng.uniform(if tb { vec![n, k] } else { vec![k, n] }, -1.0, 1.0);
            let reference = matmul_reference(&a, &b, false, tb).unwrap();
            let pb = PackedTensor::pack(&b, tb).unwrap();
            assert!(pb.matches(&b, tb));
            assert!(!pb.matches(&b, !tb));
            let y = matmul_packed(&a, &pb, false, 0).unwrap();
            assert_eq!(y.data(), reference.data());
        }
    }

    #[test]
    fn packed_batched_matmul_is_bit_identical() {
        let mut rng = TensorRng::seed(22);
        let (bt, m, k, n) = (3, 40, 65, 50);
        let a = rng.uniform(vec![bt, m, k], -1.0, 1.0);
        let b = rng.uniform(vec![bt, k, n], -1.0, 1.0);
        let reference = batched_matmul_reference(&a, &b).unwrap();
        let pb = PackedTensor::pack_batched(&b).unwrap();
        assert_eq!(pb.batch(), bt);
        for workers in [1, 2, 0] {
            let y = batched_matmul_packed(&a, &pb, workers).unwrap();
            assert_eq!(y.data(), reference.data());
        }
    }

    #[test]
    fn shared_b_broadcasts_across_batch() {
        // batch == 1 panels applied to every slice of a batched A must
        // equal materializing B per slice.
        let mut rng = TensorRng::seed(23);
        let (bt, m, k, n) = (4, 20, 48, 36);
        let a = rng.uniform(vec![bt, m, k], -1.0, 1.0);
        let b2 = rng.uniform(vec![k, n], -1.0, 1.0);
        let mut stacked = Vec::with_capacity(bt * k * n);
        for _ in 0..bt {
            stacked.extend_from_slice(b2.data());
        }
        let b3 = Tensor::from_vec(vec![bt, k, n], stacked).unwrap();
        let reference = batched_matmul_reference(&a, &b3).unwrap();
        let pb = PackedTensor::pack(&b2, false).unwrap();
        assert_eq!(pb.batch(), 1);
        let y = batched_matmul_packed(&a, &pb, 0).unwrap();
        assert_eq!(y.data(), reference.data());
    }

    #[test]
    fn mismatched_pack_is_rejected() {
        let a = Tensor::zeros(vec![4, 7]);
        let b = Tensor::zeros(vec![9, 5]);
        let pb = PackedTensor::pack(&b, false).unwrap();
        assert!(matmul_packed(&a, &pb, false, 0).is_err(), "k mismatch must error");
        let a3 = Tensor::zeros(vec![2, 4, 9]);
        let pb3 = PackedTensor::pack_batched(&Tensor::zeros(vec![3, 9, 5])).unwrap();
        assert!(batched_matmul_packed(&a3, &pb3, 0).is_err(), "batch mismatch must error");
        assert!(PackedTensor::pack(&Tensor::zeros(vec![2, 3, 4]), false).is_err());
        assert!(PackedTensor::pack_batched(&Tensor::zeros(vec![3, 4])).is_err());
    }

    #[test]
    fn shared_panels_round_trip_bit_identically() {
        use crate::storage::VecOwner;
        use std::sync::Arc;
        let mut rng = TensorRng::seed(24);
        let a = rng.uniform(vec![9, 33], -1.0, 1.0);
        let b = rng.uniform(vec![33, 21], -1.0, 1.0);
        let pb = PackedTensor::pack(&b, false).unwrap();
        let owner: Arc<dyn crate::storage::BufOwner> =
            Arc::new(VecOwner(pb.panel_data().to_vec()));
        let shared = PackedTensor::from_shared_panels(
            Arc::clone(&owner),
            0,
            pb.panel_data().len(),
            pb.batch(),
            pb.k(),
            pb.n(),
            pb.src_shape().to_vec(),
            pb.transposed(),
        )
        .unwrap();
        assert!(shared.is_shared());
        assert_eq!(shared, pb);
        let y = matmul_packed(&a, &shared, false, 0).unwrap();
        let reference = matmul_reference(&a, &b, false, false).unwrap();
        assert_eq!(y.data(), reference.data());
        // Wrong word counts and out-of-bounds windows are typed errors.
        assert!(PackedTensor::from_shared_panels(
            Arc::clone(&owner),
            0,
            7,
            pb.batch(),
            pb.k(),
            pb.n(),
            pb.src_shape().to_vec(),
            pb.transposed(),
        )
        .is_err());
        assert!(PackedTensor::from_shared_panels(
            owner,
            64,
            pb.panel_data().len(),
            pb.batch(),
            pb.k(),
            pb.n(),
            pb.src_shape().to_vec(),
            pb.transposed(),
        )
        .is_err());
    }

    #[test]
    fn bytes_reports_panel_buffer() {
        let b = Tensor::zeros(vec![100, 100]);
        let pb = PackedTensor::pack(&b, false).unwrap();
        // Panels tile the matrix exactly: no padding to full panel size.
        assert_eq!(pb.bytes(), (100 * 100 * 4) as u64);
    }
}
