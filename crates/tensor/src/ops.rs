//! Numeric kernels on [`Tensor`].
//!
//! All kernels allocate their output; inputs are never mutated. Shapes are
//! validated and mismatches reported via [`TensorError`].
//!
//! Dense matrix products run on the packed, cache-blocked engine in
//! [`crate::gemm`]; elementwise maps and row-wise reductions chunk over
//! the shared [`crate::pool`] once tensors are large enough to pay for
//! it. Both are bit-identical at any worker count (module docs carry the
//! determinism contract).

use crate::det;
use crate::pool::{self, SharedSliceMut};
use crate::{Result, Shape, Tensor, TensorError};

/// Elementwise kernels on tensors smaller than this run inline; chunking
/// tiny maps over the pool costs more in handoff than it saves.
const PAR_ELEMENTWISE_MIN: usize = 32 * 1024;

/// Maps `f` over `src` into a new buffer, chunk-parallel for large inputs.
fn unary_map(src: &[f32], f: impl Fn(f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    if src.len() < PAR_ELEMENTWISE_MIN {
        for (o, &s) in out.iter_mut().zip(src) {
            *o = f(s);
        }
    } else {
        let view = SharedSliceMut::new(&mut out);
        pool::par_ranges(src.len(), 0, |r| {
            // SAFETY: `par_ranges` ranges are disjoint.
            let dst = unsafe { view.range_mut(r.clone()) };
            for (o, &s) in dst.iter_mut().zip(&src[r]) {
                *o = f(s);
            }
        });
    }
    out
}

/// Zips `f` over two equal-length buffers, chunk-parallel for large inputs.
fn binary_map(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![0.0f32; a.len()];
    if a.len() < PAR_ELEMENTWISE_MIN {
        for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
            *o = f(x, y);
        }
    } else {
        let view = SharedSliceMut::new(&mut out);
        pool::par_ranges(a.len(), 0, |r| {
            // SAFETY: `par_ranges` ranges are disjoint.
            let dst = unsafe { view.range_mut(r.clone()) };
            for (o, (&x, &y)) in dst.iter_mut().zip(a[r.clone()].iter().zip(&b[r])) {
                *o = f(x, y);
            }
        });
    }
    out
}

/// Applies `f` to each contiguous `d`-element row, chunk-parallel over
/// rows for large inputs. `src` and the output have identical layout.
fn rowwise_map(src: &[f32], d: usize, f: impl Fn(&[f32], &mut [f32]) + Sync) -> Vec<f32> {
    let d = d.max(1);
    let rows = src.len() / d;
    let mut out = vec![0.0f32; src.len()];
    if src.len() < PAR_ELEMENTWISE_MIN || rows <= 1 {
        for (srow, orow) in src.chunks(d).zip(out.chunks_mut(d)) {
            f(srow, orow);
        }
    } else {
        let view = SharedSliceMut::new(&mut out);
        pool::par_ranges(rows, 0, |r| {
            // SAFETY: row ranges from `par_ranges` are disjoint.
            let dst = unsafe { view.range_mut(r.start * d..r.end * d) };
            for (srow, orow) in src[r.start * d..r.end * d].chunks(d).zip(dst.chunks_mut(d)) {
                f(srow, orow);
            }
        });
    }
    out
}

impl Tensor {
    fn zip_elementwise(&self, other: &Tensor, op: &'static str, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        let data = binary_map(self.data(), other.data(), f);
        Tensor::from_vec(self.shape().to_vec(), data)
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_elementwise(other, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_elementwise(other, "sub", |a, b| a - b)
    }

    /// Element-wise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_elementwise(other, "mul", |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = unary_map(self.data(), |a| a * s);
        Tensor::from_vec(self.shape().to_vec(), data).expect("same volume")
    }

    /// Adds a rank-1 bias along the last dimension.
    ///
    /// For input `(…, D)` and bias `(D,)`, returns `x + bias` broadcast over
    /// the leading dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the bias length differs
    /// from the last dimension.
    pub fn bias_add(&self, bias: &Tensor) -> Result<Tensor> {
        let d = *self.shape().last().unwrap_or(&1);
        if bias.rank() != 1 || bias.shape()[0] != d {
            return Err(TensorError::ShapeMismatch {
                op: "bias_add",
                lhs: self.shape().to_vec(),
                rhs: bias.shape().to_vec(),
            });
        }
        let mut out = self.clone();
        for chunk in out.data_mut().chunks_mut(d) {
            for (x, &b) in chunk.iter_mut().zip(bias.data()) {
                *x += b;
            }
        }
        Ok(out)
    }

    /// Matrix product of the two trailing-2D views: `(M, K) x (K, N) -> (M, N)`.
    ///
    /// Rank-2 inputs only; use [`Tensor::batched_matmul`] for rank-3.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-2 inputs and
    /// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_t(other, false, false)
    }

    /// Matrix product with optional transposes applied to either operand.
    ///
    /// `transpose_a`/`transpose_b` interpret the stored `(R, C)` buffer as
    /// its transpose without materializing it. Runs on the packed tiled
    /// engine ([`crate::gemm`]) over the shared thread pool; results are
    /// bit-identical for any worker count and follow IEEE semantics on
    /// non-finite inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_t(&self, other: &Tensor, transpose_a: bool, transpose_b: bool) -> Result<Tensor> {
        crate::gemm::matmul_tiled(self, other, transpose_a, transpose_b, 0)
    }

    /// Batched matrix product: `(B, M, K) x (B, K, N) -> (B, M, N)`.
    ///
    /// Used for per-expert FFN computation where the leading axis indexes
    /// experts; the shared thread pool parallelizes over that axis with
    /// bit-identical results at any worker count (see [`crate::gemm`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`]/[`TensorError::ShapeMismatch`]
    /// on malformed inputs.
    pub fn batched_matmul(&self, other: &Tensor) -> Result<Tensor> {
        crate::gemm::batched_matmul_t(self, other, false, false, 0)
    }

    /// Matrix product against a weight already resident in panel layout
    /// (`(M, K) x packed (K, N) -> (M, N)`): the steady-state serving fast
    /// path, skipping the per-call `B` packing. Bit-identical to
    /// [`Tensor::matmul`] against the tensor the panels were packed from.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for a non-rank-2 input and
    /// [`TensorError::ShapeMismatch`] when the inner dimension disagrees
    /// with the packed operand (or the packed operand is batched).
    pub fn matmul_prepacked(&self, packed: &crate::PackedTensor) -> Result<Tensor> {
        crate::gemm::matmul_packed(self, packed, false, 0)
    }

    /// Batched matrix product against prepacked per-expert panels
    /// (`(B, M, K) x packed (B, K, N) -> (B, M, N)`; a `batch == 1` pack
    /// broadcasts). Bit-identical to [`Tensor::batched_matmul`] against
    /// the tensor the panels were packed from.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`]/[`TensorError::ShapeMismatch`]
    /// on malformed or incompatible inputs.
    pub fn batched_matmul_prepacked(&self, packed: &crate::PackedTensor) -> Result<Tensor> {
        crate::gemm::batched_matmul_packed(self, packed, 0)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let data = unary_map(self.data(), |x| x.max(0.0));
        Tensor::from_vec(self.shape().to_vec(), data).expect("same volume")
    }

    /// Gradient of ReLU: passes `grad` where the forward input was positive.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn relu_grad(&self, grad: &Tensor) -> Result<Tensor> {
        self.zip_elementwise(grad, "relu_grad", |x, g| if x > 0.0 { g } else { 0.0 })
    }

    /// GELU activation (tanh approximation, as used by GPT-2).
    pub fn gelu(&self) -> Tensor {
        let data = unary_map(self.data(), gelu_scalar);
        Tensor::from_vec(self.shape().to_vec(), data).expect("same volume")
    }

    /// Gradient of [`Tensor::gelu`] with respect to its input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn gelu_grad(&self, grad: &Tensor) -> Result<Tensor> {
        self.zip_elementwise(grad, "gelu_grad", |x, g| g * gelu_grad_scalar(x))
    }

    /// Softmax over the last dimension, numerically stabilized.
    /// Rows are independent, so large inputs chunk over the shared pool.
    pub fn softmax_last(&self) -> Tensor {
        let d = *self.shape().last().unwrap_or(&1);
        let data = rowwise_map(self.data(), d, |src, row| {
            let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for (x, &s) in row.iter_mut().zip(src) {
                *x = det::exp(s - max);
            }
            // A separate pass, so the `exp` loop above vectorizes while
            // the sum stays sequential and ascending.
            let mut sum = 0.0f32;
            for &x in row.iter() {
                sum += x;
            }
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        });
        Tensor::from_vec(self.shape().to_vec(), data).expect("same volume")
    }

    /// Gradient of [`Tensor::softmax_last`].
    ///
    /// `self` must be the softmax *output* `y`; returns
    /// `y ⊙ (g − sum(g ⊙ y))` per row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn softmax_last_grad(&self, grad: &Tensor) -> Result<Tensor> {
        if self.shape() != grad.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "softmax_grad",
                lhs: self.shape().to_vec(),
                rhs: grad.shape().to_vec(),
            });
        }
        let d = *self.shape().last().unwrap_or(&1);
        let mut out = vec![0.0f32; self.volume()];
        for ((yrow, grow), orow) in self
            .data()
            .chunks(d.max(1))
            .zip(grad.data().chunks(d.max(1)))
            .zip(out.chunks_mut(d.max(1)))
        {
            let dot: f32 = yrow.iter().zip(grow).map(|(&y, &g)| y * g).sum();
            for ((&y, &g), o) in yrow.iter().zip(grow).zip(orow.iter_mut()) {
                *o = y * (g - dot);
            }
        }
        Tensor::from_vec(self.shape().to_vec(), out)
    }

    /// Layer normalization over the last dimension with scale `gamma` and
    /// shift `beta` (both rank-1 of the last-dim size).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on malformed parameters.
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Result<Tensor> {
        let d = *self.shape().last().unwrap_or(&1);
        if gamma.shape() != [d] || beta.shape() != [d] {
            return Err(TensorError::ShapeMismatch {
                op: "layer_norm",
                lhs: self.shape().to_vec(),
                rhs: gamma.shape().to_vec(),
            });
        }
        let mut out = self.clone();
        for row in out.data_mut().chunks_mut(d) {
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (x, (&g, &b)) in row.iter_mut().zip(gamma.data().iter().zip(beta.data())) {
                *x = (*x - mean) * inv * g + b;
            }
        }
        Ok(out)
    }

    /// Gradients of [`Tensor::layer_norm`] with respect to input, gamma and
    /// beta, given the forward input `self` and upstream `grad`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on malformed inputs.
    pub fn layer_norm_grad(
        &self,
        gamma: &Tensor,
        grad: &Tensor,
        eps: f32,
    ) -> Result<(Tensor, Tensor, Tensor)> {
        let d = *self.shape().last().unwrap_or(&1);
        if gamma.shape() != [d] || grad.shape() != self.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "layer_norm_grad",
                lhs: self.shape().to_vec(),
                rhs: grad.shape().to_vec(),
            });
        }
        let mut dx = vec![0.0f32; self.volume()];
        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        for (row, (grow, orow)) in self
            .data()
            .chunks(d)
            .zip(grad.data().chunks(d).zip(dx.chunks_mut(d)))
        {
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + eps).sqrt();
            let xhat: Vec<f32> = row.iter().map(|&x| (x - mean) * inv).collect();
            // Accumulate parameter gradients.
            for i in 0..d {
                dgamma[i] += grow[i] * xhat[i];
                dbeta[i] += grow[i];
            }
            // dL/dxhat = g * gamma; standard layernorm backward.
            let dxhat: Vec<f32> = (0..d).map(|i| grow[i] * gamma.data()[i]).collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(&xhat).map(|(&a, &b)| a * b).sum();
            for i in 0..d {
                orow[i] = inv / d as f32
                    * (d as f32 * dxhat[i] - sum_dxhat - xhat[i] * sum_dxhat_xhat);
            }
        }
        Ok((
            Tensor::from_vec(self.shape().to_vec(), dx)?,
            Tensor::from_vec(vec![d], dgamma)?,
            Tensor::from_vec(vec![d], dbeta)?,
        ))
    }

    /// Sum over all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Sums over `axis`, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange { axis, rank: self.rank() });
        }
        let dims = self.shape();
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                for i in 0..inner {
                    out[o * inner + i] += self.data()[(o * mid + m) * inner + i];
                }
            }
        }
        let mut new_dims: Vec<usize> = dims[..axis].to_vec();
        new_dims.extend_from_slice(&dims[axis + 1..]);
        Tensor::from_vec(new_dims, out)
    }

    /// Copies the sub-tensor `start..end` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] or
    /// [`TensorError::InvalidSlice`] on bad arguments.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange { axis, rank: self.rank() });
        }
        let dim = self.shape()[axis];
        if start >= end || end > dim {
            return Err(TensorError::InvalidSlice { axis, start, end, dim });
        }
        let dims = self.shape();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let len = end - start;
        let mut out = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = (o * dim + start) * inner;
            out.extend_from_slice(&self.data()[base..base + len * inner]);
        }
        let new_shape = Shape::from(dims).with_dim(axis, len);
        Tensor::from_vec(new_shape, out)
    }

    /// Concatenates tensors along `axis`. All other dimensions must match.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when non-concat dims differ,
    /// or [`TensorError::AxisOutOfRange`] for a bad axis. Requires at least
    /// one input.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Tensor> {
        let first = parts.first().expect("concat of zero tensors");
        if axis >= first.rank() {
            return Err(TensorError::AxisOutOfRange { axis, rank: first.rank() });
        }
        let mut total = 0usize;
        for p in parts {
            if p.rank() != first.rank()
                || p.shape()
                    .iter()
                    .zip(first.shape())
                    .enumerate()
                    .any(|(i, (a, b))| i != axis && a != b)
            {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                });
            }
            total += p.shape()[axis];
        }
        let dims = first.shape();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * total * inner);
        for o in 0..outer {
            for p in parts {
                let d = p.shape()[axis];
                let base = o * d * inner;
                out.extend_from_slice(&p.data()[base..base + d * inner]);
            }
        }
        let new_shape = Shape::from(dims).with_dim(axis, total);
        Tensor::from_vec(new_shape, out)
    }

    /// Splits the tensor into `parts` nearly equal chunks along `axis`
    /// (earlier chunks get the remainder), inverse of [`Tensor::concat`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for a bad axis.
    /// `parts` must be non-zero and at most the axis extent.
    pub fn split_axis(&self, axis: usize, parts: usize) -> Result<Vec<Tensor>> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange { axis, rank: self.rank() });
        }
        let dim = self.shape()[axis];
        assert!(parts >= 1 && parts <= dim, "parts must be in 1..=dim");
        let base = dim / parts;
        let rem = dim % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let len = base + usize::from(p < rem);
            out.push(self.slice_axis(axis, start, start + len)?);
            start += len;
        }
        Ok(out)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the rank is not 2.
    pub fn transpose2(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { op: "transpose2", expected: 2, actual: self.rank() });
        }
        let (r, c) = (self.shape()[0], self.shape()[1]);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data()[i * c + j];
            }
        }
        Tensor::from_vec(vec![c, r], out)
    }
}

// Branch-free, so the element loops over them vectorize.
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + det::tanh(C * (x + 0.044_715 * x * x * x)))
}

fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let inner = C * (x + 0.044_715 * x * x * x);
    let t = det::tanh(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = t(vec![2], vec![1.0, 2.0]);
        let b = t(vec![2], vec![3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert!(a.add(&Tensor::zeros(vec![3])).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = t(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let i = t(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_transposes_agree() {
        let a = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = t(vec![3, 4], (0..12).map(|x| x as f32).collect());
        let plain = a.matmul(&b).unwrap();
        let at = a.transpose2().unwrap();
        let bt = b.transpose2().unwrap();
        assert_eq!(at.matmul_t(&b, true, false).unwrap(), plain);
        assert_eq!(a.matmul_t(&bt, false, true).unwrap(), plain);
        assert_eq!(at.matmul_t(&bt, true, true).unwrap(), plain);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(vec![2, 3], vec![0.0; 6]);
        let b = t(vec![2, 3], vec![0.0; 6]);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul(&Tensor::zeros(vec![3])).is_err());
    }

    #[test]
    fn batched_matmul_matches_loop() {
        let a = t(vec![2, 2, 3], (0..12).map(|x| x as f32).collect());
        let b = t(vec![2, 3, 2], (0..12).map(|x| (x as f32) * 0.5).collect());
        let c = a.batched_matmul(&b).unwrap();
        for bi in 0..2 {
            let ai = a.slice_axis(0, bi, bi + 1).unwrap().reshape(vec![2, 3]).unwrap();
            let bi_t = b.slice_axis(0, bi, bi + 1).unwrap().reshape(vec![3, 2]).unwrap();
            let ci = c.slice_axis(0, bi, bi + 1).unwrap().reshape(vec![2, 2]).unwrap();
            assert!(ci.allclose(&ai.matmul(&bi_t).unwrap()));
        }
    }

    #[test]
    fn relu_and_grad() {
        let x = t(vec![4], vec![-1.0, 0.0, 2.0, -3.0]);
        assert_eq!(x.relu().data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = t(vec![4], vec![1.0; 4]);
        assert_eq!(x.relu_grad(&g).unwrap().data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn gelu_known_values() {
        let x = t(vec![3], vec![0.0, 1.0, -1.0]);
        let y = x.gelu();
        assert!((y.data()[0]).abs() < 1e-6);
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
        assert!((y.data()[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let xs = [-2.0f32, -0.5, 0.0, 0.3, 1.7];
        for &x0 in &xs {
            let x = Tensor::scalar(x0);
            let g = x.gelu_grad(&Tensor::scalar(1.0)).unwrap().data()[0];
            let eps = 1e-3;
            let num = (gelu_scalar(x0 + eps) - gelu_scalar(x0 - eps)) / (2.0 * eps);
            assert!((g - num).abs() < 1e-3, "x={x0}: {g} vs {num}");
        }
    }

    #[test]
    fn gelu_at_signed_zero_matches_the_formula_bit_for_bit() {
        // MoE capacity padding makes many expert-FFN activations ±0; the
        // formula through `det::tanh` must keep their sign and give
        // `gelu(±0) = ±0`, `gelu'(±0) = 0.5` exactly.
        const C: f32 = 0.797_884_6;
        let gelu = |x: f32| 0.5 * x * (1.0 + det::tanh(C * (x + 0.044_715 * x * x * x)));
        let grad = |x: f32| {
            let t = det::tanh(C * (x + 0.044_715 * x * x * x));
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044_715 * x * x)
        };
        let xs = t(vec![2], vec![0.0, -0.0]);
        for (y, &x) in xs.gelu().data().iter().zip(xs.data()) {
            assert_eq!(y.to_bits(), gelu(x).to_bits(), "gelu({x:?})");
            assert_eq!(y.to_bits(), x.to_bits(), "gelu({x:?})");
        }
        for g0 in [0.0f32, -0.0, 1.0, -1.0] {
            let g = t(vec![2], vec![g0; 2]);
            let dx = xs.gelu_grad(&g).unwrap();
            for (d, &x) in dx.data().iter().zip(xs.data()) {
                assert_eq!(grad(x).to_bits(), 0.5f32.to_bits(), "gelu'({x:?})");
                assert_eq!(d.to_bits(), (g0 * grad(x)).to_bits(), "gelu_grad({x:?}, {g0:?})");
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let y = x.softmax_last();
        for row in y.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Largest logit gets largest probability.
        assert!(y.data()[2] > y.data()[1] && y.data()[1] > y.data()[0]);
    }

    #[test]
    fn softmax_grad_matches_finite_difference() {
        let x = t(vec![1, 3], vec![0.3, -0.6, 1.1]);
        let g = t(vec![1, 3], vec![0.5, -1.0, 2.0]);
        let y = x.softmax_last();
        let dx = y.softmax_last_grad(&g).unwrap();
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = xp.softmax_last().mul(&g).unwrap().sum();
            let lm: f32 = xm.softmax_last().mul(&g).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((dx.data()[i] - num).abs() < 1e-3, "i={i}: {} vs {num}", dx.data()[i]);
        }
    }

    #[test]
    fn layer_norm_normalizes() {
        let x = t(vec![2, 4], vec![1.0, 2.0, 3.0, 4.0, -2.0, 0.0, 2.0, 4.0]);
        let gamma = Tensor::full(vec![4], 1.0);
        let beta = Tensor::zeros(vec![4]);
        let y = x.layer_norm(&gamma, &beta, 1e-5).unwrap();
        for row in y.data().chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layer_norm_grad_matches_finite_difference() {
        let x = t(vec![1, 4], vec![0.5, -1.0, 2.0, 0.1]);
        let gamma = t(vec![4], vec![1.1, 0.9, 1.0, 1.2]);
        let beta = t(vec![4], vec![0.1, -0.1, 0.0, 0.2]);
        let g = t(vec![1, 4], vec![1.0, -0.5, 0.3, 0.7]);
        let (dx, dgamma, dbeta) = x.layer_norm_grad(&gamma, &g, 1e-5).unwrap();
        let eps = 1e-3;
        let loss = |xx: &Tensor, gm: &Tensor, bt: &Tensor| -> f32 {
            xx.layer_norm(gm, bt, 1e-5).unwrap().mul(&g).unwrap().sum()
        };
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &gamma, &beta) - loss(&xm, &gamma, &beta)) / (2.0 * eps);
            assert!((dx.data()[i] - num).abs() < 2e-2, "dx[{i}]: {} vs {num}", dx.data()[i]);

            let mut gp = gamma.clone();
            gp.data_mut()[i] += eps;
            let mut gm2 = gamma.clone();
            gm2.data_mut()[i] -= eps;
            let num = (loss(&x, &gp, &beta) - loss(&x, &gm2, &beta)) / (2.0 * eps);
            assert!((dgamma.data()[i] - num).abs() < 1e-2);

            let mut bp = beta.clone();
            bp.data_mut()[i] += eps;
            let mut bm = beta.clone();
            bm.data_mut()[i] -= eps;
            let num = (loss(&x, &gamma, &bp) - loss(&x, &gamma, &bm)) / (2.0 * eps);
            assert!((dbeta.data()[i] - num).abs() < 1e-2);
        }
    }

    #[test]
    fn sum_axis_collapses() {
        let x = t(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(x.sum_axis(0).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(x.sum_axis(1).unwrap().data(), &[6., 15.]);
        assert!(x.sum_axis(2).is_err());
    }

    #[test]
    fn slice_concat_roundtrip() {
        let x = t(vec![4, 2], (0..8).map(|v| v as f32).collect());
        let a = x.slice_axis(0, 0, 1).unwrap();
        let b = x.slice_axis(0, 1, 4).unwrap();
        let back = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(back, x);
        // Also along axis 1.
        let l = x.slice_axis(1, 0, 1).unwrap();
        let r = x.slice_axis(1, 1, 2).unwrap();
        assert_eq!(Tensor::concat(&[&l, &r], 1).unwrap(), x);
    }

    #[test]
    fn split_axis_uneven() {
        let x = t(vec![5, 1], (0..5).map(|v| v as f32).collect());
        let parts = x.split_axis(0, 2).unwrap();
        assert_eq!(parts[0].shape(), &[3, 1]);
        assert_eq!(parts[1].shape(), &[2, 1]);
        assert_eq!(Tensor::concat(&[&parts[0], &parts[1]], 0).unwrap(), x);
    }

    #[test]
    fn bias_add_broadcasts() {
        let x = t(vec![2, 3], vec![0.0; 6]);
        let b = t(vec![3], vec![1.0, 2.0, 3.0]);
        let y = x.bias_add(&b).unwrap();
        assert_eq!(y.data(), &[1., 2., 3., 1., 2., 3.]);
        assert!(x.bias_add(&Tensor::zeros(vec![2])).is_err());
    }

    #[test]
    fn transpose2_involution() {
        let x = t(vec![2, 3], (0..6).map(|v| v as f32).collect());
        assert_eq!(x.transpose2().unwrap().transpose2().unwrap(), x);
    }
}

impl Tensor {
    /// SiLU (swish) activation: `x · sigmoid(x)`.
    pub fn silu(&self) -> Tensor {
        let data = unary_map(self.data(), silu_scalar);
        Tensor::from_vec(self.shape().to_vec(), data).expect("same volume")
    }

    /// Gradient of [`Tensor::silu`] with respect to its input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn silu_grad(&self, grad: &Tensor) -> Result<Tensor> {
        self.zip_elementwise(grad, "silu_grad", |x, g| g * silu_grad_scalar(x))
    }

    /// RMS normalization over the last dimension with scale `gamma`
    /// (rank-1 of the last-dim size): `x / rms(x) · gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a malformed gamma.
    pub fn rms_norm(&self, gamma: &Tensor, eps: f32) -> Result<Tensor> {
        let d = *self.shape().last().unwrap_or(&1);
        if gamma.shape() != [d] {
            return Err(TensorError::ShapeMismatch {
                op: "rms_norm",
                lhs: self.shape().to_vec(),
                rhs: gamma.shape().to_vec(),
            });
        }
        let mut out = self.clone();
        for row in out.data_mut().chunks_mut(d) {
            let ms = row.iter().map(|&x| x * x).sum::<f32>() / d as f32;
            let inv = 1.0 / (ms + eps).sqrt();
            for (x, &g) in row.iter_mut().zip(gamma.data()) {
                *x = *x * inv * g;
            }
        }
        Ok(out)
    }

    /// Gradients of [`Tensor::rms_norm`] with respect to input and gamma,
    /// given the forward input `self` and upstream `grad`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on malformed inputs.
    pub fn rms_norm_grad(&self, gamma: &Tensor, grad: &Tensor, eps: f32) -> Result<(Tensor, Tensor)> {
        let d = *self.shape().last().unwrap_or(&1);
        if gamma.shape() != [d] || grad.shape() != self.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "rms_norm_grad",
                lhs: self.shape().to_vec(),
                rhs: grad.shape().to_vec(),
            });
        }
        let mut dx = vec![0.0f32; self.volume()];
        let mut dgamma = vec![0.0f32; d];
        for (row, (grow, orow)) in self
            .data()
            .chunks(d)
            .zip(grad.data().chunks(d).zip(dx.chunks_mut(d)))
        {
            let ms = row.iter().map(|&x| x * x).sum::<f32>() / d as f32;
            let inv = 1.0 / (ms + eps).sqrt();
            // dL/dgamma_i += g_i · x_i · inv
            for i in 0..d {
                dgamma[i] += grow[i] * row[i] * inv;
            }
            // dL/dx_i = inv · gamma_i g_i − inv³/d · x_i · Σ_j gamma_j g_j x_j
            let dot: f32 = (0..d).map(|j| gamma.data()[j] * grow[j] * row[j]).sum();
            for i in 0..d {
                orow[i] = inv * gamma.data()[i] * grow[i] - inv.powi(3) / d as f32 * row[i] * dot;
            }
        }
        Ok((
            Tensor::from_vec(self.shape().to_vec(), dx)?,
            Tensor::from_vec(vec![d], dgamma)?,
        ))
    }
}

fn silu_scalar(x: f32) -> f32 {
    x / (1.0 + det::exp(-x))
}

fn silu_grad_scalar(x: f32) -> f32 {
    let s = 1.0 / (1.0 + det::exp(-x));
    s * (1.0 + x * (1.0 - s))
}

#[cfg(test)]
mod modern_ops_tests {
    use super::*;

    #[test]
    fn silu_known_values() {
        let x = Tensor::from_vec(vec![3], vec![0.0, 1.0, -1.0]).unwrap();
        let y = x.silu();
        assert!((y.data()[0]).abs() < 1e-7);
        assert!((y.data()[1] - 0.7311).abs() < 1e-3);
        assert!((y.data()[2] + 0.2689).abs() < 1e-3);
    }

    #[test]
    fn silu_grad_matches_finite_difference() {
        for &x0 in &[-2.0f32, -0.5, 0.0, 0.7, 2.3] {
            let x = Tensor::scalar(x0);
            let g = x.silu_grad(&Tensor::scalar(1.0)).unwrap().data()[0];
            let eps = 1e-3;
            let num = (silu_scalar(x0 + eps) - silu_scalar(x0 - eps)) / (2.0 * eps);
            assert!((g - num).abs() < 1e-3, "x={x0}: {g} vs {num}");
        }
    }

    #[test]
    fn rms_norm_unit_rms() {
        let x = Tensor::from_vec(vec![1, 4], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let gamma = Tensor::full(vec![4], 1.0);
        let y = x.rms_norm(&gamma, 0.0).unwrap();
        let ms: f32 = y.data().iter().map(|&v| v * v).sum::<f32>() / 4.0;
        assert!((ms - 1.0).abs() < 1e-5, "rms {ms}");
    }

    #[test]
    fn rms_norm_grad_matches_finite_difference() {
        let x = Tensor::from_vec(vec![1, 4], vec![0.5, -1.0, 2.0, 0.1]).unwrap();
        let gamma = Tensor::from_vec(vec![4], vec![1.1, 0.9, 1.0, 1.2]).unwrap();
        let g = Tensor::from_vec(vec![1, 4], vec![1.0, -0.5, 0.3, 0.7]).unwrap();
        let (dx, dgamma) = x.rms_norm_grad(&gamma, &g, 1e-6).unwrap();
        let loss = |xx: &Tensor, gm: &Tensor| -> f32 {
            xx.rms_norm(gm, 1e-6).unwrap().mul(&g).unwrap().sum()
        };
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &gamma) - loss(&xm, &gamma)) / (2.0 * eps);
            assert!((dx.data()[i] - num).abs() < 1e-2, "dx[{i}]: {} vs {num}", dx.data()[i]);

            let mut gp = gamma.clone();
            gp.data_mut()[i] += eps;
            let mut gm2 = gamma.clone();
            gm2.data_mut()[i] -= eps;
            let num = (loss(&x, &gp) - loss(&x, &gm2)) / (2.0 * eps);
            assert!((dgamma.data()[i] - num).abs() < 1e-2);
        }
    }
}
