use std::sync::Arc;

use crate::storage::{Buf, BufOwner, VecOwner};
use crate::{Result, Shape, TensorError, DEFAULT_ATOL, DEFAULT_RTOL};

/// A dense, row-major `f32` tensor.
///
/// The element buffer is always contiguous; all views are materialized
/// copies. This keeps the executor simple and makes equivalence checks
/// trivially bit-exact. Elements are either owned on the heap or borrowed
/// zero-copy from a shared [`BufOwner`] (a mapped model store); the two
/// representations are observationally identical — mutation copies on
/// write — so every kernel and equality check behaves the same either way.
///
/// # Example
///
/// ```
/// use lancet_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![2, 2]);
/// assert_eq!(t.volume(), 4);
/// assert!(t.data().iter().all(|&x| x == 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Buf,
}

impl Tensor {
    /// Creates a tensor from a shape and an element buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.volume() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data: Buf::Owned(data) })
    }

    /// Creates a tensor whose elements are a zero-copy window into a
    /// shared buffer owner (typically a mapped model store). Cloning the
    /// result bumps the owner's refcount; the elements are copied only if
    /// mutated.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the window is out of the
    /// owner's bounds or its length differs from the shape volume.
    pub fn from_shared(
        shape: impl Into<Shape>,
        owner: Arc<dyn BufOwner>,
        offset: usize,
        len: usize,
    ) -> Result<Self> {
        let shape = shape.into();
        if shape.volume() != len {
            return Err(TensorError::LengthMismatch { expected: shape.volume(), actual: len });
        }
        let total = owner.as_f32().len();
        let data = Buf::shared(owner, offset, len).ok_or(TensorError::LengthMismatch {
            expected: offset.saturating_add(len),
            actual: total,
        })?;
        Ok(Tensor { shape, data })
    }

    /// Moves owned elements behind a shared [`VecOwner`] without copying
    /// them, so clones of the result bump a refcount instead of copying
    /// the buffer. A shared tensor is returned as it is.
    pub fn into_shared(self) -> Tensor {
        match self.data {
            Buf::Owned(v) => {
                let len = v.len();
                let data = Buf::Shared { owner: Arc::new(VecOwner(v)), offset: 0, len };
                Tensor { shape: self.shape, data }
            }
            Buf::Shared { .. } => self,
        }
    }

    /// Whether the elements are borrowed from a shared owner (no mutation
    /// has detached them yet).
    pub fn is_shared(&self) -> bool {
        self.data.is_shared()
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = Buf::Owned(vec![0.0; shape.volume()]);
        Tensor { shape, data }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = Buf::Owned(vec![value; shape.volume()]);
        Tensor { shape, data }
    }

    /// A rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: Buf::Owned(vec![value]) }
    }

    /// The tensor's shape extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The tensor's [`Shape`].
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total element count.
    pub fn volume(&self) -> usize {
        self.shape.volume()
    }

    /// Read-only view of the element buffer (row-major).
    pub fn data(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the element buffer (row-major). If the elements
    /// were borrowed from a shared owner they are copied on this call
    /// (copy-on-write), so the owner is never mutated through a tensor.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data.make_mut()
    }

    /// Consumes the tensor, returning the element buffer (copying only if
    /// the elements were borrowed from a shared owner).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Reinterprets the buffer with a new shape of equal volume. A
    /// shared-storage tensor reshapes without copying (the clone is a
    /// refcount bump).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if volumes differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has wrong rank or is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let strides = self.shape.strides();
        let mut off = 0usize;
        for (i, (&ix, &st)) in index.iter().zip(&strides).enumerate() {
            assert!(ix < self.shape.dim(i), "index out of bounds");
            off += ix * st;
        }
        self.data.as_slice()[off]
    }

    /// Returns `true` if every element is within `atol + rtol * |other|`
    /// of the corresponding element of `other`, and shapes match.
    pub fn allclose(&self, other: &Tensor) -> bool {
        self.allclose_with(other, DEFAULT_ATOL, DEFAULT_RTOL)
    }

    /// [`allclose`](Self::allclose) with explicit tolerances.
    pub fn allclose_with(&self, other: &Tensor, atol: f32, rtol: f32) -> bool {
        if self.shape != other.shape {
            return false;
        }
        self.data
            .as_slice()
            .iter()
            .zip(other.data.as_slice())
            .all(|(&a, &b)| (a - b).abs() <= atol + rtol * b.abs())
    }

    /// Maximum absolute element-wise difference; `None` if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .as_slice()
                .iter()
                .zip(other.data.as_slice())
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0f32, f32::max),
        )
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{}[", self.shape)?;
        let data = self.data.as_slice();
        let n = data.len().min(8);
        for (i, v) in data[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if data.len() > n {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![0.0; 3]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 4, actual: 3 });
    }

    #[test]
    fn zeros_and_full() {
        assert!(Tensor::zeros(vec![3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::full(vec![3], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![4]).is_err());
    }

    #[test]
    fn at_indexes_row_major() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    fn allclose_tolerates_small_error() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![1.0 + 1e-7, 2.0 - 1e-7]).unwrap();
        assert!(a.allclose(&b));
        let c = Tensor::from_vec(vec![2], vec![1.1, 2.0]).unwrap();
        assert!(!a.allclose(&c));
    }

    #[test]
    fn max_abs_diff_reports_worst() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 5.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![1.5, 5.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b), Some(0.5));
        let c = Tensor::zeros(vec![3]);
        assert_eq!(a.max_abs_diff(&c), None);
    }

    #[test]
    fn shared_storage_is_observationally_owned() {
        let owner: Arc<dyn BufOwner> = Arc::new(VecOwner((0..6).map(|x| x as f32).collect()));
        let t = Tensor::from_shared(vec![2, 3], Arc::clone(&owner), 0, 6).unwrap();
        let o = Tensor::from_vec(vec![2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        assert!(t.is_shared());
        assert_eq!(t, o);
        assert_eq!(t.at(&[1, 2]), 5.0);
        // Reshape keeps sharing; clone is a refcount bump.
        let r = t.reshape(vec![3, 2]).unwrap();
        assert!(r.is_shared());
        assert_eq!(r.data(), o.data());
        // Copy-on-write: mutation detaches without touching the owner.
        let mut m = t.clone();
        m.data_mut()[0] = 99.0;
        assert!(!m.is_shared());
        assert_eq!(t.data()[0], 0.0);
        assert_eq!(owner.as_f32()[0], 0.0);
        // Bounds and volume are checked.
        assert!(Tensor::from_shared(vec![2, 3], Arc::clone(&owner), 2, 6).is_err());
        assert!(Tensor::from_shared(vec![2, 2], Arc::clone(&owner), 0, 6).is_err());
    }

    #[test]
    fn into_shared_moves_the_buffer() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let at = t.data().as_ptr();
        let s = t.clone().into_shared();
        assert!(s.is_shared());
        assert_eq!(s, t);
        let s = t.into_shared();
        assert_eq!(s.data().as_ptr(), at, "moved, not copied");
        assert_eq!(s.clone().data().as_ptr(), at, "clones share the buffer");
        assert_eq!(s.clone().into_shared().data().as_ptr(), at);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(vec![20]);
        let s = t.to_string();
        assert!(s.contains('…'));
    }
}
