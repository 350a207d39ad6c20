//! Dense row-major `f32` tensors.
//!
//! The library only needs rank-1 and rank-2 tensors: sequences are `[T, d]`
//! matrices and batches are handled by building one tape sub-graph per
//! example. Keeping the representation this small makes every kernel easy to
//! audit and keeps the autodiff tape allocation-friendly.

use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// Invariant: `data.len() == rows * cols`.
#[derive(Clone)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Create a tensor from raw data. Panics if `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// A `rows x cols` tensor filled with zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// A `rows x cols` tensor filled with `value`.
    pub(crate) fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// A `1 x n` row vector.
    pub fn row(values: Vec<f32>) -> Self {
        let n = values.len();
        Self::from_vec(values, 1, n)
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Borrow the underlying data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying data slice (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its data.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub(crate) fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub(crate) fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1x1` tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a scalar tensor");
        self.data[0]
    }

    /// In-place `self += other` — the gradient-accumulation primitive of the
    /// backward pass. Elementwise adds carry no cross-element dependency, so
    /// the loop auto-vectorizes.
    pub(crate) fn add_assign_from(&mut self, other: &Tensor) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign_from shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub(crate) fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_shape_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row_slice(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0; 5], 2, 3);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::from_vec(vec![3.5], 1, 1).item(), 3.5);
    }
}
