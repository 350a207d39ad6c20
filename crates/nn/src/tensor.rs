//! Dense row-major `f32` tensors.
//!
//! The library only needs rank-1 and rank-2 tensors: sequences are `[T, d]`
//! matrices and batches are handled by building one tape sub-graph per
//! example. Keeping the representation this small makes every kernel easy to
//! audit and keeps the autodiff tape allocation-friendly.

use crate::kernels;
use crate::pool::RotomPool;
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// Invariant: `data.len() == rows * cols`.
#[derive(Clone, PartialEq)]
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
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(vec![value], 1, 1)
    }

    /// A `1 x n` row vector.
    pub fn row(values: Vec<f32>) -> Self {
        let n = values.len();
        Self::from_vec(values, 1, n)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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
    pub fn into_vec(self) -> Vec<f32> {
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
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
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
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1x1` tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a scalar tensor");
        self.data[0]
    }

    /// Matrix product `self (m x k) * other (k x n) -> m x n`.
    ///
    /// Dispatches to the register-tiled kernels in [`crate::kernels`]:
    /// small shapes run the plain i-k-j loop, large shapes run tiled and
    /// (above a threshold) row-parallel across [`crate::pool::RotomPool`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        let pool = RotomPool::global();
        kernels::matmul_into(&self.data, &other.data, None, m, m, k, n, pool, &mut out);
        Tensor::from_vec(out, m, n)
    }

    /// `self (m x k) * other^T (n x k) -> m x n`.
    ///
    /// Small shapes avoid materializing the transpose; large shapes
    /// transpose once and reuse the tiled kernel.
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = vec![0.0f32; m * n];
        let pool = RotomPool::global();
        kernels::matmul_transpose_b_into(&self.data, &other.data, None, m, m, k, n, pool, &mut out);
        Tensor::from_vec(out, m, n)
    }

    /// `self^T (k x m)^T=(m x k)… ` — transpose of an `m x k` tensor,
    /// producing `k x m`.
    pub fn transpose(&self) -> Tensor {
        Tensor::from_vec(
            kernels::transpose(&self.data, self.rows, self.cols),
            self.cols,
            self.rows,
        )
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(
            self.data.iter().map(|&v| f(v)).collect(),
            self.rows,
            self.cols,
        )
    }

    /// Elementwise binary zip. Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "zip shape mismatch"
        );
        Tensor::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.rows,
            self.cols,
        )
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place `self += other` — the gradient-accumulation primitive of the
    /// backward pass. Bit-identical to `axpy(1.0, other)` (`1.0 * b` rounds
    /// to `b` exactly) without paying for the multiply; elementwise adds
    /// carry no cross-element dependency, so the loop auto-vectorizes.
    pub fn add_assign_from(&mut self, other: &Tensor) {
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
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
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
    fn matmul_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transpose_b_agrees_with_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), 2, 3);
        let b = Tensor::from_vec((0..12).map(|v| (v as f32) * 0.5).collect(), 4, 3);
        let direct = a.matmul_transpose_b(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(direct.data(), explicit.data());
    }

    #[test]
    fn transpose_is_involution() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), 2, 3);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(1, 3);
        let b = Tensor::row(vec![1.0, 2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    mod properties {
        use super::*;
        use rotom_rng::rngs::StdRng;
        use rotom_rng::{RngExt, SeedableRng};

        const CASES: usize = 32;

        fn tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
            let data = (0..rows * cols)
                .map(|_| rng.random_range(-3.0f32..3.0))
                .collect();
            Tensor::from_vec(data, rows, cols)
        }

        fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
            assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
            for (&x, &y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() <= tol, "{x} vs {y}");
            }
        }

        /// Matmul distributes over addition: A(B + C) = AB + AC.
        #[test]
        fn matmul_distributes() {
            let mut rng = StdRng::seed_from_u64(0x7e57_0001);
            for _ in 0..CASES {
                let a = tensor(&mut rng, 3, 4);
                let b = tensor(&mut rng, 4, 2);
                let c = tensor(&mut rng, 4, 2);
                let sum = b.zip(&c, |x, y| x + y);
                let lhs = a.matmul(&sum);
                let mut rhs = a.matmul(&b);
                rhs.axpy(1.0, &a.matmul(&c));
                assert_close(&lhs, &rhs, 1e-3);
            }
        }

        /// (AB)^T = B^T A^T.
        #[test]
        fn transpose_of_product() {
            let mut rng = StdRng::seed_from_u64(0x7e57_0002);
            for _ in 0..CASES {
                let a = tensor(&mut rng, 2, 3);
                let b = tensor(&mut rng, 3, 4);
                let lhs = a.matmul(&b).transpose();
                let rhs = b.transpose().matmul(&a.transpose());
                assert_close(&lhs, &rhs, 1e-4);
            }
        }

        /// matmul_transpose_b agrees with the explicit transpose form.
        #[test]
        fn matmul_tb_consistent() {
            let mut rng = StdRng::seed_from_u64(0x7e57_0003);
            for _ in 0..CASES {
                let a = tensor(&mut rng, 3, 5);
                let b = tensor(&mut rng, 4, 5);
                let fast = a.matmul_transpose_b(&b);
                let slow = a.matmul(&b.transpose());
                assert_close(&fast, &slow, 1e-4);
            }
        }

        /// Norm is absolutely homogeneous: ‖αx‖ = |α|·‖x‖.
        #[test]
        fn norm_homogeneous() {
            let mut rng = StdRng::seed_from_u64(0x7e57_0004);
            for _ in 0..CASES {
                let a = tensor(&mut rng, 2, 6);
                let alpha: f32 = rng.random_range(-4.0f32..4.0);
                let scaled = a.map(|v| v * alpha);
                assert!((scaled.norm() - alpha.abs() * a.norm()).abs() < 1e-2);
            }
        }
    }
}
