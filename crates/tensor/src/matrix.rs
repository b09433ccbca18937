//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the only tensor type the reproduction needs: a mini-batch
//! is a matrix with one example per row, and every layer maps matrices to
//! matrices. Operations are deliberately simple and allocation-transparent —
//! the networks involved are small (tens of thousands of parameters), so
//! clarity wins over BLAS-grade tuning.

use crate::{kernels, TensorError, Workspace};

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use shoggoth_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok::<(), shoggoth_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::from_vec",
                expected: (rows, cols),
                actual: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the rows have differing
    /// lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, TensorError> {
        let ncols = rows.first().map_or(0, |r| r.len());
        if rows.is_empty() || ncols == 0 {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::from_rows",
                expected: (1, 1),
                actual: (rows.len(), ncols),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(TensorError::ShapeMismatch {
                    context: "Matrix::from_rows",
                    expected: (rows.len(), ncols),
                    actual: (rows.len(), row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Creates an empty `0 × cols` matrix whose storage holds `rows` rows,
    /// so appending up to that many never reallocates.
    pub fn with_capacity(rows: usize, cols: usize) -> Self {
        Self {
            rows: 0,
            cols,
            data: Vec::with_capacity(rows * cols),
        }
    }

    /// Assembles a matrix from pre-validated parts — the allocation-free
    /// construction used by [`crate::Workspace`]. Callers guarantee
    /// `data.len() == rows * cols`.
    pub(crate) fn from_parts(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// The `row`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable access to the `row`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Elements the storage holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Consumes the matrix, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::matmul",
                expected: (self.cols, other.rows),
                actual: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // The register-tiled kernel: each output element sums over `k` in
        // increasing order from 0.0, so this is the triple loop's result.
        kernels::matmul(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            Workspace::new().scratch(self.cols),
        );
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::matmul")?;
        Ok(out)
    }

    /// Matrix product `self · other`, written into `out` (resized and
    /// overwritten; its storage is reused), with the kernel's scratch
    /// borrowed from `ws`.
    ///
    /// Bit-identical to [`Matrix::matmul`] — same kernel, no allocation
    /// once `out` and `ws` are warm.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == other.rows`.
    pub fn matmul_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::matmul_into",
                expected: (self.cols, other.rows),
                actual: (other.rows, other.cols),
            });
        }
        out.resize_zeroed(self.rows, other.cols);
        kernels::matmul(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            ws.scratch(self.cols),
        );
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::matmul_into")?;
        Ok(())
    }

    /// Transposed-B product `self · otherᵀ`, written into `out`: the
    /// backward-pass kernel (`grad_input = grad_output · Wᵀ`). The
    /// transpose of `other` goes into a scratch matrix taken from `ws` and
    /// given back, so no call allocates once the pool is warm;
    /// bit-identical to `self.matmul(&other.transpose())`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == other.cols`.
    pub fn matmul_transb_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::matmul_transb_into",
                expected: (self.rows, self.cols),
                actual: (other.rows, other.cols),
            });
        }
        out.resize_zeroed(self.rows, other.rows);
        let mut transposed = ws.take(other.cols, other.rows);
        kernels::matmul_transb(
            &self.data,
            &other.data,
            &mut transposed.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
            ws.scratch(self.cols),
        );
        ws.give(transposed);
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::matmul_transb_into")?;
        Ok(())
    }

    /// Transposed-A product `selfᵀ · other`, written into `out`: the
    /// gradient-of-weights kernel (`grad_W = inputᵀ · grad_output`) that
    /// never materializes the transpose, with its scratch borrowed from
    /// `ws`. Bit-identical to `self.transpose().matmul(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows == other.rows`.
    pub fn matmul_transa_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::matmul_transa_into",
                expected: (self.rows, self.cols),
                actual: (other.rows, other.cols),
            });
        }
        out.resize_zeroed(self.cols, other.cols);
        kernels::matmul_transa(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
            ws.scratch(self.rows),
        );
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::matmul_transa_into")?;
        Ok(())
    }

    /// Bias-fused affine map `out = self · weights + bias` (bias is
    /// `1 × n`, broadcast over rows) — the dense-layer forward kernel,
    /// with the product's scratch borrowed from `ws`. Bit-identical to
    /// `matmul` followed by `add_row_broadcast`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == weights.rows` and `bias` is `1 × weights.cols`.
    pub fn addmm_into(
        &self,
        weights: &Matrix,
        bias: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        if self.cols != weights.rows {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::addmm_into",
                expected: (self.cols, weights.rows),
                actual: (weights.rows, weights.cols),
            });
        }
        if bias.rows != 1 || bias.cols != weights.cols {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::addmm_into",
                expected: (1, weights.cols),
                actual: (bias.rows, bias.cols),
            });
        }
        out.resize_zeroed(self.rows, weights.cols);
        kernels::matmul(
            &self.data,
            &weights.data,
            &mut out.data,
            self.rows,
            self.cols,
            weights.cols,
            ws.scratch(self.cols),
        );
        kernels::add_bias_rows(&mut out.data, &bias.data, self.rows, weights.cols);
        #[cfg(feature = "finite-check")]
        out.ensure_finite("Matrix::addmm_into")?;
        Ok(())
    }

    /// Reshapes in place to `rows × cols` with every element zero, reusing
    /// the existing storage (no allocation when capacity suffices). Prior
    /// contents are discarded.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Becomes a copy of `src` (shape and contents), reusing the existing
    /// storage — the allocation-free replacement for `clone_from` in
    /// cache-recording paths.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        kernels::transpose(&self.data, &mut out.data, self.rows, self.cols);
        out
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(other, "Matrix::add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(other, "Matrix::sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        context: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, TensorError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                context,
                expected: (self.rows, self.cols),
                actual: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Adds a row vector (`1 × cols`) to every row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `bias` is `1 × cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Result<Matrix, TensorError> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                context: "Matrix::add_row_broadcast",
                expected: (1, self.cols),
                actual: (bias.rows, bias.cols),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Column-wise sum written into `out` (resized to `1 × cols`, storage
    /// reused).
    pub fn col_sum_into(&self, out: &mut Matrix) {
        out.resize_zeroed(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Copies rows `range` into `out` (resized, storage reused).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the row count.
    pub fn rows_range_into(&self, range: std::ops::Range<usize>, out: &mut Matrix) {
        assert!(range.end <= self.rows, "row range out of bounds");
        out.data.clear();
        out.data
            .extend_from_slice(&self.data[range.start * self.cols..range.end * self.cols]);
        out.rows = range.len();
        out.cols = self.cols;
    }

    /// Selects the given rows into `out` (resized, storage reused; rows
    /// may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize_zeroed(0, self.cols);
        out.append_rows(self, indices);
    }

    /// Appends the given rows of `src` below the last row (rows may
    /// repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds, or if rows are appended from
    /// a matrix of another width.
    pub fn append_rows(&mut self, src: &Matrix, indices: &[usize]) {
        assert!(
            indices.is_empty() || src.cols == self.cols,
            "appended rows must match the width"
        );
        self.data.reserve(indices.len() * self.cols);
        for &i in indices {
            self.data.extend_from_slice(src.row(i));
        }
        self.rows += indices.len();
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Validates that every element is finite (no NaN, no ±Inf).
    ///
    /// `op` names the operation that produced this matrix; it is embedded
    /// in the error so a poisoned tensor is traceable to its source. This
    /// is the manual entry point of the `finite-check` sanitizer — with
    /// that feature enabled the training engine calls it automatically
    /// after every layer pass, loss, and SGD step.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonFinite`] locating the first offending
    /// element.
    pub fn ensure_finite(&self, op: &'static str) -> Result<(), TensorError> {
        match self.data.iter().position(|v| !v.is_finite()) {
            None => Ok(()),
            Some(i) => {
                // A zero-column matrix holds no data, so `i` implies
                // `cols > 0` and the checked ops cannot fail.
                let row = i.checked_div(self.cols).unwrap_or(0);
                let col = i.checked_rem(self.cols).unwrap_or(0);
                Err(TensorError::NonFinite {
                    op,
                    row,
                    col,
                    value: self.data[i],
                })
            }
        }
    }

    /// Index of the maximum value in each row. `NaN` ranks highest under
    /// the `total_cmp` order, so poisoned rows resolve deterministically.
    ///
    /// # Panics
    ///
    /// Panics on a matrix with rows but zero columns — an argmax over an
    /// empty row is a shape bug at the call site.
    pub fn row_argmax(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("rows are non-empty")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows).expect("valid test matrix")
    }

    #[test]
    fn matmul_hand_checked() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).expect("shapes match");
        assert_eq!(c, m(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = m(&[&[1.0, 0.0, 2.0]]);
        let b = m(&[&[1.0], &[1.0], &[1.0]]);
        let c = a.matmul(&b).expect("shapes match");
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 1);
        assert_eq!(c.get(0, 0), 3.0);
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let a = m(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(&[&[1.0, 2.0]]);
        let b = m(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).expect("shapes"), m(&[&[4.0, 6.0]]));
        assert_eq!(b.sub(&a).expect("shapes"), m(&[&[2.0, 2.0]]));
    }

    #[test]
    fn broadcast_bias() {
        let a = m(&[&[0.0, 0.0], &[1.0, 1.0]]);
        let bias = m(&[&[10.0, 20.0]]);
        let out = a.add_row_broadcast(&bias).expect("shapes");
        assert_eq!(out, m(&[&[10.0, 20.0], &[11.0, 21.0]]));
    }

    #[test]
    fn rows_range_into_copies_the_rows() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = Matrix::filled(4, 1, f32::NAN);
        a.rows_range_into(1..3, &mut out);
        assert_eq!(out, m(&[&[3.0, 4.0], &[5.0, 6.0]]));
    }

    #[test]
    fn select_rows_into_allows_repeats() {
        let a = m(&[&[1.0], &[2.0], &[3.0]]);
        let mut out = Matrix::zeros(0, 0);
        a.select_rows_into(&[2, 0, 2], &mut out);
        assert_eq!(out, m(&[&[3.0], &[1.0], &[3.0]]));
    }

    #[test]
    fn append_rows_extends_below_the_last_row() {
        let a = m(&[&[1.0], &[2.0], &[3.0]]);
        let mut out = Matrix::with_capacity(4, 1);
        a.select_rows_into(&[1], &mut out);
        out.append_rows(&a, &[2, 0, 2]);
        assert_eq!(out, m(&[&[2.0], &[3.0], &[1.0], &[3.0]]));
        out.append_rows(&Matrix::zeros(0, 0), &[]);
        assert_eq!(out.rows(), 4, "appending no rows of any width is a no-op");
    }

    #[test]
    fn argmax_per_row() {
        let a = m(&[&[0.1, 0.9], &[5.0, -1.0]]);
        assert_eq!(a.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn frobenius_norm_hand_checked() {
        let a = m(&[&[3.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }
}
