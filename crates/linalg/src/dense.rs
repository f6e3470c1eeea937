use crate::LinalgError;

/// A dense, row-major matrix of `f32` values.
///
/// `DenseMatrix` is the workhorse container for node-feature matrices,
/// layer activations, weight matrices, and gradients throughout the
/// GNNVault reproduction. It is deliberately simple: a `Vec<f32>` plus
/// dimensions, with validated constructors and a set of elementwise and
/// reduction helpers that the neural-network crate builds on.
///
/// # Examples
///
/// ```
/// use linalg::DenseMatrix;
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let m = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// assert_eq!(m.get(1, 2), 6.0);
/// assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a matrix of zeros with the given dimensions.
    ///
    /// # Examples
    ///
    /// ```
    /// let z = linalg::DenseMatrix::zeros(2, 2);
    /// assert_eq!(z.sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DataLength`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DataLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::JaggedRows`] if rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, LinalgError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(LinalgError::JaggedRows {
                    first: n_cols,
                    row: i,
                    len: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: n_rows,
            cols: n_cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
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

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major data slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    ///
    /// Cache-blocked: the copy walks `TB×TB` tiles so both the source
    /// rows and the destination columns of a tile stay resident,
    /// instead of striding the full destination once per source row.
    /// The training hot paths no longer materialize transposes at all
    /// (see [`crate::GemmOp::AtB`] / [`crate::GemmOp::ABt`]); this
    /// remains for cold paths like dataset preparation.
    pub fn transpose(&self) -> DenseMatrix {
        /// Tile edge: two 64×64 f32 tiles (src + dst) are 32 KiB,
        /// comfortably L1/L2-resident.
        const TB: usize = 64;
        let (rows, cols) = (self.rows, self.cols);
        let mut t = DenseMatrix::zeros(cols, rows);
        for rb in (0..rows).step_by(TB) {
            let r_end = (rb + TB).min(rows);
            for cb in (0..cols).step_by(TB) {
                let c_end = (cb + TB).min(cols);
                for r in rb..r_end {
                    let srow = &self.data[r * cols + cb..r * cols + c_end];
                    for (c, &v) in (cb..c_end).zip(srow) {
                        t.data[c * rows + r] = v;
                    }
                }
            }
        }
        t
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b);
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: data.collect(),
        })
    }

    /// In-place `self += scale * other` (axpy-style accumulation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled(&mut self, other: &DenseMatrix, scale: f32) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add_scaled",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns a copy scaled by a constant.
    pub fn scale(&self, factor: f32) -> DenseMatrix {
        self.map(|v| v * factor)
    }

    /// Applies a function to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `bias` (a length-`cols` vector) to every row.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `bias.len() != cols`.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Result<DenseMatrix, LinalgError> {
        if bias.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: (1, bias.len()),
            });
        }
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Multiplies elementwise (Hadamard product) by `other` in place.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn hadamard_inplace(&mut self, other: &DenseMatrix) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "hadamard",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Column sums as a length-`cols` vector.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// Frobenius norm (`sqrt(sum of squares)`).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Concatenates matrices horizontally (same row count, columns appended).
    ///
    /// This implements the cascaded rectifier's input construction, where
    /// all backbone layer outputs are concatenated feature-wise.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if row counts differ, and
    /// [`LinalgError::DataLength`] if `parts` is empty.
    pub fn hconcat(parts: &[&DenseMatrix]) -> Result<DenseMatrix, LinalgError> {
        let first = parts.first().ok_or(LinalgError::DataLength {
            expected: 1,
            actual: 0,
        })?;
        let rows = first.rows;
        let total_cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            if p.rows != rows {
                return Err(LinalgError::ShapeMismatch {
                    op: "hconcat",
                    lhs: (rows, first.cols),
                    rhs: p.shape(),
                });
            }
        }
        let mut out = DenseMatrix::zeros(rows, total_cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.data[r * total_cols + offset..r * total_cols + offset + p.cols]
                    .copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        Ok(out)
    }

    /// Concatenates matrices horizontally into `out`, overwriting it —
    /// the buffer-reusing sibling of [`DenseMatrix::hconcat`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`DenseMatrix::hconcat`], plus
    /// [`LinalgError::ShapeMismatch`] when `out` has the wrong shape.
    pub fn hconcat_into(parts: &[&DenseMatrix], out: &mut DenseMatrix) -> Result<(), LinalgError> {
        let first = parts.first().ok_or(LinalgError::DataLength {
            expected: 1,
            actual: 0,
        })?;
        let rows = first.rows;
        let total_cols: usize = parts.iter().map(|p| p.cols).sum();
        for p in parts {
            if p.rows != rows {
                return Err(LinalgError::ShapeMismatch {
                    op: "hconcat",
                    lhs: (rows, first.cols),
                    rhs: p.shape(),
                });
            }
        }
        if out.shape() != (rows, total_cols) {
            return Err(LinalgError::ShapeMismatch {
                op: "hconcat_into",
                lhs: (rows, total_cols),
                rhs: out.shape(),
            });
        }
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.data[r * total_cols + offset..r * total_cols + offset + p.cols]
                    .copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        Ok(())
    }

    /// Extracts the sub-matrix of columns `[start, end)`.
    ///
    /// Used to split gradients of concatenated inputs (the rectifier
    /// wiring of Fig. 3) back into their parts.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if `end > cols` or
    /// `start > end`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<DenseMatrix, LinalgError> {
        if end > self.cols || start > end {
            return Err(LinalgError::IndexOutOfBounds {
                index: end.max(start),
                bound: self.cols + 1,
                axis: "column",
            });
        }
        let width = end - start;
        let mut data = Vec::with_capacity(self.rows * width);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Ok(DenseMatrix {
            rows: self.rows,
            cols: width,
            data,
        })
    }

    /// Extracts the sub-matrix containing only the given rows, in order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if any index is out of
    /// range.
    pub fn select_rows(&self, indices: &[usize]) -> Result<DenseMatrix, LinalgError> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                    axis: "row",
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(DenseMatrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Approximate equality within an absolute tolerance, used by tests.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Size of the matrix payload in bytes (`4 * rows * cols`), used by
    /// the TEE memory accounting.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn from_vec_checks_length() {
        let err = DenseMatrix::from_vec(2, 2, vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            LinalgError::DataLength {
                expected: 4,
                actual: 1
            }
        );
    }

    #[test]
    fn from_rows_rejects_jagged() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::JaggedRows { row: 1, .. }));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = sample();
        m.set(1, 1, 9.0);
        assert_eq!(m.get(1, 1), 9.0);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn identity_diagonal() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 2), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), m.get(1, 2));
    }

    #[test]
    fn add_and_hadamard() {
        let m = sample();
        let sum = m.add(&m).unwrap();
        assert_eq!(sum.get(1, 2), 12.0);
        let mut sq = m.clone();
        sq.hadamard_inplace(&m).unwrap();
        assert_eq!(sq.get(1, 0), 16.0);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let m = sample();
        let other = DenseMatrix::zeros(3, 2);
        assert!(matches!(
            m.add(&other),
            Err(LinalgError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_every_row() {
        let m = sample();
        let out = m.add_row_broadcast(&[10.0, 20.0, 30.0]).unwrap();
        assert_eq!(out.row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(out.row(1), &[14.0, 25.0, 36.0]);
    }

    #[test]
    fn hconcat_appends_columns() {
        let a = sample();
        let b = DenseMatrix::filled(2, 1, 7.0);
        let c = DenseMatrix::hconcat(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), (2, 4));
        assert_eq!(c.row(0), &[1.0, 2.0, 3.0, 7.0]);
        assert_eq!(c.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn hconcat_rejects_row_mismatch_and_empty() {
        let a = sample();
        let b = DenseMatrix::zeros(3, 1);
        assert!(DenseMatrix::hconcat(&[&a, &b]).is_err());
        assert!(DenseMatrix::hconcat(&[]).is_err());
    }

    #[test]
    fn slice_cols_extracts_middle() {
        let m = sample();
        let mid = m.slice_cols(1, 3).unwrap();
        assert_eq!(mid.shape(), (2, 2));
        assert_eq!(mid.row(0), &[2.0, 3.0]);
        assert_eq!(mid.row(1), &[5.0, 6.0]);
        let empty = m.slice_cols(2, 2).unwrap();
        assert_eq!(empty.shape(), (2, 0));
        assert!(m.slice_cols(1, 4).is_err());
        assert!(m.slice_cols(3, 2).is_err());
    }

    #[test]
    fn slice_cols_inverts_hconcat() {
        let a = sample();
        let b = DenseMatrix::filled(2, 2, 9.0);
        let cat = DenseMatrix::hconcat(&[&a, &b]).unwrap();
        assert_eq!(cat.slice_cols(0, 3).unwrap(), a);
        assert_eq!(cat.slice_cols(3, 5).unwrap(), b);
    }

    #[test]
    fn select_rows_picks_in_order() {
        let m = sample();
        let sel = m.select_rows(&[1, 0, 1]).unwrap();
        assert_eq!(sel.shape(), (3, 3));
        assert_eq!(sel.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(sel.row(2), &[4.0, 5.0, 6.0]);
        assert!(m.select_rows(&[5]).is_err());
    }

    #[test]
    fn column_sums_and_frobenius() {
        let m = sample();
        assert_eq!(m.column_sums(), vec![5.0, 7.0, 9.0]);
        let expected = (1.0f32 + 4.0 + 9.0 + 16.0 + 25.0 + 36.0).sqrt();
        assert!((m.frobenius_norm() - expected).abs() < 1e-6);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut m = sample();
        let g = DenseMatrix::filled(2, 3, 2.0);
        m.add_scaled(&g, 0.5).unwrap();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 2), 7.0);
    }

    #[test]
    fn nbytes_counts_payload() {
        assert_eq!(sample().nbytes(), 24);
    }
}
