use crate::{pool, DenseMatrix, Epilogue, LinalgError};

/// FLOP threshold (`nnz × rhs.cols()` multiply-adds) above which a
/// product is row-partitioned over the shared pool, provided it has more
/// than one worker. Below it the dispatch overhead (one channel send +
/// two atomics per chunk) is not worth amortizing.
pub(crate) const SPMM_PARALLEL_FLOP_THRESHOLD: usize = 1 << 21;

/// How one sparse product runs. Callers never pick — every public entry
/// passes `Auto`; the pinned values exist so this module's tests can
/// hold the two paths to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum SpmmStrategy {
    /// Parallel when `nnz × n` crosses the flop threshold and the pool
    /// has more than one worker.
    Auto,
    /// Single-threaded row loop (the reference kernel).
    Sequential,
    /// Row-partitioned across the shared worker pool, chunks balanced
    /// by nonzero count.
    Parallel,
}

/// A compressed sparse row (CSR) matrix of `f32` values.
///
/// CSR is the storage format used for normalized adjacency matrices
/// (`Â = D^-1/2 (A + I) D^-1/2`) in both worlds of the GNNVault
/// deployment. The paper stores the private graph in COO inside the
/// enclave; [`CsrMatrix::from_triplets`] accepts exactly that COO form
/// and compiles it to CSR for fast message passing.
///
/// # Examples
///
/// ```
/// use linalg::{CsrMatrix, DenseMatrix};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 1.0)])?;
/// let x = DenseMatrix::from_rows(&[&[1.0], &[3.0]])?;
/// let y = a.spmm(&x)?;
/// assert_eq!(y.get(0, 0), 2.0);
/// assert_eq!(y.get(1, 0), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<usize>,
    /// Non-zero values, parallel to `col_idx`.
    values: Vec<f32>,
    /// Lazily built transpose, shared by repeated transpose-multiplies
    /// (every backward pass of every epoch hits it). Sound because the
    /// structure is immutable after construction. Excluded from
    /// equality.
    transpose_cache: std::sync::OnceLock<Box<CsrMatrix>>,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
    }
}

impl CsrMatrix {
    /// Creates an empty (all-zero) sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
            transpose_cache: std::sync::OnceLock::new(),
        }
    }

    /// Builds a CSR matrix from COO triplets `(row, col, value)`.
    ///
    /// Duplicate coordinates are summed; entries that sum to exactly zero
    /// are retained (structural nonzeros), mirroring common sparse
    /// library behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if any coordinate is out
    /// of range.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self, LinalgError> {
        for &(r, c, _) in triplets {
            if r >= rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: r,
                    bound: rows,
                    axis: "row",
                });
            }
            if c >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: c,
                    bound: cols,
                    axis: "column",
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|a| (a.0, a.1));

        // Sorted triplets make duplicates adjacent; merge them while
        // counting per-row entries.
        let mut merged_col: Vec<usize> = Vec::with_capacity(sorted.len());
        let mut merged_val: Vec<f32> = Vec::with_capacity(sorted.len());
        let mut counts = vec![0usize; rows];
        let mut prev: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if prev == Some((r, c)) {
                *merged_val.last_mut().expect("duplicate follows an entry") += v;
            } else {
                merged_col.push(c);
                merged_val.push(v);
                counts[r] += 1;
                prev = Some((r, c));
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for r in 0..rows {
            row_ptr[r + 1] = row_ptr[r] + counts[r];
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx: merged_col,
            values: merged_val,
            transpose_cache: std::sync::OnceLock::new(),
        })
    }

    /// Builds a CSR matrix from a dense matrix, keeping nonzero entries
    /// (`±0` is skipped; NaN compares unequal to zero and is stored).
    /// One row-major pass: the entries come out in CSR order, so
    /// nothing is sorted or merged.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        row_ptr.push(0);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for r in 0..dense.rows() {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            row_ptr,
            col_idx,
            values,
            transpose_cache: std::sync::OnceLock::new(),
        }
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

    /// Number of stored (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            { self.row_ptr[r]..self.row_ptr[r + 1] }
                .map(move |k| (r, self.col_idx[k], self.values[k]))
        })
    }

    /// The stored values, in [`CsrMatrix::iter`] order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the stored values, in [`CsrMatrix::iter`]
    /// order; the structure stays fixed. The cached
    /// [`CsrMatrix::transposed`] holds the old values, so it is dropped
    /// here and rebuilt on next use.
    pub fn values_mut(&mut self) -> &mut [f32] {
        self.transpose_cache = std::sync::OnceLock::new();
        &mut self.values
    }

    /// The stored entries of row `r` as parallel `(columns, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_entries(&self, r: usize) -> (&[usize], &[f32]) {
        assert!(r < self.rows, "row index out of bounds");
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Value at `(r, c)`, zero when not stored.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let (cols, vals) = self.row_entries(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse × dense multiplication: `self (r×c) × rhs (c×n) -> r×n`.
    ///
    /// This is the message-passing kernel `Â · H` at the heart of every
    /// GCN layer (paper Eq. 1). Large products are row-partitioned over
    /// the shared pool; each output row is produced by exactly one worker
    /// with the same accumulation order as the single-threaded loop, so
    /// the result is bit-identical at any pool width.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn spmm(&self, rhs: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        self.spmm_fused(rhs, Epilogue::None)
    }

    /// Sparse × dense multiplication with a fused [`Epilogue`] applied
    /// to each output row right after its accumulation, while the row
    /// is still cache-hot — the GCN layer forward `Â (H W) + b` in one
    /// pass, without a separate broadcast/ReLU sweep.
    ///
    /// Bit-identical to [`CsrMatrix::spmm`] followed by the unfused
    /// broadcast (and ReLU) passes: the epilogue performs the same
    /// float operations on the same accumulated sums.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`
    /// or the epilogue bias length differs from `rhs.cols()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use linalg::{CsrMatrix, DenseMatrix, Epilogue};
    ///
    /// # fn main() -> Result<(), linalg::LinalgError> {
    /// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)])?;
    /// let h = DenseMatrix::from_rows(&[&[1.0, -3.0], &[2.0, -1.0]])?;
    /// let z = a.spmm_fused(&h, Epilogue::BiasRelu(&[0.0, 2.0]))?;
    /// assert_eq!(z.row(0), &[1.0, 0.0]);
    /// assert_eq!(z.row(1), &[2.0, 1.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn spmm_fused(
        &self,
        rhs: &DenseMatrix,
        epilogue: Epilogue<'_>,
    ) -> Result<DenseMatrix, LinalgError> {
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols());
        self.spmm_dispatch(rhs, &mut out, SpmmStrategy::Auto, epilogue)?;
        Ok(out)
    }

    /// [`CsrMatrix::spmm_fused`] into a caller-provided output,
    /// overwriting it — the buffer-recycling layer-forward hot path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CsrMatrix::spmm_fused`], plus
    /// [`LinalgError::ShapeMismatch`] when `out` has the wrong shape.
    pub fn spmm_fused_into(
        &self,
        rhs: &DenseMatrix,
        out: &mut DenseMatrix,
        epilogue: Epilogue<'_>,
    ) -> Result<(), LinalgError> {
        if out.shape() != (self.rows, rhs.cols()) {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm_into",
                lhs: (self.rows, rhs.cols()),
                rhs: out.shape(),
            });
        }
        out.as_mut_slice().fill(0.0);
        self.spmm_dispatch(rhs, out, SpmmStrategy::Auto, epilogue)
    }

    fn spmm_dispatch(
        &self,
        rhs: &DenseMatrix,
        out: &mut DenseMatrix,
        strategy: SpmmStrategy,
        epilogue: Epilogue<'_>,
    ) -> Result<(), LinalgError> {
        if self.cols != rhs.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let n = rhs.cols();
        if let Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) = epilogue {
            if bias.len() != n {
                return Err(LinalgError::ShapeMismatch {
                    op: "spmm_epilogue",
                    lhs: (self.rows, n),
                    rhs: (1, bias.len()),
                });
            }
        }
        let parallel = match strategy {
            SpmmStrategy::Sequential => false,
            SpmmStrategy::Parallel => pool::num_threads() > 1 && self.rows > 1 && n > 0,
            SpmmStrategy::Auto => {
                self.nnz() * n >= SPMM_PARALLEL_FLOP_THRESHOLD
                    && pool::num_threads() > 1
                    && self.rows > 1
                    && n > 0
            }
        };
        if !parallel {
            self.spmm_rows_into(rhs, out.as_mut_slice(), 0, self.rows, epilogue);
            return Ok(());
        }
        let workers = pool::num_threads().min(self.rows);
        let row_bounds = self.row_bounds_by_nnz(workers);
        let elem_bounds: Vec<usize> = row_bounds.iter().map(|&r| r * n).collect();
        let out_data = out.as_mut_slice();
        pool::global().run_on_partitions(out_data, &elem_bounds, |index, chunk| {
            let row_start = row_bounds[index];
            let rows_here = chunk.len() / n;
            self.spmm_rows_into(rhs, chunk, row_start, rows_here, epilogue);
        });
        Ok(())
    }

    /// Accumulates output rows `[row_start, row_start + rows)` into the
    /// pre-zeroed chunk `out` (`rows × rhs.cols()` elements), applying
    /// the epilogue to each row right after its accumulation while it
    /// is still cache-hot. Rows are never split across workers, so the
    /// fused epilogue cannot change parallel/sequential agreement.
    fn spmm_rows_into(
        &self,
        rhs: &DenseMatrix,
        out: &mut [f32],
        row_start: usize,
        rows: usize,
        epilogue: Epilogue<'_>,
    ) {
        let n = rhs.cols();
        for local_r in 0..rows {
            let r = row_start + local_r;
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            let (cols, vals) = (&self.col_idx[span.clone()], &self.values[span]);
            let orow = &mut out[local_r * n..(local_r + 1) * n];
            for (&c, &v) in cols.iter().zip(vals) {
                let brow = rhs.row(c);
                for (o, bv) in orow.iter_mut().zip(brow) {
                    *o += v * bv;
                }
            }
            epilogue.apply_to_row(orow, 0);
        }
    }

    /// Splits rows into `parts` contiguous ranges with near-equal
    /// nonzero counts, returned as `parts + 1` row boundaries. Row
    /// pointers are already a prefix sum of nonzeros, so each cut is a
    /// partition-point search for the next nnz target.
    pub(crate) fn row_bounds_by_nnz(&self, parts: usize) -> Vec<usize> {
        let nnz = self.nnz();
        let mut bounds = Vec::with_capacity(parts + 1);
        bounds.push(0);
        for part in 1..parts {
            let target = nnz * part / parts;
            let cut = self
                .row_ptr
                .partition_point(|&cum| cum < target)
                .clamp(*bounds.last().expect("bounds is non-empty"), self.rows);
            bounds.push(cut);
        }
        bounds.push(self.rows);
        bounds
    }

    /// Transpose-multiply: `selfᵀ (c×r) × rhs (r×n) -> c×n`, which is
    /// [`CsrMatrix::spmm`] on the cached [`CsrMatrix::transposed`] — one
    /// kernel, one selection rule.
    ///
    /// Used in GCN backward passes. For symmetric `Â` this equals
    /// [`CsrMatrix::spmm`], but the rectifier's gradient path uses the
    /// general form.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != rhs.rows()`.
    pub fn spmm_transposed(&self, rhs: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        self.transposed().spmm(rhs)
    }

    /// Cached borrow of the transpose, built once on first use.
    ///
    /// Training loops call transpose-multiply on the same adjacency
    /// every layer of every epoch; this avoids re-running the counting
    /// sort (and its three allocations) each time.
    pub fn transposed(&self) -> &CsrMatrix {
        self.transpose_cache
            .get_or_init(|| Box::new(self.transpose()))
    }

    /// Returns the transpose as a new CSR matrix.
    ///
    /// Runs an O(nnz + rows + cols) counting sort over the column
    /// indices (no re-sorting of triplets); within each transposed row
    /// the column order stays sorted because source rows are visited in
    /// increasing order.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let slot = next[self.col_idx[k]];
                next[self.col_idx[k]] += 1;
                col_idx[slot] = r;
                values[slot] = self.values[k];
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
            transpose_cache: std::sync::OnceLock::new(),
        }
    }

    /// Converts to a dense matrix (for tests and small examples).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d.set(r, c, d.get(r, c) + v);
        }
        d
    }

    /// Whether the matrix is symmetric within an absolute tolerance.
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.iter()
            .all(|(r, c, v)| (self.get(c, r) - v).abs() <= tol)
    }

    /// Approximate size in bytes of the CSR payload, used by the TEE
    /// memory accounting (row pointers + column indices + values).
    pub fn nbytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f32>()
    }

    /// Size in bytes of the equivalent COO representation (two `u32`
    /// indices + one `f32` value per nonzero), matching the enclave
    /// storage format described in §IV-E of the paper.
    pub fn coo_nbytes(&self) -> usize {
        self.nnz() * (2 * std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
            .unwrap()
    }

    #[test]
    fn from_triplets_sorts_and_indexes() {
        let m = CsrMatrix::from_triplets(2, 3, &[(1, 2, 5.0), (0, 0, 1.0), (1, 0, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 3.5);
    }

    #[test]
    fn out_of_bounds_triplets_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a = path3();
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let sparse_result = a.spmm(&x).unwrap();
        let dense_result = crate::matmul_naive(&a.to_dense(), &x).unwrap();
        assert!(sparse_result.approx_eq(&dense_result, 1e-6));
    }

    #[test]
    fn spmm_shape_check() {
        let a = path3();
        let x = DenseMatrix::zeros(4, 2);
        assert!(a.spmm(&x).is_err());
    }

    #[test]
    fn spmm_fused_matches_unfused_bit_exactly() {
        let a = path3();
        let x = DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0], &[5.0, -6.0]]).unwrap();
        let bias = [0.25, -0.5];
        let unfused = a.spmm(&x).unwrap().add_row_broadcast(&bias).unwrap();
        let fused = a.spmm_fused(&x, Epilogue::Bias(&bias)).unwrap();
        assert_eq!(fused, unfused);
        let mut unfused_relu = unfused;
        unfused_relu.map_inplace(|v| v.max(0.0));
        let fused_relu = a.spmm_fused(&x, Epilogue::BiasRelu(&bias)).unwrap();
        assert_eq!(fused_relu, unfused_relu);
        // Into-variant on a dirty buffer, and bias-length validation.
        let mut out = DenseMatrix::filled(3, 2, 9.0);
        a.spmm_fused_into(&x, &mut out, Epilogue::BiasRelu(&bias))
            .unwrap();
        assert_eq!(out, fused_relu);
        assert!(a.spmm_fused(&x, Epilogue::Bias(&[1.0])).is_err());
    }

    #[test]
    fn spmm_transposed_matches_transpose_then_spmm() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        let x = DenseMatrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let fused = m.spmm_transposed(&x).unwrap();
        let explicit = m.transpose().spmm(&x).unwrap();
        assert_eq!(fused, explicit);
        assert!(m.spmm_transposed(&DenseMatrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.5), (1, 0, -2.0)]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn symmetric_detection() {
        assert!(path3().is_symmetric(1e-9));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(!asym.is_symmetric(1e-9));
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 1, 1.0)]).unwrap();
        assert!(!rect.is_symmetric(1e-9));
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(4, 4);
        assert_eq!(z.nnz(), 0);
        let x = DenseMatrix::filled(4, 2, 1.0);
        assert_eq!(z.spmm(&x).unwrap().sum(), 0.0);
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = DenseMatrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 2);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn coo_nbytes_matches_paper_storage_model() {
        // 4 nonzeros, each 2 u32 indices + 1 f32 value = 12 bytes.
        assert_eq!(path3().coo_nbytes(), 4 * 12);
    }

    #[test]
    fn iter_yields_sorted_triplets() {
        let m = path3();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(
            triplets,
            vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
        );
    }

    #[test]
    fn spmm_fused_into_overwrites_dirty_buffers() {
        let a = path3();
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let expected = a.spmm(&x).unwrap();
        let mut out = DenseMatrix::filled(3, 2, 42.0);
        a.spmm_fused_into(&x, &mut out, Epilogue::None).unwrap();
        assert!(out.approx_eq(&expected, 0.0));
        let mut bad = DenseMatrix::zeros(3, 3);
        assert!(a.spmm_fused_into(&x, &mut bad, Epilogue::None).is_err());
    }

    #[test]
    fn nnz_balanced_bounds_cover_all_rows() {
        // Skewed matrix: all nonzeros in one row, plus many empty rows.
        let triplets: Vec<(usize, usize, f32)> = (0..50).map(|c| (3, c, 1.0)).collect();
        let m = CsrMatrix::from_triplets(40, 50, &triplets).unwrap();
        for parts in [1, 2, 3, 7] {
            let bounds = m.row_bounds_by_nnz(parts);
            assert_eq!(bounds.len(), parts + 1);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), 40);
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
        }
        // Empty matrix partitions too.
        let z = CsrMatrix::zeros(5, 5);
        assert_eq!(z.row_bounds_by_nnz(3).len(), 4);
    }

    #[test]
    fn cached_transpose_matches_fresh_and_ignores_equality() {
        let m = path3();
        let cached = m.transposed();
        assert_eq!(cached, &m.transpose());
        // Repeated calls return the same cached instance.
        assert!(std::ptr::eq(m.transposed(), cached));
        // Populating the cache does not affect equality with a clean copy.
        let clean = path3();
        assert_eq!(m, clean);
    }

    #[test]
    fn writing_values_drops_the_cached_transpose() {
        let mut m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.5), (1, 0, -2.0)]).unwrap();
        assert_eq!(m.transposed().get(2, 0), 1.5);
        m.values_mut()[0] = 4.0;
        assert_eq!(m.values(), &[4.0, -2.0]);
        assert_eq!(m.transposed(), &m.transpose());
        assert_eq!(m.transposed().get(2, 0), 4.0);
    }

    #[test]
    fn transpose_counting_sort_keeps_sorted_columns() {
        let m = CsrMatrix::from_triplets(
            4,
            3,
            &[
                (3, 0, 1.0),
                (0, 2, 2.0),
                (2, 0, 3.0),
                (0, 0, 4.0),
                (1, 1, 5.0),
            ],
        )
        .unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 4));
        for r in 0..3 {
            let (cols, _) = t.row_entries(r);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r}: {cols:?}");
        }
        assert_eq!(t.transpose(), m);
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic triplet soup: includes duplicate coordinates (which
    /// `from_triplets` must merge) and leaves many rows empty.
    fn random_triplets(
        rows: usize,
        cols: usize,
        count: usize,
        seed: u64,
    ) -> Vec<(usize, usize, f32)> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                // Bias rows toward a small band so duplicates are common
                // and the tail rows stay empty.
                let r = (next() as usize) % rows.div_ceil(2).max(1);
                let c = (next() as usize) % cols;
                let v = ((next() % 2000) as f32 - 1000.0) / 250.0;
                (r, c, v)
            })
            .collect()
    }

    fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 1000) as f32 - 500.0) / 250.0
        })
    }

    /// `m × rhs` through the private dispatch with the strategy pinned.
    fn pinned(m: &CsrMatrix, rhs: &DenseMatrix, strategy: SpmmStrategy) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(m.rows(), rhs.cols());
        m.spmm_dispatch(rhs, &mut out, strategy, Epilogue::None)
            .unwrap();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The parallel kernel partitions rows but keeps each row's
        /// accumulation order, so it must agree bit-for-bit with the
        /// sequential kernel — on non-square shapes, matrices with
        /// empty rows, and inputs built from duplicate triplets alike.
        #[test]
        fn parallel_spmm_is_bit_identical_to_sequential(
            rows in 1usize..48,
            cols in 1usize..48,
            n in 0usize..9,
            count in 0usize..250,
            seed in 0u64..10_000,
        ) {
            let triplets = random_triplets(rows, cols, count, seed);
            let m = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
            let rhs = random_dense(cols, n, seed ^ 0xABCD);
            let sequential = pinned(&m, &rhs, SpmmStrategy::Sequential);
            let parallel = pinned(&m, &rhs, SpmmStrategy::Parallel);
            prop_assert_eq!(&sequential, &parallel);
            let auto = m.spmm(&rhs).unwrap();
            prop_assert_eq!(&sequential, &auto);
        }

        /// There is one transposed-product kernel: `spmm_transposed` is
        /// the row kernel over the cached transpose, so it equals a
        /// fresh `transpose()` run through the sequential row kernel bit
        /// for bit, on the pool path too (CI repeats this under
        /// `LINALG_NUM_THREADS=4`). Values span 40 binades, so visiting
        /// an output row's contributions in any other order than
        /// ascending source row would change low bits.
        #[test]
        fn parallel_spmm_transposed_matches_sequential(
            rows in 1usize..48,
            cols in 1usize..48,
            n in 0usize..9,
            count in 0usize..250,
            seed in 0u64..10_000,
        ) {
            let binade = |i: usize| 2f32.powi(((seed as usize + i * 7919) % 41) as i32 - 20);
            let triplets: Vec<_> = random_triplets(rows, cols, count, seed)
                .into_iter()
                .enumerate()
                .map(|(i, (r, c, v))| (r, c, v * binade(i)))
                .collect();
            let m = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
            let mut rhs = random_dense(rows, n, seed ^ 0x1234);
            for (i, v) in rhs.as_mut_slice().iter_mut().enumerate() {
                *v *= binade(i + 13);
            }
            let sequential = pinned(&m.transpose(), &rhs, SpmmStrategy::Sequential);
            prop_assert_eq!(&m.spmm_transposed(&rhs).unwrap(), &sequential);
            prop_assert_eq!(&pinned(m.transposed(), &rhs, SpmmStrategy::Parallel), &sequential);
            // And the kernel agrees with the dense oracle.
            let dense_ref = crate::matmul_naive(&m.to_dense().transpose(), &rhs).unwrap();
            let scale = dense_ref
                .as_slice()
                .iter()
                .fold(1.0f32, |acc, v| acc.max(v.abs()));
            prop_assert!(
                sequential.approx_eq(&dense_ref, 1e-5 * scale),
                "max |dense| = {scale}"
            );
        }

        /// The direct `from_dense` builds what `from_triplets` builds
        /// from the same entries: `±0` skipped, NaN and infinities kept,
        /// empty rows and columns included. Values compare by bits, so
        /// a stored NaN must be the same NaN.
        #[test]
        fn from_dense_equals_from_triplets_over_its_entries(
            rows in 0usize..9,
            cols in 0usize..9,
            picks in proptest::collection::vec(0usize..8, 81),
        ) {
            const SPECIAL: [f32; 8] =
                [0.0, -0.0, 0.0, 1.5, -2.25, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            let dense = DenseMatrix::from_fn(rows, cols, |r, c| SPECIAL[picks[r * 9 + c]]);
            let triplets: Vec<_> = (0..rows)
                .flat_map(|r| (0..cols).map(move |c| (r, c)))
                .map(|(r, c)| (r, c, dense.get(r, c)))
                .filter(|&(_, _, v)| v != 0.0)
                .collect();
            let direct = CsrMatrix::from_dense(&dense);
            let merged = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
            let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&direct), bits(&merged));
            if !triplets.iter().any(|t| t.2.is_nan()) {
                prop_assert_eq!(&direct, &merged);
            }
            prop_assert_eq!(
                (direct.shape(), &direct.row_ptr, &direct.col_idx),
                (merged.shape(), &merged.row_ptr, &merged.col_idx)
            );
        }

        /// spmm against the dense reference (matmul) on small shapes.
        #[test]
        fn spmm_strategies_match_dense_reference(
            rows in 1usize..12,
            cols in 1usize..12,
            n in 1usize..6,
            count in 0usize..40,
            seed in 0u64..10_000,
        ) {
            let triplets = random_triplets(rows, cols, count, seed);
            let m = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
            let rhs = random_dense(cols, n, seed ^ 0x77);
            let dense_ref = crate::matmul_naive(&m.to_dense(), &rhs).unwrap();
            let scale = dense_ref
                .as_slice()
                .iter()
                .fold(1.0f32, |acc, v| acc.max(v.abs()));
            for strategy in [
                SpmmStrategy::Auto,
                SpmmStrategy::Sequential,
                SpmmStrategy::Parallel,
            ] {
                prop_assert!(pinned(&m, &rhs, strategy).approx_eq(&dense_ref, 1e-4 * scale));
            }
        }
    }
}
