use crate::network::dropout_scale;
use crate::ConvLayer;
use linalg::{
    csr_gemm_into_ws, gemm_into_ws, matmul_fused_into_ws, CsrMatrix, DenseMatrix, Epilogue, GemmOp,
    LinalgError, Workspace,
};
use rand::Rng;

/// Density (stored entries over area) at or below which [`Network::fit`]
/// runs its first layer on [`SparseFeatures`].
///
/// Measured at Cora's shape (2708 × 1433 features, 128 outputs,
/// dropout 0.5) on a 2-vCPU AVX-512 host: one epoch's first-layer
/// work — the dense arm's copy, mask and two packed GEMMs against the
/// sparse arm's re-mask and two CSR products — breaks even near 20 %
/// density at pool widths 1 and 2 (ARCHITECTURE's kernel section has
/// the sweep). Below the bound the sparse arm wins by at least 30 %;
/// the bag-of-words features it is for are 8 % dense.
///
/// [`Network::fit`]: crate::Network::fit
pub(crate) const SPARSE_FEATURES_MAX_DENSITY: f64 = 0.15;

/// What a GCN layer multiplies its weight by: a dense `H`, or a
/// network's first-layer features held sparse.
#[derive(Clone, Copy)]
pub(crate) enum Features<'a> {
    Dense(&'a DenseMatrix),
    Sparse(&'a SparseFeatures),
}

impl Features<'_> {
    /// Number of rows (nodes).
    pub(crate) fn rows(self) -> usize {
        match self {
            Features::Dense(h) => h.rows(),
            Features::Sparse(x) => x.rows.rows(),
        }
    }

    /// `out = epilogue(H W)`.
    pub(crate) fn times_into(
        self,
        w: &DenseMatrix,
        out: &mut DenseMatrix,
        epilogue: Epilogue<'_>,
        ws: &mut Workspace,
    ) -> Result<(), LinalgError> {
        match self {
            Features::Dense(h) => matmul_fused_into_ws(h, w, out, epilogue, ws),
            Features::Sparse(x) => csr_gemm_into_ws(&x.rows, w, out, epilogue, ws),
        }
    }

    /// `out = Hᵀ G`.
    pub(crate) fn transposed_times_into(
        self,
        g: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), LinalgError> {
        match self {
            Features::Dense(h) => gemm_into_ws(GemmOp::AtB, h, g, out, Epilogue::None, ws),
            Features::Sparse(x) => csr_gemm_into_ws(&x.cols, g, out, Epilogue::None, ws),
        }
    }
}

/// A network's first-layer input held as CSR in both orientations for
/// one fit.
///
/// Bag-of-words features are mostly zero, and a GCN layer reads its
/// input only through `X̃W` forward and `X̃ᵀ(Âᵀ dZ)` for its weight
/// gradient: nothing differentiates a network's input. Both products
/// run through [`csr_gemm_into_ws`], which returns the dense engine's
/// bits, so a fit on these features is bit-identical to one on the
/// dense `X̃`. The structure is fixed for the fit, and
/// [`SparseFeatures::drop_out`] rewrites only the values.
pub(crate) struct SparseFeatures {
    /// `X` as given: the source every epoch's mask is applied to.
    x: CsrMatrix,
    /// This epoch's `X̃`, one row per node.
    rows: CsrMatrix,
    /// This epoch's `X̃ᵀ`, one row per feature: a separate matrix, not
    /// `rows`' cached transpose, so it is rewritten in place.
    cols: CsrMatrix,
    /// `cols`' entry `t` is `rows`' entry `row_entry[t]`.
    row_entry: Vec<usize>,
}

impl SparseFeatures {
    /// The sparse input of `first` over `inputs` when `first` is a GCN
    /// layer reading one tap (`taps`) no denser than
    /// [`SPARSE_FEATURES_MAX_DENSITY`]; `None` keeps the dense arm.
    pub(crate) fn for_first_layer(
        first: &ConvLayer,
        taps: &[usize],
        inputs: &[DenseMatrix],
    ) -> Option<Self> {
        let (ConvLayer::Gcn(_), &[tap]) = (first, taps) else {
            return None;
        };
        let x = inputs.get(tap)?;
        let nnz = x.as_slice().iter().filter(|&&v| v != 0.0).count();
        if nnz as f64 > SPARSE_FEATURES_MAX_DENSITY * x.len() as f64 {
            return None;
        }
        let x = CsrMatrix::from_dense(x);
        let cols = x.transpose();
        // Row `i`'s entries appear in `cols` in ascending column order,
        // which is their order in `x`: a cursor per row numbers them.
        let mut next: Vec<usize> = (0..x.rows())
            .scan(0, |start, r| {
                let here = *start;
                *start += x.row_entries(r).0.len();
                Some(here)
            })
            .collect();
        let row_entry = (0..cols.rows())
            .flat_map(|f| cols.row_entries(f).0)
            .map(|&i| {
                next[i] += 1;
                next[i] - 1
            })
            .collect();
        Some(Self {
            rows: x.clone(),
            x,
            cols,
            row_entry,
        })
    }

    /// Sets this epoch's values to `X` under inverted dropout at `p`,
    /// drawing exactly the dense path's stream: one
    /// [`dropout_scale`] per element of `X` in row-major order, of which
    /// the draws landing on stored entries are kept. The mask itself is
    /// never stored; nothing reads a first layer's input gradient.
    pub(crate) fn drop_out(&mut self, p: f32, rng: &mut impl Rng) {
        let keep = 1.0 - p;
        let width = self.x.cols();
        let masked = self.rows.values_mut();
        let mut k = 0;
        for r in 0..self.x.rows() {
            let (cols, vals) = self.x.row_entries(r);
            let mut col = 0;
            for (&c, &v) in cols.iter().zip(vals) {
                for _ in col..c {
                    dropout_scale(keep, rng);
                }
                masked[k] = v * dropout_scale(keep, rng);
                (k, col) = (k + 1, c + 1);
            }
            for _ in col..width {
                dropout_scale(keep, rng);
            }
        }
        let masked = self.rows.values();
        for (t, &k) in self.cols.values_mut().iter_mut().zip(&self.row_entry) {
            *t = masked[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GcnLayer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_x() -> DenseMatrix {
        DenseMatrix::from_fn(7, 11, |r, c| {
            if (r * 5 + c * 3) % 10 == 0 {
                (r as f32 - 3.0) * 0.5 + c as f32 * 0.25
            } else {
                0.0
            }
        })
    }

    fn gcn(in_dim: usize) -> ConvLayer {
        ConvLayer::Gcn(GcnLayer::new(in_dim, 3, &mut StdRng::seed_from_u64(1)))
    }

    #[test]
    fn only_a_sparse_single_tap_gcn_first_layer_qualifies() {
        let x = sparse_x();
        let inputs = [x.clone(), x.clone()];
        assert!(SparseFeatures::for_first_layer(&gcn(11), &[0], &inputs).is_some());
        assert!(SparseFeatures::for_first_layer(&gcn(22), &[0, 1], &inputs).is_none());
        assert!(SparseFeatures::for_first_layer(&gcn(11), &[2], &inputs).is_none());
        let sage = ConvLayer::new(crate::ConvKind::Sage, 11, 3, &mut StdRng::seed_from_u64(1));
        assert!(SparseFeatures::for_first_layer(&sage, &[0], &inputs).is_none());
        let dense = [DenseMatrix::filled(7, 11, 1.0)];
        assert!(SparseFeatures::for_first_layer(&gcn(11), &[0], &dense).is_none());
    }

    /// The masked CSR pair is the dense path's `X ⊙ mask` in both
    /// orientations, and leaves the generator where the dense draw does.
    #[test]
    fn drop_out_matches_the_dense_mask_and_stream() {
        let x = sparse_x();
        let mut sparse =
            SparseFeatures::for_first_layer(&gcn(11), &[0], std::slice::from_ref(&x)).unwrap();
        let (mut sparse_rng, mut dense_rng) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for _ in 0..3 {
            sparse.drop_out(0.5, &mut sparse_rng);
            let mut dense = x.clone();
            for v in dense.as_mut_slice() {
                *v *= dropout_scale(0.5, &mut dense_rng);
            }
            assert_eq!(sparse.rows.to_dense(), dense);
            assert_eq!(sparse.cols.to_dense(), dense.transpose());
            assert_eq!(sparse_rng.gen::<u64>(), dense_rng.gen::<u64>());
        }
    }
}
