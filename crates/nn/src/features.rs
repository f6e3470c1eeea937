use crate::network::dropout_scale;
use crate::ConvLayer;
use linalg::{
    csr_gemm_into_ws, gemm_into_ws, matmul_fused_into_ws, CsrMatrix, DenseMatrix, Epilogue, GemmOp,
    LinalgError, Workspace,
};
use rand::Rng;
use std::ops::Deref;

/// Density (stored entries over area) at or below which a GCN first
/// layer reads its features as CSR: [`Network::fit`] through
/// [`SparseFeatures`], a forward pass through [`NodeFeatures`].
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

/// `x` as CSR rows when it is no denser than
/// [`SPARSE_FEATURES_MAX_DENSITY`].
fn sparse_rows(x: &DenseMatrix) -> Option<CsrMatrix> {
    let nnz = x.as_slice().iter().filter(|&&v| v != 0.0).count();
    (nnz as f64 <= SPARSE_FEATURES_MAX_DENSITY * x.len() as f64).then(|| CsrMatrix::from_dense(x))
}

/// A feature matrix prepared once for many forward passes: the dense
/// matrix, plus its CSR rows when it is no denser than the sparse
/// first layer's bound (15 %).
///
/// A GCN first layer reading these features alone multiplies the CSR
/// rows ([`linalg::csr_gemm_into_ws`], which returns the dense engine's
/// bits), so a pass over a `NodeFeatures` is bit-identical to one over
/// the dense matrix and costs time in proportion to its stored
/// entries. Any other first layer reads the dense matrix. Build it
/// where the features are fixed for many passes (a serving engine's
/// corpus): the CSR build is a full pass over the matrix. It derefs to
/// the dense matrix.
///
/// # Examples
///
/// ```
/// use linalg::DenseMatrix;
/// use nn::{Network, NodeFeatures};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = DenseMatrix::from_fn(6, 20, |r, c| if c == r { 1.0 } else { 0.0 });
/// let features = NodeFeatures::new(x.clone());
/// assert!(features.sparse_rows().is_some(), "5 % non-zero");
/// let net = Network::new(20, &[4, 2], 3)?;
/// assert_eq!(
///     net.forward_embeddings(None, &features)?,
///     net.forward_embeddings(None, &x)?,
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFeatures {
    dense: DenseMatrix,
    rows: Option<CsrMatrix>,
}

impl NodeFeatures {
    /// Prepares `dense`, building its CSR rows when it is sparse enough.
    pub fn new(dense: DenseMatrix) -> Self {
        let rows = sparse_rows(&dense);
        Self { dense, rows }
    }

    /// The CSR rows, when the features are sparse enough to keep them.
    pub fn sparse_rows(&self) -> Option<&CsrMatrix> {
        self.rows.as_ref()
    }
}

impl Deref for NodeFeatures {
    type Target = DenseMatrix;

    fn deref(&self) -> &DenseMatrix {
        &self.dense
    }
}

/// What a forward pass reads: the input matrices (*taps*, see
/// [`Network`]) and, when they come from a [`NodeFeatures`], the CSR
/// rows of tap 0.
///
/// Entry points take `impl Into<Input>`, so a caller passes a
/// `&DenseMatrix` (one tap), the taps as a slice or array, or a
/// `&NodeFeatures`.
///
/// [`Network`]: crate::Network
#[derive(Debug, Clone, Copy)]
pub struct Input<'a> {
    pub(crate) taps: &'a [DenseMatrix],
    /// Tap 0 as CSR rows.
    pub(crate) rows: Option<&'a CsrMatrix>,
}

impl<'a> From<&'a [DenseMatrix]> for Input<'a> {
    fn from(taps: &'a [DenseMatrix]) -> Self {
        Self { taps, rows: None }
    }
}

impl<'a, const N: usize> From<&'a [DenseMatrix; N]> for Input<'a> {
    fn from(taps: &'a [DenseMatrix; N]) -> Self {
        taps[..].into()
    }
}

impl<'a> From<&'a DenseMatrix> for Input<'a> {
    fn from(x: &'a DenseMatrix) -> Self {
        std::slice::from_ref(x).into()
    }
}

impl<'a> From<&'a NodeFeatures> for Input<'a> {
    fn from(x: &'a NodeFeatures) -> Self {
        Self {
            taps: std::slice::from_ref(&x.dense),
            rows: x.rows.as_ref(),
        }
    }
}

/// What a GCN layer multiplies its weight by: a dense `H`, or a
/// network's first-layer features held sparse — `H` as CSR rows and,
/// for a weight gradient, `Hᵀ` as CSR rows.
#[derive(Clone, Copy)]
pub(crate) enum Features<'a> {
    Dense(&'a DenseMatrix),
    Sparse {
        rows: &'a CsrMatrix,
        cols: Option<&'a CsrMatrix>,
    },
}

impl Features<'_> {
    /// Number of rows (nodes).
    pub(crate) fn rows(self) -> usize {
        match self {
            Features::Dense(h) => h.rows(),
            Features::Sparse { rows, .. } => rows.rows(),
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
            Features::Sparse { rows, .. } => csr_gemm_into_ws(rows, w, out, epilogue, ws),
        }
    }

    /// `out = Hᵀ G`; sparse features without `Hᵀ` use their rows'
    /// cached transpose.
    pub(crate) fn transposed_times_into(
        self,
        g: &DenseMatrix,
        out: &mut DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), LinalgError> {
        match self {
            Features::Dense(h) => gemm_into_ws(GemmOp::AtB, h, g, out, Epilogue::None, ws),
            Features::Sparse { rows, cols } => {
                let cols = cols.unwrap_or_else(|| rows.transposed());
                csr_gemm_into_ws(cols, g, out, Epilogue::None, ws)
            }
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
        let x = sparse_rows(inputs.get(tap)?)?;
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

    /// This epoch's `X̃` for a GCN layer.
    pub(crate) fn features(&self) -> Features<'_> {
        Features::Sparse {
            rows: &self.rows,
            cols: Some(&self.cols),
        }
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

    /// Each layer's embedding as bits, so `-0.0` and `0.0` differ.
    fn bits(embeddings: &[DenseMatrix]) -> Vec<Vec<u32>> {
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
        embeddings.iter().map(bits).collect()
    }

    #[test]
    fn node_features_keep_csr_rows_only_up_to_the_density_bound() {
        // 15 of 100 entries is the bound itself; one more is above it.
        let with = |nnz: usize| {
            NodeFeatures::new(DenseMatrix::from_fn(10, 10, |r, c| {
                if r * 10 + c < nnz {
                    1.0 + c as f32
                } else {
                    0.0
                }
            }))
        };
        let at_bound = with(15);
        assert_eq!(
            at_bound.sparse_rows(),
            Some(&CsrMatrix::from_dense(&at_bound))
        );
        let above = with(16);
        assert!(above.sparse_rows().is_none());
        assert!(Input::from(&above).rows.is_none());
        assert_eq!(Input::from(&above).taps, std::slice::from_ref(&*above));
    }

    /// Only a GCN first layer reading tap 0 alone multiplies the
    /// prepared rows: forged rows move its output and nothing else's,
    /// and the true rows give the dense matrix's bits.
    #[test]
    fn only_a_gcn_first_layer_on_tap_0_reads_the_prepared_rows() {
        let x = sparse_x();
        let prepared = NodeFeatures::new(x.clone());
        assert!(prepared.sparse_rows().is_some());
        let mut forged = prepared.sparse_rows().unwrap().clone();
        forged.values_mut()[0] *= 2.0;
        let forged = Input {
            taps: std::slice::from_ref(&x),
            rows: Some(&forged),
        };
        let g = graph::Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 0)]).unwrap();
        let adj = graph::normalization::gcn_normalize(&g);
        for adj in [None, Some(&adj)] {
            let net = crate::Network::new(11, &[5, 3], 4).unwrap();
            let dense = net.forward_embeddings(adj, &x).unwrap();
            assert_eq!(
                bits(&net.forward_embeddings(adj, &prepared).unwrap()),
                bits(&dense)
            );
            assert_ne!(
                bits(&net.forward_embeddings(adj, forged).unwrap()),
                bits(&dense)
            );
        }
        for conv in [crate::ConvKind::Sage, crate::ConvKind::Gat] {
            let net =
                crate::Network::wired(conv, &[11], &[5, 3], vec![vec![0], vec![]], 4).unwrap();
            let dense = net.forward_embeddings(Some(&adj), &x).unwrap();
            assert_eq!(
                bits(&net.forward_embeddings(Some(&adj), forged).unwrap()),
                bits(&dense)
            );
        }
        // A first layer reading two taps reads their concatenation.
        let two = [x.clone(), x.clone()];
        let net = crate::Network::wired(
            crate::ConvKind::Gcn,
            &[11, 11],
            &[5, 3],
            vec![vec![0, 1], vec![]],
            4,
        )
        .unwrap();
        let forged_two = Input {
            taps: &two,
            ..forged
        };
        let dense = net.forward_embeddings(Some(&adj), &two).unwrap();
        assert_eq!(
            bits(&net.forward_embeddings(Some(&adj), forged_two).unwrap()),
            bits(&dense)
        );
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
