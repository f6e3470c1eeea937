use crate::init::glorot_uniform;
use crate::{NnError, Param};
use linalg::{
    gemm_into_ws, matmul_fused_into_ws, CsrMatrix, DenseMatrix, Epilogue, GemmOp, Workspace,
};
use rand::Rng;

/// Negative-slope constant for the attention LeakyReLU (GAT default).
const LEAKY_SLOPE: f32 = 0.2;

/// A single-head Graph Attention (GAT) convolution:
///
/// ```text
/// e_ij = LeakyReLU(a_srcᵀ (W h_i) + a_dstᵀ (W h_j))   for j ∈ N(i) ∪ {i}
/// α_i· = softmax(e_i·)
/// z_i  = Σ_j α_ij (W h_j) + b
/// ```
///
/// The neighbour structure comes from the sparsity pattern of `adj`
/// (values ignored); pass a GCN-normalized matrix so self-loops are
/// present. This is the second §VI future-work architecture; see
/// [`crate::ConvLayer`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatLayer {
    weight: Param,
    attn_src: Param,
    attn_dst: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
}

/// Forward cache for [`GatLayer::backward_ws`]: only *derived* tensors
/// (projections and attention coefficients) — the layer input itself is
/// passed back to the backward pass by the caller, which owns it.
#[derive(Debug, Clone)]
pub(crate) struct GatForward {
    /// Layer output `Z` (post-ReLU when the forward fused it).
    pub(crate) output: DenseMatrix,
    /// Projected features `W H`.
    wh: DenseMatrix,
    /// Per-edge attention weights as one flat `1 × nnz` buffer aligned
    /// with `adj`'s CSR layout (edge k of row i lives at
    /// `row_start(i) + k`), so forward passes allocate one recyclable
    /// buffer instead of one `Vec` per node.
    alpha: DenseMatrix,
    /// Per-edge pre-LeakyReLU scores, aligned like `alpha`.
    pre: DenseMatrix,
}

impl GatForward {
    /// Consumes the cache, returning every dense buffer it held so
    /// training loops can recycle them through a [`Workspace`].
    pub(crate) fn into_buffers(self) -> Vec<DenseMatrix> {
        vec![self.output, self.wh, self.alpha, self.pre]
    }

    /// Iterates the attention coefficients row by row, using `adj` (the
    /// adjacency the forward ran on) to delimit neighbourhoods.
    #[cfg(test)]
    fn attention_rows<'a>(&'a self, adj: &'a CsrMatrix) -> impl Iterator<Item = &'a [f32]> + 'a {
        let flat = self.alpha.as_slice();
        (0..adj.rows()).scan(0usize, move |offset, i| {
            let len = adj.row_entries(i).0.len();
            let row = &flat[*offset..*offset + len];
            *offset += len;
            Some(row)
        })
    }
}

impl GatLayer {
    /// Creates a layer with Glorot-initialized projection and attention
    /// vectors, zero bias.
    pub(crate) fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(glorot_uniform(in_dim, out_dim, rng)),
            attn_src: Param::new(glorot_uniform(1, out_dim, rng)),
            attn_dst: Param::new(glorot_uniform(1, out_dim, rng)),
            bias: Param::new(DenseMatrix::zeros(1, out_dim)),
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub(crate) fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub(crate) fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// All four parameters (weight, attention vectors, bias).
    pub(crate) fn params(&self) -> [&Param; 4] {
        [&self.weight, &self.attn_src, &self.attn_dst, &self.bias]
    }

    /// Mutable access to all four parameters, in [`GatLayer::params`]
    /// order.
    pub(crate) fn params_mut(&mut self) -> [&mut Param; 4] {
        [
            &mut self.weight,
            &mut self.attn_src,
            &mut self.attn_dst,
            &mut self.bias,
        ]
    }

    /// Forward pass (see the type-level equation) applying bias — and,
    /// when `fuse_relu` is set, the ReLU — inside the per-node
    /// aggregation loop while the output row is hot.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub(crate) fn forward_fused(
        &self,
        adj: &CsrMatrix,
        input: &DenseMatrix,
        fuse_relu: bool,
        ws: &mut Workspace,
    ) -> Result<GatForward, NnError> {
        if adj.rows() != input.rows() || adj.cols() != input.rows() {
            return Err(NnError::Linalg(linalg::LinalgError::ShapeMismatch {
                op: "gat_forward",
                lhs: adj.shape(),
                rhs: input.shape(),
            }));
        }
        let n = input.rows();
        let mut wh = ws.take_for_overwrite(n, self.out_dim);
        matmul_fused_into_ws(input, &self.weight.value, &mut wh, Epilogue::None, ws)?;
        let (a_src, a_dst) = (self.attn_src.value.row(0), self.attn_dst.value.row(0));
        let bias = self.bias.value.row(0);
        // s_i = a_src · wh_i, t_j = a_dst · wh_j.
        let s: Vec<f32> = (0..n)
            .map(|i| wh.row(i).iter().zip(a_src).map(|(x, a)| x * a).sum())
            .collect();
        let t: Vec<f32> = (0..n)
            .map(|j| wh.row(j).iter().zip(a_dst).map(|(x, a)| x * a).sum())
            .collect();

        let mut output = ws.take(n, self.out_dim);
        let mut alpha = ws.take_for_overwrite(1, adj.nnz());
        let mut pre = ws.take_for_overwrite(1, adj.nnz());
        let mut offset = 0usize;
        #[allow(clippy::needless_range_loop)] // i indexes adj rows and s in lockstep
        for i in 0..n {
            let (cols, _) = adj.row_entries(i);
            let span = offset..offset + cols.len();
            offset = span.end;
            let row_pre = &mut pre.as_mut_slice()[span.clone()];
            for (slot, &j) in row_pre.iter_mut().zip(cols) {
                *slot = s[i] + t[j];
            }
            let row_post = &mut alpha.as_mut_slice()[span];
            for (post, &e) in row_post.iter_mut().zip(row_pre.iter()) {
                *post = if e >= 0.0 { e } else { LEAKY_SLOPE * e };
            }
            // Stable softmax over the neighbourhood.
            let max = row_post.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row_post.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row_post.iter_mut() {
                    *v /= sum;
                }
            }
            let orow = output.row_mut(i);
            for (&j, &a) in cols.iter().zip(row_post.iter()) {
                for (o, w) in orow.iter_mut().zip(wh.row(j)) {
                    *o += a * w;
                }
            }
            for (o, b) in orow.iter_mut().zip(bias) {
                *o += b;
                if fuse_relu {
                    *o = o.max(0.0);
                }
            }
        }
        Ok(GatForward {
            output,
            wh,
            alpha,
            pre,
        })
    }

    /// Backward pass through attention, softmax, and projection; given
    /// the layer's forward `input`, accumulates all four parameter
    /// gradients and returns `∂L/∂H`, drawing gradient scratch and GEMM
    /// packing buffers from `ws`. The projection gradients use the
    /// packed engine's transpose-free views.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub(crate) fn backward_ws(
        &mut self,
        cache: &GatForward,
        input: &DenseMatrix,
        adj: &CsrMatrix,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix, NnError> {
        let n = input.rows();
        let out_dim = self.out_dim;
        let mut d_wh = ws.take(n, out_dim);
        let mut d_s = vec![0.0f32; n];
        let mut d_t = vec![0.0f32; n];
        let flat_alpha = cache.alpha.as_slice();
        let flat_pre = cache.pre.as_slice();
        // Scratch hoisted out of the node loop; grows to the largest
        // neighbourhood once and is reused for every row.
        let mut d_alpha: Vec<f32> = Vec::new();
        let mut offset = 0usize;

        #[allow(clippy::needless_range_loop)] // i indexes four aligned per-node arrays
        for i in 0..n {
            let (cols, _) = adj.row_entries(i);
            let span = offset..offset + cols.len();
            offset = span.end;
            let alpha = &flat_alpha[span.clone()];
            let pre = &flat_pre[span];
            let dz = d_output.row(i);
            // dα_ij = dz_i · wh_j ; z_i also feeds d_wh via α.
            d_alpha.clear();
            d_alpha.extend(cols.iter().zip(alpha).map(|(&j, &a)| {
                let whj = cache.wh.row(j);
                let dot: f32 = dz.iter().zip(whj).map(|(d, w)| d * w).sum();
                let d_whj = d_wh.row_mut(j);
                for (g, d) in d_whj.iter_mut().zip(dz) {
                    *g += a * d;
                }
                dot
            }));
            // Softmax backward: de = α ⊙ (dα − Σ α dα).
            let weighted: f32 = alpha.iter().zip(&d_alpha).map(|(a, d)| a * d).sum();
            for ((&j, (&a, &da)), &p) in cols.iter().zip(alpha.iter().zip(&d_alpha)).zip(pre.iter())
            {
                let de = a * (da - weighted);
                let dpre = if p >= 0.0 { de } else { LEAKY_SLOPE * de };
                d_s[i] += dpre;
                d_t[j] += dpre;
            }
        }

        // s_i = a_src · wh_i and t_i = a_dst · wh_i.
        let a_src: Vec<f32> = self.attn_src.value.row(0).to_vec();
        let a_dst: Vec<f32> = self.attn_dst.value.row(0).to_vec();
        let mut d_a_src = vec![0.0f32; out_dim];
        let mut d_a_dst = vec![0.0f32; out_dim];
        for i in 0..n {
            let whi = cache.wh.row(i);
            let d_whi = d_wh.row_mut(i);
            for k in 0..out_dim {
                d_whi[k] += d_s[i] * a_src[k] + d_t[i] * a_dst[k];
                d_a_src[k] += d_s[i] * whi[k];
                d_a_dst[k] += d_t[i] * whi[k];
            }
        }
        self.attn_src
            .grad
            .add_scaled(&DenseMatrix::from_vec(1, out_dim, d_a_src)?, 1.0)?;
        self.attn_dst
            .grad
            .add_scaled(&DenseMatrix::from_vec(1, out_dim, d_a_dst)?, 1.0)?;

        let mut d_w = ws.take_for_overwrite(self.in_dim, out_dim);
        gemm_into_ws(GemmOp::AtB, input, &d_wh, &mut d_w, Epilogue::None, ws)?;
        self.weight.grad.add_scaled(&d_w, 1.0)?;
        ws.give(d_w);
        let col_sums = d_output.column_sums();
        let d_b = DenseMatrix::from_vec(1, col_sums.len(), col_sums)?;
        self.bias.grad.add_scaled(&d_b, 1.0)?;
        let mut d_input = ws.take_for_overwrite(n, self.in_dim);
        gemm_into_ws(
            GemmOp::ABt,
            &d_wh,
            &self.weight.value,
            &mut d_input,
            Epilogue::None,
            ws,
        )?;
        ws.give(d_wh);
        Ok(d_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{normalization, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CsrMatrix, DenseMatrix, GatLayer) {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        // GCN normalization provides the self-loop structure GAT expects.
        let adj = normalization::gcn_normalize(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let x = glorot_uniform(5, 4, &mut rng);
        let layer = GatLayer::new(4, 3, &mut rng);
        (adj, x, layer)
    }

    fn forward(layer: &GatLayer, adj: &CsrMatrix, x: &DenseMatrix) -> Result<GatForward, NnError> {
        layer.forward_fused(adj, x, false, &mut Workspace::new())
    }

    #[test]
    fn forward_shapes_and_attention_normalization() {
        let (adj, x, layer) = setup();
        let fwd = forward(&layer, &adj, &x).unwrap();
        assert_eq!(fwd.output.shape(), (5, 3));
        for (i, row) in fwd.attention_rows(&adj).enumerate() {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} attention sums to {sum}");
            assert!(row.iter().all(|&a| a >= 0.0));
        }
        assert!(forward(&layer, &adj, &DenseMatrix::zeros(4, 4)).is_err());
    }

    #[test]
    fn all_parameter_gradients_match_finite_differences() {
        let (adj, mut x, mut layer) = setup();
        let cache = forward(&layer, &adj, &x).unwrap();
        let d_out = DenseMatrix::filled(5, 3, 1.0);
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let d_input = layer
            .backward_ws(&cache, &x, &adj, &d_out, &mut Workspace::new())
            .unwrap();

        let eps = 1e-3f32;
        let loss = |l: &GatLayer, x: &DenseMatrix| forward(l, &adj, x).unwrap().output.sum();

        // Projection weights.
        for (r, c) in [(0usize, 0usize), (3, 2)] {
            let orig = layer.weight.value.get(r, c);
            layer.weight.value.set(r, c, orig + eps);
            let plus = loss(&layer, &x);
            layer.weight.value.set(r, c, orig - eps);
            let minus = loss(&layer, &x);
            layer.weight.value.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = layer.weight.grad.get(r, c);
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "dW[{r},{c}]: {numeric} vs {analytic}"
            );
        }
        // Attention vectors.
        for k in 0..3usize {
            let orig = layer.attn_src.value.get(0, k);
            layer.attn_src.value.set(0, k, orig + eps);
            let plus = loss(&layer, &x);
            layer.attn_src.value.set(0, k, orig - eps);
            let minus = loss(&layer, &x);
            layer.attn_src.value.set(0, k, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = layer.attn_src.grad.get(0, k);
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "da_src[{k}]: {numeric} vs {analytic}"
            );
        }
        // Input gradient.
        for (r, c) in [(1usize, 1usize), (4, 0)] {
            let orig = x.get(r, c);
            x.set(r, c, orig + eps);
            let plus = loss(&layer, &x);
            x.set(r, c, orig - eps);
            let minus = loss(&layer, &x);
            x.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - d_input.get(r, c)).abs() < 2e-2 * numeric.abs().max(1.0),
                "dH[{r},{c}]"
            );
        }
    }

    #[test]
    fn isolated_self_loop_attends_only_to_itself() {
        let adj = normalization::gcn_normalize(&Graph::empty(3));
        let mut rng = StdRng::seed_from_u64(2);
        let x = glorot_uniform(3, 4, &mut rng);
        let layer = GatLayer::new(4, 2, &mut rng);
        let fwd = forward(&layer, &adj, &x).unwrap();
        for row in fwd.attention_rows(&adj) {
            assert_eq!(row.len(), 1);
            assert!((row[0] - 1.0).abs() < 1e-6);
        }
    }
}
