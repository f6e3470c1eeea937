use crate::init::glorot_uniform;
use crate::{NnError, Param};
use linalg::{
    gemm_into_ws, matmul_fused_into_ws, CsrMatrix, DenseMatrix, Epilogue, GemmOp, Workspace,
};
use rand::Rng;

/// A GraphSAGE-style convolution (mean aggregator, concatenation
/// variant): `Z = [H ‖ Ā H] W + b`, where `Ā` is the row-normalized
/// adjacency (see [`graph::normalization::row_normalize`]).
///
/// This is the first of the paper's §VI future-work architectures;
/// [`crate::ConvLayer`] lets the GNNVault rectifier swap it in for the
/// GCN layer.
///
/// [`graph::normalization::row_normalize`]: ../graph/normalization/fn.row_normalize.html
#[derive(Debug, Clone, PartialEq)]
pub struct SageLayer {
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
}

/// Forward cache for [`SageLayer::backward_ws`].
#[derive(Debug, Clone)]
pub(crate) struct SageForward {
    /// Layer output `Z` (post-ReLU when the forward fused it).
    pub(crate) output: DenseMatrix,
    /// Cached concatenated input `[H ‖ Ā H]`.
    pub(crate) cached_concat: DenseMatrix,
}

impl SageLayer {
    /// Creates a layer with Glorot-initialized weights (fan-in `2·in`).
    pub(crate) fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(glorot_uniform(2 * in_dim, out_dim, rng)),
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

    /// Both parameters (weight, bias).
    pub(crate) fn params(&self) -> [&Param; 2] {
        [&self.weight, &self.bias]
    }

    /// Mutable access to both parameters (weight, bias).
    pub(crate) fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.weight, &mut self.bias]
    }

    /// Forward pass `Z = [H ‖ Ā H] W + b` with the bias — and, when
    /// `fuse_relu` is set, the ReLU — fused into the GEMM epilogue.
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
    ) -> Result<SageForward, NnError> {
        let mut aggregated = ws.take_for_overwrite(adj.rows(), input.cols());
        adj.spmm_fused_into(input, &mut aggregated, Epilogue::None)?;
        let mut concat = ws.take_for_overwrite(input.rows(), 2 * input.cols());
        DenseMatrix::hconcat_into(&[input, &aggregated], &mut concat)?;
        ws.give(aggregated);
        let bias = self.bias.value.row(0);
        let epilogue = if fuse_relu {
            Epilogue::BiasRelu(bias)
        } else {
            Epilogue::Bias(bias)
        };
        let mut output = ws.take_for_overwrite(input.rows(), self.out_dim);
        matmul_fused_into_ws(&concat, &self.weight.value, &mut output, epilogue, ws)?;
        Ok(SageForward {
            output,
            cached_concat: concat,
        })
    }

    /// Backward pass; accumulates parameter gradients and returns
    /// `∂L/∂H = (∂L/∂C)_self + Āᵀ (∂L/∂C)_agg` where `C = [H ‖ Ā H]`,
    /// drawing gradient scratch and GEMM packing buffers from `ws`.
    /// Both transposed products use the packed engine's transpose-free
    /// views.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub(crate) fn backward_ws(
        &mut self,
        cache: &SageForward,
        adj: &CsrMatrix,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix, NnError> {
        let mut d_w = ws.take_for_overwrite(2 * self.in_dim, self.out_dim);
        gemm_into_ws(
            GemmOp::AtB,
            &cache.cached_concat,
            d_output,
            &mut d_w,
            Epilogue::None,
            ws,
        )?;
        self.weight.grad.add_scaled(&d_w, 1.0)?;
        ws.give(d_w);
        let col_sums = d_output.column_sums();
        let d_b = DenseMatrix::from_vec(1, col_sums.len(), col_sums)?;
        self.bias.grad.add_scaled(&d_b, 1.0)?;

        let mut d_concat = ws.take_for_overwrite(d_output.rows(), 2 * self.in_dim);
        gemm_into_ws(
            GemmOp::ABt,
            d_output,
            &self.weight.value,
            &mut d_concat,
            Epilogue::None,
            ws,
        )?;
        let d_self = d_concat.slice_cols(0, self.in_dim)?;
        let d_agg = d_concat.slice_cols(self.in_dim, 2 * self.in_dim)?;
        ws.give(d_concat);
        let mut d_input = d_self;
        d_input.add_scaled(&adj.spmm_transposed(&d_agg)?, 1.0)?;
        ws.give(d_agg);
        Ok(d_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{normalization, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CsrMatrix, DenseMatrix, SageLayer) {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let adj = normalization::row_normalize(&g);
        let mut rng = StdRng::seed_from_u64(8);
        let x = glorot_uniform(5, 4, &mut rng);
        let layer = SageLayer::new(4, 3, &mut rng);
        (adj, x, layer)
    }

    fn forward(
        layer: &SageLayer,
        adj: &CsrMatrix,
        x: &DenseMatrix,
    ) -> Result<SageForward, NnError> {
        layer.forward_fused(adj, x, false, &mut Workspace::new())
    }

    #[test]
    fn forward_shapes_and_validation() {
        let (adj, x, layer) = setup();
        let out = forward(&layer, &adj, &x).unwrap();
        assert_eq!(out.output.shape(), (5, 3));
        assert_eq!(out.cached_concat.shape(), (5, 8));
        assert!(forward(&layer, &adj, &DenseMatrix::zeros(5, 9)).is_err());
    }

    #[test]
    fn isolated_node_keeps_self_features() {
        // With only a self-loop in Ā, both concat halves equal H.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let adj = normalization::row_normalize(&Graph::empty(2));
        let _ = g;
        let mut rng = StdRng::seed_from_u64(1);
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let layer = SageLayer::new(2, 2, &mut rng);
        let fwd = forward(&layer, &adj, &x).unwrap();
        assert_eq!(fwd.cached_concat.row(0), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (adj, mut x, mut layer) = setup();
        let cache = forward(&layer, &adj, &x).unwrap();
        let d_out = DenseMatrix::filled(5, 3, 1.0);
        layer.weight.zero_grad();
        layer.bias.zero_grad();
        let d_input = layer
            .backward_ws(&cache, &adj, &d_out, &mut Workspace::new())
            .unwrap();

        let eps = 1e-3f32;
        let loss = |l: &SageLayer, x: &DenseMatrix| forward(l, &adj, x).unwrap().output.sum();
        for (r, c) in [(0usize, 0usize), (7, 2), (3, 1)] {
            let orig = layer.weight.value.get(r, c);
            layer.weight.value.set(r, c, orig + eps);
            let plus = loss(&layer, &x);
            layer.weight.value.set(r, c, orig - eps);
            let minus = loss(&layer, &x);
            layer.weight.value.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = layer.weight.grad.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
                "dW[{r},{c}]: {numeric} vs {analytic}"
            );
        }
        for (r, c) in [(0usize, 0usize), (4, 3)] {
            let orig = x.get(r, c);
            x.set(r, c, orig + eps);
            let plus = loss(&layer, &x);
            x.set(r, c, orig - eps);
            let minus = loss(&layer, &x);
            x.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - d_input.get(r, c)).abs() < 1e-2 * numeric.abs().max(1.0),
                "dH[{r},{c}]"
            );
        }
    }
}
