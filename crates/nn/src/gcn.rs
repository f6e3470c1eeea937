use crate::features::Features;
use crate::init::glorot_uniform;
use crate::{NnError, Param};
use linalg::{gemm_into_ws, CsrMatrix, DenseMatrix, Epilogue, GemmOp, Workspace};
use rand::Rng;

/// One layer `Z = Â (H W) + b` (paper Eq. 1, without the activation,
/// which the network container applies between layers).
///
/// The propagation operator `Â` is optional at every call: with `None`
/// the layer is the fully-connected `Z = H W + b` of Table III's
/// structure-free "DNN" backbone — one GEMM with the bias fused into
/// its epilogue, no sparse product.
///
/// The forward pass never copies its input: the backward pass takes
/// the layer input explicitly (training loops already own every
/// layer's input), and the forward draws its output and scratch
/// buffers from a [`Workspace`] so epochs reuse allocations instead of
/// re-allocating per step.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
}

/// Result of a [`GcnLayer::forward_fused`] call.
///
/// Deliberately holds no copy of the input: the backward pass receives
/// the input by reference from the caller, which owns it anyway.
#[derive(Debug, Clone)]
pub(crate) struct GcnForward {
    /// Layer output `Z` (post-ReLU when the forward fused it).
    pub(crate) output: DenseMatrix,
}

impl GcnLayer {
    /// Creates a layer with Glorot-initialized weights and zero bias.
    pub(crate) fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(glorot_uniform(in_dim, out_dim, rng)),
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

    /// Forward pass `Z = Â (H W) + b`, or `Z = H W + b` without an
    /// operator, with the bias — and, when `fuse_relu` is set, the ReLU
    /// activation — fused into the epilogue of the last product (the
    /// sparse aggregation, or the GEMM when there is no operator), so
    /// no separate broadcast or activation pass touches the output.
    ///
    /// `H W` is computed first so the sparse multiply runs on the
    /// (usually narrower) projected matrix — the same ordering PyG uses.
    /// With `fuse_relu` the returned output is *post-activation*; the
    /// network container feeds it to the next layer directly instead of
    /// copying and ReLU-ing it. The projection scratch (`H W`), the
    /// output, and the GEMM packing buffers come from `ws`, so a
    /// training loop that gives buffers back each epoch runs
    /// allocation-free in steady state. A network's first layer may
    /// read its features sparse ([`Features::Sparse`]), with the same
    /// bits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] if `adj`, `input`, and the layer
    /// dimensions are inconsistent.
    pub(crate) fn forward_fused(
        &self,
        adj: Option<&CsrMatrix>,
        input: Features<'_>,
        fuse_relu: bool,
        ws: &mut Workspace,
    ) -> Result<GcnForward, NnError> {
        let bias = self.bias.value.row(0);
        let epilogue = if fuse_relu {
            Epilogue::BiasRelu(bias)
        } else {
            Epilogue::Bias(bias)
        };
        let mut xw = ws.take_for_overwrite(input.rows(), self.out_dim);
        let Some(adj) = adj else {
            input.times_into(&self.weight.value, &mut xw, epilogue, ws)?;
            return Ok(GcnForward { output: xw });
        };
        input.times_into(&self.weight.value, &mut xw, Epilogue::None, ws)?;
        let mut output = ws.take_for_overwrite(adj.rows(), self.out_dim);
        adj.spmm_fused_into(&xw, &mut output, epilogue)?;
        ws.give(xw);
        Ok(GcnForward { output })
    }

    /// Backward pass. Given the layer's forward `input` and
    /// `d_output = ∂L/∂Z`, accumulates `∂L/∂W` and `∂L/∂b` into the
    /// layer's parameter gradients and returns `∂L/∂H`, drawing every
    /// gradient scratch buffer and the GEMM packing buffers from `ws`
    /// (the returned `∂L/∂H` is also workspace-backed; give it back
    /// when consumed).
    ///
    /// Derivation: with `Z = Â H W + b`,
    /// `∂L/∂(HW) = Âᵀ ∂L/∂Z`, `∂L/∂W = Hᵀ Âᵀ ∂L/∂Z`,
    /// `∂L/∂H = (Âᵀ ∂L/∂Z) Wᵀ`, `∂L/∂b = Σ_rows ∂L/∂Z`; without an
    /// operator `∂L/∂(HW)` is `∂L/∂Z` itself.
    ///
    /// Both transposed products run through the packed engine's
    /// transpose-free views ([`GemmOp::AtB`] / [`GemmOp::ABt`]) — no
    /// transpose is materialized.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies between
    /// `input`, the adjacency, and `d_output`.
    pub(crate) fn backward_ws(
        &mut self,
        input: &DenseMatrix,
        adj: Option<&CsrMatrix>,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix, NnError> {
        let propagated = self.accumulate_grads(Features::Dense(input), adj, d_output, ws)?;
        let mut d_input = ws.take_for_overwrite(input.rows(), self.in_dim);
        let d_xw = propagated.as_ref().unwrap_or(d_output);
        gemm_into_ws(
            GemmOp::ABt,
            d_xw,
            &self.weight.value,
            &mut d_input,
            Epilogue::None,
            ws,
        )?;
        if let Some(d_xw) = propagated {
            ws.give(d_xw);
        }
        Ok(d_input)
    }

    /// The parameter half of [`GcnLayer::backward_ws`]: accumulates
    /// `∂L/∂W` and `∂L/∂b` and stops. A network's first layer uses
    /// this — nothing reads the gradient of its input, and `∂L/∂H`
    /// there is the widest product of the whole backward pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GcnLayer::backward_ws`].
    pub(crate) fn param_grads_ws(
        &mut self,
        input: Features<'_>,
        adj: Option<&CsrMatrix>,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), NnError> {
        if let Some(d_xw) = self.accumulate_grads(input, adj, d_output, ws)? {
            ws.give(d_xw);
        }
        Ok(())
    }

    /// Accumulates both parameter gradients and hands back
    /// `∂L/∂(HW) = Âᵀ ∂L/∂Z` when an operator produced it (`None`: it
    /// is `d_output`).
    fn accumulate_grads(
        &mut self,
        input: Features<'_>,
        adj: Option<&CsrMatrix>,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<Option<DenseMatrix>, NnError> {
        // Âᵀ dZ (Â is symmetric for GCN but we use the general form).
        let propagated = adj.map(|a| a.spmm_transposed(d_output)).transpose()?;
        let d_xw = propagated.as_ref().unwrap_or(d_output);
        let mut d_w = ws.take_for_overwrite(self.in_dim, self.out_dim);
        input.transposed_times_into(d_xw, &mut d_w, ws)?;
        self.weight.grad.add_scaled(&d_w, 1.0)?;
        ws.give(d_w);
        let col_sums = d_output.column_sums();
        let d_b = DenseMatrix::from_vec(1, col_sums.len(), col_sums)?;
        self.bias.grad.add_scaled(&d_b, 1.0)?;
        Ok(propagated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{normalization, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every test runs over this operator and over none (the
    /// fully-connected layer).
    fn setup() -> (CsrMatrix, DenseMatrix, GcnLayer) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let adj = normalization::gcn_normalize(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let x = glorot_uniform(4, 5, &mut rng);
        let layer = GcnLayer::new(5, 3, &mut rng);
        (adj, x, layer)
    }

    fn forward(
        layer: &GcnLayer,
        adj: Option<&CsrMatrix>,
        x: &DenseMatrix,
    ) -> Result<DenseMatrix, NnError> {
        Ok(layer
            .forward_fused(adj, Features::Dense(x), false, &mut Workspace::new())?
            .output)
    }

    fn backward(
        layer: &mut GcnLayer,
        x: &DenseMatrix,
        adj: Option<&CsrMatrix>,
        d_out: &DenseMatrix,
    ) -> DenseMatrix {
        layer
            .backward_ws(x, adj, d_out, &mut Workspace::new())
            .unwrap()
    }

    /// Scalar loss used for finite-difference checks: sum of outputs.
    fn loss_of(layer: &GcnLayer, adj: Option<&CsrMatrix>, x: &DenseMatrix) -> f32 {
        forward(layer, adj, x).unwrap().sum()
    }

    #[test]
    fn forward_shape_and_bias() {
        let (adj, x, mut layer) = setup();
        for op in [Some(&adj), None] {
            layer.bias.value.set(0, 1, 0.0);
            let before = forward(&layer, op, &x).unwrap();
            assert_eq!(before.shape(), (4, 3));
            // Shifting the bias shifts every output row by the same amount.
            layer.bias.value.set(0, 1, 10.0);
            let after = forward(&layer, op, &x).unwrap();
            for r in 0..4 {
                assert!((after.get(r, 1) - before.get(r, 1) - 10.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn forward_rejects_wrong_input_width() {
        let (adj, _, layer) = setup();
        let bad = DenseMatrix::zeros(4, 7);
        for op in [Some(&adj), None] {
            assert!(forward(&layer, op, &bad).is_err());
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let (adj, x, mut layer) = setup();
        let d_out = DenseMatrix::filled(4, 3, 1.0); // dL/dZ for L = sum(Z)
        for op in [Some(&adj), None] {
            layer.weight.zero_grad();
            layer.bias.zero_grad();
            backward(&mut layer, &x, op, &d_out);

            let eps = 1e-3f32;
            for (r, c) in [(0, 0), (2, 1), (4, 2)] {
                let orig = layer.weight.value.get(r, c);
                layer.weight.value.set(r, c, orig + eps);
                let plus = loss_of(&layer, op, &x);
                layer.weight.value.set(r, c, orig - eps);
                let minus = loss_of(&layer, op, &x);
                layer.weight.value.set(r, c, orig);
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = layer.weight.grad.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
                    "dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn bias_gradient_matches_finite_differences() {
        let (adj, x, mut layer) = setup();
        let d_out = DenseMatrix::filled(4, 3, 1.0);
        for op in [Some(&adj), None] {
            layer.bias.zero_grad();
            backward(&mut layer, &x, op, &d_out);
            // d(sum Z)/db_j = number of rows.
            for j in 0..3 {
                assert!((layer.bias.grad.get(0, j) - 4.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let (adj, mut x, mut layer) = setup();
        let d_out = DenseMatrix::filled(4, 3, 1.0);
        for op in [Some(&adj), None] {
            let d_input = backward(&mut layer, &x, op, &d_out);

            let eps = 1e-3f32;
            for (r, c) in [(0, 0), (3, 4), (1, 2)] {
                let orig = x.get(r, c);
                x.set(r, c, orig + eps);
                let plus = loss_of(&layer, op, &x);
                x.set(r, c, orig - eps);
                let minus = loss_of(&layer, op, &x);
                x.set(r, c, orig);
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = d_input.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
                    "dH[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let (adj, x, mut layer) = setup();
        let d_out = DenseMatrix::filled(4, 3, 1.0);
        for op in [Some(&adj), None] {
            layer.weight.zero_grad();
            backward(&mut layer, &x, op, &d_out);
            let once = layer.weight.grad.clone();
            backward(&mut layer, &x, op, &d_out);
            let twice = layer.weight.grad.clone();
            assert!(twice.approx_eq(&once.scale(2.0), 1e-4));
        }
    }

    /// The first layer of a network skips `∂L/∂H`; what it accumulates
    /// into the parameters must not depend on that.
    #[test]
    fn param_grads_match_full_backward_bit_for_bit() {
        let (adj, x, layer) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        let d_out = glorot_uniform(4, 3, &mut rng);
        for op in [Some(&adj), None] {
            let (mut full, mut params_only) = (layer.clone(), layer.clone());
            let mut ws = Workspace::new();
            full.backward_ws(&x, op, &d_out, &mut ws).unwrap();
            params_only
                .param_grads_ws(Features::Dense(&x), op, &d_out, &mut ws)
                .unwrap();
            assert_eq!(full, params_only);
            assert!(full.weight.grad.as_slice().iter().any(|&g| g != 0.0));
        }
    }
}
