use crate::{glorot_uniform, NnError, Param};
use linalg::{
    matmul_a_bt_into_ws, matmul_at_b_into_ws, matmul_fused_into_ws, DenseMatrix, Epilogue,
    Workspace,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected layer `Z = H W + b`, used by the DNN/MLP backbone
/// baseline of Table III (a model that ignores graph structure).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = nn::DenseLayer::new(4, 2, &mut rng);
/// let h = linalg::DenseMatrix::zeros(3, 4);
/// let out = layer.forward(&h)?;
/// assert_eq!(out.output.shape(), (3, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
}

/// Result of [`DenseLayer::forward`].
///
/// Holds no input copy; [`DenseLayer::backward`] takes the input by
/// reference from the caller, which owns it anyway.
#[derive(Debug, Clone)]
pub struct DenseForward {
    /// Pre-activation output `Z`.
    pub output: DenseMatrix,
}

impl DenseLayer {
    /// Creates a layer with Glorot-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(glorot_uniform(in_dim, out_dim, rng)),
            bias: Param::new(DenseMatrix::zeros(1, out_dim)),
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Read access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Read access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Mutable access to the bias parameter.
    pub fn bias_mut(&mut self) -> &mut Param {
        &mut self.bias
    }

    /// Forward pass `Z = H W + b`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] if `input.cols() != in_dim`.
    pub fn forward(&self, input: &DenseMatrix) -> Result<DenseForward, NnError> {
        self.forward_fused(input, false, &mut Workspace::new())
    }

    /// Forward pass with the bias — and, when `fuse_relu` is set, the
    /// ReLU — fused into the GEMM epilogue, applied while each output
    /// tile is still register-resident (see
    /// [`crate::GcnLayer::forward_fused`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DenseLayer::forward`].
    pub fn forward_fused(
        &self,
        input: &DenseMatrix,
        fuse_relu: bool,
        ws: &mut Workspace,
    ) -> Result<DenseForward, NnError> {
        let bias = self.bias.value.row(0);
        let epilogue = if fuse_relu {
            Epilogue::BiasRelu(bias)
        } else {
            Epilogue::Bias(bias)
        };
        let mut output = ws.take_for_overwrite(input.rows(), self.out_dim);
        matmul_fused_into_ws(input, &self.weight.value, &mut output, epilogue, ws)?;
        Ok(DenseForward { output })
    }

    /// Backward pass; given the layer's forward `input`, accumulates
    /// parameter gradients and returns `∂L/∂H = ∂L/∂Z · Wᵀ`. Both
    /// products use the packed engine's transpose-free views.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub fn backward(
        &mut self,
        input: &DenseMatrix,
        d_output: &DenseMatrix,
    ) -> Result<DenseMatrix, NnError> {
        self.backward_ws(input, d_output, &mut Workspace::new())
    }

    /// [`DenseLayer::backward`] drawing gradient scratch and GEMM
    /// packing buffers from `ws`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DenseLayer::backward`].
    pub fn backward_ws(
        &mut self,
        input: &DenseMatrix,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix, NnError> {
        let mut d_w = ws.take_for_overwrite(self.in_dim, self.out_dim);
        matmul_at_b_into_ws(input, d_output, &mut d_w, ws)?;
        self.weight.grad.add_scaled(&d_w, 1.0)?;
        ws.give(d_w);
        let col_sums = d_output.column_sums();
        let d_b = DenseMatrix::from_vec(1, col_sums.len(), col_sums)?;
        self.bias.grad.add_scaled(&d_b, 1.0)?;
        let mut d_input = ws.take_for_overwrite(input.rows(), self.in_dim);
        matmul_a_bt_into_ws(d_output, &self.weight.value, &mut d_input, ws)?;
        Ok(d_input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (DenseMatrix, DenseLayer) {
        let mut rng = StdRng::seed_from_u64(11);
        let x = glorot_uniform(4, 5, &mut rng);
        let layer = DenseLayer::new(5, 3, &mut rng);
        (x, layer)
    }

    #[test]
    fn forward_shapes() {
        let (x, layer) = setup();
        let out = layer.forward(&x).unwrap();
        assert_eq!(out.output.shape(), (4, 3));
        assert!(layer.forward(&DenseMatrix::zeros(4, 9)).is_err());
    }

    #[test]
    fn gradient_check_weight_and_input() {
        let (mut x, mut layer) = setup();
        let d_out = DenseMatrix::filled(4, 3, 1.0);
        layer.weight_mut().zero_grad();
        let d_input = layer.backward(&x, &d_out).unwrap();

        let eps = 1e-3f32;
        let loss = |l: &DenseLayer, x: &DenseMatrix| l.forward(x).unwrap().output.sum();
        // Weight entries.
        for (r, c) in [(0, 0), (4, 2)] {
            let orig = layer.weight().value.get(r, c);
            layer.weight_mut().value.set(r, c, orig + eps);
            let plus = loss(&layer, &x);
            layer.weight_mut().value.set(r, c, orig - eps);
            let minus = loss(&layer, &x);
            layer.weight_mut().value.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = layer.weight().grad.get(r, c);
            assert!((numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0));
        }
        // Input entries.
        for (r, c) in [(1, 1), (3, 4)] {
            let orig = x.get(r, c);
            x.set(r, c, orig + eps);
            let plus = loss(&layer, &x);
            x.set(r, c, orig - eps);
            let minus = loss(&layer, &x);
            x.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - d_input.get(r, c)).abs() < 1e-2 * numeric.abs().max(1.0));
        }
    }

    #[test]
    fn bias_gradient_is_row_count_for_sum_loss() {
        let (x, mut layer) = setup();
        layer.bias_mut().zero_grad();
        layer.backward(&x, &DenseMatrix::filled(4, 3, 1.0)).unwrap();
        for j in 0..3 {
            assert!((layer.bias().grad.get(0, j) - 4.0).abs() < 1e-5);
        }
    }
}
