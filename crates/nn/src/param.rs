use linalg::DenseMatrix;

/// A trainable parameter tensor with its gradient and Adam moment state.
///
/// Keeping the optimizer state adjacent to the value avoids the borrow
/// gymnastics of a central parameter registry and makes freezing a layer
/// (the backbone during rectifier training, §IV-D) as simple as never
/// stepping it.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: DenseMatrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: DenseMatrix,
    /// Adam first-moment estimate.
    m: DenseMatrix,
    /// Adam second-moment estimate.
    v: DenseMatrix,
}

impl Param {
    /// Wraps an initial value with zeroed gradient and moments.
    pub(crate) fn new(value: DenseMatrix) -> Self {
        let (r, c) = value.shape();
        Self {
            value,
            grad: DenseMatrix::zeros(r, c),
            m: DenseMatrix::zeros(r, c),
            v: DenseMatrix::zeros(r, c),
        }
    }

    /// Resets the gradient accumulator to zero.
    pub(crate) fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }

    /// Applies one Adam update with bias correction.
    ///
    /// `t` is the 1-based global step count; `weight_decay` is L2 decay
    /// applied to the gradient (decoupled from the moments, i.e. vanilla
    /// Adam with L2, matching PyTorch's `Adam(weight_decay=..)`).
    pub(crate) fn adam_step(
        &mut self,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
        weight_decay: f32,
    ) {
        debug_assert!(t >= 1, "adam step count is 1-based");
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        let value = self.value.as_mut_slice();
        let grad = self.grad.as_slice();
        let m = self.m.as_mut_slice();
        let v = self.v.as_mut_slice();
        for i in 0..value.len() {
            let g = grad[i] + weight_decay * value[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            value[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(DenseMatrix::filled(2, 2, 1.0));
        p.grad = DenseMatrix::filled(2, 2, 3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn adam_moves_against_gradient() {
        let mut p = Param::new(DenseMatrix::filled(1, 1, 1.0));
        p.grad = DenseMatrix::filled(1, 1, 1.0);
        p.adam_step(0.1, 0.9, 0.999, 1e-8, 1, 0.0);
        assert!(p.value.get(0, 0) < 1.0);
    }

    #[test]
    fn adam_first_step_size_is_about_lr() {
        // With bias correction, the first step is ~lr regardless of
        // gradient magnitude.
        for g in [0.001f32, 1.0, 1000.0] {
            let mut p = Param::new(DenseMatrix::filled(1, 1, 0.0));
            p.grad = DenseMatrix::filled(1, 1, g);
            p.adam_step(0.01, 0.9, 0.999, 1e-8, 1, 0.0);
            assert!((p.value.get(0, 0).abs() - 0.01).abs() < 1e-4, "g = {g}");
        }
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut p = Param::new(DenseMatrix::filled(1, 1, 2.0));
        p.zero_grad();
        p.adam_step(0.1, 0.9, 0.999, 1e-8, 1, 0.1);
        assert!(p.value.get(0, 0) < 2.0);
    }
}
