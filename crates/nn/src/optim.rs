use crate::Param;

/// Adam optimizer (Kingma & Ba) with bias correction and optional L2
/// weight decay, matching PyTorch's `torch.optim.Adam` semantics used by
/// the paper's training scripts.
///
/// The moment buffers live inside each [`Param`]; `Adam` only tracks the
/// hyperparameters and the global step count, so a single optimizer can
/// drive any set of parameters. [`crate::Network::fit`] is its one
/// user.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Adam {
    /// Learning rate.
    lr: f32,
    /// Exponential decay for the first moment.
    beta1: f32,
    /// Exponential decay for the second moment.
    beta2: f32,
    /// Numerical-stability epsilon.
    eps: f32,
    /// L2 weight decay coefficient.
    weight_decay: f32,
    step: u64,
}

impl Adam {
    /// Creates an optimizer with the given learning rate and PyTorch
    /// default betas/eps, no weight decay.
    pub(crate) fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step: 0,
        }
    }

    /// Sets the weight-decay coefficient, builder-style.
    pub(crate) fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Advances the global step counter. Call once per optimization step,
    /// before updating the step's parameters.
    pub(crate) fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Applies the Adam update to one parameter using its accumulated
    /// gradient, then leaves the gradient untouched (callers zero it at
    /// the start of the next step).
    ///
    /// # Panics
    ///
    /// Panics (debug) if called before any [`Adam::begin_step`].
    pub(crate) fn update(&self, param: &mut Param) {
        debug_assert!(self.step >= 1, "call begin_step before update");
        param.adam_step(
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.step,
            self.weight_decay,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::DenseMatrix;

    /// Minimizing f(x) = x² with Adam should converge toward 0.
    #[test]
    fn converges_on_quadratic() {
        let mut p = Param::new(DenseMatrix::filled(1, 1, 5.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.get(0, 0);
            p.zero_grad();
            p.grad.set(0, 0, 2.0 * x);
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!(p.value.get(0, 0).abs() < 1e-2);
    }

    #[test]
    fn weight_decay_builder() {
        let opt = Adam::new(0.01).with_weight_decay(5e-4);
        assert_eq!(opt.weight_decay, 5e-4);
        assert_eq!(opt.step, 0);
    }

    #[test]
    fn one_step_moves_against_the_gradient() {
        let mut p = Param::new(DenseMatrix::filled(1, 1, 1.0));
        p.grad = DenseMatrix::filled(1, 1, 0.5);
        let mut opt = Adam::new(0.01);
        opt.begin_step();
        opt.update(&mut p);
        assert!(p.value.get(0, 0) < 1.0);
    }
}
