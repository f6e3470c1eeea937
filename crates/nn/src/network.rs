use crate::{loss, Adam, DenseLayer, GcnLayer, NnError};
use linalg::{ops, CsrMatrix, DenseMatrix, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What a layer consumed during a fit epoch's forward pass.
///
/// With fused ReLU, a hidden layer's output already *is* the next
/// layer's input, so dropout-free epochs borrow it directly instead of
/// copying; only dropout-masked inputs are owned copies. The slot is
/// resolved against the feature matrix and the previous layer's cache
/// at use time, which sidesteps holding borrows into the cache vector
/// while it is still being grown.
enum FitInput {
    /// The caller's feature matrix `X` (layer 0, no dropout).
    Features,
    /// The previous layer's (post-activation) output, borrowed.
    PrevOutput,
    /// An owned, dropout-masked copy.
    Owned(DenseMatrix),
}

impl FitInput {
    /// Resolves to the tensor the layer consumed.
    fn resolve<'a>(
        &'a self,
        x: &'a DenseMatrix,
        prev_output: Option<&'a DenseMatrix>,
    ) -> &'a DenseMatrix {
        match self {
            FitInput::Features => x,
            FitInput::PrevOutput => prev_output.expect("layer > 0 has a previous output"),
            FitInput::Owned(m) => m,
        }
    }
}

/// Training hyperparameters shared by [`GcnNetwork`] and [`MlpNetwork`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Inverted-dropout probability on each layer input (0 disables).
    pub dropout: f32,
    /// RNG seed for dropout masks.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            lr: 0.01,
            weight_decay: 5e-4,
            dropout: 0.0,
            seed: 0,
        }
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Cross-entropy loss after the final epoch.
    pub final_loss: f32,
    /// Accuracy on the training mask after the final epoch.
    pub train_accuracy: f32,
    /// Number of epochs executed.
    pub epochs: usize,
}

/// A sequential stack of [`GcnLayer`]s with ReLU between layers (none
/// after the last), trained full-batch with Adam — the architecture used
/// for both the original unprotected GNN (`porg`) and the public backbone
/// (`pbb`) in the paper.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcnNetwork {
    layers: Vec<GcnLayer>,
    input_dim: usize,
}

impl GcnNetwork {
    /// Builds a network mapping `input_dim` features through the given
    /// output `channels` (e.g. `&[128, 32, 7]` for the paper's M1).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] when `channels` is empty
    /// or contains a zero dimension.
    pub fn new(input_dim: usize, channels: &[usize], seed: u64) -> Result<Self, NnError> {
        validate_channels(input_dim, channels)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(channels.len());
        let mut prev = input_dim;
        for &c in channels {
            layers.push(GcnLayer::new(prev, c, &mut rng));
            prev = c;
        }
        Ok(Self { layers, input_dim })
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimensions of each layer in order.
    pub fn channel_dims(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.out_dim()).collect()
    }

    /// Borrow of the layer stack.
    pub fn layers(&self) -> &[GcnLayer] {
        &self.layers
    }

    /// Mutable borrow of the layer stack, for weight restoration (e.g.
    /// rebuilding a network from a serialized snapshot). Layer *shapes*
    /// must not be changed through this borrow — only parameter values.
    pub fn layers_mut(&mut self) -> &mut [GcnLayer] {
        &mut self.layers
    }

    /// Total trainable parameter count (the `θ` columns of Table II).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(GcnLayer::param_count).sum()
    }

    /// Parameter bytes, for enclave memory accounting.
    pub fn nbytes(&self) -> usize {
        self.layers.iter().map(GcnLayer::nbytes).sum()
    }

    /// Forward pass returning every layer's embedding in order: ReLU
    /// outputs for hidden layers and raw logits for the last layer.
    ///
    /// These per-layer embeddings are exactly the intermediate data the
    /// rectifier taps (Fig. 3) and the attacker observes in the
    /// untrusted world (§V-D).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] if `x` or `adj` have inconsistent
    /// shapes.
    pub fn forward_embeddings(
        &self,
        adj: &CsrMatrix,
        x: &DenseMatrix,
    ) -> Result<Vec<DenseMatrix>, NnError> {
        // Hidden activations come out of the fused forward already
        // ReLU-ed (applied in the aggregation epilogue) — no separate
        // activation pass, no copies. The workspace recycles GEMM
        // packing and projection scratch across layers.
        let mut ws = Workspace::new();
        let mut embeddings: Vec<DenseMatrix> = Vec::with_capacity(self.layers.len());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let input = embeddings.last().unwrap_or(x);
            let out = layer.forward_fused(adj, input, i != last, &mut ws)?;
            embeddings.push(out.output);
        }
        Ok(embeddings)
    }

    /// Forward pass returning only the final logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub fn logits(&self, adj: &CsrMatrix, x: &DenseMatrix) -> Result<DenseMatrix, NnError> {
        Ok(self
            .forward_embeddings(adj, x)?
            .pop()
            .expect("network has at least one layer"))
    }

    /// Predicted class per node (argmax of logits).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub fn predict(&self, adj: &CsrMatrix, x: &DenseMatrix) -> Result<Vec<usize>, NnError> {
        Ok(ops::argmax_rows(&self.logits(adj, x)?))
    }

    /// Trains the network full-batch on the masked cross-entropy loss.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLabels`] for label/mask problems and
    /// [`NnError::Linalg`] for shape problems.
    pub fn fit(
        &mut self,
        adj: &CsrMatrix,
        x: &DenseMatrix,
        labels: &[usize],
        train_mask: &[usize],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, NnError> {
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut final_loss = f32::NAN;
        let last = self.layers.len() - 1;
        // One workspace for the whole run: epoch N's activations,
        // gradients, and GEMM packing buffers are recycled as epoch
        // N+1's, so the steady state allocates nothing per step.
        let mut ws = Workspace::new();
        for _ in 0..cfg.epochs {
            // Forward. Hidden layers fuse bias + ReLU into their output
            // epilogue, so with dropout off each layer borrows its
            // predecessor's output directly — no activation pass and no
            // input copies at all. Dropout epochs copy (the mask must
            // not corrupt the cached activation the backward reads).
            let mut inputs: Vec<FitInput> = Vec::with_capacity(self.layers.len());
            let mut caches: Vec<crate::GcnForward> = Vec::with_capacity(self.layers.len());
            let mut dropout_masks: Vec<Option<DenseMatrix>> = Vec::with_capacity(self.layers.len());
            for i in 0..self.layers.len() {
                let mut input = if cfg.dropout > 0.0 {
                    FitInput::Owned(if i == 0 {
                        ws.take_copy(x)
                    } else {
                        ws.take_copy(&caches[i - 1].output)
                    })
                } else if i == 0 {
                    FitInput::Features
                } else {
                    FitInput::PrevOutput
                };
                let mask = match &mut input {
                    FitInput::Owned(h) => apply_dropout(h, cfg.dropout, &mut rng, &mut ws),
                    _ => None, // dropout disabled
                };
                dropout_masks.push(mask);
                let cache = {
                    let prev = caches.last().map(|c: &crate::GcnForward| &c.output);
                    let h = input.resolve(x, prev);
                    self.layers[i].forward_fused(adj, h, i != last, &mut ws)?
                };
                inputs.push(input);
                caches.push(cache);
            }
            let logits = &caches[last].output;
            let (loss_value, grad) = loss::masked_cross_entropy(logits, labels, train_mask)?;
            final_loss = loss_value;

            // Backward.
            for layer in &mut self.layers {
                layer.weight_mut().zero_grad();
                layer.bias_mut().zero_grad();
            }
            let mut d = grad;
            for i in (0..self.layers.len()).rev() {
                let d_input = {
                    let prev = if i > 0 {
                        Some(&caches[i - 1].output)
                    } else {
                        None
                    };
                    let h = inputs[i].resolve(x, prev);
                    self.layers[i].backward_ws(h, adj, &d, &mut ws)?
                };
                if i > 0 {
                    // Undo this layer's input dropout, then the previous
                    // layer's ReLU (the post-activation output masks
                    // identically to the pre-activation tensor).
                    let mut d_masked = d_input;
                    if let Some(mask) = &dropout_masks[i] {
                        d_masked.hadamard_inplace(mask)?;
                    }
                    let next = ops::relu_backward(&caches[i - 1].output, &d_masked);
                    ws.give(d_masked);
                    ws.give(std::mem::replace(&mut d, next));
                } else {
                    ws.give(d_input);
                }
            }
            ws.give(d);

            // Update.
            opt.begin_step();
            for layer in &mut self.layers {
                opt.update(layer.weight_mut());
                opt.update(layer.bias_mut());
            }

            // Recycle this epoch's buffers for the next one.
            for cache in caches {
                ws.give(cache.output);
            }
            for input in inputs {
                if let FitInput::Owned(h) = input {
                    ws.give(h);
                }
            }
            for mask in dropout_masks.into_iter().flatten() {
                ws.give(mask);
            }
        }
        let logits = self.logits(adj, x)?;
        let train_accuracy = loss::masked_accuracy(&logits, labels, train_mask)?;
        Ok(TrainReport {
            final_loss,
            train_accuracy,
            epochs: cfg.epochs,
        })
    }
}

/// A sequential stack of [`DenseLayer`]s (an MLP) — the "DNN backbone"
/// baseline of Table III, which sees node features but no graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpNetwork {
    layers: Vec<DenseLayer>,
    input_dim: usize,
}

impl MlpNetwork {
    /// Builds an MLP mapping `input_dim` features through `channels`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] when `channels` is empty
    /// or contains a zero dimension.
    pub fn new(input_dim: usize, channels: &[usize], seed: u64) -> Result<Self, NnError> {
        validate_channels(input_dim, channels)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(channels.len());
        let mut prev = input_dim;
        for &c in channels {
            layers.push(DenseLayer::new(prev, c, &mut rng));
            prev = c;
        }
        Ok(Self { layers, input_dim })
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimensions of each layer in order.
    pub fn channel_dims(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.out_dim()).collect()
    }

    /// Borrow of the layer stack.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable borrow of the layer stack, for weight restoration (see
    /// [`GcnNetwork::layers_mut`]).
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(DenseLayer::param_count).sum()
    }

    /// Forward pass returning every layer's embedding (ReLU outputs for
    /// hidden layers, raw logits last) — the `Mbase` attack surface of
    /// Table IV.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub fn forward_embeddings(&self, x: &DenseMatrix) -> Result<Vec<DenseMatrix>, NnError> {
        // Fused bias + ReLU epilogues; see GcnNetwork::forward_embeddings.
        let mut ws = Workspace::new();
        let mut embeddings: Vec<DenseMatrix> = Vec::with_capacity(self.layers.len());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let input = embeddings.last().unwrap_or(x);
            let out = layer.forward_fused(input, i != last, &mut ws)?;
            embeddings.push(out.output);
        }
        Ok(embeddings)
    }

    /// Forward pass returning only the final logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub fn logits(&self, x: &DenseMatrix) -> Result<DenseMatrix, NnError> {
        Ok(self
            .forward_embeddings(x)?
            .pop()
            .expect("network has at least one layer"))
    }

    /// Predicted class per node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub fn predict(&self, x: &DenseMatrix) -> Result<Vec<usize>, NnError> {
        Ok(ops::argmax_rows(&self.logits(x)?))
    }

    /// Trains the MLP full-batch with Adam on masked cross-entropy.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLabels`] for label/mask problems and
    /// [`NnError::Linalg`] for shape problems.
    pub fn fit(
        &mut self,
        x: &DenseMatrix,
        labels: &[usize],
        train_mask: &[usize],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, NnError> {
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut final_loss = f32::NAN;
        let last = self.layers.len() - 1;
        let mut ws = Workspace::new();
        for _ in 0..cfg.epochs {
            // Same discipline as GcnNetwork::fit: fused epilogues, and
            // input copies only when a dropout mask needs one.
            let mut inputs: Vec<FitInput> = Vec::with_capacity(self.layers.len());
            let mut caches: Vec<crate::DenseForward> = Vec::with_capacity(self.layers.len());
            let mut dropout_masks: Vec<Option<DenseMatrix>> = Vec::with_capacity(self.layers.len());
            for i in 0..self.layers.len() {
                let mut input = if cfg.dropout > 0.0 {
                    FitInput::Owned(if i == 0 {
                        ws.take_copy(x)
                    } else {
                        ws.take_copy(&caches[i - 1].output)
                    })
                } else if i == 0 {
                    FitInput::Features
                } else {
                    FitInput::PrevOutput
                };
                let mask = match &mut input {
                    FitInput::Owned(h) => apply_dropout(h, cfg.dropout, &mut rng, &mut ws),
                    _ => None, // dropout disabled
                };
                dropout_masks.push(mask);
                let cache = {
                    let prev = caches.last().map(|c: &crate::DenseForward| &c.output);
                    let h = input.resolve(x, prev);
                    self.layers[i].forward_fused(h, i != last, &mut ws)?
                };
                inputs.push(input);
                caches.push(cache);
            }
            let logits = &caches[last].output;
            let (loss_value, grad) = loss::masked_cross_entropy(logits, labels, train_mask)?;
            final_loss = loss_value;

            for layer in &mut self.layers {
                layer.weight_mut().zero_grad();
                layer.bias_mut().zero_grad();
            }
            let mut d = grad;
            for i in (0..self.layers.len()).rev() {
                let d_input = {
                    let prev = if i > 0 {
                        Some(&caches[i - 1].output)
                    } else {
                        None
                    };
                    let h = inputs[i].resolve(x, prev);
                    self.layers[i].backward_ws(h, &d, &mut ws)?
                };
                if i > 0 {
                    let mut d_masked = d_input;
                    if let Some(mask) = &dropout_masks[i] {
                        d_masked.hadamard_inplace(mask)?;
                    }
                    let next = ops::relu_backward(&caches[i - 1].output, &d_masked);
                    ws.give(d_masked);
                    ws.give(std::mem::replace(&mut d, next));
                } else {
                    ws.give(d_input);
                }
            }
            ws.give(d);

            opt.begin_step();
            for layer in &mut self.layers {
                opt.update(layer.weight_mut());
                opt.update(layer.bias_mut());
            }

            for cache in caches {
                ws.give(cache.output);
            }
            for input in inputs {
                if let FitInput::Owned(h) = input {
                    ws.give(h);
                }
            }
            for mask in dropout_masks.into_iter().flatten() {
                ws.give(mask);
            }
        }
        let logits = self.logits(x)?;
        let train_accuracy = loss::masked_accuracy(&logits, labels, train_mask)?;
        Ok(TrainReport {
            final_loss,
            train_accuracy,
            epochs: cfg.epochs,
        })
    }
}

fn validate_channels(input_dim: usize, channels: &[usize]) -> Result<(), NnError> {
    if input_dim == 0 {
        return Err(NnError::InvalidArchitecture {
            reason: "input dimension must be positive".into(),
        });
    }
    if channels.is_empty() {
        return Err(NnError::InvalidArchitecture {
            reason: "at least one layer is required".into(),
        });
    }
    if channels.contains(&0) {
        return Err(NnError::InvalidArchitecture {
            reason: "channel dimensions must be positive".into(),
        });
    }
    Ok(())
}

/// Applies inverted dropout in place when `p > 0`, returning the scaled
/// keep-mask for the backward pass (`None` when disabled). The mask is
/// drawn from `ws` so epochs recycle its allocation.
fn apply_dropout(
    h: &mut DenseMatrix,
    p: f32,
    rng: &mut impl Rng,
    ws: &mut Workspace,
) -> Option<DenseMatrix> {
    if p <= 0.0 {
        return None;
    }
    let keep = 1.0 - p;
    let mut mask = ws.take_for_overwrite(h.rows(), h.cols());
    for v in mask.as_mut_slice() {
        *v = if rng.gen::<f32>() < keep {
            1.0 / keep
        } else {
            0.0
        };
    }
    h.hadamard_inplace(&mask)
        .expect("same shape by construction");
    Some(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{normalization, Graph};

    /// A tiny two-cluster graph where structure matters: features of the
    /// two "bridge" nodes are ambiguous but their neighbourhoods
    /// disambiguate them.
    fn toy_problem() -> (CsrMatrix, DenseMatrix, Vec<usize>, Vec<usize>, Vec<usize>) {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3), // cluster A: 0-3
                (4, 5),
                (4, 6),
                (5, 6),
                (5, 7),
                (6, 7), // cluster B: 4-7
            ],
        )
        .unwrap();
        let adj = normalization::gcn_normalize(&g);
        let x = DenseMatrix::from_rows(&[
            &[1.0, 0.0],
            &[0.9, 0.1],
            &[1.0, 0.2],
            &[0.5, 0.5], // ambiguous
            &[0.0, 1.0],
            &[0.1, 0.9],
            &[0.2, 1.0],
            &[0.5, 0.5], // ambiguous
        ])
        .unwrap();
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let train = vec![0, 1, 4, 5];
        let test = vec![2, 3, 6, 7];
        (adj, x, labels, train, test)
    }

    #[test]
    fn rejects_invalid_architectures() {
        assert!(GcnNetwork::new(0, &[4], 0).is_err());
        assert!(GcnNetwork::new(4, &[], 0).is_err());
        assert!(GcnNetwork::new(4, &[4, 0, 2], 0).is_err());
        assert!(MlpNetwork::new(4, &[], 0).is_err());
    }

    #[test]
    fn param_count_matches_formula() {
        let net = GcnNetwork::new(10, &[8, 4], 0).unwrap();
        assert_eq!(net.param_count(), 10 * 8 + 8 + 8 * 4 + 4);
        let mlp = MlpNetwork::new(10, &[8, 4], 0).unwrap();
        assert_eq!(mlp.param_count(), net.param_count());
    }

    #[test]
    fn gcn_learns_toy_problem() {
        let (adj, x, labels, train, test) = toy_problem();
        let mut net = GcnNetwork::new(2, &[8, 2], 1).unwrap();
        let cfg = TrainConfig {
            epochs: 150,
            lr: 0.05,
            weight_decay: 1e-4,
            dropout: 0.0,
            seed: 1,
        };
        let report = net.fit(&adj, &x, &labels, &train, &cfg).unwrap();
        assert!(
            report.train_accuracy > 0.9,
            "train acc {}",
            report.train_accuracy
        );
        let logits = net.logits(&adj, &x).unwrap();
        let acc = loss::masked_accuracy(&logits, &labels, &test).unwrap();
        assert!(acc >= 0.75, "test acc {acc}");
    }

    #[test]
    fn training_reduces_loss() {
        let (adj, x, labels, train, _) = toy_problem();
        let mut net = GcnNetwork::new(2, &[8, 2], 2).unwrap();
        let short = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let first = net.fit(&adj, &x, &labels, &train, &short).unwrap();
        let long = TrainConfig {
            epochs: 100,
            ..TrainConfig::default()
        };
        let later = net.fit(&adj, &x, &labels, &train, &long).unwrap();
        assert!(later.final_loss < first.final_loss);
    }

    #[test]
    fn mlp_learns_separable_features() {
        let (_, x, labels, train, test) = toy_problem();
        let mut mlp = MlpNetwork::new(2, &[8, 2], 3).unwrap();
        let cfg = TrainConfig {
            epochs: 200,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        };
        let report = mlp.fit(&x, &labels, &train, &cfg).unwrap();
        assert!(report.train_accuracy == 1.0);
        // Ambiguous nodes (3, 7) may be wrong, but separable ones must win.
        let logits = mlp.logits(&x).unwrap();
        let acc = loss::masked_accuracy(&logits, &labels, &test).unwrap();
        assert!(acc >= 0.5, "test acc {acc}");
    }

    #[test]
    fn embeddings_have_expected_shapes() {
        let (adj, x, _, _, _) = toy_problem();
        let net = GcnNetwork::new(2, &[8, 4, 2], 0).unwrap();
        let embs = net.forward_embeddings(&adj, &x).unwrap();
        assert_eq!(embs.len(), 3);
        assert_eq!(embs[0].shape(), (8, 8));
        assert_eq!(embs[1].shape(), (8, 4));
        assert_eq!(embs[2].shape(), (8, 2));
        // Hidden embeddings are post-ReLU (non-negative); logits are not.
        assert!(embs[0].as_slice().iter().all(|&v| v >= 0.0));
        assert!(embs[1].as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn dropout_training_still_learns() {
        let (adj, x, labels, train, _) = toy_problem();
        let mut net = GcnNetwork::new(2, &[16, 2], 4).unwrap();
        let cfg = TrainConfig {
            epochs: 200,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.3,
            seed: 9,
        };
        let report = net.fit(&adj, &x, &labels, &train, &cfg).unwrap();
        assert!(
            report.train_accuracy >= 0.75,
            "train acc {}",
            report.train_accuracy
        );
    }

    #[test]
    fn fit_is_deterministic_under_seed() {
        let (adj, x, labels, train, _) = toy_problem();
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        let mut a = GcnNetwork::new(2, &[8, 2], 7).unwrap();
        let mut b = GcnNetwork::new(2, &[8, 2], 7).unwrap();
        a.fit(&adj, &x, &labels, &train, &cfg).unwrap();
        b.fit(&adj, &x, &labels, &train, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn predict_returns_one_class_per_node() {
        let (adj, x, _, _, _) = toy_problem();
        let net = GcnNetwork::new(2, &[4, 3], 0).unwrap();
        let preds = net.predict(&adj, &x).unwrap();
        assert_eq!(preds.len(), 8);
        assert!(preds.iter().all(|&c| c < 3));
    }
}
