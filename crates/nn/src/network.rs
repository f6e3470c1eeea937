use crate::{loss, Adam, GcnForward, GcnLayer, NnError};
use linalg::{ops, CsrMatrix, DenseMatrix, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The tensor layer `i` consumed during a fit epoch: its dropout-masked
/// copy on a dropout epoch (`dropped` then holds one per layer run so
/// far), else the features or the previous layer's output, borrowed —
/// with fused ReLU a hidden layer's output already *is* the next
/// layer's input.
fn fit_input<'a>(
    i: usize,
    x: &'a DenseMatrix,
    caches: &'a [GcnForward],
    dropped: &'a [(DenseMatrix, DenseMatrix)],
) -> &'a DenseMatrix {
    match dropped.get(i) {
        Some((masked, _)) => masked,
        None if i == 0 => x,
        None => &caches[i - 1].output,
    }
}

/// Training hyperparameters of [`Network::fit`].
///
/// `gnnvault`'s `Rectifier::fit` takes the same struct but trains
/// without dropout: it reads `epochs`, `lr` and `weight_decay` and
/// ignores `dropout` and `seed`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate; finite and positive.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Inverted-dropout probability on each layer input, in `[0, 1)`
    /// (0 disables).
    pub dropout: f32,
    /// RNG seed for dropout masks.
    pub seed: u64,
}

impl TrainConfig {
    /// Rejects values a fit would silently mis-train on: a dropout of 1
    /// or more zeroes every mask (only biases would train), a negative
    /// or NaN one disables dropout unasked, and a non-finite or
    /// non-positive learning rate poisons or freezes every weight.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTrainConfig`] naming the field.
    pub fn validate(&self) -> Result<(), NnError> {
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(NnError::InvalidTrainConfig {
                reason: format!("dropout must be in [0, 1), got {}", self.dropout),
            });
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(NnError::InvalidTrainConfig {
                reason: format!("lr must be finite and positive, got {}", self.lr),
            });
        }
        Ok(())
    }
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
/// for the original unprotected GNN (`porg`), the public backbone
/// (`pbb`) and, run without a propagation operator, the structure-free
/// "DNN" backbone of Table III.
///
/// Whether the network propagates is a property of the operator handed
/// to each call, not of the type: `Some(Â)` is a GCN, `None` an MLP over
/// the same weights.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<GcnLayer>,
    input_dim: usize,
}

impl Network {
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
        adj: Option<&CsrMatrix>,
        x: &DenseMatrix,
    ) -> Result<Vec<DenseMatrix>, NnError> {
        // Hidden activations come out of the fused forward already
        // ReLU-ed (applied in the layer's epilogue) — no separate
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
    pub fn logits(&self, adj: Option<&CsrMatrix>, x: &DenseMatrix) -> Result<DenseMatrix, NnError> {
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
    pub fn predict(&self, adj: Option<&CsrMatrix>, x: &DenseMatrix) -> Result<Vec<usize>, NnError> {
        Ok(ops::argmax_rows(&self.logits(adj, x)?))
    }

    /// Trains the network full-batch on the masked cross-entropy loss,
    /// propagating over `adj` when there is one.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTrainConfig`] for a `cfg` that
    /// [`TrainConfig::validate`] rejects, [`NnError::InvalidLabels`] for
    /// label/mask problems and [`NnError::Linalg`] for shape problems.
    pub fn fit(
        &mut self,
        adj: Option<&CsrMatrix>,
        x: &DenseMatrix,
        labels: &[usize],
        train_mask: &[usize],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, NnError> {
        cfg.validate()?;
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut final_loss = f32::NAN;
        let last = self.layers.len() - 1;
        // One workspace for the whole run: epoch N's activations,
        // gradients, and GEMM packing buffers are recycled as epoch
        // N+1's, so the steady state allocates nothing per step.
        // The backward pass multiplies by Âᵀ, which the operator builds
        // once and keeps. Build it now: the cache outlives this call,
        // and allocated inside the first backward pass it would sit
        // above the epoch buffers on the heap and keep their pages
        // resident after they are freed (vaultbench `rss_mb` +12 MiB).
        if let Some(adj) = adj {
            adj.transposed();
        }
        let mut ws = Workspace::new();
        for _ in 0..cfg.epochs {
            // Forward. Hidden layers fuse bias + ReLU into their output
            // epilogue, so with dropout off each layer borrows its
            // predecessor's output directly — no activation pass and no
            // input copies at all. Dropout epochs copy (the mask must
            // not corrupt the cached activation the backward reads).
            let mut caches: Vec<GcnForward> = Vec::with_capacity(self.layers.len());
            // Each layer's (masked input, mask); empty without dropout.
            let mut dropped: Vec<(DenseMatrix, DenseMatrix)> = Vec::new();
            for i in 0..self.layers.len() {
                if cfg.dropout > 0.0 {
                    let mut h = ws.take_copy(fit_input(i, x, &caches, &[]));
                    let mask = apply_dropout(&mut h, cfg.dropout, &mut rng, &mut ws);
                    dropped.push((h, mask));
                }
                let h = fit_input(i, x, &caches, &dropped);
                let cache = self.layers[i].forward_fused(adj, h, i != last, &mut ws)?;
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
            for i in (1..self.layers.len()).rev() {
                let h = fit_input(i, x, &caches, &dropped);
                let mut d_masked = self.layers[i].backward_ws(h, adj, &d, &mut ws)?;
                // Undo this layer's input dropout, then the previous
                // layer's ReLU (the post-activation output masks
                // identically to the pre-activation tensor).
                if let Some((_, mask)) = dropped.get(i) {
                    d_masked.hadamard_inplace(mask)?;
                }
                let next = ops::relu_backward(&caches[i - 1].output, &d_masked);
                ws.give(d_masked);
                ws.give(std::mem::replace(&mut d, next));
            }
            // Nothing reads the gradient of the features, so the input
            // layer accumulates its parameter gradients and stops.
            let h = fit_input(0, x, &caches, &dropped);
            self.layers[0].param_grads_ws(h, adj, &d, &mut ws)?;
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
            for (h, mask) in dropped {
                ws.give(h);
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

/// Applies inverted dropout with probability `p` in place, returning
/// the scaled keep-mask for the backward pass. The mask is drawn from
/// `ws` so epochs recycle its allocation.
fn apply_dropout(
    h: &mut DenseMatrix,
    p: f32,
    rng: &mut impl Rng,
    ws: &mut Workspace,
) -> DenseMatrix {
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
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{normalization, Graph};
    use proptest::prelude::*;

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
        assert!(Network::new(0, &[4], 0).is_err());
        assert!(Network::new(4, &[], 0).is_err());
        assert!(Network::new(4, &[4, 0, 2], 0).is_err());
    }

    #[test]
    fn param_count_matches_formula() {
        let net = Network::new(10, &[8, 4], 0).unwrap();
        assert_eq!(net.param_count(), 10 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    fn gcn_learns_toy_problem() {
        let (adj, x, labels, train, test) = toy_problem();
        let mut net = Network::new(2, &[8, 2], 1).unwrap();
        let cfg = TrainConfig {
            epochs: 150,
            lr: 0.05,
            weight_decay: 1e-4,
            dropout: 0.0,
            seed: 1,
        };
        let report = net.fit(Some(&adj), &x, &labels, &train, &cfg).unwrap();
        assert!(
            report.train_accuracy > 0.9,
            "train acc {}",
            report.train_accuracy
        );
        let logits = net.logits(Some(&adj), &x).unwrap();
        let acc = loss::masked_accuracy(&logits, &labels, &test).unwrap();
        assert!(acc >= 0.75, "test acc {acc}");
    }

    #[test]
    fn training_reduces_loss() {
        let (adj, x, labels, train, _) = toy_problem();
        let mut net = Network::new(2, &[8, 2], 2).unwrap();
        let short = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let first = net.fit(Some(&adj), &x, &labels, &train, &short).unwrap();
        let long = TrainConfig {
            epochs: 100,
            ..TrainConfig::default()
        };
        let later = net.fit(Some(&adj), &x, &labels, &train, &long).unwrap();
        assert!(later.final_loss < first.final_loss);
    }

    #[test]
    fn mlp_learns_separable_features() {
        let (_, x, labels, train, test) = toy_problem();
        let mut mlp = Network::new(2, &[8, 2], 3).unwrap();
        let cfg = TrainConfig {
            epochs: 200,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        };
        let report = mlp.fit(None, &x, &labels, &train, &cfg).unwrap();
        assert!(report.train_accuracy == 1.0);
        // Ambiguous nodes (3, 7) may be wrong, but separable ones must win.
        let logits = mlp.logits(None, &x).unwrap();
        let acc = loss::masked_accuracy(&logits, &labels, &test).unwrap();
        assert!(acc >= 0.5, "test acc {acc}");
    }

    #[test]
    fn embeddings_have_expected_shapes() {
        let (adj, x, _, _, _) = toy_problem();
        let net = Network::new(2, &[8, 4, 2], 0).unwrap();
        for op in [Some(&adj), None] {
            let embs = net.forward_embeddings(op, &x).unwrap();
            assert_eq!(embs.len(), 3);
            assert_eq!(embs[0].shape(), (8, 8));
            assert_eq!(embs[1].shape(), (8, 4));
            assert_eq!(embs[2].shape(), (8, 2));
            // Hidden embeddings are post-ReLU (non-negative); logits are not.
            assert!(embs[0].as_slice().iter().all(|&v| v >= 0.0));
            assert!(embs[1].as_slice().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn dropout_training_still_learns() {
        let (adj, x, labels, train, _) = toy_problem();
        let mut net = Network::new(2, &[16, 2], 4).unwrap();
        let cfg = TrainConfig {
            epochs: 200,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.3,
            seed: 9,
        };
        let report = net.fit(Some(&adj), &x, &labels, &train, &cfg).unwrap();
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
        let mut a = Network::new(2, &[8, 2], 7).unwrap();
        let mut b = Network::new(2, &[8, 2], 7).unwrap();
        a.fit(Some(&adj), &x, &labels, &train, &cfg).unwrap();
        b.fit(Some(&adj), &x, &labels, &train, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn predict_returns_one_class_per_node() {
        let (adj, x, _, _, _) = toy_problem();
        let net = Network::new(2, &[4, 3], 0).unwrap();
        let preds = net.predict(Some(&adj), &x).unwrap();
        assert_eq!(preds.len(), 8);
        assert!(preds.iter().all(|&c| c < 3));
    }

    /// `fit` refuses a configuration it would silently mis-train on,
    /// before touching a weight.
    #[test]
    fn fit_rejects_out_of_range_hyperparameters() {
        let (adj, x, labels, train, _) = toy_problem();
        let fresh = Network::new(2, &[4, 2], 0).unwrap();
        let cfg = |dropout, lr| TrainConfig {
            epochs: 1,
            dropout,
            lr,
            ..TrainConfig::default()
        };
        for (field, bad) in [
            ("dropout", cfg(1.0, 0.01)),
            ("dropout", cfg(1.5, 0.01)),
            ("dropout", cfg(-0.1, 0.01)),
            ("dropout", cfg(f32::NAN, 0.01)),
            ("lr", cfg(0.0, 0.0)),
            ("lr", cfg(0.0, -0.01)),
            ("lr", cfg(0.0, f32::NAN)),
            ("lr", cfg(0.0, f32::INFINITY)),
        ] {
            let mut net = fresh.clone();
            match net.fit(Some(&adj), &x, &labels, &train, &bad) {
                Err(NnError::InvalidTrainConfig { reason }) => {
                    assert!(reason.starts_with(field), "{reason}")
                }
                other => panic!("{bad:?}: {other:?}"),
            }
            assert_eq!(net, fresh);
        }
        // The range is open at the top: dropping almost everything is
        // a legitimate, if unwise, request.
        let mut net = fresh.clone();
        assert!(net.fit(None, &x, &labels, &train, &cfg(0.99, 0.01)).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The oracle for the no-operator path: an identity operator
        /// multiplies by exactly 1 and adds exactly 0, so a network
        /// fitted over it must agree with one fitted over nothing in
        /// every bit — loss, weights, biases, Adam moments, embeddings —
        /// and draw the same dropout stream.
        #[test]
        fn no_operator_equals_identity_operator(
            n in 2usize..40,
            input_dim in 1usize..24,
            channels in collection::vec(1usize..20, 1..4),
            dropout_on in any::<bool>(),
            seed in 0u64..1000,
        ) {
            let x = crate::glorot_uniform(n, input_dim, &mut StdRng::seed_from_u64(seed));
            let classes = *channels.last().unwrap();
            let labels: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % classes).collect();
            let train: Vec<usize> = (0..n).step_by(2).collect();
            let identity: Vec<(usize, usize, f32)> = (0..n).map(|i| (i, i, 1.0)).collect();
            let identity = CsrMatrix::from_triplets(n, n, &identity).unwrap();
            let cfg = TrainConfig {
                epochs: 5,
                lr: 0.02,
                weight_decay: 5e-4,
                dropout: if dropout_on { 0.5 } else { 0.0 },
                seed,
            };

            let mut plain = Network::new(input_dim, &channels, seed).unwrap();
            let mut over_identity = plain.clone();
            let a = plain.fit(None, &x, &labels, &train, &cfg).unwrap();
            let b = over_identity.fit(Some(&identity), &x, &labels, &train, &cfg).unwrap();

            prop_assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
            prop_assert_eq!(a.train_accuracy, b.train_accuracy);
            prop_assert_eq!(&plain, &over_identity);
            prop_assert_eq!(
                plain.forward_embeddings(None, &x).unwrap(),
                plain.forward_embeddings(Some(&identity), &x).unwrap()
            );
        }
    }
}
