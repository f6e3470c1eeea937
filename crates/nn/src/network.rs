use crate::conv::ConvForward;
use crate::features::{Features, Input, SparseFeatures};
use crate::optim::Adam;
use crate::{loss, ConvKind, ConvLayer, NnError};
use linalg::{ops, CsrMatrix, DenseMatrix, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training hyperparameters of [`Network::fit`].
///
/// `gnnvault`'s `Rectifier::fit` takes the same struct, validates it,
/// and fits through [`Network::fit`] at dropout 0: the rectifier has
/// never applied dropout.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate; finite and positive.
    pub lr: f32,
    /// L2 weight decay; finite and non-negative.
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
    /// or NaN one disables dropout unasked, a non-finite or
    /// non-positive learning rate poisons or freezes every weight, and
    /// so does a non-finite weight decay (it enters every gradient as
    /// `grad + weight_decay · value`), while a negative one pushes
    /// weights away from zero.
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
        if !(self.weight_decay.is_finite() && self.weight_decay >= 0.0) {
            return Err(NnError::InvalidTrainConfig {
                reason: format!(
                    "weight_decay must be finite and non-negative, got {}",
                    self.weight_decay
                ),
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Cross-entropy loss after the final epoch.
    pub final_loss: f32,
    /// Accuracy on the training mask after the final epoch.
    pub train_accuracy: f32,
    /// Number of epochs executed.
    pub epochs: usize,
}

/// A stack of [`ConvLayer`]s with ReLU between layers (none after the
/// last), trained full-batch with Adam — the one container behind the
/// original unprotected GNN (`porg`), the public backbone (`pbb`), the
/// structure-free "DNN" backbone of Table III and the private
/// rectifier.
///
/// Every call takes a list of input matrices, the *taps*, and each
/// layer has a fixed wiring over them: layer 0's input is the
/// horizontal concatenation of its taps, and every later layer's is
/// the previous layer's activation followed by its taps. An input of
/// one part is borrowed, never copied. [`Network::new`] builds the
/// plain chain — layer 0 reads tap 0 (the features), every later layer
/// reads only its predecessor — so its callers pass a one-element list
/// (`std::slice::from_ref(&x)`). [`Network::wired`] builds any other
/// wiring, e.g. the rectifier's over the backbone's embeddings.
///
/// Whether the network propagates is a property of the operator handed
/// to each call, not of the type: `Some(Â)` is a GNN, `None` runs GCN
/// layers fully connected (an MLP over the same weights).
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    layers: Vec<ConvLayer>,
    /// The taps each layer's input concatenates (after the previous
    /// activation, for every layer but the first).
    taps: Vec<Vec<usize>>,
}

/// A layer input that is not a borrow: a concatenation, a
/// dropout-masked copy, or both, with the mask the backward pass
/// applies to its gradient.
struct OwnedInput {
    input: DenseMatrix,
    mask: Option<DenseMatrix>,
}

/// What one forward pass leaves for the backward pass, per layer: the
/// forward cache, whose output is the layer's activation (hidden layers
/// come out of the fused epilogue already ReLU-ed), and the owned input
/// when the layer did not read a borrow.
struct Pass {
    caches: Vec<ConvForward>,
    owned: Vec<Option<OwnedInput>>,
}

impl Pass {
    /// Hands every buffer of the pass back to `ws` for the next epoch.
    fn recycle(self, ws: &mut Workspace) {
        for buf in self.caches.into_iter().flat_map(ConvForward::into_buffers) {
            ws.give(buf);
        }
        for owned in self.owned.into_iter().flatten() {
            ws.give(owned.input);
            if let Some(mask) = owned.mask {
                ws.give(mask);
            }
        }
    }
}

/// The tensor layer `i` read in `pass`: its owned input when it has
/// one, else the one part its wiring names, borrowed — with fused ReLU
/// a hidden layer's output already *is* the next layer's input.
fn layer_input<'a>(
    taps: &[Vec<usize>],
    i: usize,
    inputs: &'a [DenseMatrix],
    pass: &'a Pass,
) -> &'a DenseMatrix {
    match &pass.owned[i] {
        Some(owned) => &owned.input,
        None if i > 0 => pass.caches[i - 1].output(),
        None => &inputs[taps[0][0]],
    }
}

impl Network {
    /// Builds a GCN chain mapping `input_dim` features through the given
    /// output `channels` (e.g. `&[128, 32, 7]` for the paper's M1).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] when `channels` is empty
    /// or contains a zero dimension.
    pub fn new(input_dim: usize, channels: &[usize], seed: u64) -> Result<Self, NnError> {
        let mut taps = vec![Vec::new(); channels.len()];
        if let Some(first) = taps.first_mut() {
            first.push(0);
        }
        Self::wired(ConvKind::Gcn, &[input_dim], channels, taps, seed)
    }

    /// Builds a network of `conv` layers with output `channels` over
    /// taps of widths `tap_dims`, where `taps[i]` lists the taps layer
    /// `i` reads (see the type docs). Layers are Glorot-initialized in
    /// order from one `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] when `channels` is
    /// empty or has a zero, a tap width is zero, `taps` does not have
    /// one entry per layer, the first layer reads no tap, or a tap
    /// index is out of range.
    pub fn wired(
        conv: ConvKind,
        tap_dims: &[usize],
        channels: &[usize],
        taps: Vec<Vec<usize>>,
        seed: u64,
    ) -> Result<Self, NnError> {
        validate_wiring(tap_dims, channels, &taps)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = Self::input_widths(tap_dims, channels, &taps)
            .into_iter()
            .zip(channels)
            .map(|(in_dim, &out)| ConvLayer::new(conv, in_dim, out, &mut rng))
            .collect();
        Ok(Self { layers, taps })
    }

    /// Input width of each layer of a network wired as in
    /// [`Network::wired`]: the previous layer's width (after the first)
    /// plus the widths of the taps the layer reads.
    ///
    /// # Panics
    ///
    /// Panics if `taps` names a tap `tap_dims` does not have, or has
    /// more entries than `channels`.
    pub fn input_widths(tap_dims: &[usize], channels: &[usize], taps: &[Vec<usize>]) -> Vec<usize> {
        taps.iter()
            .enumerate()
            .map(|(i, layer_taps)| {
                let prev = if i == 0 { 0 } else { channels[i - 1] };
                prev + layer_taps.iter().map(|&t| tap_dims[t]).sum::<usize>()
            })
            .collect()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output dimensions of each layer in order.
    pub fn channel_dims(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.out_dim()).collect()
    }

    /// The taps each layer reads (see the type docs).
    pub fn taps(&self) -> &[Vec<usize>] {
        &self.taps
    }

    /// Borrow of the layer stack.
    pub fn layers(&self) -> &[ConvLayer] {
        &self.layers
    }

    /// Mutable borrow of the layer stack, for weight restoration (e.g.
    /// rebuilding a network from a serialized snapshot). Layer *shapes*
    /// must not be changed through this borrow — only parameter values.
    pub fn layers_mut(&mut self) -> &mut [ConvLayer] {
        &mut self.layers
    }

    /// Total trainable parameter count (the `θ` columns of Table II).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(ConvLayer::param_count).sum()
    }

    /// Forward pass over the taps `inputs`, returning every layer's
    /// embedding in order: ReLU outputs for hidden layers and raw
    /// logits for the last layer.
    ///
    /// `inputs` is a `&DenseMatrix` (one tap), a `&[DenseMatrix]` or a
    /// [`NodeFeatures`](crate::NodeFeatures). Given the latter with CSR
    /// rows, a GCN first layer reading tap 0 alone multiplies those
    /// rows, with the same bits as the dense matrix.
    ///
    /// A backbone's per-layer embeddings are exactly the intermediate
    /// data the rectifier taps (Fig. 3) and the attacker observes in
    /// the untrusted world (§V-D).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] when the wiring reads a
    /// tap `inputs` does not have (or a GraphSAGE/GAT layer gets no
    /// operator), and [`NnError::Linalg`] when the inputs or `adj` have
    /// inconsistent shapes.
    pub fn forward_embeddings<'a>(
        &self,
        adj: Option<&CsrMatrix>,
        inputs: impl Into<Input<'a>>,
    ) -> Result<Vec<DenseMatrix>, NnError> {
        // The workspace recycles GEMM packing and projection scratch
        // across layers.
        let pass = self.forward_pass(adj, inputs.into(), None, None, &mut Workspace::new())?;
        Ok(pass
            .caches
            .into_iter()
            .map(ConvForward::into_output)
            .collect())
    }

    /// Forward pass returning only the final logits.
    fn logits(
        &self,
        adj: Option<&CsrMatrix>,
        inputs: &[DenseMatrix],
    ) -> Result<DenseMatrix, NnError> {
        Ok(self
            .forward_embeddings(adj, inputs)?
            .pop()
            .expect("network has at least one layer"))
    }

    /// Predicted class per node (argmax of logits).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward_embeddings`].
    pub fn predict(
        &self,
        adj: Option<&CsrMatrix>,
        inputs: &[DenseMatrix],
    ) -> Result<Vec<usize>, NnError> {
        Ok(ops::argmax_rows(&self.logits(adj, inputs)?))
    }

    /// The one forward pass: each layer's input resolved per the wiring
    /// (a borrow when it is one part, else a concatenation drawn from
    /// `ws`), dropout-masked when `dropout` is given, then run through
    /// the layer's fused forward (bias and hidden-layer ReLU in the
    /// output epilogue — no activation pass and no input copy). With
    /// `first`, a GCN first layer reads those sparse features instead;
    /// without it and without dropout, it reads `input`'s CSR rows when
    /// it reads tap 0 alone.
    fn forward_pass(
        &self,
        adj: Option<&CsrMatrix>,
        input: Input<'_>,
        mut dropout: Option<(f32, &mut StdRng)>,
        mut first: Option<&mut SparseFeatures>,
        ws: &mut Workspace,
    ) -> Result<Pass, NnError> {
        let inputs = input.taps;
        let prepared = (input.rows)
            .filter(|_| dropout.is_none() && self.taps[0] == [0])
            .map(|rows| Features::Sparse { rows, cols: None });
        if let Some(t) = self.taps.iter().flatten().find(|&&t| t >= inputs.len()) {
            return Err(NnError::InvalidArchitecture {
                reason: format!("a layer reads input {t}, but {} were given", inputs.len()),
            });
        }
        let last = self.layers.len() - 1;
        let mut pass = Pass {
            caches: Vec::with_capacity(self.layers.len()),
            owned: Vec::with_capacity(self.layers.len()),
        };
        for (i, layer) in self.layers.iter().enumerate() {
            if let (0, ConvLayer::Gcn(gcn)) = (i, layer) {
                let sparse = match first.as_deref_mut() {
                    Some(x) => {
                        if let Some((p, rng)) = dropout.as_mut() {
                            x.drop_out(*p, &mut **rng);
                        }
                        Some(x.features())
                    }
                    None => prepared,
                };
                if let Some(x) = sparse {
                    let cache = gcn.forward_fused(adj, x, i != last, ws)?;
                    pass.owned.push(None);
                    pass.caches.push(ConvForward::Gcn(cache));
                    continue;
                }
            }
            let parts: Vec<&DenseMatrix> = (pass.caches.last().map(ConvForward::output))
                .into_iter()
                .chain(self.taps[i].iter().map(|&t| &inputs[t]))
                .collect();
            let owned = match parts[..] {
                // Dropout must not corrupt a tensor someone else owns.
                [one] => dropout.is_some().then(|| ws.take_copy(one)),
                _ => {
                    let cols = parts.iter().map(|p| p.cols()).sum();
                    let mut concat = ws.take_for_overwrite(parts[0].rows(), cols);
                    DenseMatrix::hconcat_into(&parts, &mut concat)?;
                    Some(concat)
                }
            };
            // Nothing reads the first layer's input gradient, so its
            // dropout keeps no mask.
            pass.owned.push(owned.map(|mut input| {
                let mask = dropout.as_mut().and_then(|(p, rng)| {
                    apply_dropout(&mut input, *p, &mut **rng, (i > 0).then_some(&mut *ws))
                });
                OwnedInput { input, mask }
            }));
            let input = layer_input(&self.taps, i, inputs, &pass);
            let cache = layer.forward_fused(adj, input, i != last, ws)?;
            pass.caches.push(cache);
        }
        Ok(pass)
    }

    /// Trains the network full-batch on the masked cross-entropy loss
    /// over the taps `inputs`, propagating over `adj` when there is one.
    /// Taps are constants: no gradient flows into them, so the first
    /// layer accumulates its parameter gradients and stops. A GCN first
    /// layer reading one mostly-zero tap (bag-of-words features) trains
    /// on it as CSR, bit-identically and in time proportional to its
    /// stored entries.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTrainConfig`] for a `cfg` that
    /// [`TrainConfig::validate`] rejects, [`NnError::InvalidLabels`] for
    /// label/mask problems, and otherwise the conditions of
    /// [`Network::forward_embeddings`].
    pub fn fit(
        &mut self,
        adj: Option<&CsrMatrix>,
        inputs: &[DenseMatrix],
        labels: &[usize],
        train_mask: &[usize],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, NnError> {
        cfg.validate()?;
        let first = SparseFeatures::for_first_layer(&self.layers[0], &self.taps[0], inputs);
        self.fit_on(adj, inputs, first, labels, train_mask, cfg)
    }

    /// [`Network::fit`] with its first-layer arm chosen: sparse
    /// features, or `None` for the dense input.
    fn fit_on(
        &mut self,
        adj: Option<&CsrMatrix>,
        inputs: &[DenseMatrix],
        mut first: Option<SparseFeatures>,
        labels: &[usize],
        train_mask: &[usize],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, NnError> {
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut final_loss = f32::NAN;
        // One workspace for the whole run: epoch N's activations,
        // concatenations, gradients, and GEMM packing buffers are
        // recycled as epoch N+1's, so the steady state allocates nothing
        // per step.
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
            let dropout = (cfg.dropout > 0.0).then_some((cfg.dropout, &mut rng));
            let pass = self.forward_pass(adj, inputs.into(), dropout, first.as_mut(), &mut ws)?;
            let logits = pass.caches[pass.caches.len() - 1].output();
            let (loss_value, grad) = loss::masked_cross_entropy(logits, labels, train_mask)?;
            final_loss = loss_value;

            // Backward.
            let Network { layers, taps } = self;
            for param in layers.iter_mut().flat_map(ConvLayer::params_mut) {
                param.zero_grad();
            }
            let mut d = grad;
            for i in (1..layers.len()).rev() {
                let input = layer_input(taps, i, inputs, &pass);
                let mut d_input =
                    layers[i].backward_ws(&pass.caches[i], input, adj, &d, &mut ws)?;
                // Undo this layer's input dropout, keep the columns of
                // the previous activation (it leads the input; the taps
                // after it are frozen), then undo the previous layer's
                // ReLU (the post-activation output masks identically to
                // the pre-activation tensor).
                if let Some(mask) = pass.owned[i].as_ref().and_then(|o| o.mask.as_ref()) {
                    d_input.hadamard_inplace(mask)?;
                }
                let prev = pass.caches[i - 1].output();
                if !taps[i].is_empty() {
                    let d_prev = d_input.slice_cols(0, prev.cols())?;
                    ws.give(std::mem::replace(&mut d_input, d_prev));
                }
                let next = ops::relu_backward(prev, &d_input);
                ws.give(d_input);
                ws.give(std::mem::replace(&mut d, next));
            }
            match (&mut layers[0], &first) {
                (ConvLayer::Gcn(gcn), Some(x)) => {
                    gcn.param_grads_ws(x.features(), adj, &d, &mut ws)?
                }
                (layer, _) => {
                    let input = layer_input(taps, 0, inputs, &pass);
                    layer.param_grads_ws(&pass.caches[0], input, adj, &d, &mut ws)?
                }
            }
            ws.give(d);

            // Update.
            opt.begin_step();
            for param in layers.iter_mut().flat_map(ConvLayer::params_mut) {
                opt.update(param);
            }
            pass.recycle(&mut ws);
        }
        // The closing pass runs dense. A sparse one left glibc's mmap
        // threshold below the packing buffers a fresh `Workspace` takes
        // per dense forward call (15.5 MB on Cora), which then paid page
        // faults on every request (vaultbench `cold_single` p50 +12 %).
        let pass = self.forward_pass(adj, inputs.into(), None, None, &mut ws)?;
        let logits = pass.caches[pass.caches.len() - 1].output();
        let train_accuracy = loss::masked_accuracy(logits, labels, train_mask)?;
        Ok(TrainReport {
            final_loss,
            train_accuracy,
            epochs: cfg.epochs,
        })
    }
}

fn validate_wiring(
    tap_dims: &[usize],
    channels: &[usize],
    taps: &[Vec<usize>],
) -> Result<(), NnError> {
    let invalid = |reason: String| Err(NnError::InvalidArchitecture { reason });
    if tap_dims.contains(&0) {
        return invalid("input dimension must be positive".into());
    }
    if channels.is_empty() {
        return invalid("at least one layer is required".into());
    }
    if channels.contains(&0) {
        return invalid("channel dimensions must be positive".into());
    }
    if taps.len() != channels.len() {
        return invalid(format!(
            "{} layers but {} tap lists",
            channels.len(),
            taps.len()
        ));
    }
    if taps[0].is_empty() {
        return invalid("the first layer must read at least one input".into());
    }
    if let Some(t) = taps.iter().flatten().find(|&&t| t >= tap_dims.len()) {
        return invalid(format!(
            "tap {t} out of range for {} inputs",
            tap_dims.len()
        ));
    }
    Ok(())
}

/// One inverted-dropout draw at keep probability `keep`: the factor
/// `1 / keep` for a kept element, `0` for a dropped one.
pub(crate) fn dropout_scale(keep: f32, rng: &mut impl Rng) -> f32 {
    if rng.gen::<f32>() < keep {
        1.0 / keep
    } else {
        0.0
    }
}

/// Applies inverted dropout with probability `p` to `h` in place, one
/// [`dropout_scale`] per element in row-major order. Given `ws`, it
/// also returns the scaled keep-mask for the backward pass, drawn from
/// `ws` so epochs recycle its allocation.
fn apply_dropout(
    h: &mut DenseMatrix,
    p: f32,
    rng: &mut impl Rng,
    ws: Option<&mut Workspace>,
) -> Option<DenseMatrix> {
    let keep = 1.0 - p;
    let Some(ws) = ws else {
        for v in h.as_mut_slice() {
            *v *= dropout_scale(keep, rng);
        }
        return None;
    };
    let mut mask = ws.take_for_overwrite(h.rows(), h.cols());
    for (v, m) in h.as_mut_slice().iter_mut().zip(mask.as_mut_slice()) {
        *m = dropout_scale(keep, rng);
        *v *= *m;
    }
    Some(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{normalization, Graph};
    use proptest::prelude::*;
    use std::slice::from_ref;

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
        let report = net
            .fit(Some(&adj), from_ref(&x), &labels, &train, &cfg)
            .unwrap();
        assert!(
            report.train_accuracy > 0.9,
            "train acc {}",
            report.train_accuracy
        );
        let logits = net.logits(Some(&adj), from_ref(&x)).unwrap();
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
        let first = net
            .fit(Some(&adj), from_ref(&x), &labels, &train, &short)
            .unwrap();
        let long = TrainConfig {
            epochs: 100,
            ..TrainConfig::default()
        };
        let later = net
            .fit(Some(&adj), from_ref(&x), &labels, &train, &long)
            .unwrap();
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
        let report = mlp.fit(None, from_ref(&x), &labels, &train, &cfg).unwrap();
        assert!(report.train_accuracy == 1.0);
        // Ambiguous nodes (3, 7) may be wrong, but separable ones must win.
        let logits = mlp.logits(None, from_ref(&x)).unwrap();
        let acc = loss::masked_accuracy(&logits, &labels, &test).unwrap();
        assert!(acc >= 0.5, "test acc {acc}");
    }

    #[test]
    fn embeddings_have_expected_shapes() {
        let (adj, x, _, _, _) = toy_problem();
        let net = Network::new(2, &[8, 4, 2], 0).unwrap();
        for op in [Some(&adj), None] {
            let embs = net.forward_embeddings(op, from_ref(&x)).unwrap();
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
        let report = net
            .fit(Some(&adj), from_ref(&x), &labels, &train, &cfg)
            .unwrap();
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
        a.fit(Some(&adj), from_ref(&x), &labels, &train, &cfg)
            .unwrap();
        b.fit(Some(&adj), from_ref(&x), &labels, &train, &cfg)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn predict_returns_one_class_per_node() {
        let (adj, x, _, _, _) = toy_problem();
        let net = Network::new(2, &[4, 3], 0).unwrap();
        let preds = net.predict(Some(&adj), from_ref(&x)).unwrap();
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
        let decay = |weight_decay| TrainConfig {
            weight_decay,
            ..cfg(0.0, 0.01)
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
            ("weight_decay", decay(f32::NAN)),
            ("weight_decay", decay(f32::INFINITY)),
            ("weight_decay", decay(f32::NEG_INFINITY)),
            ("weight_decay", decay(-5e-4)),
        ] {
            let mut net = fresh.clone();
            match net.fit(Some(&adj), from_ref(&x), &labels, &train, &bad) {
                Err(NnError::InvalidTrainConfig { reason }) => {
                    assert!(reason.starts_with(field), "{reason}")
                }
                other => panic!("{bad:?}: {other:?}"),
            }
            assert_eq!(net, fresh);
        }
        // The range is open at the top: dropping almost everything is
        // a legitimate, if unwise, request. No decay at all is allowed.
        let mut net = fresh.clone();
        assert!(net
            .fit(None, from_ref(&x), &labels, &train, &cfg(0.99, 0.01))
            .is_ok());
        assert!(net
            .fit(None, from_ref(&x), &labels, &train, &decay(0.0))
            .is_ok());
    }

    /// Bag-of-words-like features: `n × width`, about 8 % non-zero,
    /// with empty rows and columns, and a ring graph over the nodes.
    fn sparse_problem(n: usize, width: usize) -> (CsrMatrix, DenseMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(11);
        let x = DenseMatrix::from_fn(n, width, |r, c| {
            let on = r % 7 != 3 && c % 9 != 4 && rng.gen::<f32>() < 0.09;
            if on {
                rng.gen::<f32>() * 2.0 - 0.5
            } else {
                0.0
            }
        });
        let ring: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let adj = normalization::gcn_normalize(&Graph::from_edges(n, &ring).unwrap());
        let labels = (0..n).map(|i| (i * 5 + i / 3) % 3).collect();
        (adj, x, labels)
    }

    /// A fit whose first layer reads sparse features matches the dense
    /// arm in every bit — loss, weights, biases and Adam moments, at
    /// dropout 0.5 — with and without an operator. Equal later layers
    /// also show that they drew the same dropout masks: the sparse arm
    /// consumed the dense arm's stream for the first layer.
    #[test]
    fn sparse_first_layer_fit_is_bit_identical_to_the_dense_arm() {
        // Wider than one KC block of k both ways (features forward,
        // nodes backward).
        let (adj, x, labels) = sparse_problem(300, 600);
        let train: Vec<usize> = (0..300).step_by(3).collect();
        let cfg = TrainConfig {
            epochs: 4,
            dropout: 0.5,
            seed: 3,
            ..TrainConfig::default()
        };
        let fresh = Network::new(600, &[16, 8, 3], 5).unwrap();
        let first =
            || SparseFeatures::for_first_layer(&fresh.layers[0], &fresh.taps[0], from_ref(&x));
        assert!(first().is_some(), "the features must take the sparse arm");
        for op in [Some(&adj), None] {
            let (mut sparse, mut dense) = (fresh.clone(), fresh.clone());
            let a = sparse
                .fit_on(op, from_ref(&x), first(), &labels, &train, &cfg)
                .unwrap();
            let b = dense
                .fit_on(op, from_ref(&x), None, &labels, &train, &cfg)
                .unwrap();
            assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
            assert_eq!(a.train_accuracy, b.train_accuracy);
            // `Debug` prints every f32 so that distinct bits differ.
            assert_eq!(format!("{sparse:?}"), format!("{dense:?}"));
            assert_ne!(sparse, fresh);
        }
    }

    /// A first layer reading two taps is a chain over their
    /// concatenation: same Glorot draws, same forward, same fit — with
    /// dropout masking the concatenation — bit for bit.
    #[test]
    fn first_layer_concat_equals_a_chain_over_the_concatenated_taps() {
        let (adj, x, labels, train, _) = toy_problem();
        let extra = crate::init::glorot_uniform(8, 3, &mut StdRng::seed_from_u64(1));
        let mut joined = DenseMatrix::zeros(8, 5);
        DenseMatrix::hconcat_into(&[&x, &extra], &mut joined).unwrap();
        let mut wired =
            Network::wired(ConvKind::Gcn, &[2, 3], &[6, 2], vec![vec![0, 1], vec![]], 4).unwrap();
        let mut chain = Network::new(5, &[6, 2], 4).unwrap();
        assert_eq!(wired.layers(), chain.layers());
        let taps = [x, extra];
        let cfg = TrainConfig {
            epochs: 12,
            dropout: 0.5,
            seed: 2,
            ..TrainConfig::default()
        };
        let a = wired.fit(Some(&adj), &taps, &labels, &train, &cfg).unwrap();
        let b = chain
            .fit(Some(&adj), from_ref(&joined), &labels, &train, &cfg)
            .unwrap();
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
        assert_eq!(wired.layers(), chain.layers());
        assert_eq!(
            wired.forward_embeddings(Some(&adj), &taps).unwrap(),
            chain
                .forward_embeddings(Some(&adj), from_ref(&joined))
                .unwrap()
        );
    }

    /// Gradients reach the first layer through later layers whose input
    /// is the previous activation concatenated with taps.
    #[test]
    fn gradient_flows_through_concatenated_inputs() {
        let (adj, x, labels, train, _) = toy_problem();
        let tap = crate::init::glorot_uniform(8, 3, &mut StdRng::seed_from_u64(6));
        let taps = [x, tap];
        let wiring = vec![vec![0], vec![1], vec![0, 1]];
        let mut net = Network::wired(ConvKind::Gcn, &[2, 3], &[5, 4, 2], wiring, 9).unwrap();
        assert_eq!(
            net.layers()
                .iter()
                .map(ConvLayer::in_dim)
                .collect::<Vec<_>>(),
            [2, 5 + 3, 4 + 2 + 3]
        );
        // An Adam step is at most ~lr (1e-38 here): the epoch fills the
        // gradient accumulators and leaves the weights where they were.
        let still = TrainConfig {
            epochs: 1,
            lr: f32::MIN_POSITIVE,
            weight_decay: 0.0,
            ..TrainConfig::default()
        };
        net.fit(Some(&adj), &taps, &labels, &train, &still).unwrap();
        let loss_at = |net: &Network| {
            let logits = net.logits(Some(&adj), &taps).unwrap();
            loss::masked_cross_entropy(&logits, &labels, &train)
                .unwrap()
                .0
        };
        fn weight(net: &mut Network) -> &mut crate::Param {
            net.layers_mut()[0].params_mut().swap_remove(0)
        }
        let eps = 1e-3f32;
        for (r, c) in [(0, 0), (1, 3)] {
            let analytic = weight(&mut net).grad.get(r, c);
            let orig = weight(&mut net).value.get(r, c);
            weight(&mut net).value.set(r, c, orig + eps);
            let plus = loss_at(&net);
            weight(&mut net).value.set(r, c, orig - eps);
            let minus = loss_at(&net);
            weight(&mut net).value.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(0.05),
                "dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn wiring_is_validated() {
        let wired = |taps| Network::wired(ConvKind::Gcn, &[4, 3], &[4, 2], taps, 0);
        assert!(wired(vec![vec![0], vec![1]]).is_ok());
        // One tap list per layer, a first layer that reads something,
        // and taps that exist.
        for bad in [vec![vec![0]], vec![vec![], vec![1]], vec![vec![0], vec![2]]] {
            assert!(
                matches!(wired(bad.clone()), Err(NnError::InvalidArchitecture { .. })),
                "{bad:?}"
            );
        }
        // A call handing fewer inputs than the wiring reads is refused
        // typed, not with an out-of-bounds panic.
        let (adj, x, labels, train, _) = toy_problem();
        let mut net =
            Network::wired(ConvKind::Gcn, &[2, 2], &[4, 2], vec![vec![0], vec![1]], 0).unwrap();
        assert!(matches!(
            net.forward_embeddings(Some(&adj), from_ref(&x)),
            Err(NnError::InvalidArchitecture { .. })
        ));
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        assert!(matches!(
            net.fit(Some(&adj), from_ref(&x), &labels, &train, &cfg),
            Err(NnError::InvalidArchitecture { .. })
        ));
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
            let x = crate::init::glorot_uniform(n, input_dim, &mut StdRng::seed_from_u64(seed));
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
            let a = plain.fit(None, from_ref(&x), &labels, &train, &cfg).unwrap();
            let b = over_identity.fit(Some(&identity), from_ref(&x), &labels, &train, &cfg).unwrap();

            prop_assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
            prop_assert_eq!(a.train_accuracy, b.train_accuracy);
            prop_assert_eq!(&plain, &over_identity);
            prop_assert_eq!(
                plain.forward_embeddings(None, from_ref(&x)).unwrap(),
                plain.forward_embeddings(Some(&identity), from_ref(&x)).unwrap()
            );
        }
    }
}
