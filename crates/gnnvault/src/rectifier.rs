use crate::VaultError;
use linalg::{ops, CsrMatrix, DenseMatrix, Workspace};
use nn::{loss, Adam, ConvForward, ConvKind, ConvLayer, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The three backbone-to-rectifier communication schemes of Fig. 3.
///
/// Input-wiring rules (reconstructed from the paper's description and
/// the θrec values of Table II; see DESIGN.md):
///
/// - **Parallel**: rectifier layer `i` consumes the concatenation of the
///   previous rectifier output and backbone embedding `i` (layer 0 takes
///   embedding 0 alone). Runs layer-by-layer alongside the backbone.
/// - **Cascaded**: the backbone runs to completion first; rectifier
///   layer 0 consumes the concatenation of *all* backbone embeddings.
/// - **Series**: rectifier layer 0 consumes only the backbone's final
///   node embedding (its last hidden layer — the smallest tap, giving
///   the smallest enclave input and the paper's lowest transfer cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RectifierKind {
    /// Per-layer taps, rectify after every message-passing step.
    Parallel,
    /// One concatenated tap of all backbone embeddings.
    Cascaded,
    /// Single tap of the final backbone embedding.
    Series,
}

impl RectifierKind {
    /// All kinds in the paper's presentation order.
    pub const ALL: [RectifierKind; 3] = [
        RectifierKind::Parallel,
        RectifierKind::Cascaded,
        RectifierKind::Series,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            RectifierKind::Parallel => "parallel",
            RectifierKind::Cascaded => "cascaded",
            RectifierKind::Series => "series",
        }
    }

    /// Indices of the backbone embeddings this scheme transfers into the
    /// enclave, given the backbone layer widths.
    pub fn tap_indices(&self, backbone_dims: &[usize], rectifier_layers: usize) -> Vec<usize> {
        match self {
            RectifierKind::Parallel => (0..rectifier_layers.min(backbone_dims.len())).collect(),
            RectifierKind::Cascaded => (0..backbone_dims.len()).collect(),
            RectifierKind::Series => vec![backbone_dims.len().saturating_sub(2)],
        }
    }
}

/// The private GNN rectifier (§IV-D): a small stack of GCN layers over
/// the *real* adjacency that recalibrates the public backbone's
/// embeddings. Lives inside the enclave after deployment.
///
/// Construct with [`Rectifier::new`], train with [`Rectifier::fit`]
/// (backbone frozen — its embeddings enter as constants), run with
/// [`Rectifier::forward`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rectifier {
    kind: RectifierKind,
    layers: Vec<ConvLayer>,
    conv: ConvKind,
    /// Backbone layer widths this rectifier was wired against.
    backbone_dims: Vec<usize>,
}

/// Forward-pass artifacts: per-layer caches (whose outputs *are* the
/// post-activation tensors — hidden layers come out of the fused
/// bias+ReLU forward already activated, the last layer holds raw
/// logits) plus the owned layer inputs needed for training.
#[derive(Debug, Clone)]
pub struct RectifierForward {
    caches: Vec<ConvForward>,
    /// What each layer consumed: an owned concatenation, or a borrow of
    /// a backbone tap / the previous activation (never a copy).
    inputs: Vec<StoredInput>,
}

/// How a rectifier layer's input is stored in [`RectifierForward`].
///
/// Inputs that alias an existing tensor (a backbone embedding or the
/// previous layer's activation) are recorded as references, so forward
/// passes copy nothing; only genuine concatenations are owned.
#[derive(Debug, Clone)]
enum StoredInput {
    /// A concatenated input that exists nowhere else.
    Owned(DenseMatrix),
    /// Backbone embedding at this index.
    Tap(usize),
    /// The previous rectifier layer's activation.
    Prev,
}

impl StoredInput {
    /// Resolves to the actual tensor, given the embeddings the forward
    /// ran on and the layer caches produced so far.
    fn resolve<'a>(
        &'a self,
        i: usize,
        backbone_embeddings: &'a [DenseMatrix],
        caches: &'a [ConvForward],
    ) -> &'a DenseMatrix {
        match self {
            StoredInput::Owned(m) => m,
            StoredInput::Tap(t) => &backbone_embeddings[*t],
            StoredInput::Prev => caches[i - 1].output(),
        }
    }
}

impl RectifierForward {
    /// Resolves layer `i`'s input against the embeddings it was run on.
    fn input<'a>(&'a self, i: usize, backbone_embeddings: &'a [DenseMatrix]) -> &'a DenseMatrix {
        self.inputs[i].resolve(i, backbone_embeddings, &self.caches)
    }
}

impl RectifierForward {
    /// Number of rectifier layers this forward ran.
    pub fn num_layers(&self) -> usize {
        self.caches.len()
    }

    /// Post-activation output of layer `i` (hidden layers ReLU-ed, last
    /// layer raw logits). A borrow of the layer cache — the fused
    /// forward produces the activation directly, so no copy exists.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_layers()`.
    pub fn activation(&self, i: usize) -> &DenseMatrix {
        self.caches[i].output()
    }

    /// Iterates the per-layer post-activation outputs in order.
    pub fn activations(&self) -> impl Iterator<Item = &DenseMatrix> {
        self.caches.iter().map(ConvForward::output)
    }

    /// Final-layer logits.
    ///
    /// # Panics
    ///
    /// Never in practice: rectifiers always have at least one layer.
    pub fn logits(&self) -> &DenseMatrix {
        self.caches.last().expect("rectifier has layers").output()
    }
}

impl Rectifier {
    /// Builds an untrained rectifier wired for the given backbone widths.
    ///
    /// `channels` are the rectifier layer output widths (ending in the
    /// class count); `backbone_dims` are the backbone layer output
    /// widths in order.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] when either list is empty,
    /// contains zeros, or (for [`RectifierKind::Parallel`]) the backbone
    /// has fewer layers than the rectifier.
    pub fn new(
        kind: RectifierKind,
        channels: &[usize],
        backbone_dims: &[usize],
        seed: u64,
    ) -> Result<Rectifier, VaultError> {
        Self::new_with_conv(kind, ConvKind::Gcn, channels, backbone_dims, seed)
    }

    /// Builds an untrained rectifier with an explicit convolution
    /// architecture — [`ConvKind::Sage`] and [`ConvKind::Gat`] implement
    /// the paper's §VI future-work extensions.
    ///
    /// For `Sage`, pass the row-normalized adjacency
    /// ([`graph::normalization::row_normalize`]) to [`Rectifier::fit`] /
    /// [`Rectifier::forward`], or use
    /// [`Rectifier::preferred_adjacency`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Rectifier::new`].
    pub fn new_with_conv(
        kind: RectifierKind,
        conv: ConvKind,
        channels: &[usize],
        backbone_dims: &[usize],
        seed: u64,
    ) -> Result<Rectifier, VaultError> {
        if channels.is_empty() || backbone_dims.is_empty() {
            return Err(VaultError::InvalidConfig {
                reason: "rectifier and backbone need at least one layer each".into(),
            });
        }
        if channels.contains(&0) || backbone_dims.contains(&0) {
            return Err(VaultError::InvalidConfig {
                reason: "layer widths must be positive".into(),
            });
        }
        if kind == RectifierKind::Parallel && backbone_dims.len() < channels.len() {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "parallel rectifier with {} layers needs a backbone with at least as many (got {})",
                    channels.len(),
                    backbone_dims.len()
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(channels.len());
        for (i, &out) in channels.iter().enumerate() {
            let in_dim = Self::input_dim(kind, channels, backbone_dims, i);
            layers.push(ConvLayer::new(conv, in_dim, out, &mut rng));
        }
        Ok(Rectifier {
            kind,
            layers,
            conv,
            backbone_dims: backbone_dims.to_vec(),
        })
    }

    /// The convolution architecture of this rectifier's layers.
    pub fn conv(&self) -> ConvKind {
        self.conv
    }

    /// Builds the adjacency operator this rectifier's convolution
    /// expects from the real graph: symmetric GCN normalization for
    /// `Gcn`/`Gat`, row normalization for `Sage`.
    pub fn preferred_adjacency(&self, real_graph: &graph::Graph) -> CsrMatrix {
        self.adjacency(real_graph, &real_graph.degrees())
    }

    /// [`Rectifier::preferred_adjacency`] for a `graph` that may be an
    /// induced piece of the real graph ([`graph::subgraph::Closure`]),
    /// normalized with each node's degree in the *full* graph — the one
    /// place a [`ConvKind`] is mapped to an operator, for training and
    /// for every operator a deployed vault builds.
    pub fn adjacency(&self, graph: &graph::Graph, full_graph_degrees: &[usize]) -> CsrMatrix {
        use graph::normalization::{gcn_normalize_with_degrees, row_normalize_with_degrees};
        match self.conv {
            ConvKind::Sage => row_normalize_with_degrees(graph, full_graph_degrees),
            ConvKind::Gcn | ConvKind::Gat => gcn_normalize_with_degrees(graph, full_graph_degrees),
        }
    }

    /// Input width of rectifier layer `i` under the wiring rules
    /// (crate-internal: snapshot decoding checks a payload's weight
    /// shapes against it before constructing anything).
    pub(crate) fn input_dim(
        kind: RectifierKind,
        channels: &[usize],
        backbone_dims: &[usize],
        i: usize,
    ) -> usize {
        match kind {
            RectifierKind::Parallel => {
                if i == 0 {
                    backbone_dims[0]
                } else {
                    channels[i - 1] + backbone_dims.get(i).copied().unwrap_or(0)
                }
            }
            RectifierKind::Cascaded => {
                if i == 0 {
                    backbone_dims.iter().sum()
                } else {
                    channels[i - 1]
                }
            }
            RectifierKind::Series => {
                if i == 0 {
                    backbone_dims[backbone_dims.len().saturating_sub(2)]
                } else {
                    channels[i - 1]
                }
            }
        }
    }

    /// The communication scheme.
    pub fn kind(&self) -> RectifierKind {
        self.kind
    }

    /// Backbone layer widths this rectifier was wired against
    /// (crate-internal: snapshot encoding).
    pub(crate) fn backbone_dims(&self) -> &[usize] {
        &self.backbone_dims
    }

    /// Borrow of the layer stack (crate-internal: snapshot encoding).
    pub(crate) fn layers(&self) -> &[ConvLayer] {
        &self.layers
    }

    /// Mutable borrow of the layer stack (crate-internal: snapshot
    /// decoding restores parameter values through it).
    pub(crate) fn layers_mut(&mut self) -> &mut [ConvLayer] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Trainable parameter count (`θrec` of Table II).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(ConvLayer::param_count).sum()
    }

    /// Parameter bytes, for enclave memory accounting.
    pub fn nbytes(&self) -> usize {
        self.layers.iter().map(ConvLayer::nbytes).sum()
    }

    /// Output widths of each layer.
    pub fn channel_dims(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.out_dim()).collect()
    }

    /// Input width of each layer (drives per-layer activation memory).
    pub fn input_dims(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.in_dim()).collect()
    }

    /// Indices of the backbone embeddings this rectifier consumes — the
    /// exact tensors that must cross into the enclave.
    pub fn tap_indices(&self) -> Vec<usize> {
        self.kind
            .tap_indices(&self.backbone_dims, self.layers.len())
    }

    /// Builds the input to layer `i` from backbone taps and the previous
    /// activation, following the wiring rules. Inputs that alias an
    /// existing tensor are recorded as [`StoredInput::Tap`]/
    /// [`StoredInput::Prev`] (no copy); concatenations draw their
    /// buffer from `ws`.
    fn layer_input(
        &self,
        i: usize,
        backbone_embeddings: &[DenseMatrix],
        prev: Option<&DenseMatrix>,
        ws: &mut Workspace,
    ) -> Result<StoredInput, VaultError> {
        let input = match self.kind {
            RectifierKind::Parallel => {
                if i == 0 {
                    StoredInput::Tap(0)
                } else {
                    let prev = prev.expect("layer > 0 has a previous activation");
                    match backbone_embeddings.get(i) {
                        Some(emb) => {
                            let mut concat =
                                ws.take_for_overwrite(prev.rows(), prev.cols() + emb.cols());
                            DenseMatrix::hconcat_into(&[prev, emb], &mut concat)?;
                            StoredInput::Owned(concat)
                        }
                        None => StoredInput::Prev,
                    }
                }
            }
            RectifierKind::Cascaded => {
                if i == 0 {
                    if backbone_embeddings.len() == 1 {
                        StoredInput::Tap(0)
                    } else {
                        let refs: Vec<&DenseMatrix> = backbone_embeddings.iter().collect();
                        let rows = refs[0].rows();
                        let cols = refs.iter().map(|m| m.cols()).sum();
                        let mut concat = ws.take_for_overwrite(rows, cols);
                        DenseMatrix::hconcat_into(&refs, &mut concat)?;
                        StoredInput::Owned(concat)
                    }
                } else {
                    StoredInput::Prev
                }
            }
            RectifierKind::Series => {
                if i == 0 {
                    let tap = self.backbone_dims.len().saturating_sub(2);
                    StoredInput::Tap(tap.min(backbone_embeddings.len() - 1))
                } else {
                    StoredInput::Prev
                }
            }
        };
        Ok(input)
    }

    /// Forward pass over the real adjacency, given the backbone's
    /// per-layer embeddings.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Nn`] when the embeddings do not match the
    /// wiring this rectifier was built for.
    pub fn forward(
        &self,
        real_adj: &CsrMatrix,
        backbone_embeddings: &[DenseMatrix],
    ) -> Result<RectifierForward, VaultError> {
        self.forward_ws(real_adj, backbone_embeddings, &mut Workspace::new())
    }

    /// Forward pass drawing every concatenation, projection, and
    /// activation buffer from `ws`; [`Rectifier::fit`] recycles them
    /// across epochs so the training loop allocates nothing in steady
    /// state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Rectifier::forward`].
    pub fn forward_ws(
        &self,
        real_adj: &CsrMatrix,
        backbone_embeddings: &[DenseMatrix],
        ws: &mut Workspace,
    ) -> Result<RectifierForward, VaultError> {
        if backbone_embeddings.len() != self.backbone_dims.len() {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "expected {} backbone embeddings, got {}",
                    self.backbone_dims.len(),
                    backbone_embeddings.len()
                ),
            });
        }
        let last = self.layers.len() - 1;
        let mut caches: Vec<ConvForward> = Vec::with_capacity(self.layers.len());
        let mut inputs = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let prev = caches.last().map(ConvForward::output);
            let stored = self.layer_input(i, backbone_embeddings, prev, ws)?;
            let cache = {
                let input = stored.resolve(i, backbone_embeddings, &caches);
                // Hidden layers fuse bias + ReLU into the layer's
                // output epilogue, so the cached output *is* the
                // activation — no copy, no separate ReLU pass.
                layer.forward_fused(real_adj, input, i != last, ws)?
            };
            caches.push(cache);
            inputs.push(stored);
        }
        Ok(RectifierForward { caches, inputs })
    }

    /// Trains the rectifier on frozen backbone embeddings with masked
    /// cross-entropy (§IV-D: "we freeze the pre-trained GNN backbone and
    /// adjust the rectifier parameters"). No dropout is applied:
    /// `cfg.dropout` is range-checked but otherwise unused, and
    /// `cfg.seed` is never read.
    ///
    /// # Errors
    ///
    /// Returns [`nn::NnError::InvalidTrainConfig`] (as
    /// [`VaultError::Nn`]) for a `cfg` that [`TrainConfig::validate`]
    /// rejects; propagates wiring and label/mask failures.
    pub fn fit(
        &mut self,
        real_adj: &CsrMatrix,
        backbone_embeddings: &[DenseMatrix],
        labels: &[usize],
        train_mask: &[usize],
        cfg: &TrainConfig,
    ) -> Result<nn::TrainReport, VaultError> {
        cfg.validate()?;
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut final_loss = f32::NAN;
        // Shared across epochs: epoch N's activations, concatenations,
        // and gradients become epoch N+1's buffers.
        let mut ws = Workspace::new();
        for _ in 0..cfg.epochs {
            let fwd = self.forward_ws(real_adj, backbone_embeddings, &mut ws)?;
            let (loss_value, grad) = loss::masked_cross_entropy(fwd.logits(), labels, train_mask)?;
            final_loss = loss_value;

            for layer in &mut self.layers {
                for param in layer.params_mut() {
                    param.zero_grad();
                }
            }
            let mut d = grad;
            for i in (0..self.layers.len()).rev() {
                let d_input = {
                    let input = fwd.input(i, backbone_embeddings);
                    self.layers[i].backward_ws(&fwd.caches[i], input, real_adj, &d, &mut ws)?
                };
                if i > 0 {
                    // Keep only the slice of the gradient that flows into
                    // the previous rectifier layer; gradients w.r.t. the
                    // frozen backbone embeddings are discarded.
                    let prev_width = self.layers[i - 1].out_dim();
                    let d_prev = d_input.slice_cols(0, prev_width)?;
                    let next = ops::relu_backward(fwd.caches[i - 1].output(), &d_prev);
                    ws.give(d_input);
                    ws.give(d_prev);
                    ws.give(std::mem::replace(&mut d, next));
                } else {
                    ws.give(d_input);
                }
            }
            ws.give(d);

            opt.begin_step();
            for layer in &mut self.layers {
                for param in layer.params_mut() {
                    opt.update(param);
                }
            }

            // Recycle this epoch's tensors.
            for cache in fwd.caches {
                for buf in cache.into_buffers() {
                    ws.give(buf);
                }
            }
            for input in fwd.inputs {
                if let StoredInput::Owned(m) = input {
                    ws.give(m);
                }
            }
        }
        let fwd = self.forward_ws(real_adj, backbone_embeddings, &mut ws)?;
        let train_accuracy = loss::masked_accuracy(fwd.logits(), labels, train_mask)?;
        Ok(nn::TrainReport {
            final_loss,
            train_accuracy,
            epochs: cfg.epochs,
        })
    }

    /// Predicted classes (argmax of rectified logits).
    ///
    /// # Errors
    ///
    /// Propagates wiring failures.
    pub fn predict(
        &self,
        real_adj: &CsrMatrix,
        backbone_embeddings: &[DenseMatrix],
    ) -> Result<Vec<usize>, VaultError> {
        Ok(ops::argmax_rows(
            self.forward(real_adj, backbone_embeddings)?.logits(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{normalization, Graph};

    /// Backbone dims (8, 4, C=2), rectifier channels (6, 4, 2).
    fn fake_embeddings(n: usize) -> Vec<DenseMatrix> {
        let mut state = 5u64;
        let mut gen = |rows: usize, cols: usize| {
            DenseMatrix::from_fn(rows, cols, |_, _| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 100) as f32 / 100.0
            })
        };
        vec![gen(n, 8), gen(n, 4), gen(n, 2)]
    }

    fn real_adj(n: usize) -> CsrMatrix {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        normalization::gcn_normalize(&Graph::from_edges(n, &edges).unwrap())
    }

    #[test]
    fn input_dims_match_wiring_rules() {
        let bb = [8usize, 4, 2];
        let ch = [6usize, 4, 2];
        let par = Rectifier::new(RectifierKind::Parallel, &ch, &bb, 0).unwrap();
        assert_eq!(par.input_dims(), vec![8, 6 + 4, 4 + 2]);
        let cas = Rectifier::new(RectifierKind::Cascaded, &ch, &bb, 0).unwrap();
        assert_eq!(cas.input_dims(), vec![8 + 4 + 2, 6, 4]);
        let ser = Rectifier::new(RectifierKind::Series, &ch, &bb, 0).unwrap();
        assert_eq!(ser.input_dims(), vec![4, 6, 4]);
    }

    #[test]
    fn tap_indices_match_fig3() {
        let bb = [8usize, 4, 2];
        let par = Rectifier::new(RectifierKind::Parallel, &[6, 4, 2], &bb, 0).unwrap();
        assert_eq!(par.tap_indices(), vec![0, 1, 2]);
        let cas = Rectifier::new(RectifierKind::Cascaded, &[6, 4, 2], &bb, 0).unwrap();
        assert_eq!(cas.tap_indices(), vec![0, 1, 2]);
        let ser = Rectifier::new(RectifierKind::Series, &[6, 4, 2], &bb, 0).unwrap();
        assert_eq!(ser.tap_indices(), vec![1]);
        // A parallel rectifier shorter than the backbone taps a prefix.
        let deep_bb = [16usize, 8, 4, 2, 2];
        let par = Rectifier::new(RectifierKind::Parallel, &[6, 4, 2], &deep_bb, 0).unwrap();
        assert_eq!(par.tap_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Rectifier::new(RectifierKind::Parallel, &[], &[4], 0).is_err());
        assert!(Rectifier::new(RectifierKind::Parallel, &[4], &[], 0).is_err());
        assert!(Rectifier::new(RectifierKind::Parallel, &[4, 0], &[4, 4], 0).is_err());
        // Parallel with more rectifier layers than backbone layers.
        assert!(Rectifier::new(RectifierKind::Parallel, &[4, 4, 4], &[8, 2], 0).is_err());
        // Cascaded/series tolerate that.
        assert!(Rectifier::new(RectifierKind::Cascaded, &[4, 4, 4], &[8, 2], 0).is_ok());
        assert!(Rectifier::new(RectifierKind::Series, &[4, 4, 4], &[8, 2], 0).is_ok());
    }

    #[test]
    fn forward_shapes_for_all_kinds() {
        let n = 10;
        let embs = fake_embeddings(n);
        let adj = real_adj(n);
        for kind in RectifierKind::ALL {
            let rect = Rectifier::new(kind, &[6, 4, 2], &[8, 4, 2], 1).unwrap();
            let fwd = rect.forward(&adj, &embs).unwrap();
            assert_eq!(fwd.num_layers(), 3, "{kind:?}");
            assert_eq!(fwd.logits().shape(), (n, 2), "{kind:?}");
        }
    }

    #[test]
    fn forward_rejects_wrong_embedding_count() {
        let n = 6;
        let embs = fake_embeddings(n);
        let adj = real_adj(n);
        let rect = Rectifier::new(RectifierKind::Series, &[4, 2], &[8, 4, 2], 0).unwrap();
        assert!(rect.forward(&adj, &embs[..2]).is_err());
    }

    #[test]
    fn fit_reduces_loss_on_separable_toy() {
        // Two chain communities; labels recoverable from the real graph.
        let n = 12;
        let mut edges: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 1)).collect();
        edges.extend((6..11).map(|i| (i, i + 1)));
        let g = Graph::from_edges(n, &edges).unwrap();
        let adj = normalization::gcn_normalize(&g);
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= 6)).collect();
        let mask: Vec<usize> = vec![0, 1, 6, 7];
        // Weak backbone embeddings: noisy versions of the label.
        let mut state = 11u64;
        let emb = DenseMatrix::from_fn(n, 4, |r, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (if r >= 6 { 1.0 } else { 0.0 }) + ((state % 100) as f32 / 60.0)
        });
        let logits_emb = DenseMatrix::zeros(n, 2);
        let embs = vec![emb, logits_emb];

        let mut rect = Rectifier::new(RectifierKind::Series, &[8, 2], &[4, 2], 3).unwrap();
        let cfg = TrainConfig {
            epochs: 120,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        };
        let report = rect.fit(&adj, &embs, &labels, &mask, &cfg).unwrap();
        assert!(report.train_accuracy > 0.9, "acc {}", report.train_accuracy);
        let preds = rect.predict(&adj, &embs).unwrap();
        let acc = metrics::accuracy(&preds, &labels).unwrap();
        assert!(acc > 0.8, "full acc {acc}");
    }

    /// Accesses the first layer's weight for the gradient check below.
    fn first_weight(rect: &mut Rectifier) -> &mut nn::Param {
        match &mut rect.layers[0] {
            ConvLayer::Gcn(l) => l.weight_mut(),
            ConvLayer::Sage(l) => l.weight_mut(),
            ConvLayer::Gat(l) => l.weight_mut(),
        }
    }

    #[test]
    fn parallel_gradient_matches_finite_differences() {
        // End-to-end gradient check through the concat wiring, using
        // fit's own backward path via a single epoch at a vanishing
        // learning rate.
        for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            let n = 8;
            let embs = fake_embeddings(n);
            let adj = real_adj(n);
            let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let mask: Vec<usize> = (0..n).collect();
            let mut rect =
                Rectifier::new_with_conv(RectifierKind::Parallel, conv, &[6, 4, 2], &[8, 4, 2], 2)
                    .unwrap();

            // An Adam step is at most ~lr (1e-38 here), so the epoch
            // leaves the weights where they were but fills the gradient
            // accumulators through fit's backward pass.
            let still_lr = TrainConfig {
                epochs: 1,
                lr: f32::MIN_POSITIVE,
                weight_decay: 0.0,
                dropout: 0.0,
                seed: 0,
            };
            rect.fit(&adj, &embs, &labels, &mask, &still_lr).unwrap();
            let analytic = first_weight(&mut rect).grad.get(0, 0);

            let eps = 1e-3f32;
            let orig = first_weight(&mut rect).value.get(0, 0);
            let loss_at = |r: &Rectifier| {
                let fwd = r.forward(&adj, &embs).unwrap();
                loss::masked_cross_entropy(fwd.logits(), &labels, &mask)
                    .unwrap()
                    .0
            };
            first_weight(&mut rect).value.set(0, 0, orig + eps);
            let plus = loss_at(&rect);
            first_weight(&mut rect).value.set(0, 0, orig - eps);
            let minus = loss_at(&rect);
            first_weight(&mut rect).value.set(0, 0, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(0.5),
                "{conv:?}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn fit_rejects_out_of_range_hyperparameters() {
        let n = 6;
        let (embs, adj) = (fake_embeddings(n), real_adj(n));
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let fresh = Rectifier::new(RectifierKind::Series, &[4, 2], &[8, 4, 2], 0).unwrap();
        // Dropout is rejected although this fit applies none: the same
        // config trains the backbone, where it would mis-train silently.
        for (dropout, lr) in [(1.0, 0.01), (f32::NAN, 0.01), (0.0, 0.0), (0.0, f32::NAN)] {
            let cfg = TrainConfig {
                dropout,
                lr,
                ..TrainConfig::default()
            };
            let mut rect = fresh.clone();
            assert!(matches!(
                rect.fit(&adj, &embs, &labels, &[0, 1], &cfg),
                Err(VaultError::Nn(nn::NnError::InvalidTrainConfig { .. }))
            ));
            assert_eq!(rect, fresh);
        }
    }

    #[test]
    fn sage_and_gat_rectifiers_train() {
        let n = 12;
        let mut edges: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 1)).collect();
        edges.extend((6..11).map(|i| (i, i + 1)));
        let g = Graph::from_edges(n, &edges).unwrap();
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= 6)).collect();
        let mask: Vec<usize> = vec![0, 1, 6, 7];
        let mut state = 11u64;
        let emb = DenseMatrix::from_fn(n, 4, |r, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (if r >= 6 { 1.0 } else { 0.0 }) + ((state % 100) as f32 / 60.0)
        });
        let embs = vec![emb, DenseMatrix::zeros(n, 2)];
        let cfg = TrainConfig {
            epochs: 150,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        };
        for conv in [ConvKind::Sage, ConvKind::Gat] {
            let mut rect =
                Rectifier::new_with_conv(RectifierKind::Series, conv, &[8, 2], &[4, 2], 3).unwrap();
            assert_eq!(rect.conv(), conv);
            let adj = rect.preferred_adjacency(&g);
            let report = rect.fit(&adj, &embs, &labels, &mask, &cfg).unwrap();
            assert!(
                report.train_accuracy > 0.9,
                "{conv:?} train acc {}",
                report.train_accuracy
            );
            let preds = rect.predict(&adj, &embs).unwrap();
            let acc = metrics::accuracy(&preds, &labels).unwrap();
            assert!(acc > 0.7, "{conv:?} full acc {acc}");
        }
    }

    #[test]
    fn param_counts_scale_with_wiring() {
        let bb = [8usize, 4, 2];
        let ch = [6usize, 4, 2];
        let par = Rectifier::new(RectifierKind::Parallel, &ch, &bb, 0).unwrap();
        let cas = Rectifier::new(RectifierKind::Cascaded, &ch, &bb, 0).unwrap();
        let ser = Rectifier::new(RectifierKind::Series, &ch, &bb, 0).unwrap();
        // Series has the smallest input space, hence the fewest params.
        assert!(ser.param_count() < par.param_count());
        assert!(ser.param_count() < cas.param_count());
        assert_eq!(ser.nbytes(), ser.param_count() * 4);
    }
}
