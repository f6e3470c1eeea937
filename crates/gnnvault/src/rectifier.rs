use crate::VaultError;
use linalg::{CsrMatrix, DenseMatrix};
use nn::{ConvKind, Network, TrainConfig};

/// The three backbone-to-rectifier communication schemes of Fig. 3.
///
/// Input-wiring rules (reconstructed from the paper's description and
/// the θrec values of Table II), all stated by
/// [`RectifierKind::wiring`]:
///
/// - **Parallel**: rectifier layer `i` consumes the concatenation of the
///   previous rectifier output and backbone embedding `i` (layer 0 takes
///   embedding 0 alone). Runs layer-by-layer alongside the backbone.
/// - **Cascaded**: the backbone runs to completion first; rectifier
///   layer 0 consumes the concatenation of *all* backbone embeddings.
/// - **Series**: rectifier layer 0 consumes only the backbone's final
///   node embedding (its last hidden layer — the smallest tap, giving
///   the smallest enclave input and the paper's lowest transfer cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// The scheme as a [`Network::wired`] wiring: which backbone
    /// embeddings each of `rectifier_layers` layers reads, after the
    /// previous rectifier activation for every layer but the first.
    /// The rectifier's tap set, its layer fan-ins (snapshot decoding)
    /// and its activation sizes (EPC accounting) all follow from it.
    pub fn wiring(&self, backbone_layers: usize, rectifier_layers: usize) -> Vec<Vec<usize>> {
        (0..rectifier_layers)
            .map(|i| match (self, i) {
                (RectifierKind::Parallel, i) if i < backbone_layers => vec![i],
                (RectifierKind::Cascaded, 0) => (0..backbone_layers).collect(),
                (RectifierKind::Series, 0) => vec![backbone_layers.saturating_sub(2)],
                _ => Vec::new(),
            })
            .collect()
    }
}

/// The private GNN rectifier (§IV-D): a small graph network over the
/// *real* adjacency that recalibrates the public backbone's
/// embeddings. Lives inside the enclave after deployment.
///
/// It is an ordinary [`Network`] whose inputs are the backbone's
/// per-layer embeddings, wired by its [`RectifierKind`]. Construct with
/// [`Rectifier::new`], train with [`Rectifier::fit`] (backbone frozen —
/// its embeddings enter as constants), run with [`Rectifier::forward`].
#[derive(Debug, Clone, PartialEq)]
pub struct Rectifier {
    kind: RectifierKind,
    pub(crate) network: Network,
    /// Backbone layer widths this rectifier was wired against.
    pub(crate) backbone_dims: Vec<usize>,
}

impl Rectifier {
    /// Builds an untrained GCN rectifier wired for the given backbone
    /// widths.
    ///
    /// `channels` are the rectifier layer output widths (ending in the
    /// class count); `backbone_dims` are the backbone layer output
    /// widths in order.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] when a
    /// [`RectifierKind::Parallel`] rectifier has more layers than the
    /// backbone, and [`VaultError::Nn`] when either list is empty or
    /// contains zeros.
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
        if kind == RectifierKind::Parallel && backbone_dims.len() < channels.len() {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "parallel rectifier with {} layers needs a backbone with at least as many (got {})",
                    channels.len(),
                    backbone_dims.len()
                ),
            });
        }
        let wiring = kind.wiring(backbone_dims.len(), channels.len());
        Ok(Rectifier {
            kind,
            network: Network::wired(conv, backbone_dims, channels, wiring, seed)?,
            backbone_dims: backbone_dims.to_vec(),
        })
    }

    /// The convolution architecture of this rectifier's layers.
    pub fn conv(&self) -> ConvKind {
        self.network.layers()[0].kind()
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
        match self.conv() {
            ConvKind::Sage => row_normalize_with_degrees(graph, full_graph_degrees),
            ConvKind::Gcn | ConvKind::Gat => gcn_normalize_with_degrees(graph, full_graph_degrees),
        }
    }

    /// Input width of each layer of a `kind` rectifier with output
    /// `channels` over `backbone_dims`, from the wiring alone
    /// (crate-internal: snapshot decoding checks a payload's weight
    /// shapes against it before constructing anything).
    pub(crate) fn input_widths(
        kind: RectifierKind,
        channels: &[usize],
        backbone_dims: &[usize],
    ) -> Vec<usize> {
        let wiring = kind.wiring(backbone_dims.len(), channels.len());
        Network::input_widths(backbone_dims, channels, &wiring)
    }

    /// The communication scheme.
    pub fn kind(&self) -> RectifierKind {
        self.kind
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.network.num_layers()
    }

    /// Trainable parameter count (`θrec` of Table II).
    pub fn param_count(&self) -> usize {
        self.network.param_count()
    }

    /// Parameter bytes, for enclave memory accounting.
    pub fn nbytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Output widths of each layer.
    pub fn channel_dims(&self) -> Vec<usize> {
        self.network.channel_dims()
    }

    /// Input width of each layer (drives per-layer activation memory).
    pub fn input_dims(&self) -> Vec<usize> {
        self.network.layers().iter().map(|l| l.in_dim()).collect()
    }

    /// Indices of the backbone embeddings this rectifier consumes — the
    /// exact tensors that must cross into the enclave.
    pub fn tap_indices(&self) -> Vec<usize> {
        let mut taps: Vec<usize> = self.network.taps().concat();
        taps.sort_unstable();
        taps.dedup();
        taps
    }

    /// Rejects a list of backbone embeddings of the wrong length.
    fn check_embeddings(&self, backbone_embeddings: &[DenseMatrix]) -> Result<(), VaultError> {
        if backbone_embeddings.len() != self.backbone_dims.len() {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "expected {} backbone embeddings, got {}",
                    self.backbone_dims.len(),
                    backbone_embeddings.len()
                ),
            });
        }
        Ok(())
    }

    /// Forward pass over the real adjacency, given the backbone's
    /// per-layer embeddings, returning every layer's activation in
    /// order (hidden layers ReLU-ed, the last layer raw logits) — as
    /// [`Network::forward_embeddings`] does.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] when the embeddings do not
    /// match the wiring this rectifier was built for, and
    /// [`VaultError::Nn`] on shape problems.
    pub fn forward(
        &self,
        real_adj: &CsrMatrix,
        backbone_embeddings: &[DenseMatrix],
    ) -> Result<Vec<DenseMatrix>, VaultError> {
        self.check_embeddings(backbone_embeddings)?;
        Ok(self
            .network
            .forward_embeddings(Some(real_adj), backbone_embeddings)?)
    }

    /// Trains the rectifier on frozen backbone embeddings with masked
    /// cross-entropy (§IV-D: "we freeze the pre-trained GNN backbone and
    /// adjust the rectifier parameters") through [`Network::fit`], at
    /// dropout 0: `cfg` is validated as given (pipeline and bins pass
    /// the backbone's dropout), then its `dropout` is ignored, and with
    /// it `seed`.
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
        self.check_embeddings(backbone_embeddings)?;
        let cfg = TrainConfig {
            dropout: 0.0,
            ..cfg.clone()
        };
        Ok(self.network.fit(
            Some(real_adj),
            backbone_embeddings,
            labels,
            train_mask,
            &cfg,
        )?)
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
        self.check_embeddings(backbone_embeddings)?;
        Ok(self.network.predict(Some(real_adj), backbone_embeddings)?)
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
            assert_eq!(fwd.len(), 3, "{kind:?}");
            assert_eq!(fwd[2].shape(), (n, 2), "{kind:?}");
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
        rect.network.layers_mut()[0].params_mut().swap_remove(0)
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
            // A fit reports the loss its epoch started from.
            let loss_at = |r: &Rectifier| {
                let mut probe = r.clone();
                let report = probe.fit(&adj, &embs, &labels, &mask, &still_lr);
                report.unwrap().final_loss
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

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pseudo-random backbone embeddings of the given widths.
    fn embeddings_of(n: usize, dims: &[usize]) -> Vec<DenseMatrix> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        dims.iter()
            .map(|&d| {
                DenseMatrix::from_fn(n, d, |_, _| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 1000) as f32 / 500.0 - 0.5
                })
            })
            .collect()
    }

    /// The rectifier's fit, pinned bit for bit to the values its own
    /// epoch loop produced before it was folded onto `Network::fit`.
    /// Every kind × conv cell over a 3-layer backbone reaches both
    /// concatenating paths (Parallel layers 1–2, Cascaded's three taps)
    /// and both single-tap ones (Parallel's tap 0, Series' tap 1); the
    /// last three rows add Cascaded over a one-layer backbone, a single
    /// tap read without a copy. Each row digests (FNV-1a) every `Param`'s
    /// `Debug` form in `params()` order — value, gradient and Adam
    /// moments at round-trip precision — then the final loss bits and
    /// the logits bits. `cfg` asks for dropout, which the rectifier
    /// does not apply. Holds under every kernel variant and pool width.
    #[test]
    fn fit_matches_the_digests_recorded_before_the_fold() {
        use ConvKind::{Gat, Gcn, Sage};
        use RectifierKind::{Cascaded, Parallel, Series};
        /// kind, conv, backbone widths, then the params, loss and logits
        /// digests.
        type Row = (RectifierKind, ConvKind, &'static [usize], u64, u32, u64);
        #[rustfmt::skip]
        const TABLE: [Row; 12] = [
            (Parallel, Gcn, &[8, 4, 2], 0xc482f37cbd024bbd, 0x3f28b125, 0x8478933ad5618c7f),
            (Parallel, Sage, &[8, 4, 2], 0x48eb01a5a5b4439d, 0x3f0bdda6, 0x34f11b0d6cc9a820),
            (Parallel, Gat, &[8, 4, 2], 0x42483bd03dad7fc3, 0x3f31003b, 0xa050a7f9f8bf49fa),
            (Cascaded, Gcn, &[8, 4, 2], 0xf60f792f2b41a75e, 0x3f2c6d95, 0xdd6069fd67c3dc76),
            (Cascaded, Sage, &[8, 4, 2], 0xdaaa97fdaf52be0e, 0x3eaa67b5, 0x78b53adfd9988e33),
            (Cascaded, Gat, &[8, 4, 2], 0xdebc859a68b9080b, 0x3f313a0e, 0x734ad1940a587b41),
            (Series, Gcn, &[8, 4, 2], 0x735514305d3121aa, 0x3f175b4c, 0xa679dc2045b5060b),
            (Series, Sage, &[8, 4, 2], 0x466d80325009ff5d, 0x3d31bd65, 0x9b54654a9811f6ed),
            (Series, Gat, &[8, 4, 2], 0x081346148e70dd0c, 0x3f2e792a, 0x795bc28e301ffc9d),
            (Cascaded, Gcn, &[5], 0x0c510a70a1df646d, 0x3f2fc04d, 0x6f7809a0d5ee3be3),
            (Cascaded, Sage, &[5], 0x7540c40710b16a3a, 0x3e8f343a, 0x001e4e4fc536d5bc),
            (Cascaded, Gat, &[5], 0xd1752962695e39bb, 0x3f2e5b33, 0xcb0c85af61e730cd),
        ];
        let n = 10;
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.extend([(0, 5), (2, 7), (4, 9)]);
        let g = Graph::from_edges(n, &edges).unwrap();
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 / 3) % 2).collect();
        let mask: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        let cfg = TrainConfig {
            epochs: 6,
            lr: 0.05,
            weight_decay: 5e-4,
            dropout: 0.5,
            seed: 3,
        };
        for (kind, conv, backbone, params_digest, loss_bits, logits_digest) in TABLE {
            let embs = embeddings_of(n, backbone);
            let fresh = Rectifier::new_with_conv(kind, conv, &[6, 4, 2], backbone, 17).unwrap();
            let adj = fresh.preferred_adjacency(&g);
            let mut rect = fresh.clone();
            let report = rect.fit(&adj, &embs, &labels, &mask, &cfg).unwrap();
            let params: String = (rect.network.layers().iter())
                .flat_map(|l| l.params())
                .map(|p| format!("{p:?}"))
                .collect();
            let logits = rect.forward(&adj, &embs).unwrap().pop().unwrap();
            let logits = logits
                .as_slice()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes());
            let row = format!("{kind:?}/{conv:?} over {backbone:?}");
            assert_eq!(fnv1a(params.bytes()), params_digest, "{row}: params");
            assert_eq!(report.final_loss.to_bits(), loss_bits, "{row}: loss");
            assert_eq!(fnv1a(logits), logits_digest, "{row}: logits");
            // Neither the dropout nor the seed in `cfg` reaches the fit.
            let mut plain = fresh;
            let no_dropout = TrainConfig {
                dropout: 0.0,
                seed: 0,
                ..cfg.clone()
            };
            plain.fit(&adj, &embs, &labels, &mask, &no_dropout).unwrap();
            assert_eq!(plain, rect, "{row}");
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
