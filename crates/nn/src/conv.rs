use crate::features::Features;
use crate::gat::GatForward;
use crate::gcn::GcnForward;
use crate::sage::SageForward;
use crate::{GatLayer, GcnLayer, NnError, Param, SageLayer};
use linalg::{CsrMatrix, DenseMatrix, Workspace};
use rand::Rng;

/// Which graph-convolution architecture a layer uses.
///
/// [`ConvKind::Gcn`] is the paper's evaluated design; `Sage` and `Gat`
/// are its §VI future-work extensions, usable anywhere the rectifier
/// accepts a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvKind {
    /// Spectral GCN (paper Eq. 1), expects the symmetric `Â`; run with
    /// no operator it is a fully-connected layer.
    #[default]
    Gcn,
    /// GraphSAGE mean aggregator with self-concatenation; expects the
    /// row-normalized adjacency.
    Sage,
    /// Single-head graph attention; uses the adjacency's sparsity
    /// pattern (pass `Â` so self-loops exist).
    Gat,
}

impl ConvKind {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ConvKind::Gcn => "GCN",
            ConvKind::Sage => "GraphSAGE",
            ConvKind::Gat => "GAT",
        }
    }
}

/// A graph-convolution layer of any supported architecture: the layer
/// type of [`crate::Network`], which is the only thing that runs one.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // layers are long-lived; boxing buys nothing
pub enum ConvLayer {
    /// Spectral GCN layer.
    Gcn(GcnLayer),
    /// GraphSAGE layer.
    Sage(SageLayer),
    /// Graph-attention layer.
    Gat(GatLayer),
}

/// Forward cache for [`ConvLayer::backward_ws`], wrapping the
/// architecture-specific cache.
#[derive(Debug, Clone)]
pub(crate) enum ConvForward {
    Gcn(GcnForward),
    Sage(SageForward),
    Gat(GatForward),
}

impl ConvForward {
    /// The layer's output (post-activation when the forward fused ReLU).
    pub(crate) fn output(&self) -> &DenseMatrix {
        match self {
            ConvForward::Gcn(f) => &f.output,
            ConvForward::Sage(f) => &f.output,
            ConvForward::Gat(f) => &f.output,
        }
    }

    /// Consumes the cache, keeping only the layer's output.
    pub(crate) fn into_output(self) -> DenseMatrix {
        match self {
            ConvForward::Gcn(f) => f.output,
            ConvForward::Sage(f) => f.output,
            ConvForward::Gat(f) => f.output,
        }
    }

    /// Consumes the cache, returning every dense buffer it held so
    /// training loops can recycle them through a [`Workspace`].
    pub(crate) fn into_buffers(self) -> Vec<DenseMatrix> {
        match self {
            ConvForward::Gcn(f) => vec![f.output],
            ConvForward::Sage(f) => vec![f.output, f.cached_concat],
            ConvForward::Gat(f) => f.into_buffers(),
        }
    }
}

/// The operator a message-passing layer cannot run without.
fn operator(adj: Option<&CsrMatrix>, kind: ConvKind) -> Result<&CsrMatrix, NnError> {
    adj.ok_or_else(|| NnError::InvalidArchitecture {
        reason: format!("a {} layer needs a propagation operator", kind.label()),
    })
}

impl ConvLayer {
    /// Creates a layer of the requested architecture.
    pub(crate) fn new(kind: ConvKind, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        match kind {
            ConvKind::Gcn => ConvLayer::Gcn(GcnLayer::new(in_dim, out_dim, rng)),
            ConvKind::Sage => ConvLayer::Sage(SageLayer::new(in_dim, out_dim, rng)),
            ConvKind::Gat => ConvLayer::Gat(GatLayer::new(in_dim, out_dim, rng)),
        }
    }

    /// The layer's architecture.
    pub fn kind(&self) -> ConvKind {
        match self {
            ConvLayer::Gcn(_) => ConvKind::Gcn,
            ConvLayer::Sage(_) => ConvKind::Sage,
            ConvLayer::Gat(_) => ConvKind::Gat,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        match self {
            ConvLayer::Gcn(l) => l.in_dim(),
            ConvLayer::Sage(l) => l.in_dim(),
            ConvLayer::Gat(l) => l.in_dim(),
        }
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        match self {
            ConvLayer::Gcn(l) => l.out_dim(),
            ConvLayer::Sage(l) => l.out_dim(),
            ConvLayer::Gat(l) => l.out_dim(),
        }
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Forward pass with the bias — and, when `fuse_relu` is set, the
    /// ReLU — fused into the layer's output epilogue instead of running
    /// as separate passes. `None` runs a GCN layer fully connected.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] when a GraphSAGE or GAT
    /// layer is handed no operator, and [`NnError::Linalg`] on shape
    /// inconsistencies.
    pub(crate) fn forward_fused(
        &self,
        adj: Option<&CsrMatrix>,
        input: &DenseMatrix,
        fuse_relu: bool,
        ws: &mut Workspace,
    ) -> Result<ConvForward, NnError> {
        Ok(match self {
            ConvLayer::Gcn(l) => {
                ConvForward::Gcn(l.forward_fused(adj, Features::Dense(input), fuse_relu, ws)?)
            }
            ConvLayer::Sage(l) => {
                let adj = operator(adj, ConvKind::Sage)?;
                ConvForward::Sage(l.forward_fused(adj, input, fuse_relu, ws)?)
            }
            ConvLayer::Gat(l) => {
                let adj = operator(adj, ConvKind::Gat)?;
                ConvForward::Gat(l.forward_fused(adj, input, fuse_relu, ws)?)
            }
        })
    }

    /// Backward pass; given the layer's forward `input`, accumulates
    /// parameter gradients and returns `∂L/∂input` (workspace-backed;
    /// give it back when consumed).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvLayer::forward_fused`]; passing a cache
    /// from a different architecture is a logic error reported as
    /// [`NnError::InvalidArchitecture`].
    pub(crate) fn backward_ws(
        &mut self,
        cache: &ConvForward,
        input: &DenseMatrix,
        adj: Option<&CsrMatrix>,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix, NnError> {
        match (self, cache) {
            (ConvLayer::Gcn(l), ConvForward::Gcn(_)) => l.backward_ws(input, adj, d_output, ws),
            (ConvLayer::Sage(l), ConvForward::Sage(c)) => {
                l.backward_ws(c, operator(adj, ConvKind::Sage)?, d_output, ws)
            }
            (ConvLayer::Gat(l), ConvForward::Gat(c)) => {
                l.backward_ws(c, input, operator(adj, ConvKind::Gat)?, d_output, ws)
            }
            _ => Err(NnError::InvalidArchitecture {
                reason: "forward cache does not match this layer's architecture".into(),
            }),
        }
    }

    /// The parameter half of [`ConvLayer::backward_ws`]: accumulates
    /// the parameter gradients and computes no `∂L/∂input`, for a layer
    /// whose input nothing differentiates (a network's first). GCN
    /// skips the product; GraphSAGE and GAT run their full backward and
    /// hand the input gradient straight back to `ws`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvLayer::backward_ws`].
    pub(crate) fn param_grads_ws(
        &mut self,
        cache: &ConvForward,
        input: &DenseMatrix,
        adj: Option<&CsrMatrix>,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(), NnError> {
        if let (ConvLayer::Gcn(l), ConvForward::Gcn(_)) = (&mut *self, cache) {
            return l.param_grads_ws(Features::Dense(input), adj, d_output, ws);
        }
        let d_input = self.backward_ws(cache, input, adj, d_output, ws)?;
        ws.give(d_input);
        Ok(())
    }

    /// Read access to every parameter, in the same order as
    /// [`ConvLayer::params_mut`] — the order a serializer must write and
    /// a deserializer must read back. Param 0 is the projection weight
    /// for every architecture.
    pub fn params(&self) -> Vec<&Param> {
        match self {
            ConvLayer::Gcn(l) => l.params().into(),
            ConvLayer::Sage(l) => l.params().into(),
            ConvLayer::Gat(l) => l.params().into(),
        }
    }

    /// Mutable access to every parameter, for optimizer updates and
    /// weight restoration. Shapes must not be changed through it.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            ConvLayer::Gcn(l) => l.params_mut().into(),
            ConvLayer::Sage(l) => l.params_mut().into(),
            ConvLayer::Gat(l) => l.params_mut().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{normalization, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adj() -> CsrMatrix {
        normalization::gcn_normalize(&Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap())
    }

    #[test]
    fn uniform_api_across_kinds() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = crate::init::glorot_uniform(4, 6, &mut rng);
        let mut ws = Workspace::new();
        for kind in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            let mut layer = ConvLayer::new(kind, 6, 3, &mut rng);
            assert_eq!(layer.kind(), kind);
            assert_eq!(layer.in_dim(), 6);
            assert_eq!(layer.out_dim(), 3);
            assert!(layer.param_count() > 0);
            let fwd = layer
                .forward_fused(Some(&adj()), &x, false, &mut ws)
                .unwrap();
            assert_eq!(fwd.output().shape(), (4, 3));
            let d = DenseMatrix::filled(4, 3, 1.0);
            let d_in = layer
                .backward_ws(&fwd, &x, Some(&adj()), &d, &mut ws)
                .unwrap();
            assert_eq!(d_in.shape(), (4, 6));
        }
    }

    /// GraphSAGE and GAT aggregate over the operator; handed none, they
    /// refuse typed instead of silently running fully connected.
    #[test]
    fn message_passing_layers_refuse_a_missing_operator() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = crate::init::glorot_uniform(4, 6, &mut rng);
        let d = DenseMatrix::filled(4, 3, 1.0);
        let mut ws = Workspace::new();
        for kind in [ConvKind::Sage, ConvKind::Gat] {
            let mut layer = ConvLayer::new(kind, 6, 3, &mut rng);
            let refused = |r: Result<_, NnError>| match r {
                Err(NnError::InvalidArchitecture { reason }) => {
                    assert!(reason.contains(kind.label()), "{reason}")
                }
                other => panic!("{kind:?}: {other:?}"),
            };
            refused(layer.forward_fused(None, &x, false, &mut ws).map(|_| ()));
            let fwd = layer
                .forward_fused(Some(&adj()), &x, false, &mut ws)
                .unwrap();
            refused(layer.backward_ws(&fwd, &x, None, &d, &mut ws).map(|_| ()));
            refused(layer.param_grads_ws(&fwd, &x, None, &d, &mut ws));
        }
        // GCN without an operator is the fully-connected layer.
        let gcn = ConvLayer::new(ConvKind::Gcn, 6, 3, &mut rng);
        assert!(gcn.forward_fused(None, &x, false, &mut ws).is_ok());
    }

    #[test]
    fn mismatched_cache_is_an_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = crate::init::glorot_uniform(4, 6, &mut rng);
        let gcn = ConvLayer::new(ConvKind::Gcn, 6, 3, &mut rng);
        let mut sage = ConvLayer::new(ConvKind::Sage, 6, 3, &mut rng);
        let mut ws = Workspace::new();
        let cache = gcn.forward_fused(Some(&adj()), &x, false, &mut ws).unwrap();
        let d = DenseMatrix::filled(4, 3, 1.0);
        assert!(matches!(
            sage.backward_ws(&cache, &x, Some(&adj()), &d, &mut ws),
            Err(NnError::InvalidArchitecture { .. })
        ));
    }

    /// What the first layer of a network accumulates must not depend on
    /// skipping `∂L/∂input`, for any architecture.
    #[test]
    fn param_grads_match_full_backward_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = crate::init::glorot_uniform(4, 6, &mut rng);
        let d = crate::init::glorot_uniform(4, 3, &mut rng);
        let mut ws = Workspace::new();
        for kind in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            let layer = ConvLayer::new(kind, 6, 3, &mut rng);
            let fwd = layer
                .forward_fused(Some(&adj()), &x, false, &mut ws)
                .unwrap();
            let (mut full, mut params_only) = (layer.clone(), layer);
            full.backward_ws(&fwd, &x, Some(&adj()), &d, &mut ws)
                .unwrap();
            params_only
                .param_grads_ws(&fwd, &x, Some(&adj()), &d, &mut ws)
                .unwrap();
            assert_eq!(full, params_only, "{kind:?}");
        }
    }

    #[test]
    fn params_mut_counts_per_architecture() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            ConvLayer::new(ConvKind::Gcn, 4, 2, &mut rng)
                .params_mut()
                .len(),
            2
        );
        assert_eq!(
            ConvLayer::new(ConvKind::Sage, 4, 2, &mut rng)
                .params_mut()
                .len(),
            2
        );
        assert_eq!(
            ConvLayer::new(ConvKind::Gat, 4, 2, &mut rng)
                .params_mut()
                .len(),
            4
        );
    }

    #[test]
    fn param_count_formulas() {
        let mut rng = StdRng::seed_from_u64(4);
        let count = |kind, rng: &mut StdRng| ConvLayer::new(kind, 5, 3, rng).param_count();
        assert_eq!(count(ConvKind::Gcn, &mut rng), 5 * 3 + 3);
        // SAGE projects the `[H ‖ Ā H]` concatenation.
        assert_eq!(count(ConvKind::Sage, &mut rng), 2 * 5 * 3 + 3);
        // GAT adds the two attention vectors.
        assert_eq!(count(ConvKind::Gat, &mut rng), 5 * 3 + 3 + 3 + 3);
    }

    #[test]
    fn labels_are_distinct() {
        assert_eq!(ConvKind::Gcn.label(), "GCN");
        assert_eq!(ConvKind::Sage.label(), "GraphSAGE");
        assert_eq!(ConvKind::Gat.label(), "GAT");
    }
}
