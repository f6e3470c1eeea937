use crate::{GatForward, GatLayer, GcnForward, GcnLayer, NnError, SageForward, SageLayer};
use linalg::{CsrMatrix, DenseMatrix, Workspace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which graph-convolution architecture a layer uses.
///
/// [`ConvKind::Gcn`] is the paper's evaluated design; `Sage` and `Gat`
/// are its §VI future-work extensions, usable anywhere the rectifier
/// accepts a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ConvKind {
    /// Spectral GCN (paper Eq. 1), expects the symmetric `Â`.
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

/// A graph-convolution layer of any supported architecture, presenting
/// the uniform forward/backward API the rectifier builds on.
///
/// # Examples
///
/// ```
/// use nn::{ConvKind, ConvLayer};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = ConvLayer::new(ConvKind::Sage, 8, 4, &mut rng);
/// assert_eq!(layer.in_dim(), 8);
/// assert_eq!(layer.out_dim(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // layers are long-lived; boxing buys nothing
pub enum ConvLayer {
    /// Spectral GCN layer.
    Gcn(GcnLayer),
    /// GraphSAGE layer.
    Sage(SageLayer),
    /// Graph-attention layer.
    Gat(GatLayer),
}

/// Forward cache for [`ConvLayer::backward`], wrapping the
/// architecture-specific cache.
#[derive(Debug, Clone)]
pub enum ConvForward {
    /// GCN cache.
    Gcn(GcnForward),
    /// GraphSAGE cache.
    Sage(SageForward),
    /// GAT cache.
    Gat(GatForward),
}

impl ConvForward {
    /// The layer's pre-activation output.
    pub fn output(&self) -> &DenseMatrix {
        match self {
            ConvForward::Gcn(f) => &f.output,
            ConvForward::Sage(f) => &f.output,
            ConvForward::Gat(f) => &f.output,
        }
    }

    /// Consumes the cache, returning every dense buffer it held so
    /// training loops can recycle them through a [`Workspace`].
    pub fn into_buffers(self) -> Vec<DenseMatrix> {
        match self {
            ConvForward::Gcn(f) => vec![f.output],
            ConvForward::Sage(f) => vec![f.output, f.cached_concat],
            ConvForward::Gat(f) => f.into_buffers(),
        }
    }
}

impl ConvLayer {
    /// Creates a layer of the requested architecture.
    pub fn new(kind: ConvKind, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
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
        match self {
            ConvLayer::Gcn(l) => l.param_count(),
            ConvLayer::Sage(l) => l.param_count(),
            ConvLayer::Gat(l) => l.param_count(),
        }
    }

    /// Parameter bytes (4 per scalar), for enclave accounting.
    pub fn nbytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub fn forward(&self, adj: &CsrMatrix, input: &DenseMatrix) -> Result<ConvForward, NnError> {
        self.forward_fused(adj, input, false, &mut Workspace::new())
    }

    /// Forward pass with the bias — and, when `fuse_relu` is set, the
    /// ReLU — fused into the layer's output epilogue instead of running
    /// as separate passes (see [`crate::GcnLayer::forward_fused`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape inconsistencies.
    pub fn forward_fused(
        &self,
        adj: &CsrMatrix,
        input: &DenseMatrix,
        fuse_relu: bool,
        ws: &mut Workspace,
    ) -> Result<ConvForward, NnError> {
        Ok(match self {
            ConvLayer::Gcn(l) => {
                ConvForward::Gcn(l.forward_fused(Some(adj), input, fuse_relu, ws)?)
            }
            ConvLayer::Sage(l) => ConvForward::Sage(l.forward_fused(adj, input, fuse_relu, ws)?),
            ConvLayer::Gat(l) => ConvForward::Gat(l.forward_fused(adj, input, fuse_relu, ws)?),
        })
    }

    /// Backward pass; given the layer's forward `input`, accumulates
    /// parameter gradients and returns `∂L/∂input`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Linalg`] on shape or cache inconsistencies
    /// (passing a cache from a different architecture is a logic error
    /// reported as [`NnError::InvalidArchitecture`]).
    pub fn backward(
        &mut self,
        cache: &ConvForward,
        input: &DenseMatrix,
        adj: &CsrMatrix,
        d_output: &DenseMatrix,
    ) -> Result<DenseMatrix, NnError> {
        self.backward_ws(cache, input, adj, d_output, &mut Workspace::new())
    }

    /// [`ConvLayer::backward`] drawing gradient scratch and GEMM
    /// packing buffers from `ws`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvLayer::backward`].
    pub fn backward_ws(
        &mut self,
        cache: &ConvForward,
        input: &DenseMatrix,
        adj: &CsrMatrix,
        d_output: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix, NnError> {
        match (self, cache) {
            (ConvLayer::Gcn(l), ConvForward::Gcn(_)) => {
                l.backward_ws(input, Some(adj), d_output, ws)
            }
            (ConvLayer::Sage(l), ConvForward::Sage(c)) => l.backward_ws(c, adj, d_output, ws),
            (ConvLayer::Gat(l), ConvForward::Gat(c)) => l.backward_ws(c, input, adj, d_output, ws),
            _ => Err(NnError::InvalidArchitecture {
                reason: "forward cache does not match this layer's architecture".into(),
            }),
        }
    }

    /// Read access to every parameter, in the same order as
    /// [`ConvLayer::params_mut`] — the order a serializer must write and
    /// a deserializer must read back.
    pub fn params(&self) -> Vec<&crate::Param> {
        match self {
            ConvLayer::Gcn(l) => vec![l.weight(), l.bias()],
            ConvLayer::Sage(l) => vec![l.weight(), l.bias()],
            ConvLayer::Gat(l) => vec![l.weight(), l.attn_src(), l.attn_dst(), l.bias()],
        }
    }

    /// Mutable access to every parameter, for optimizer updates.
    pub fn params_mut(&mut self) -> Vec<&mut crate::Param> {
        match self {
            ConvLayer::Gcn(l) => l.params_mut().into_iter().collect(),
            ConvLayer::Sage(l) => l.params_mut().into_iter().collect(),
            ConvLayer::Gat(l) => l.params_mut().into_iter().collect(),
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
        let x = crate::glorot_uniform(4, 6, &mut rng);
        for kind in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            let mut layer = ConvLayer::new(kind, 6, 3, &mut rng);
            assert_eq!(layer.kind(), kind);
            assert_eq!(layer.in_dim(), 6);
            assert_eq!(layer.out_dim(), 3);
            assert!(layer.param_count() > 0);
            let fwd = layer.forward(&adj(), &x).unwrap();
            assert_eq!(fwd.output().shape(), (4, 3));
            let d = DenseMatrix::filled(4, 3, 1.0);
            let d_in = layer.backward(&fwd, &x, &adj(), &d).unwrap();
            assert_eq!(d_in.shape(), (4, 6));
        }
    }

    #[test]
    fn mismatched_cache_is_an_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = crate::glorot_uniform(4, 6, &mut rng);
        let gcn = ConvLayer::new(ConvKind::Gcn, 6, 3, &mut rng);
        let mut sage = ConvLayer::new(ConvKind::Sage, 6, 3, &mut rng);
        let cache = gcn.forward(&adj(), &x).unwrap();
        let d = DenseMatrix::filled(4, 3, 1.0);
        assert!(matches!(
            sage.backward(&cache, &x, &adj(), &d),
            Err(NnError::InvalidArchitecture { .. })
        ));
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
    fn labels_are_distinct() {
        assert_eq!(ConvKind::Gcn.label(), "GCN");
        assert_eq!(ConvKind::Sage.label(), "GraphSAGE");
        assert_eq!(ConvKind::Gat.label(), "GAT");
    }
}
