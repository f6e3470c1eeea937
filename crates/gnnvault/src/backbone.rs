use crate::{SubstituteKind, VaultError};
use graph::{normalization, Graph};
use linalg::{CsrMatrix, DenseMatrix};
use nn::{Input, Network, TrainConfig};
use std::slice::from_ref;

/// The public backbone model deployed in the untrusted world (§IV-C).
///
/// One network, run over a substitute graph built from public features
/// — or over nothing: with no substitute it is the structure-free MLP of
/// Table III's "DNN" column ([`SubstituteKind::Dnn`]). The backbone and
/// its substitute graph are what an attacker with full control of the
/// normal world can inspect.
///
/// # Examples
///
/// See [`crate::pipeline::train`] for the usual entry point; direct use:
///
/// ```
/// use gnnvault::{Backbone, SubstituteKind};
/// use linalg::DenseMatrix;
/// use nn::TrainConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = DenseMatrix::from_rows(&[
///     &[1.0, 0.0], &[0.9, 0.0], &[0.0, 1.0], &[0.0, 0.8],
/// ])?;
/// let labels = vec![0, 0, 1, 1];
/// let cfg = TrainConfig { epochs: 20, ..Default::default() };
/// let backbone = Backbone::train(
///     &x, &labels, &[0, 2], SubstituteKind::Knn { k: 1 },
///     &[8, 2], 3, &cfg, 0,
/// )?;
/// let embeddings = backbone.embeddings(&x)?;
/// assert_eq!(embeddings.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Backbone {
    /// The trained network.
    pub(crate) network: Network,
    /// What the network propagates over; `None` is the DNN backbone.
    pub(crate) substitute: Option<Substitute>,
}

/// The public substitute graph deployed alongside a backbone.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Substitute {
    pub(crate) graph: Graph,
    /// Normalized adjacency of `graph`, the operator every pass uses.
    pub(crate) adj: CsrMatrix,
    /// How `graph` was constructed (metadata for reports).
    pub(crate) kind: SubstituteKind,
}

impl Substitute {
    /// Wraps a substitute graph with its normalized adjacency.
    pub(crate) fn new(graph: Graph, kind: SubstituteKind) -> Self {
        let adj = normalization::gcn_normalize(&graph);
        Self { graph, adj, kind }
    }
}

impl Backbone {
    /// Trains a backbone of the given `kind` on public features and the
    /// substitute graph it induces.
    ///
    /// `real_edges` is used only for density matching of
    /// [`SubstituteKind::CosineBudget`] / [`SubstituteKind::Random`].
    ///
    /// # Errors
    ///
    /// Propagates substitute-construction and training failures.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        features: &DenseMatrix,
        labels: &[usize],
        train_mask: &[usize],
        kind: SubstituteKind,
        channels: &[usize],
        real_edges: usize,
        cfg: &TrainConfig,
        seed: u64,
    ) -> Result<Backbone, VaultError> {
        let substitute = kind
            .build(features, real_edges, seed)?
            .map(|graph| Substitute::new(graph, kind));
        let mut network = Network::new(features.cols(), channels, seed)?;
        let adj = substitute.as_ref().map(|s| &s.adj);
        network.fit(adj, from_ref(features), labels, train_mask, cfg)?;
        Ok(Backbone {
            network,
            substitute,
        })
    }

    /// Per-layer embeddings on the *public* data path (over the
    /// substitute adjacency when there is one) — the intermediate data
    /// visible to the attacker and consumed by the rectifier.
    ///
    /// `features` is a `&DenseMatrix` or, for repeated passes over one
    /// corpus, a prepared [`nn::NodeFeatures`], whose CSR rows a GCN
    /// first layer multiplies with the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Nn`] on shape inconsistencies.
    pub fn embeddings<'a>(
        &self,
        features: impl Into<Input<'a>>,
    ) -> Result<Vec<DenseMatrix>, VaultError> {
        let adj = self.substitute.as_ref().map(|s| &s.adj);
        Ok(self.network.forward_embeddings(adj, features)?)
    }

    /// Final-layer logits on the public data path.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Nn`] on shape inconsistencies.
    pub fn logits(&self, features: &DenseMatrix) -> Result<DenseMatrix, VaultError> {
        Ok(self
            .embeddings(features)?
            .pop()
            .expect("backbone has at least one layer"))
    }

    /// Predicted classes on the public path (the low-accuracy `pbb`
    /// output an attacker could extract).
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Nn`] on shape inconsistencies.
    pub fn predict(&self, features: &DenseMatrix) -> Result<Vec<usize>, VaultError> {
        Ok(linalg::ops::argmax_rows(&self.logits(features)?))
    }

    /// Output widths of every layer.
    pub fn channel_dims(&self) -> Vec<usize> {
        self.network.channel_dims()
    }

    /// Trainable parameter count (`θbb`).
    pub fn param_count(&self) -> usize {
        self.network.param_count()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.network.num_layers()
    }

    /// The substitute graph, when one exists.
    pub fn substitute_graph(&self) -> Option<&Graph> {
        self.substitute.as_ref().map(|s| &s.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (DenseMatrix, Vec<usize>, Vec<usize>) {
        let x = DenseMatrix::from_rows(&[
            &[1.0, 0.0],
            &[0.9, 0.1],
            &[1.0, 0.1],
            &[0.0, 1.0],
            &[0.1, 0.9],
            &[0.0, 1.1],
        ])
        .unwrap();
        let labels = vec![0, 0, 0, 1, 1, 1];
        let train = vec![0, 1, 3, 4];
        (x, labels, train)
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            epochs: 60,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        }
    }

    #[test]
    fn gcn_backbone_trains_and_predicts() {
        let (x, labels, train) = toy();
        let bb = Backbone::train(
            &x,
            &labels,
            &train,
            SubstituteKind::Knn { k: 2 },
            &[8, 2],
            6,
            &cfg(),
            1,
        )
        .unwrap();
        assert!(bb.substitute_graph().is_some());
        assert_eq!(bb.num_layers(), 2);
        let preds = bb.predict(&x).unwrap();
        assert_eq!(preds.len(), 6);
        // Features are clean, so the KNN backbone should get train nodes right.
        assert_eq!(preds[0], 0);
        assert_eq!(preds[3], 1);
    }

    #[test]
    fn mlp_backbone_has_no_graph() {
        let (x, labels, train) = toy();
        let bb = Backbone::train(
            &x,
            &labels,
            &train,
            SubstituteKind::Dnn,
            &[8, 2],
            6,
            &cfg(),
            1,
        )
        .unwrap();
        assert!(bb.substitute_graph().is_none());
        let embs = bb.embeddings(&x).unwrap();
        assert_eq!(embs.len(), 2);
        assert_eq!(embs[1].shape(), (6, 2));
    }

    #[test]
    fn param_count_is_positive_and_matches_channels() {
        let (x, labels, train) = toy();
        let bb = Backbone::train(
            &x,
            &labels,
            &train,
            SubstituteKind::Knn { k: 1 },
            &[4, 2],
            6,
            &cfg(),
            0,
        )
        .unwrap();
        assert_eq!(bb.param_count(), 2 * 4 + 4 + 4 * 2 + 2);
    }
}
