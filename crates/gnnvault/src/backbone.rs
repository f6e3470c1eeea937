use crate::{SubstituteKind, VaultError};
use graph::{normalization, Graph};
use linalg::{CsrMatrix, DenseMatrix};
use nn::{GcnNetwork, MlpNetwork, TrainConfig};
use serde::{Deserialize, Serialize};

/// The public backbone model deployed in the untrusted world (§IV-C).
///
/// Either a GCN trained on a substitute graph, or — for the Table III
/// "DNN" baseline — an MLP that ignores graph structure entirely. The
/// backbone (and, for GCN variants, its substitute graph) is what an
/// attacker with full control of the normal world can inspect.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Backbone {
    /// GCN over a substitute adjacency.
    Gcn {
        /// The trained network.
        network: GcnNetwork,
        /// The public substitute graph (deployed alongside the model).
        substitute_graph: Graph,
        /// Normalized substitute adjacency used at inference time.
        substitute_adj: CsrMatrix,
        /// How the substitute was constructed (metadata for reports).
        kind: SubstituteKind,
    },
    /// Structure-free MLP (Table III "DNN" backbone).
    Mlp {
        /// The trained network.
        network: MlpNetwork,
    },
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
        match kind.build(features, real_edges, seed)? {
            None => {
                let mut network = MlpNetwork::new(features.cols(), channels, seed)?;
                network.fit(features, labels, train_mask, cfg)?;
                Ok(Backbone::Mlp { network })
            }
            Some(substitute_graph) => {
                let substitute_adj = normalization::gcn_normalize(&substitute_graph);
                let mut network = GcnNetwork::new(features.cols(), channels, seed)?;
                network.fit(&substitute_adj, features, labels, train_mask, cfg)?;
                Ok(Backbone::Gcn {
                    network,
                    substitute_graph,
                    substitute_adj,
                    kind,
                })
            }
        }
    }

    /// Per-layer embeddings on the *public* data path (substitute
    /// adjacency for GCN backbones, none for the MLP) — the intermediate
    /// data visible to the attacker and consumed by the rectifier.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Nn`] on shape inconsistencies.
    pub fn embeddings(&self, features: &DenseMatrix) -> Result<Vec<DenseMatrix>, VaultError> {
        Ok(match self {
            Backbone::Gcn {
                network,
                substitute_adj,
                ..
            } => network.forward_embeddings(substitute_adj, features)?,
            Backbone::Mlp { network } => network.forward_embeddings(features)?,
        })
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
        match self {
            Backbone::Gcn { network, .. } => network.channel_dims(),
            Backbone::Mlp { network } => network.channel_dims(),
        }
    }

    /// Trainable parameter count (`θbb`).
    pub fn param_count(&self) -> usize {
        match self {
            Backbone::Gcn { network, .. } => network.param_count(),
            Backbone::Mlp { network } => network.param_count(),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        match self {
            Backbone::Gcn { network, .. } => network.num_layers(),
            Backbone::Mlp { network } => network.num_layers(),
        }
    }

    /// The substitute graph, when one exists.
    pub fn substitute_graph(&self) -> Option<&Graph> {
        match self {
            Backbone::Gcn {
                substitute_graph, ..
            } => Some(substitute_graph),
            Backbone::Mlp { .. } => None,
        }
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
