use crate::VaultError;
use graph::{normalization, Graph};
use linalg::{CsrMatrix, DenseMatrix};
use nn::{Network, TrainConfig};
use std::slice::from_ref;

/// The unprotected reference GNN (`porg` in the paper's tables): same
/// architecture as the backbone, trained and run with the *real*
/// adjacency matrix. Deploying this directly is exactly the insecure
/// baseline GNNVault exists to avoid — it is kept for evaluation and for
/// the `Morg` link-stealing attack surface.
///
/// # Examples
///
/// ```
/// use gnnvault::OriginalGnn;
/// use graph::Graph;
/// use linalg::DenseMatrix;
/// use nn::TrainConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, &[(0, 1), (2, 3)])?;
/// let x = DenseMatrix::from_rows(&[&[1.0], &[0.9], &[0.0], &[0.1]])?;
/// let cfg = TrainConfig { epochs: 20, ..Default::default() };
/// let model = OriginalGnn::train(&g, &x, &[0, 0, 1, 1], &[0, 2], &[4, 2], &cfg, 0)?;
/// assert_eq!(model.predict(&x)?.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OriginalGnn {
    network: Network,
    real_adj: CsrMatrix,
}

impl OriginalGnn {
    /// Trains the reference model on the real graph.
    ///
    /// # Errors
    ///
    /// Propagates architecture and training failures.
    pub fn train(
        real_graph: &Graph,
        features: &DenseMatrix,
        labels: &[usize],
        train_mask: &[usize],
        channels: &[usize],
        cfg: &TrainConfig,
        seed: u64,
    ) -> Result<OriginalGnn, VaultError> {
        let real_adj = normalization::gcn_normalize(real_graph);
        let mut network = Network::new(features.cols(), channels, seed)?;
        network.fit(Some(&real_adj), from_ref(features), labels, train_mask, cfg)?;
        Ok(OriginalGnn { network, real_adj })
    }

    /// Per-layer embeddings (the `Morg` attack surface of Table IV).
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Nn`] on shape inconsistencies.
    pub fn embeddings(&self, features: &DenseMatrix) -> Result<Vec<DenseMatrix>, VaultError> {
        Ok(self
            .network
            .forward_embeddings(Some(&self.real_adj), from_ref(features))?)
    }

    /// Predicted classes.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Nn`] on shape inconsistencies.
    pub fn predict(&self, features: &DenseMatrix) -> Result<Vec<usize>, VaultError> {
        Ok(self
            .network
            .predict(Some(&self.real_adj), from_ref(features))?)
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.network.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_on_real_graph_and_uses_structure() {
        // Features are useless (all equal); only the graph separates
        // the two communities, so accuracy > chance proves the real
        // adjacency is used.
        let n = 12;
        let mut edges: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 1)).collect();
        edges.extend((6..11).map(|i| (i, i + 1)));
        // Join train nodes tightly within each community.
        edges.push((0, 2));
        edges.push((6, 8));
        let g = Graph::from_edges(n, &edges).unwrap();
        // One-hot position features so the GCN can propagate identity.
        let x = DenseMatrix::identity(n);
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= 6)).collect();
        let train = vec![0, 1, 2, 6, 7, 8];
        let cfg = TrainConfig {
            epochs: 150,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        };
        let model = OriginalGnn::train(&g, &x, &labels, &train, &[8, 2], &cfg, 1).unwrap();
        let preds = model.predict(&x).unwrap();
        let acc = metrics::accuracy(&preds, &labels).unwrap();
        assert!(acc >= 0.8, "accuracy {acc}");
        assert_eq!(model.embeddings(&x).unwrap().len(), 2);
        assert_eq!(model.param_count(), 12 * 8 + 8 + 8 * 2 + 2);
    }
}
