use crate::VaultError;
use graph::{substitute, Graph};
use linalg::DenseMatrix;

/// How the public substitute adjacency `A′` is constructed (§IV-C), or
/// that the backbone is a plain MLP using no graph at all (the "DNN"
/// backbone of Table III).
///
/// The similarity-based constructions (`Knn`, `CosineThreshold`,
/// `CosineBudget`) run on `linalg::pairwise`'s tiled streaming engine:
/// peak memory is `O(tile · n)` rather than `n²`, so deployments can
/// build substitutes for graphs far beyond the point where a full
/// similarity matrix would fit in RAM.
///
/// # Examples
///
/// ```
/// # use linalg::DenseMatrix;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0]])?;
/// let kind = gnnvault::SubstituteKind::Knn { k: 1 };
/// let graph = kind.build(&x, 2, 0)?.expect("knn produces a graph");
/// assert!(graph.num_edges() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubstituteKind {
    /// No substitute graph: the backbone is an MLP on raw features.
    Dnn,
    /// Connect each node to its `k` most cosine-similar nodes (paper
    /// default: `k = 2`).
    Knn {
        /// Neighbours per node.
        k: usize,
    },
    /// Connect pairs whose cosine similarity is at least `tau`
    /// (paper Eq. 2).
    CosineThreshold {
        /// Similarity threshold.
        tau: f32,
    },
    /// Cosine graph whose edge count matches the real graph's (the
    /// density-matched "cosine" backbone of Table III).
    CosineBudget,
    /// Uniformly random graph with `ratio × real_edges` edges (the
    /// "random" backbone; Fig. 5 sweeps the ratio).
    Random {
        /// Edge budget as a fraction of the real graph's edge count.
        ratio: f64,
    },
}

impl SubstituteKind {
    /// Builds the substitute graph from public features.
    ///
    /// `real_edges` is the edge count of the private graph, used only
    /// for density matching (`CosineBudget`, `Random`); it is public in
    /// the paper's threat model only as an approximate budget — the
    /// harness passes the true count for faithfulness to §V-B2.
    ///
    /// Returns `Ok(None)` for [`SubstituteKind::Dnn`].
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Graph`] when the underlying generator
    /// rejects its parameters.
    pub fn build(
        &self,
        features: &DenseMatrix,
        real_edges: usize,
        seed: u64,
    ) -> Result<Option<Graph>, VaultError> {
        let n = features.rows();
        Ok(match *self {
            SubstituteKind::Dnn => None,
            SubstituteKind::Knn { k } => Some(substitute::knn_graph(features, k)?),
            SubstituteKind::CosineThreshold { tau } => {
                Some(substitute::cosine_graph(features, tau)?)
            }
            SubstituteKind::CosineBudget => {
                let max_edges = n * n.saturating_sub(1) / 2;
                Some(substitute::cosine_graph_with_budget(
                    features,
                    real_edges.min(max_edges),
                )?)
            }
            SubstituteKind::Random { ratio } => {
                if ratio < 0.0 || !ratio.is_finite() {
                    return Err(VaultError::InvalidConfig {
                        reason: format!("random edge ratio must be finite and >= 0, got {ratio}"),
                    });
                }
                let edges = (real_edges as f64 * ratio).round() as usize;
                Some(substitute::random_graph(n, edges, seed)?)
            }
        })
    }

    /// Short name used in table output ("DNN", "KNN", ...).
    pub fn label(&self) -> &'static str {
        match self {
            SubstituteKind::Dnn => "DNN",
            SubstituteKind::Knn { .. } => "KNN",
            SubstituteKind::CosineThreshold { .. } => "cosine",
            SubstituteKind::CosineBudget => "cosine",
            SubstituteKind::Random { .. } => "random",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[0.9, 0.1, 0.0],
            &[0.0, 1.0, 0.1],
            &[0.0, 0.9, 0.0],
            &[0.5, 0.5, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn dnn_builds_nothing() {
        assert!(SubstituteKind::Dnn
            .build(&features(), 4, 0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn knn_and_cosine_build_graphs() {
        let g = SubstituteKind::Knn { k: 2 }
            .build(&features(), 4, 0)
            .unwrap()
            .unwrap();
        assert!(g.num_edges() >= 2);
        let g = SubstituteKind::CosineThreshold { tau: 0.8 }
            .build(&features(), 4, 0)
            .unwrap()
            .unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn budget_kinds_match_real_density() {
        let real_edges = 4;
        let g = SubstituteKind::CosineBudget
            .build(&features(), real_edges, 0)
            .unwrap()
            .unwrap();
        assert!(g.num_edges() >= real_edges);
        let g = SubstituteKind::Random { ratio: 1.0 }
            .build(&features(), real_edges, 7)
            .unwrap()
            .unwrap();
        assert_eq!(g.num_edges(), real_edges);
        let half = SubstituteKind::Random { ratio: 0.5 }
            .build(&features(), real_edges, 7)
            .unwrap()
            .unwrap();
        assert_eq!(half.num_edges(), 2);
    }

    #[test]
    fn invalid_ratio_rejected() {
        assert!(SubstituteKind::Random { ratio: -1.0 }
            .build(&features(), 4, 0)
            .is_err());
        assert!(SubstituteKind::Random { ratio: f64::NAN }
            .build(&features(), 4, 0)
            .is_err());
    }

    #[test]
    fn labels_match_table3_columns() {
        assert_eq!(SubstituteKind::Dnn.label(), "DNN");
        assert_eq!(SubstituteKind::Knn { k: 2 }.label(), "KNN");
        assert_eq!(SubstituteKind::CosineBudget.label(), "cosine");
        assert_eq!(SubstituteKind::Random { ratio: 1.0 }.label(), "random");
    }
}
