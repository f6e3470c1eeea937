use graph::Graph;
use linalg::DenseMatrix;

/// A generated node-classification dataset: graph, features, labels, and
/// the semi-supervised split (20 labelled nodes per class by default,
/// everything else test — the protocol the paper follows).
#[derive(Debug, Clone, PartialEq)]
pub struct CitationDataset {
    /// Display name (spec name plus scale annotation).
    pub name: String,
    /// The real (private) graph.
    pub graph: Graph,
    /// Public node features, one row per node.
    pub features: DenseMatrix,
    /// Ground-truth class per node.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Indices of labelled training nodes.
    pub train_mask: Vec<usize>,
    /// Indices of test nodes (all unlabelled nodes).
    pub test_mask: Vec<usize>,
}

impl CitationDataset {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Node feature dimension.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Fraction of edges whose endpoints share a class — the
    /// assortativity that makes the private adjacency valuable (and worth
    /// stealing, per the paper's threat model).
    pub fn edge_homophily(&self) -> f64 {
        if self.graph.num_edges() == 0 {
            return 0.0;
        }
        let same = self
            .graph
            .edges()
            .iter()
            .filter(|&&(u, v)| self.labels[u] == self.labels[v])
            .count();
        same as f64 / self.graph.num_edges() as f64
    }

    /// Validates internal consistency; used by tests and the generator.
    pub fn check_consistency(&self) -> Result<(), String> {
        let n = self.graph.num_nodes();
        if self.features.rows() != n {
            return Err(format!(
                "feature rows {} != node count {n}",
                self.features.rows()
            ));
        }
        if self.labels.len() != n {
            return Err(format!(
                "label count {} != node count {n}",
                self.labels.len()
            ));
        }
        if let Some(&bad) = self.labels.iter().find(|&&l| l >= self.num_classes) {
            return Err(format!("label {bad} >= class count {}", self.num_classes));
        }
        for &i in self.train_mask.iter().chain(&self.test_mask) {
            if i >= n {
                return Err(format!("mask index {i} out of bounds"));
            }
        }
        let mut seen = vec![false; n];
        for &i in &self.train_mask {
            seen[i] = true;
        }
        if self.test_mask.iter().any(|&i| seen[i]) {
            return Err("train and test masks overlap".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CitationDataset {
        CitationDataset {
            name: "tiny".into(),
            graph: Graph::from_edges(4, &[(0, 1), (2, 3), (1, 2)]).unwrap(),
            features: DenseMatrix::zeros(4, 3),
            labels: vec![0, 0, 1, 1],
            num_classes: 2,
            train_mask: vec![0, 2],
            test_mask: vec![1, 3],
        }
    }

    #[test]
    fn consistency_accepts_valid() {
        assert!(tiny().check_consistency().is_ok());
    }

    #[test]
    fn consistency_rejects_bad_labels_and_masks() {
        let mut d = tiny();
        d.labels[0] = 9;
        assert!(d.check_consistency().is_err());

        let mut d = tiny();
        d.test_mask = vec![0];
        assert!(d.check_consistency().is_err());

        let mut d = tiny();
        d.train_mask = vec![100];
        assert!(d.check_consistency().is_err());
    }

    #[test]
    fn homophily_counts_same_class_edges() {
        let d = tiny();
        // Edges (0,1) same, (2,3) same, (1,2) cross -> 2/3.
        assert!((d.edge_homophily() - 2.0 / 3.0).abs() < 1e-12);
    }
}
