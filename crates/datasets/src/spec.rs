/// Target statistics for one dataset row of the paper's Table I.
///
/// `num_edges` follows the Planetoid convention used by the paper:
/// it counts *directed* edges (each undirected edge twice).
///
/// # Examples
///
/// ```
/// let cora = datasets::DatasetSpec::CORA;
/// assert_eq!(cora.num_nodes, 2708);
/// assert_eq!(cora.undirected_edges(), 5278);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetSpec {
    /// Dataset display name.
    pub name: &'static str,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of directed edges (Table I convention).
    pub num_edges: usize,
    /// Node feature dimension.
    pub num_features: usize,
    /// Number of classes.
    pub num_classes: usize,
}

impl DatasetSpec {
    /// Cora citation network (Table I row 1).
    pub const CORA: DatasetSpec = DatasetSpec {
        name: "Cora",
        num_nodes: 2708,
        num_edges: 10_556,
        num_features: 1433,
        num_classes: 7,
    };

    /// Citeseer citation network (Table I row 2).
    pub const CITESEER: DatasetSpec = DatasetSpec {
        name: "Citeseer",
        num_nodes: 3327,
        num_edges: 9104,
        num_features: 3703,
        num_classes: 6,
    };

    /// Pubmed citation network (Table I row 3).
    pub const PUBMED: DatasetSpec = DatasetSpec {
        name: "Pubmed",
        num_nodes: 19_717,
        num_edges: 88_648,
        num_features: 500,
        num_classes: 3,
    };

    /// Amazon Computer co-purchase graph (Table I row 4).
    pub const COMPUTER: DatasetSpec = DatasetSpec {
        name: "Computer",
        num_nodes: 13_752,
        num_edges: 491_722,
        num_features: 767,
        num_classes: 10,
    };

    /// Amazon Photo co-purchase graph (Table I row 5).
    pub const PHOTO: DatasetSpec = DatasetSpec {
        name: "Photo",
        num_nodes: 7650,
        num_edges: 238_162,
        num_features: 745,
        num_classes: 8,
    };

    /// CoraFull extended citation network (Table I row 6).
    pub const CORAFULL: DatasetSpec = DatasetSpec {
        name: "CoraFull",
        num_nodes: 19_793,
        num_edges: 126_842,
        num_features: 8710,
        num_classes: 70,
    };

    /// All six Table I specs in paper order.
    pub const ALL: [DatasetSpec; 6] = [
        Self::CORA,
        Self::CITESEER,
        Self::PUBMED,
        Self::COMPUTER,
        Self::PHOTO,
        Self::CORAFULL,
    ];

    /// Number of undirected edges (`num_edges / 2`).
    pub fn undirected_edges(&self) -> usize {
        self.num_edges / 2
    }

    /// Dense adjacency memory in MB at 8 bytes per entry — the
    /// "DenseA (MB)" Table I column (the paper's figures track the
    /// float64 dense matrix).
    pub fn dense_adjacency_mb(&self) -> f64 {
        graph::stats::dense_adjacency_mb_f64(self.num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_counts() {
        assert_eq!(DatasetSpec::ALL.len(), 6);
        assert_eq!(DatasetSpec::CITESEER.num_classes, 6);
        assert_eq!(DatasetSpec::CORAFULL.num_classes, 70);
        assert_eq!(DatasetSpec::COMPUTER.undirected_edges(), 245_861);
    }

    #[test]
    fn dense_adjacency_matches_table1_order_of_magnitude() {
        // Table I reports 167.85 MB for Cora; 8-byte entries land within
        // a factor of ~3 (the paper's figure includes framework overhead).
        let mb = DatasetSpec::CORA.dense_adjacency_mb();
        assert!(mb > 50.0 && mb < 200.0, "cora dense MB {mb}");
        // And the large graphs decisively exceed the 128 MB PRM.
        assert!(DatasetSpec::PUBMED.dense_adjacency_mb() > 1000.0);
    }
}
