//! Graph statistics reported in Table I of the paper.

use crate::Graph;

/// Memory footprint in megabytes of a dense `n × n` `f32` adjacency
/// matrix — the "DenseA (MB)" column of Table I, which motivates keeping
/// the private graph in COO inside the enclave.
///
/// # Examples
///
/// ```
/// // Cora: 2708 nodes -> ~28 MB at f32 (the paper's Table I reports
/// // float64-per-entry figures; see `dense_adjacency_mb_f64`).
/// let mb = graph::stats::dense_adjacency_mb_f32(2708);
/// assert!(mb > 27.0 && mb < 29.0);
/// ```
pub fn dense_adjacency_mb_f32(num_nodes: usize) -> f64 {
    (num_nodes as f64) * (num_nodes as f64) * 4.0 / (1024.0 * 1024.0)
}

/// Dense adjacency size in MB at 8 bytes per entry. Table I's numbers
/// correspond to PyTorch's default float64 tensors for dense adjacency
/// matrices plus overhead: Cora (2708 nodes) is listed at 167.85 MB ≈
/// `2708² × 8 / 1e6` × a small constant. We report both f32 and f64
/// figures in the Table I harness.
pub fn dense_adjacency_mb_f64(num_nodes: usize) -> f64 {
    (num_nodes as f64) * (num_nodes as f64) * 8.0 / (1024.0 * 1024.0)
}

/// Edge density: fraction of possible node pairs that are edges.
pub fn density(graph: &Graph) -> f64 {
    let n = graph.num_nodes();
    if n < 2 {
        return 0.0;
    }
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    graph.num_edges() as f64 / pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn dense_sizes_scale_quadratically() {
        let one = dense_adjacency_mb_f32(1000);
        let two = dense_adjacency_mb_f32(2000);
        assert!((two / one - 4.0).abs() < 1e-9);
        assert!((dense_adjacency_mb_f64(1000) / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cora_scale_dense_adjacency_exceeds_sgx_prm() {
        // The motivating observation of §III-C: even mid-sized graphs
        // cannot hold a dense adjacency inside the 128 MB PRM.
        assert!(dense_adjacency_mb_f64(19717) > 128.0); // Pubmed
        assert!(dense_adjacency_mb_f64(13752) > 128.0); // Computer
    }

    #[test]
    fn density_of_complete_and_empty() {
        let complete =
            Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        assert!((density(&complete) - 1.0).abs() < 1e-12);
        assert_eq!(density(&Graph::empty(4)), 0.0);
        assert_eq!(density(&Graph::empty(1)), 0.0);
    }
}
