//! Adjacency normalization kernels for message passing.
//!
//! The GCN propagation matrix (paper Eq. 1) is
//! `Â = D̃^-1/2 (A + I) D̃^-1/2` where `D̃` is the degree matrix of
//! `A + I`. The enclave precomputes the degree vector alongside the COO
//! edge list to speed up normalization (§IV-E); [`gcn_normalize_with_degrees`]
//! models exactly that path.

use crate::Graph;
use linalg::CsrMatrix;

/// Computes the symmetric GCN propagation matrix
/// `Â = D̃^-1/2 (A + I) D̃^-1/2` in CSR form.
///
/// # Examples
///
/// ```
/// # use graph::{Graph, normalization};
/// # fn main() -> Result<(), graph::GraphError> {
/// let g = Graph::from_edges(2, &[(0, 1)])?;
/// let a_hat = normalization::gcn_normalize(&g);
/// // Both nodes have degree 2 after the self-loop, so every entry is 1/2.
/// assert!((a_hat.get(0, 0) - 0.5).abs() < 1e-6);
/// assert!((a_hat.get(0, 1) - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn gcn_normalize(graph: &Graph) -> CsrMatrix {
    let degrees: Vec<usize> = graph.degrees();
    gcn_normalize_with_degrees(graph, &degrees)
}

/// Computes `Â` from a graph plus a precomputed (self-loop-free) degree
/// vector, the exact data layout the enclave holds per §IV-E.
///
/// # Panics
///
/// Panics if `degrees.len() != graph.num_nodes()`.
pub fn gcn_normalize_with_degrees(graph: &Graph, degrees: &[usize]) -> CsrMatrix {
    let n = graph.num_nodes();
    assert_eq!(degrees.len(), n, "degree vector length mismatch");
    // D̃ includes the self-loop, hence degree + 1.
    let inv_sqrt: Vec<f32> = degrees
        .iter()
        .map(|&d| 1.0 / ((d as f32 + 1.0).sqrt()))
        .collect();
    let mut triplets = Vec::with_capacity(graph.num_edges() * 2 + n);
    for (i, &isq) in inv_sqrt.iter().enumerate() {
        triplets.push((i, i, isq * isq));
    }
    for &(u, v) in graph.edges() {
        let w = inv_sqrt[u] * inv_sqrt[v];
        triplets.push((u, v, w));
        triplets.push((v, u, w));
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("validated graph indices")
}

/// Row-normalized mean aggregator `D̃^-1 (A + I)`, used by the
/// GraphSAGE-style extension layers (paper §VI future work).
pub fn row_normalize(graph: &Graph) -> CsrMatrix {
    row_normalize_with_degrees(graph, &graph.degrees())
}

/// [`row_normalize`] from a precomputed (self-loop-free) degree vector:
/// like [`gcn_normalize_with_degrees`], what makes an induced
/// subgraph's rows agree with the full graph's.
///
/// # Panics
///
/// Panics if `degrees.len() != graph.num_nodes()`.
pub fn row_normalize_with_degrees(graph: &Graph, degrees: &[usize]) -> CsrMatrix {
    let n = graph.num_nodes();
    assert_eq!(degrees.len(), n, "degree vector length mismatch");
    let inv: Vec<f32> = degrees.iter().map(|&d| 1.0 / (d as f32 + 1.0)).collect();
    let mut triplets = Vec::with_capacity(graph.num_edges() * 2 + n);
    for (i, &w) in inv.iter().enumerate() {
        triplets.push((i, i, w));
    }
    for &(u, v) in graph.edges() {
        triplets.push((u, v, inv[u]));
        triplets.push((v, u, inv[v]));
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("validated graph indices")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge_pair_normalization() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let a = gcn_normalize(&g);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert!((a.get(r, c) - 0.5).abs() < 1e-6, "entry ({r},{c})");
        }
    }

    #[test]
    fn isolated_node_keeps_unit_self_loop() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let a = gcn_normalize(&g);
        assert!((a.get(2, 2) - 1.0).abs() < 1e-6);
        assert_eq!(a.get(2, 0), 0.0);
    }

    #[test]
    fn gcn_matrix_is_symmetric() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        let a = gcn_normalize(&g);
        assert!(a.is_symmetric(1e-6));
        assert_eq!(a.nnz(), g.num_directed_edges() + 5);
    }

    #[test]
    fn precomputed_degrees_match_recomputed() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let deg = g.degrees();
        let a = gcn_normalize(&g);
        let b = gcn_normalize_with_degrees(&g, &deg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "degree vector length mismatch")]
    fn wrong_degree_length_panics() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        gcn_normalize_with_degrees(&g, &[1, 1]);
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        let a = row_normalize(&g);
        let ones = linalg::DenseMatrix::filled(4, 1, 1.0);
        let sums = a.spmm(&ones).unwrap();
        for r in 0..4 {
            assert!((sums.get(r, 0) - 1.0).abs() < 1e-6, "row {r}");
        }
    }

    #[test]
    fn spectral_radius_of_gcn_matrix_is_at_most_one() {
        // Power iteration: Â is symmetric PSD-normalized; its largest
        // eigenvalue is exactly 1 for any graph.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
            .unwrap();
        let a = gcn_normalize(&g);
        let mut v = linalg::DenseMatrix::filled(6, 1, 1.0);
        for _ in 0..100 {
            v = a.spmm(&v).unwrap();
            let norm = v.frobenius_norm();
            v = v.scale(1.0 / norm);
        }
        let av = a.spmm(&v).unwrap();
        let lambda = av.frobenius_norm() / v.frobenius_norm();
        assert!(lambda <= 1.0 + 1e-4, "spectral radius {lambda}");
        assert!(
            lambda > 0.9,
            "dominant eigenvalue should be ~1, got {lambda}"
        );
    }
}
