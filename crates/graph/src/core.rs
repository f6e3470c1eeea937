use crate::GraphError;
use std::collections::BTreeSet;

/// An undirected, unweighted graph over `n` nodes.
///
/// Edges are stored canonically as `(min, max)` pairs in a sorted,
/// deduplicated list — i.e. the Coordinate (COO) format the paper uses to
/// hold the private adjacency inside the enclave (§IV-E). Self-loops are
/// never stored; GCN normalization adds them transiently.
///
/// # Examples
///
/// ```
/// use graph::Graph;
///
/// # fn main() -> Result<(), graph::GraphError> {
/// let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2)])?; // duplicate collapses
/// assert_eq!(g.num_edges(), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    num_nodes: usize,
    /// Canonical `(min, max)` undirected edges, sorted ascending.
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Creates a graph with `num_nodes` nodes and no edges.
    pub fn empty(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Builds a graph from undirected edge pairs.
    ///
    /// Pairs are canonicalized (`(u, v)` and `(v, u)` collapse) and
    /// deduplicated.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] for invalid node indices
    /// and [`GraphError::SelfLoop`] for `(u, u)` pairs.
    pub fn from_edges(num_nodes: usize, pairs: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut set = BTreeSet::new();
        for &(u, v) in pairs {
            if u >= num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: u, num_nodes });
            }
            if v >= num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: v, num_nodes });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            set.insert((u.min(v), u.max(v)));
        }
        Ok(Self {
            num_nodes,
            edges: set.into_iter().collect(),
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of *directed* edges (`2 × num_edges`), the convention used
    /// by the Planetoid dataset statistics in Table I of the paper.
    pub fn num_directed_edges(&self) -> usize {
        self.edges.len() * 2
    }

    /// The canonical sorted edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Whether the undirected edge `{u, v}` exists.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of bounds.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "node out of bounds"
        );
        if u == v {
            return false;
        }
        self.edges.binary_search(&(u.min(v), u.max(v))).is_ok()
    }

    /// Degree of node `u` (number of incident undirected edges).
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes`.
    pub fn degree(&self, u: usize) -> usize {
        assert!(u < self.num_nodes, "node out of bounds");
        self.edges
            .iter()
            .filter(|&&(a, b)| a == u || b == u)
            .count()
    }

    /// Degrees of all nodes as a vector (single pass over the edges).
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg
    }

    /// Neighbor list of node `u` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes`.
    pub fn neighbors(&self, u: usize) -> Vec<usize> {
        assert!(u < self.num_nodes, "node out of bounds");
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == u {
                    Some(b)
                } else if b == u {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Adds an undirected edge, returning whether it was newly inserted.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::SelfLoop`]
    /// for invalid pairs.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<bool, GraphError> {
        if u >= self.num_nodes {
            return Err(GraphError::NodeOutOfBounds {
                node: u,
                num_nodes: self.num_nodes,
            });
        }
        if v >= self.num_nodes {
            return Err(GraphError::NodeOutOfBounds {
                node: v,
                num_nodes: self.num_nodes,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let key = (u.min(v), u.max(v));
        match self.edges.binary_search(&key) {
            Ok(_) => Ok(false),
            Err(pos) => {
                self.edges.insert(pos, key);
                Ok(true)
            }
        }
    }

    /// Size in bytes of the COO payload (two `u32` per edge), matching
    /// the enclave storage estimate in §IV-E.
    pub fn coo_nbytes(&self) -> usize {
        self.edges.len() * 2 * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_leaf() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn canonicalizes_and_dedupes() {
        let g = Graph::from_edges(3, &[(1, 0), (0, 1), (2, 1)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn rejects_out_of_bounds_and_self_loops() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfBounds { node: 5, .. })
        ));
        assert!(matches!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        ));
    }

    #[test]
    fn degree_and_neighbors() {
        let g = triangle_plus_leaf();
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), vec![0, 1, 3]);
        assert_eq!(g.degrees(), vec![2, 2, 3, 1]);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_leaf();
        assert!(g.has_edge(3, 2));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn add_edge_keeps_sorted_invariant() {
        let mut g = Graph::empty(4);
        assert!(g.add_edge(3, 1).unwrap());
        assert!(g.add_edge(0, 2).unwrap());
        assert!(!g.add_edge(1, 3).unwrap()); // duplicate
        assert_eq!(g.edges(), &[(0, 2), (1, 3)]);
        assert!(g.add_edge(0, 0).is_err());
        assert!(g.add_edge(0, 9).is_err());
    }

    #[test]
    fn coo_bytes() {
        assert_eq!(triangle_plus_leaf().coo_nbytes(), 4 * 8);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
