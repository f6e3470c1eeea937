//! k-hop closures: the receptive field of a node set, as an induced
//! subgraph.
//!
//! The paper's threat model lets the attacker "query the GNN model with
//! any chosen node"; a realistic edge deployment answers such queries on
//! the node's k-hop neighbourhood (k = number of GCN layers) rather than
//! the full graph. [`closure`] extracts that neighbourhood for any seed
//! set, with the node mapping needed to translate features and read back
//! the seeds' outputs: [`ego_graph`] is the single-seed call and
//! [`crate::partition`] the owned-set call.

use crate::{Graph, GraphError};
use std::collections::{BTreeSet, VecDeque};

/// The `hops`-hop closure of a seed set: every node within `hops` of a
/// seed, the subgraph they induce, and the mapping from its dense local
/// ids back to the ids of the graph it was cut from.
///
/// Local ids preserve ascending global-id order, so a normalized
/// adjacency built from `graph` accumulates each row in exactly the
/// order the full-graph adjacency would. `degrees` carries each selected
/// node's degree in the *full* graph: boundary nodes lose edges in the
/// induced subgraph, so exact GCN equivalence requires normalizing with
/// the original degrees
/// ([`crate::normalization::gcn_normalize_with_degrees`]). With both, a
/// k-hop closure computes every seed's k-layer GCN propagation
/// bit-identically to the full graph (verified by this module's tests
/// and [`crate::partition`]'s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closure {
    /// `ids[local] = global`, strictly ascending.
    pub ids: Vec<usize>,
    /// The induced subgraph over `ids`, with dense local ids.
    pub graph: Graph,
    /// Full-graph degree of each selected node, indexed by local id.
    pub degrees: Vec<usize>,
}

impl Closure {
    /// The closure that selects everything: `graph` itself under the
    /// identity mapping, with its own degrees.
    pub fn whole(graph: Graph) -> Self {
        Self {
            ids: (0..graph.num_nodes()).collect(),
            degrees: graph.degrees(),
            graph,
        }
    }

    /// Translates a global node id into the closure's dense local id.
    pub fn local_id(&self, global: usize) -> Option<usize> {
        self.ids.binary_search(&global).ok()
    }
}

/// Per-node neighbour lists of `graph` (one pass over the edges) — the
/// lookup structure [`closure`] expands over. Callers cutting several
/// closures from one graph build it once.
pub fn adjacency_lists(graph: &Graph) -> Vec<Vec<usize>> {
    let mut adjacency = vec![Vec::new(); graph.num_nodes()];
    for &(u, v) in graph.edges() {
        adjacency[u].push(v);
        adjacency[v].push(u);
    }
    adjacency
}

/// Extracts the `hops`-hop closure of `seeds`: a multi-source BFS over
/// `adjacency` (which must be [`adjacency_lists`] of `graph`), then the
/// induced subgraph.
///
/// `hops = 0` yields just the seeds. The subgraph contains every edge of
/// `graph` whose endpoints are both within range — exactly the
/// information a `hops`-layer GCN needs to compute the seeds'
/// embeddings. Duplicate seeds are harmless.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] when a seed is invalid.
///
/// # Examples
///
/// ```
/// use graph::{subgraph, Graph};
///
/// # fn main() -> Result<(), graph::GraphError> {
/// let path = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])?;
/// let lists = subgraph::adjacency_lists(&path);
/// let c = subgraph::closure(&path, &lists, &[0, 4], 1)?;
/// assert_eq!(c.ids, vec![0, 1, 3, 4, 5]); // both 1-hop balls
/// assert_eq!(c.graph.num_edges(), 3); // 0-1, 3-4, 4-5
/// assert_eq!(c.degrees, vec![1, 2, 2, 2, 1]); // node 1 and 3 lost an edge
/// # Ok(())
/// # }
/// ```
pub fn closure(
    graph: &Graph,
    adjacency: &[Vec<usize>],
    seeds: &[usize],
    hops: usize,
) -> Result<Closure, GraphError> {
    if let Some(&node) = seeds.iter().find(|&&s| s >= graph.num_nodes()) {
        return Err(GraphError::NodeOutOfBounds {
            node,
            num_nodes: graph.num_nodes(),
        });
    }
    let mut selected: BTreeSet<usize> = seeds.iter().copied().collect();
    let mut queue: VecDeque<(usize, usize)> = selected.iter().map(|&s| (s, 0)).collect();
    while let Some((u, depth)) = queue.pop_front() {
        if depth == hops {
            continue;
        }
        for &v in &adjacency[u] {
            if selected.insert(v) {
                queue.push_back((v, depth + 1));
            }
        }
    }
    let ids: Vec<usize> = selected.into_iter().collect();
    // Every induced edge is seen from its smaller endpoint's list.
    let mut edges = Vec::new();
    for (lu, &u) in ids.iter().enumerate() {
        for &v in adjacency[u].iter().filter(|&&v| v > u) {
            if let Ok(lv) = ids.binary_search(&v) {
                edges.push((lu, lv));
            }
        }
    }
    let degrees = ids.iter().map(|&u| adjacency[u].len()).collect();
    Ok(Closure {
        graph: Graph::from_edges(ids.len(), &edges)?,
        ids,
        degrees,
    })
}

/// Extracts the `hops`-hop neighbourhood of `center` — the closure of
/// the single seed `center`; its dense id inside the result is
/// `local_id(center)`.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] when `center` is invalid.
///
/// # Examples
///
/// ```
/// use graph::{subgraph, Graph};
///
/// # fn main() -> Result<(), graph::GraphError> {
/// let path = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])?;
/// let ego = subgraph::ego_graph(&path, 2, 1)?;
/// assert_eq!(ego.ids, vec![1, 2, 3]); // node 2 and its 1-hop ball
/// assert_eq!(ego.graph.num_edges(), 2);
/// assert_eq!(ego.local_id(2), Some(1));
/// # Ok(())
/// # }
/// ```
pub fn ego_graph(graph: &Graph, center: usize, hops: usize) -> Result<Closure, GraphError> {
    closure(graph, &adjacency_lists(graph), &[center], hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition, PartitionSpec};
    use proptest::prelude::*;

    fn path5() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn zero_hops_is_just_the_center() {
        let ego = ego_graph(&path5(), 2, 0).unwrap();
        assert_eq!(ego.ids, vec![2]);
        assert_eq!(ego.graph.num_nodes(), 1);
        assert_eq!(ego.graph.num_edges(), 0);
        assert_eq!(ego.local_id(2), Some(0));
    }

    #[test]
    fn one_hop_neighbourhood_on_a_path() {
        let ego = ego_graph(&path5(), 2, 1).unwrap();
        assert_eq!(ego.ids, vec![1, 2, 3]);
        assert_eq!(ego.graph.num_edges(), 2);
        assert_eq!(ego.local_id(2), Some(1));
        assert_eq!(ego.local_id(0), None);
    }

    #[test]
    fn hops_cover_whole_component() {
        let ego = ego_graph(&path5(), 0, 10).unwrap();
        assert_eq!(ego, Closure::whole(path5()));
    }

    #[test]
    fn disconnected_component_is_excluded() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let ego = ego_graph(&g, 0, 3).unwrap();
        assert_eq!(ego.ids, vec![0, 1, 2]);
    }

    #[test]
    fn induced_edges_include_cross_links() {
        // Triangle + tail: ego of node 0 at 1 hop picks the triangle and
        // the 1-2 edge between the two neighbours.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let ego = ego_graph(&g, 0, 1).unwrap();
        assert_eq!(ego.ids, vec![0, 1, 2]);
        assert_eq!(ego.graph.num_edges(), 3, "induced subgraph keeps 1-2");
    }

    #[test]
    fn invalid_seed_rejected() {
        assert!(ego_graph(&path5(), 9, 1).is_err());
        let lists = adjacency_lists(&path5());
        assert!(matches!(
            closure(&path5(), &lists, &[1, 7], 1),
            Err(GraphError::NodeOutOfBounds { node: 7, .. })
        ));
    }

    #[test]
    fn ego_embedding_matches_full_graph_for_k_layer_gcn() {
        // The motivating property: a k-hop ego graph with *original*
        // degrees computes the center's k-layer GCN propagation exactly,
        // even though boundary nodes lost edges.
        use linalg::DenseMatrix;
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)])
            .unwrap();
        let x = DenseMatrix::from_fn(7, 3, |r, c| ((r * 3 + c) as f32).sin());
        let full_adj = crate::normalization::gcn_normalize(&g);
        // Two propagation steps on the full graph.
        let full = full_adj.spmm(&full_adj.spmm(&x).unwrap()).unwrap();

        let center = 3usize;
        let ego = ego_graph(&g, center, 2).unwrap();
        let ego_x = x.select_rows(&ego.ids).unwrap();
        let ego_adj = crate::normalization::gcn_normalize_with_degrees(&ego.graph, &ego.degrees);
        let local = ego_adj.spmm(&ego_adj.spmm(&ego_x).unwrap()).unwrap();

        for c in 0..3 {
            let a = full.get(center, c);
            let b = local.get(ego.local_id(center).unwrap(), c);
            assert!((a - b).abs() < 1e-5, "col {c}: {a} vs {b}");
        }
        // Sanity: node 5 sits on the boundary and indeed lost an edge.
        let five = ego.local_id(5).unwrap();
        assert_eq!(ego.graph.degree(five), 1);
        assert_eq!(ego.degrees[five], 2);
    }

    /// The oracle: what `ego_graph` and `partition::extract` each
    /// computed before they shared [`closure`], written the slow way —
    /// the union of one BFS ball per seed over `Graph::neighbors`, the
    /// edge list filtered by membership, `Graph::degree` per node.
    fn brute_force(graph: &Graph, seeds: &[usize], hops: usize) -> Closure {
        let mut selected = BTreeSet::new();
        for &seed in seeds {
            let mut ball = BTreeSet::from([seed]);
            for _ in 0..hops {
                for u in ball.clone() {
                    ball.extend(graph.neighbors(u));
                }
            }
            selected.extend(ball);
        }
        let ids: Vec<usize> = selected.into_iter().collect();
        let local = |n: usize| ids.iter().position(|&id| id == n);
        let edges: Vec<(usize, usize)> = graph
            .edges()
            .iter()
            .filter_map(|&(u, v)| Some((local(u)?, local(v)?)))
            .collect();
        Closure {
            graph: Graph::from_edges(ids.len(), &edges).unwrap(),
            degrees: ids.iter().map(|&n| graph.degree(n)).collect(),
            ids,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn closure_is_the_union_of_per_seed_balls(
            n in 1usize..18,
            edge_bits in proptest::collection::vec(0u8..100, 153),
            seed_picks in proptest::collection::vec(0usize..18, 1..6),
            hops in 0usize..4,
            nparts in 1usize..4,
        ) {
            let mut pairs = Vec::new();
            let mut bit = edge_bits.iter();
            for u in 0..n {
                for v in (u + 1)..n {
                    if *bit.next().unwrap() < 16 {
                        pairs.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, &pairs).unwrap();
            let lists = adjacency_lists(&g);
            let seeds: Vec<usize> = seed_picks.iter().map(|s| s % n).collect();

            let got = closure(&g, &lists, &seeds, hops).unwrap();
            prop_assert!(got.ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
            prop_assert_eq!(&got, &brute_force(&g, &seeds, hops));

            // A singleton seed is the ego graph as it was.
            let ego = ego_graph(&g, seeds[0], hops).unwrap();
            prop_assert_eq!(&ego, &brute_force(&g, &seeds[..1], hops));
            prop_assert!(ego.local_id(seeds[0]).is_some());

            // An owned block is the graph partition as it was.
            let spec = PartitionSpec::block(n, nparts).unwrap();
            for (part, p) in partition(&g, &spec, hops).unwrap().iter().enumerate() {
                let owned: Vec<usize> = spec.range(part).collect();
                prop_assert_eq!(p, &brute_force(&g, &owned, hops));
            }
        }
    }
}
