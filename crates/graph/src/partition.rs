//! Deterministic edge-cut graph partitioning with halos.
//!
//! A partitioned deployment splits the private real graph across shards
//! instead of replicating it: each partition *owns* a disjoint set of
//! nodes and carries a **halo** of out-of-partition neighbours so local
//! aggregation sees exactly the rows a sequential full-graph pass would.
//! Ownership is a pure function of the node id ([`PartitionSpec::owner_of`])
//! — independent of the private edges — so a router can locate a node's
//! shard without ever touching the private adjacency; only the halo
//! (which stays sealed inside each partition) depends on the edges.
//!
//! Combined with full-graph degrees
//! ([`crate::normalization::gcn_normalize_with_degrees`]), a partition
//! with an `L`-hop halo computes each owned node's `L`-layer GCN
//! propagation bit-identically to the full graph — it is the
//! [`crate::subgraph::closure`] of the owned set (verified by this
//! module's tests).

use crate::subgraph::{adjacency_lists, closure, Closure};
use crate::{Graph, GraphError};

/// How nodes are assigned to partitions.
///
/// Both strategies are pure functions of `(node, num_nodes, parts)` plus
/// the strategy itself — deterministic across processes and releases, so
/// a router and a sealed partition snapshot always agree on ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous blocks: node `i` belongs to block `i / ceil(n / parts)`.
    /// Preserves locality for id-clustered graphs (e.g. ring topologies).
    Block,
    /// Seeded SplitMix64 hash of the node id: `mix(node ^ seed) % parts`.
    /// Spreads hot id ranges uniformly at the cost of more cut edges.
    Hash {
        /// Seed mixed into every node id before bucketing.
        seed: u64,
    },
}

/// A deterministic node-to-partition assignment over a fixed node count.
///
/// # Examples
///
/// ```
/// use graph::partition::PartitionSpec;
///
/// let spec = PartitionSpec::block(10, 4).unwrap();
/// assert_eq!(spec.owner_of(0), 0);
/// assert_eq!(spec.owner_of(9), 3);
/// // Every node has exactly one owner.
/// assert!((0..10).all(|n| spec.owner_of(n) < spec.num_parts()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    num_nodes: usize,
    parts: usize,
    strategy: PartitionStrategy,
}

/// SplitMix64 finalizer — the same mixer the serving router used for
/// hash-sharding, kept here so ownership stays a stable public function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PartitionSpec {
    /// A contiguous-block assignment of `num_nodes` nodes to `parts`
    /// partitions.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] when `parts == 0`.
    pub fn block(num_nodes: usize, parts: usize) -> Result<Self, GraphError> {
        Self::with_strategy(num_nodes, parts, PartitionStrategy::Block)
    }

    /// A seeded hash assignment of `num_nodes` nodes to `parts`
    /// partitions.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] when `parts == 0`.
    pub fn hash(num_nodes: usize, parts: usize, seed: u64) -> Result<Self, GraphError> {
        Self::with_strategy(num_nodes, parts, PartitionStrategy::Hash { seed })
    }

    /// An assignment with an explicit [`PartitionStrategy`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] when `parts == 0`.
    pub fn with_strategy(
        num_nodes: usize,
        parts: usize,
        strategy: PartitionStrategy,
    ) -> Result<Self, GraphError> {
        if parts == 0 {
            return Err(GraphError::InvalidParameter {
                name: "parts",
                reason: "a partitioning needs at least one partition".into(),
            });
        }
        Ok(Self {
            num_nodes,
            parts,
            strategy,
        })
    }

    /// Number of nodes this spec covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.parts
    }

    /// The assignment strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The partition that owns `node`. Pure and edge-independent: safe
    /// to evaluate outside the enclave for routing.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes`.
    pub fn owner_of(&self, node: usize) -> usize {
        assert!(node < self.num_nodes, "node out of bounds");
        match self.strategy {
            PartitionStrategy::Block => {
                let block = self.num_nodes.div_ceil(self.parts).max(1);
                (node / block).min(self.parts - 1)
            }
            PartitionStrategy::Hash { seed } => {
                (splitmix64(node as u64 ^ seed) % self.parts as u64) as usize
            }
        }
    }
}

/// One partition of a graph: the owned nodes, their halo, and the
/// [`Closure`] of the owned set (induced local subgraph, ascending
/// global ids, full-graph degrees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPartition {
    part: usize,
    parts: usize,
    /// Global ids owned by this partition, sorted ascending.
    owned: Vec<usize>,
    /// Global ids in the halo (reachable within `halo_hops` of an owned
    /// node but owned elsewhere), sorted ascending, disjoint from
    /// `owned`.
    halo: Vec<usize>,
    closure: Closure,
}

impl GraphPartition {
    /// This partition's index.
    pub fn part(&self) -> usize {
        self.part
    }

    /// Total number of partitions in the deployment.
    pub fn num_parts(&self) -> usize {
        self.parts
    }

    /// Global ids owned by this partition, sorted ascending.
    pub fn owned(&self) -> &[usize] {
        &self.owned
    }

    /// Global ids of the halo, sorted ascending and disjoint from
    /// [`owned`](Self::owned).
    pub fn halo(&self) -> &[usize] {
        &self.halo
    }

    /// The partition's closure (`owned ∪ halo`): the induced local
    /// subgraph, its local-to-global id map, and the full-graph degree
    /// per local id that exact GCN normalization needs.
    pub fn closure(&self) -> &Closure {
        &self.closure
    }

    /// Whether this partition owns `global`.
    pub fn owns(&self, global: usize) -> bool {
        self.owned.binary_search(&global).is_ok()
    }

    /// Gives up the owned list and the closure — what a sealed
    /// partition image carries — without copying either.
    pub fn into_owned_and_closure(self) -> (Vec<usize>, Closure) {
        (self.owned, self.closure)
    }
}

/// Extracts one partition: the nodes `spec` assigns to `part`, plus a
/// `halo_hops`-hop halo of their out-of-partition neighbours, as an
/// induced subgraph.
///
/// For an `L`-layer GCN, `halo_hops = L` makes every owned node's
/// propagation exact; `halo_hops = 1` is the classic edge-cut halo that
/// covers a single aggregation step.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `spec` does not cover
/// exactly `graph.num_nodes()` nodes or `part >= spec.num_parts()`.
pub fn partition_one(
    graph: &Graph,
    spec: &PartitionSpec,
    part: usize,
    halo_hops: usize,
) -> Result<GraphPartition, GraphError> {
    check_spec(graph, spec)?;
    if part >= spec.num_parts() {
        return Err(GraphError::InvalidParameter {
            name: "part",
            reason: format!(
                "part {part} out of range for {} partitions",
                spec.num_parts()
            ),
        });
    }
    extract(graph, &adjacency_lists(graph), spec, part, halo_hops)
}

/// Partitions `graph` into `spec.num_parts()` partitions, each with a
/// `halo_hops`-hop halo (the adjacency lists are built once for all of
/// them). See [`partition_one`].
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] when `spec` does not cover
/// exactly `graph.num_nodes()` nodes.
///
/// # Examples
///
/// ```
/// use graph::{partition, Graph};
///
/// # fn main() -> Result<(), graph::GraphError> {
/// let ring = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])?;
/// let spec = partition::PartitionSpec::block(6, 2)?;
/// let parts = partition::partition(&ring, &spec, 1)?;
/// assert_eq!(parts[0].owned(), &[0, 1, 2]);
/// assert_eq!(parts[0].halo(), &[3, 5]); // cross-partition neighbours
/// # Ok(())
/// # }
/// ```
pub fn partition(
    graph: &Graph,
    spec: &PartitionSpec,
    halo_hops: usize,
) -> Result<Vec<GraphPartition>, GraphError> {
    check_spec(graph, spec)?;
    let adjacency = adjacency_lists(graph);
    (0..spec.num_parts())
        .map(|part| extract(graph, &adjacency, spec, part, halo_hops))
        .collect()
}

fn check_spec(graph: &Graph, spec: &PartitionSpec) -> Result<(), GraphError> {
    if spec.num_nodes() != graph.num_nodes() {
        return Err(GraphError::InvalidParameter {
            name: "spec",
            reason: format!(
                "spec covers {} nodes but the graph has {}",
                spec.num_nodes(),
                graph.num_nodes()
            ),
        });
    }
    Ok(())
}

/// The closure of `part`'s owned set out to `halo_hops`, split into
/// owned and halo.
fn extract(
    graph: &Graph,
    adjacency: &[Vec<usize>],
    spec: &PartitionSpec,
    part: usize,
    halo_hops: usize,
) -> Result<GraphPartition, GraphError> {
    let owned: Vec<usize> = (0..graph.num_nodes())
        .filter(|&n| spec.owner_of(n) == part)
        .collect();
    let closure = closure(graph, adjacency, &owned, halo_hops)?;
    let halo = closure
        .ids
        .iter()
        .copied()
        .filter(|n| owned.binary_search(n).is_err())
        .collect();
    Ok(GraphPartition {
        part,
        parts: spec.num_parts(),
        owned,
        halo,
        closure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn block_owner_covers_all_parts() {
        let spec = PartitionSpec::block(10, 4).unwrap();
        let owners: Vec<usize> = (0..10).map(|n| spec.owner_of(n)).collect();
        assert_eq!(owners, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn block_owner_more_parts_than_nodes() {
        let spec = PartitionSpec::block(2, 5).unwrap();
        assert_eq!(spec.owner_of(0), 0);
        assert_eq!(spec.owner_of(1), 1);
    }

    #[test]
    fn hash_owner_is_seed_deterministic() {
        let a = PartitionSpec::hash(64, 4, 9).unwrap();
        let b = PartitionSpec::hash(64, 4, 9).unwrap();
        let c = PartitionSpec::hash(64, 4, 10).unwrap();
        let owners_a: Vec<usize> = (0..64).map(|n| a.owner_of(n)).collect();
        let owners_b: Vec<usize> = (0..64).map(|n| b.owner_of(n)).collect();
        let owners_c: Vec<usize> = (0..64).map(|n| c.owner_of(n)).collect();
        assert_eq!(owners_a, owners_b);
        assert_ne!(owners_a, owners_c, "different seed shuffles ownership");
        assert!(owners_a.iter().all(|&p| p < 4));
    }

    #[test]
    fn zero_parts_rejected() {
        assert!(matches!(
            PartitionSpec::block(4, 0),
            Err(GraphError::InvalidParameter { name: "parts", .. })
        ));
    }

    #[test]
    fn spec_graph_mismatch_rejected() {
        let spec = PartitionSpec::block(5, 2).unwrap();
        assert!(partition(&ring(6), &spec, 1).is_err());
        assert!(partition_one(&ring(6), &spec, 0, 1).is_err());
    }

    #[test]
    fn part_out_of_range_rejected() {
        let spec = PartitionSpec::block(6, 2).unwrap();
        assert!(matches!(
            partition_one(&ring(6), &spec, 2, 1),
            Err(GraphError::InvalidParameter { name: "part", .. })
        ));
    }

    #[test]
    fn ring_block_partition_shapes() {
        let spec = PartitionSpec::block(6, 2).unwrap();
        let parts = partition(&ring(6), &spec, 1).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].owned(), &[0, 1, 2]);
        assert_eq!(parts[0].halo(), &[3, 5]);
        assert_eq!(parts[0].closure().ids, &[0, 1, 2, 3, 5]);
        assert_eq!(parts[1].owned(), &[3, 4, 5]);
        assert_eq!(parts[1].halo(), &[0, 2]);
        // Local graph keeps the induced edges; degrees come from the ring.
        assert_eq!(parts[0].closure().degrees, &[2, 2, 2, 2, 2]);
        assert!(parts[0].closure().graph.has_edge(2, 3)); // local 2-3 edge
        assert_eq!(parts[0].closure().local_id(5), Some(4));
        assert!(parts[0].owns(1) && !parts[0].owns(4));
    }

    #[test]
    fn partition_one_matches_partition() {
        let g = ring(12);
        let spec = PartitionSpec::hash(12, 3, 7).unwrap();
        let all = partition(&g, &spec, 2).unwrap();
        for (p, expected) in all.iter().enumerate() {
            assert_eq!(&partition_one(&g, &spec, p, 2).unwrap(), expected);
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::empty(1);
        let spec = PartitionSpec::block(1, 1).unwrap();
        let parts = partition(&g, &spec, 1).unwrap();
        assert_eq!(parts[0].owned(), &[0]);
        assert!(parts[0].halo().is_empty());
        assert_eq!(parts[0].closure().graph.num_nodes(), 1);
    }

    #[test]
    fn edge_free_graph_has_empty_halos() {
        let g = Graph::empty(8);
        let spec = PartitionSpec::block(8, 4).unwrap();
        for p in partition(&g, &spec, 3).unwrap() {
            assert!(p.halo().is_empty());
            assert_eq!(p.closure().graph.num_edges(), 0);
            assert_eq!(p.owned().len(), 2);
        }
    }

    #[test]
    fn disconnected_components_stay_separate() {
        // Two triangles; block split puts one per partition — no halo.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let spec = PartitionSpec::block(6, 2).unwrap();
        let parts = partition(&g, &spec, 2).unwrap();
        assert!(parts[0].halo().is_empty());
        assert!(parts[1].halo().is_empty());
        assert_eq!(parts[0].closure().graph.num_edges(), 3);
        assert_eq!(parts[1].closure().graph.num_edges(), 3);
    }

    #[test]
    fn partition_embedding_matches_full_graph_for_k_layer_gcn() {
        // The motivating property, generalized from the ego-graph test:
        // a partition with an L-hop halo and original degrees computes
        // every *owned* node's L-layer GCN propagation bit-identically.
        use linalg::DenseMatrix;
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (1, 3),
                (2, 6),
                (0, 8),
            ],
        )
        .unwrap();
        let x = DenseMatrix::from_fn(9, 3, |r, c| ((r * 3 + c) as f32).sin());
        let full_adj = crate::normalization::gcn_normalize(&g);
        let full = full_adj.spmm(&full_adj.spmm(&x).unwrap()).unwrap();

        for spec in [
            PartitionSpec::block(9, 3).unwrap(),
            PartitionSpec::hash(9, 2, 42).unwrap(),
        ] {
            for p in partition(&g, &spec, 2).unwrap() {
                let local_x = x.select_rows(&p.closure().ids).unwrap();
                let local_adj = crate::normalization::gcn_normalize_with_degrees(
                    &p.closure().graph,
                    &p.closure().degrees,
                );
                let local = local_adj.spmm(&local_adj.spmm(&local_x).unwrap()).unwrap();
                for &global in p.owned() {
                    let l = p.closure().local_id(global).unwrap();
                    for c in 0..3 {
                        assert_eq!(
                            full.get(global, c).to_bits(),
                            local.get(l, c).to_bits(),
                            "node {global} col {c}: partition propagation must be bit-identical"
                        );
                    }
                }
            }
        }
    }

    /// Random sparse graph over `n` nodes from an edge-probability mask.
    fn random_case(n: usize, seed: u64, parts: usize, hash: bool) -> (Graph, PartitionSpec) {
        let mut edges = Vec::new();
        let mut state = seed;
        for u in 0..n {
            for v in (u + 1)..n {
                state = splitmix64(state);
                if state % 100 < 18 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let spec = if hash {
            PartitionSpec::hash(n, parts, seed).unwrap()
        } else {
            PartitionSpec::block(n, parts).unwrap()
        };
        (g, spec)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_node_owned_by_exactly_one_partition(
            n in 1usize..20,
            seed in any::<u64>(),
            nparts in 1usize..5,
            hash in any::<bool>(),
        ) {
            let (g, spec) = random_case(n, seed, nparts, hash);
            let parts = partition(&g, &spec, 1).unwrap();
            let mut owner_count = vec![0usize; g.num_nodes()];
            for p in &parts {
                for &n in p.owned() {
                    owner_count[n] += 1;
                    prop_assert_eq!(spec.owner_of(n), p.part());
                }
                // Owned and halo are disjoint; their union is the closure.
                let owned: BTreeSet<usize> = p.owned().iter().copied().collect();
                let halo: BTreeSet<usize> = p.halo().iter().copied().collect();
                prop_assert!(owned.is_disjoint(&halo));
                let union: Vec<usize> = owned.union(&halo).copied().collect();
                prop_assert_eq!(&union[..], p.closure().ids);
            }
            prop_assert!(owner_count.iter().all(|&c| c == 1));
        }

        #[test]
        fn halo_is_exactly_the_out_of_partition_one_hop_neighbours(
            n in 1usize..20,
            seed in any::<u64>(),
            nparts in 1usize..5,
            hash in any::<bool>(),
        ) {
            let (g, spec) = random_case(n, seed, nparts, hash);
            for p in partition(&g, &spec, 1).unwrap() {
                let mut expected = BTreeSet::new();
                for &n in p.owned() {
                    for v in g.neighbors(n) {
                        if spec.owner_of(v) != p.part() {
                            expected.insert(v);
                        }
                    }
                }
                let expected: Vec<usize> = expected.into_iter().collect();
                prop_assert_eq!(&expected[..], p.halo());
            }
        }

        #[test]
        fn union_of_partitions_reconstructs_the_input(
            n in 1usize..20,
            seed in any::<u64>(),
            nparts in 1usize..5,
            hash in any::<bool>(),
        ) {
            let (g, spec) = random_case(n, seed, nparts, hash);
            let parts = partition(&g, &spec, 1).unwrap();
            let mut nodes = BTreeSet::new();
            let mut edges = BTreeSet::new();
            for p in &parts {
                nodes.extend(p.owned().iter().copied());
                for &(lu, lv) in p.closure().graph.edges() {
                    let (gu, gv) = (p.closure().ids[lu], p.closure().ids[lv]);
                    edges.insert((gu.min(gv), gu.max(gv)));
                }
                // Degrees are the full-graph degrees.
                let full_deg = g.degrees();
                for (l, &global) in p.closure().ids.iter().enumerate() {
                    prop_assert_eq!(p.closure().degrees[l], full_deg[global]);
                    prop_assert!(p.closure().graph.degree(l) <= full_deg[global]);
                }
            }
            let all: Vec<usize> = nodes.into_iter().collect();
            let expect: Vec<usize> = (0..g.num_nodes()).collect();
            prop_assert_eq!(all, expect);
            // A 1-hop halo already recovers every edge: each edge has an
            // owner-side endpoint whose partition pulled the other in.
            let got: Vec<(usize, usize)> = edges.into_iter().collect();
            prop_assert_eq!(&got[..], g.edges());
        }
    }
}
