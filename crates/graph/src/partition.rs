//! Deterministic edge-cut graph partitioning with halos.
//!
//! A partitioned deployment splits the private real graph across shards
//! instead of replicating it: each partition *owns* one contiguous block
//! of node ids and carries a **halo** of out-of-partition neighbours so
//! local aggregation sees exactly the rows a sequential full-graph pass
//! would. Ownership is a pure function of the node id
//! ([`PartitionSpec::owner_of`], or the whole block at once,
//! [`PartitionSpec::range`]) — independent of the private edges — so a
//! router can locate a node's shard, and a sealed partition can name its
//! owned set, without storing or touching the private adjacency; only the
//! halo (which stays sealed inside each partition) depends on the edges.
//!
//! Combined with full-graph degrees
//! ([`crate::normalization::gcn_normalize_with_degrees`]), a partition
//! with an `L`-hop halo computes each owned node's `L`-layer GCN
//! propagation bit-identically to the full graph — it is the
//! [`crate::subgraph::closure`] of the owned block (verified by this
//! module's tests).

use crate::subgraph::{adjacency_lists, closure, Closure};
use crate::{Graph, GraphError};
use std::ops::Range;

/// A contiguous-block assignment of a fixed node count to partitions:
/// node `i` belongs to block `i / ceil(num_nodes / parts)`. A pure
/// function of `(node, num_nodes, parts)` — deterministic across
/// processes and releases, so a router and a sealed partition always
/// agree on ownership — that preserves locality for id-clustered graphs
/// (e.g. ring topologies).
///
/// # Examples
///
/// ```
/// use graph::partition::PartitionSpec;
///
/// let spec = PartitionSpec::block(10, 4).unwrap();
/// assert_eq!(spec.owner_of(0), 0);
/// assert_eq!(spec.owner_of(9), 3);
/// assert_eq!(spec.range(1), 3..6);
/// // Every node has exactly one owner.
/// assert!((0..10).all(|n| spec.range(spec.owner_of(n)).contains(&n)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    num_nodes: usize,
    parts: usize,
}

impl PartitionSpec {
    /// A contiguous-block assignment of `num_nodes` nodes to `parts`
    /// partitions.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] when `parts == 0`.
    pub fn block(num_nodes: usize, parts: usize) -> Result<Self, GraphError> {
        if parts == 0 {
            return Err(GraphError::InvalidParameter {
                name: "parts",
                reason: "a partitioning needs at least one partition".into(),
            });
        }
        Ok(Self { num_nodes, parts })
    }

    /// Number of nodes this spec covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.parts
    }

    /// Nodes per block (the last block may be short, and with more
    /// partitions than nodes the trailing ones are empty).
    fn block_len(&self) -> usize {
        self.num_nodes.div_ceil(self.parts).max(1)
    }

    /// The partition that owns `node`. Pure and edge-independent: safe
    /// to evaluate outside the enclave for routing.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes`.
    pub fn owner_of(&self, node: usize) -> usize {
        assert!(node < self.num_nodes, "node out of bounds");
        node / self.block_len()
    }

    /// The ids `part` owns, ascending: exactly the `n` with
    /// `owner_of(n) == part`, empty for a partition past the last node.
    pub fn range(&self, part: usize) -> Range<usize> {
        let at = |p: usize| p.saturating_mul(self.block_len()).min(self.num_nodes);
        at(part)..at(part.saturating_add(1))
    }
}

/// Partitions `graph` into `spec.num_parts()` partitions. Element `i` is
/// partition `i`'s [`Closure`]: its owned block ([`PartitionSpec::range`])
/// plus a `halo_hops`-hop halo of out-of-partition neighbours, as an
/// induced subgraph with ascending global ids and full-graph degrees.
/// The adjacency lists are built once for all of them.
///
/// For an `L`-layer GCN, `halo_hops = L` makes every owned node's
/// propagation exact; `halo_hops = 1` is the classic edge-cut halo that
/// covers a single aggregation step.
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
/// assert_eq!(spec.range(0), 0..3);
/// assert_eq!(parts[0].ids, &[0, 1, 2, 3, 5]); // 3 and 5: the halo
/// # Ok(())
/// # }
/// ```
pub fn partition(
    graph: &Graph,
    spec: &PartitionSpec,
    halo_hops: usize,
) -> Result<Vec<Closure>, GraphError> {
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
    let adjacency = adjacency_lists(graph);
    (0..spec.num_parts())
        .map(|part| {
            let owned: Vec<usize> = spec.range(part).collect();
            closure(graph, &adjacency, &owned, halo_hops)
        })
        .collect()
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
        let ranges: Vec<Range<usize>> = (0..4).map(|p| spec.range(p)).collect();
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
    }

    #[test]
    fn block_owner_more_parts_than_nodes() {
        let spec = PartitionSpec::block(2, 5).unwrap();
        assert_eq!(spec.owner_of(0), 0);
        assert_eq!(spec.owner_of(1), 1);
        assert!((2..5).all(|p| spec.range(p).is_empty()));
        // Far past the last partition the range stays empty, not wrapped.
        assert!(spec.range(usize::MAX).is_empty());
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
    }

    #[test]
    fn ring_block_partition_shapes() {
        let spec = PartitionSpec::block(6, 2).unwrap();
        let parts = partition(&ring(6), &spec, 1).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].ids, &[0, 1, 2, 3, 5]);
        assert_eq!(parts[1].ids, &[0, 2, 3, 4, 5]);
        // Local graph keeps the induced edges; degrees come from the ring.
        assert_eq!(parts[0].degrees, &[2, 2, 2, 2, 2]);
        assert!(parts[0].graph.has_edge(2, 3)); // local 2-3 edge
        assert_eq!(parts[0].local_id(5), Some(4));
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::empty(1);
        let spec = PartitionSpec::block(1, 1).unwrap();
        let parts = partition(&g, &spec, 1).unwrap();
        assert_eq!(parts[0].ids, &[0]);
        assert_eq!(parts[0].graph.num_nodes(), 1);
    }

    #[test]
    fn edge_free_graph_has_empty_halos() {
        let g = Graph::empty(8);
        let spec = PartitionSpec::block(8, 4).unwrap();
        for (part, p) in partition(&g, &spec, 3).unwrap().iter().enumerate() {
            assert!(p.ids.iter().copied().eq(spec.range(part)));
            assert_eq!(p.graph.num_edges(), 0);
        }
    }

    #[test]
    fn disconnected_components_stay_separate() {
        // Two triangles; block split puts one per partition — no halo.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let spec = PartitionSpec::block(6, 2).unwrap();
        let parts = partition(&g, &spec, 2).unwrap();
        assert_eq!(parts[0].ids, &[0, 1, 2]);
        assert_eq!(parts[1].ids, &[3, 4, 5]);
        assert_eq!(parts[0].graph.num_edges(), 3);
        assert_eq!(parts[1].graph.num_edges(), 3);
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

        for parts in [2, 3, 4] {
            let spec = PartitionSpec::block(9, parts).unwrap();
            for (part, p) in partition(&g, &spec, 2).unwrap().iter().enumerate() {
                let local_x = x.select_rows(&p.ids).unwrap();
                let local_adj =
                    crate::normalization::gcn_normalize_with_degrees(&p.graph, &p.degrees);
                let local = local_adj.spmm(&local_adj.spmm(&local_x).unwrap()).unwrap();
                for global in spec.range(part) {
                    let l = p.local_id(global).unwrap();
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

    #[test]
    fn range_is_exactly_the_nodes_owner_of_assigns() {
        // Every spec up to 40 nodes and 60 partitions, so parts > nodes
        // (trailing partitions own nothing) and the empty graph are in.
        for n in 0..40 {
            for nparts in 1..60 {
                let spec = PartitionSpec::block(n, nparts).unwrap();
                let mut covered = 0;
                for part in 0..nparts {
                    let range = spec.range(part);
                    assert_eq!(range.start, covered, "{n}/{nparts}: blocks tile the ids");
                    covered = range.end;
                    for node in range {
                        assert_eq!(spec.owner_of(node), part, "{n}/{nparts}: node {node}");
                    }
                }
                assert_eq!(covered, n, "{n}/{nparts}: blocks cover every node");
                assert!(spec.range(nparts).is_empty());
            }
        }
    }

    /// Random sparse graph over `n` nodes from an edge-probability mask.
    fn random_case(n: usize, seed: u64, parts: usize) -> (Graph, PartitionSpec) {
        let mut edges = Vec::new();
        let mut state = seed | 1;
        for u in 0..n {
            for v in (u + 1)..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 100 < 18 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        (g, PartitionSpec::block(n, parts).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_closure_holds_its_block_and_the_blocks_cover_the_graph(
            n in 1usize..20,
            seed in any::<u64>(),
            nparts in 1usize..5,
        ) {
            let (g, spec) = random_case(n, seed, nparts);
            let parts = partition(&g, &spec, 1).unwrap();
            prop_assert_eq!(parts.len(), nparts);
            let mut owner_count = vec![0usize; g.num_nodes()];
            for (part, p) in parts.iter().enumerate() {
                for node in spec.range(part) {
                    owner_count[node] += 1;
                    prop_assert!(p.local_id(node).is_some(), "owned node {} in closure", node);
                }
            }
            prop_assert!(owner_count.iter().all(|&c| c == 1));
        }

        #[test]
        fn halo_is_exactly_the_one_hop_neighbours_outside_the_block(
            n in 1usize..20,
            seed in any::<u64>(),
            nparts in 1usize..5,
        ) {
            let (g, spec) = random_case(n, seed, nparts);
            for (part, p) in partition(&g, &spec, 1).unwrap().iter().enumerate() {
                let owned = spec.range(part);
                let mut expected = BTreeSet::new();
                for node in owned.clone() {
                    for v in g.neighbors(node) {
                        if !owned.contains(&v) {
                            expected.insert(v);
                        }
                    }
                }
                let expected: Vec<usize> = expected.into_iter().collect();
                let halo: Vec<usize> =
                    p.ids.iter().copied().filter(|v| !owned.contains(v)).collect();
                prop_assert_eq!(expected, halo);
            }
        }

        #[test]
        fn union_of_partitions_reconstructs_the_input(
            n in 1usize..20,
            seed in any::<u64>(),
            nparts in 1usize..5,
        ) {
            let (g, spec) = random_case(n, seed, nparts);
            let parts = partition(&g, &spec, 1).unwrap();
            let mut edges = BTreeSet::new();
            for p in &parts {
                for &(lu, lv) in p.graph.edges() {
                    let (gu, gv) = (p.ids[lu], p.ids[lv]);
                    edges.insert((gu.min(gv), gu.max(gv)));
                }
                // Degrees are the full-graph degrees.
                let full_deg = g.degrees();
                for (l, &global) in p.ids.iter().enumerate() {
                    prop_assert_eq!(p.degrees[l], full_deg[global]);
                    prop_assert!(p.graph.degree(l) <= full_deg[global]);
                }
            }
            // A 1-hop halo already recovers every edge: each edge has an
            // owner-side endpoint whose partition pulled the other in.
            let got: Vec<(usize, usize)> = edges.into_iter().collect();
            prop_assert_eq!(&got[..], g.edges());
        }
    }
}
