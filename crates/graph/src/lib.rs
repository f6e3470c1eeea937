//! Graph data structures and substitute-graph generation for GNNVault.
//!
//! This crate provides the graph substrate of the reproduction:
//!
//! - [`Graph`]: an undirected graph stored as a deduplicated edge list
//!   (COO), with CSR adjacency export and degree queries,
//! - [`normalization`]: the GCN propagation matrix
//!   `Â = D^-1/2 (A + I) D^-1/2` (paper Eq. 1) and the row-normalized
//!   mean-aggregator variant used by the GraphSAGE extension,
//! - [`substitute`]: the three substitute-graph constructions of §IV-C —
//!   KNN over feature similarity, cosine-similarity thresholding
//!   (Eq. 2), and random graphs with a target edge budget,
//! - [`subgraph`]: the k-hop closure of a node set as an induced
//!   subgraph with full-graph degrees — one routine behind ego graphs
//!   and partitions,
//! - [`partition`]: deterministic edge-cut partitioning with halos, the
//!   substrate for sharded deployments that split (rather than
//!   replicate) the private graph,
//! - [`stats`]: density and dense-adjacency-size figures (Table I).
//!
//! # Examples
//!
//! ```
//! use graph::Graph;
//!
//! # fn main() -> Result<(), graph::GraphError> {
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.degree(1), 2);
//! let norm = graph::normalization::gcn_normalize(&g);
//! assert_eq!(norm.shape(), (4, 4));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod error;
pub mod normalization;
pub mod partition;
pub mod stats;
pub mod subgraph;
pub mod substitute;

pub use crate::core::Graph;
pub use error::GraphError;
