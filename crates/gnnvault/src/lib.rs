//! GNNVault: secure edge deployment of Graph Neural Networks with a
//! Trusted Execution Environment.
//!
//! This crate implements the paper's contribution — the
//! *partition-before-training* deployment strategy of
//! "Graph in the Vault: Protecting Edge GNN Inference with Trusted
//! Execution Environment" (DAC 2025):
//!
//! 1. **Substitute graph** ([`SubstituteKind`]): a public stand-in
//!    adjacency built only from public node features (KNN, cosine
//!    threshold, or random),
//! 2. **Public backbone** ([`Backbone`]): a GCN trained on the
//!    substitute graph (or an MLP that ignores structure), deployed in
//!    the untrusted world,
//! 3. **Private rectifier** ([`Rectifier`]): a small GCN that sees the
//!    *real* adjacency and recalibrates the backbone's embeddings, in
//!    one of three wirings ([`RectifierKind`]: parallel / cascaded /
//!    series, Fig. 3),
//! 4. **Secure deployment** ([`Vault`]): the rectifier and real graph
//!    live in a simulated SGX enclave; data flows one way
//!    (untrusted → enclave) and only class labels come back.
//!
//! [`OriginalGnn`] provides the unprotected reference model (`porg`),
//! and [`pipeline`] drives the whole four-step flow for the experiment
//! harness. Deployed vaults answer single queries ([`Vault::infer`],
//! [`Vault::infer_node`]) or serving-style batches
//! ([`Vault::infer_batch`], one enclave transition set per batch); the
//! `serve` crate stacks admission control, batching, and caching on
//! top.
//!
//! # Examples
//!
//! ```
//! use datasets::{DatasetSpec, SyntheticPlanetoid};
//! use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
//!     .scale(0.03)
//!     .seed(5)
//!     .generate()?;
//! let spec = pipeline::PipelineConfig {
//!     model: ModelConfig::m1(data.num_classes),
//!     substitute: SubstituteKind::Knn { k: 2 },
//!     rectifier: RectifierKind::Series,
//!     epochs: 30,
//!     ..Default::default()
//! };
//! let trained = pipeline::train(&data, &spec)?;
//! let eval = pipeline::evaluate(&trained, &data)?;
//! assert!(eval.rectifier_accuracy >= 0.0 && eval.rectifier_accuracy <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backbone;
mod error;
mod model;
mod original;
pub mod pipeline;
mod rectifier;
mod snapshot;
mod substitute;
mod vault;

pub use backbone::Backbone;
pub use error::VaultError;
pub use model::ModelConfig;
pub use nn::NodeFeatures;
pub use original::OriginalGnn;
pub use rectifier::{Rectifier, RectifierKind};
pub use snapshot::{SnapshotPartition, VaultSnapshot};
pub use substitute::SubstituteKind;
pub use vault::{InferenceReport, Precision, RecoveryHandle, Vault};
