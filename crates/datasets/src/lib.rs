//! Synthetic citation-style datasets for the GNNVault reproduction.
//!
//! The paper evaluates on Cora, Citeseer, Pubmed (Planetoid), Amazon
//! Computer/Photo, and CoraFull. Those datasets are not available in
//! this offline environment, so this crate generates *synthetic
//! stand-ins* whose statistics match Table I and whose structure
//! preserves the property the paper's results rest on:
//!
//! 1. node features are informative but noisy (an MLP reaches moderate
//!    accuracy),
//! 2. the real edges are class-assortative beyond what features reveal
//!    (a GCN on the real graph beats the MLP),
//! 3. a substitute graph built from feature similarity recovers part —
//!    but not all — of that signal (the backbone sits between the MLP
//!    and the original GCN, leaving room for the rectifier to close).
//!
//! # Examples
//!
//! ```
//! use datasets::{DatasetSpec, SyntheticPlanetoid};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
//!     .scale(0.05)
//!     .seed(7)
//!     .generate()?;
//! assert_eq!(data.features.rows(), data.graph.num_nodes());
//! assert!(!data.train_mask.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod citation;
mod spec;
mod synthetic;

pub use citation::CitationDataset;
pub use spec::DatasetSpec;
pub use synthetic::{GeneratorError, SyntheticPlanetoid};
