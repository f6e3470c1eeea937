//! Umbrella crate for the GNNVault reproduction.
//!
//! Re-exports every workspace crate so examples and integration tests can
//! `use gnnvault_suite::...` a single dependency. See the repository
//! README for building and running, and ARCHITECTURE.md for the crate
//! map and the paper's data flow.

pub use attacks;
pub use datasets;
pub use gnnvault;
pub use graph;
pub use linalg;
pub use metrics;
pub use nn;
pub use serve;
pub use tee;
