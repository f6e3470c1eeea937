//! Neural-network substrate for the GNNVault reproduction.
//!
//! Implements the model-training stack the paper builds on PyTorch
//! (normal world) and hand-written Eigen C++ (enclave world):
//!
//! - [`GcnLayer`]: a graph-convolution layer computing
//!   `Z = Â (H W) + b` (paper Eq. 1) with an explicit, finite-difference
//!   verified backward pass; handed no operator it is the
//!   fully-connected `Z = H W + b` of Table III's DNN backbone,
//! - [`loss`]: masked softmax cross-entropy for semi-supervised node
//!   classification (20 labelled nodes per class),
//! - [`Adam`]: the Adam optimizer with per-parameter moment state,
//! - [`Network`]: the sequential container, with one full-batch
//!   training loop, parameter counting (the `θ` columns of Table II),
//!   and per-layer embedding export (needed by the rectifier taps and
//!   by the link-stealing attack surface). Every call takes the
//!   propagation operator as `Option<&CsrMatrix>`: `Some(Â)` runs a
//!   GCN, `None` an MLP.
//!
//! Every forward pass here is f32. Int8 is a *sealed form* of the
//! projection weights (`linalg::QuantizedMatrix`, written and read by
//! the `gnnvault` snapshot codec), not a compute path: a vault serving
//! at `Precision::Int8` runs these same layers over weights already
//! snapped onto their int8 grid.
//!
//! # Examples
//!
//! ```
//! use graph::Graph;
//! use linalg::DenseMatrix;
//! use nn::{Network, TrainConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = Graph::from_edges(4, &[(0, 1), (2, 3)])?;
//! let adj = graph::normalization::gcn_normalize(&g);
//! let x = DenseMatrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.1], &[0.0, 1.0], &[0.1, 1.0]])?;
//! let labels = vec![0, 0, 1, 1];
//! let cfg = TrainConfig { epochs: 50, ..TrainConfig::default() };
//! let mut gcn = Network::new(2, &[8, 2], 7)?;
//! gcn.fit(Some(&adj), &x, &labels, &[0, 2], &cfg)?;
//! assert_eq!(gcn.predict(Some(&adj), &x)?.len(), 4);
//! // The structure-free baseline is the same network with no operator.
//! let mut mlp = Network::new(2, &[8, 2], 7)?;
//! mlp.fit(None, &x, &labels, &[0, 2], &cfg)?;
//! assert_eq!(mlp.predict(None, &x)?.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
mod gat;
mod gcn;
mod init;
pub mod loss;
mod network;
mod optim;
mod param;
mod sage;

pub use conv::{ConvForward, ConvKind, ConvLayer};
pub use error::NnError;
pub use gat::{GatForward, GatLayer};
pub use gcn::{GcnForward, GcnLayer};
pub use init::glorot_uniform;
pub use network::{Network, TrainConfig, TrainReport};
pub use optim::Adam;
pub use param::Param;
pub use sage::{SageForward, SageLayer};
