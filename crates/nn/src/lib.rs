//! Neural-network substrate for the GNNVault reproduction.
//!
//! Implements the model-training stack the paper builds on PyTorch
//! (normal world) and hand-written Eigen C++ (enclave world):
//!
//! - [`ConvLayer`]: a graph-convolution layer of any [`ConvKind`] — the
//!   GCN layer `Z = Â (H W) + b` (paper Eq. 1), which handed no
//!   operator is the fully-connected `Z = H W + b` of Table III's DNN
//!   backbone, and the §VI GraphSAGE and GAT extensions — each with an
//!   explicit, finite-difference verified backward pass,
//! - [`Network`]: the one container and the one driver. Each layer's
//!   input is wired over a list of input matrices (*taps*): the first
//!   layer reads the concatenation of its taps, every later layer the
//!   previous activation followed by its taps. The plain chain
//!   ([`Network::new`]) reads the features as tap 0; `gnnvault`'s
//!   rectifier is a [`Network::wired`] network over the frozen
//!   backbone's per-layer embeddings. There is one forward pass
//!   ([`Network::forward_embeddings`], whose per-layer embeddings the
//!   rectifier taps and the link-stealing attack observes) and one
//!   full-batch training loop ([`Network::fit`]: masked softmax
//!   cross-entropy, Adam with per-parameter moment state, inverted
//!   dropout). Taps are constants, so the first layer stops at its
//!   parameter gradients. Every call takes the propagation operator
//!   as `Option<&CsrMatrix>`: `Some(Â)` runs a GNN, `None` an MLP.
//!
//! Every forward pass here is f32. Int8 is a *sealed form* of the
//! projection weights (`linalg::QuantizedMatrix`, written and read by
//! the `gnnvault` snapshot codec), not a compute path: a vault serving
//! at `Precision::Int8` runs these same layers over weights already
//! snapped onto their int8 grid.
//!
//! [`CsrMatrix`]: linalg::CsrMatrix
//!
//! # Examples
//!
//! ```
//! use graph::Graph;
//! use linalg::DenseMatrix;
//! use nn::{Network, TrainConfig};
//! use std::slice::from_ref;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = Graph::from_edges(4, &[(0, 1), (2, 3)])?;
//! let adj = graph::normalization::gcn_normalize(&g);
//! let x = DenseMatrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.1], &[0.0, 1.0], &[0.1, 1.0]])?;
//! let labels = vec![0, 0, 1, 1];
//! let cfg = TrainConfig { epochs: 50, ..TrainConfig::default() };
//! let mut gcn = Network::new(2, &[8, 2], 7)?;
//! gcn.fit(Some(&adj), from_ref(&x), &labels, &[0, 2], &cfg)?;
//! assert_eq!(gcn.predict(Some(&adj), from_ref(&x))?.len(), 4);
//! // The structure-free baseline is the same network with no operator.
//! let mut mlp = Network::new(2, &[8, 2], 7)?;
//! mlp.fit(None, from_ref(&x), &labels, &[0, 2], &cfg)?;
//! assert_eq!(mlp.predict(None, from_ref(&x))?.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
mod features;
mod gat;
mod gcn;
mod init;
mod loss;
mod network;
mod optim;
mod param;
mod sage;

pub use conv::{ConvKind, ConvLayer};
pub use error::NnError;
pub use features::{Input, NodeFeatures};
pub use gat::GatLayer;
pub use gcn::GcnLayer;
pub use network::{Network, TrainConfig, TrainReport};
pub use param::Param;
pub use sage::SageLayer;
