//! Simulated Trusted Execution Environment (Intel SGX model) for the
//! GNNVault reproduction.
//!
//! The paper deploys the GNN rectifier inside a real SGX enclave on an
//! i7-7700 (SGX SDK 2.25). This crate substitutes a *software model* of
//! that enclave that preserves every property the evaluation depends on:
//!
//! - **Memory restriction** (§III-C): [`EnclaveSim`] accounts every
//!   allocation against the 96 MB Enclave Page Cache of the 128 MB
//!   Processor Reserved Memory; exceeding it either fails
//!   ([`OverBudgetPolicy::Fail`]) or pays a simulated page-swap
//!   (EWB/ELDU encrypt-evict) cost ([`OverBudgetPolicy::Swap`]),
//! - **World-switch overhead**: ECALL transitions, per-byte marshalling
//!   and the in-enclave slowdown are charged through a calibrated
//!   [`CostModel`] to [`EnclaveSim`]'s cumulative counters — the
//!   transfer, rectifier and page-swap terms of Fig. 6's time
//!   breakdown, read as before/after deltas around an inference,
//! - **One-way communication** (§IV-B): [`EnclaveSession`] is the only
//!   ingress type and carries data *into* the enclave only, batch after
//!   batch — the unit a serving engine (the `serve` crate) pushes each
//!   shard's work through; the sole egress is [`ClassLabel`]s — the
//!   label-only output rule of §IV-E is enforced by the type system
//!   rather than by convention,
//! - **Sealing**: [`Sealed`] provides tamper-evident at-rest protection
//!   for deployment artifacts (a keystream simulation, *not* real
//!   cryptography — documented on the type).
//!
//! # Examples
//!
//! ```
//! use tee::{CostModel, EnclaveSim, MB};
//!
//! # fn main() -> Result<(), tee::TeeError> {
//! let mut enclave = EnclaveSim::with_defaults();
//! let weights = enclave.alloc(2 * MB)?;
//! assert!(enclave.current_usage() >= 2 * MB);
//! enclave.free(weights)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
pub mod codec;
mod cost;
mod enclave;
mod error;
mod seal;

pub use channel::{ClassLabel, EnclaveSession};
pub use cost::CostModel;
pub use enclave::{AllocationId, EnclaveSim, OverBudgetPolicy};
pub use error::TeeError;
pub use seal::{SealKey, Sealed};

/// One kibibyte.
pub const KB: usize = 1024;
/// One mebibyte.
pub const MB: usize = 1024 * 1024;

/// Usable Enclave Page Cache of a classic SGX1 machine: 96 MB of the
/// 128 MB PRM (paper §III-C).
pub const SGX_EPC_BYTES: usize = 96 * MB;

/// Processor Reserved Memory of a classic SGX1 machine: 128 MB.
pub const SGX_PRM_BYTES: usize = 128 * MB;

/// SGX page granularity.
pub const PAGE_BYTES: usize = 4096;
