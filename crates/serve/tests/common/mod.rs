//! Shared helpers for the serve integration suites: the vault fixture
//! (`fixture.rs`), the serving contract's oracle (`oracle.rs`) and the
//! seeded trace driver that holds an engine to it (`driver.rs`).
#![allow(dead_code)]

pub mod driver;
mod fixture;
pub mod oracle;

pub use fixture::*;
use gnnvault::Vault;
use linalg::DenseMatrix;
use serve::{ServeConfig, ServeError, ServeStats, ServingEngine, Ticket};
use tee::ClassLabel;

/// Serves `requests` against a freshly started engine and shuts it down
/// again, returning per-request results (admission rejections and vault
/// failures land in their request's slot), the vault and the run's stats.
#[allow(clippy::type_complexity)]
pub fn serve_once(
    vault: Vault,
    features: DenseMatrix,
    config: ServeConfig,
    requests: &[Vec<usize>],
) -> Result<(Vec<Result<Vec<ClassLabel>, ServeError>>, Vault, ServeStats), ServeError> {
    let engine = ServingEngine::start(vault, features, config)?;
    let handle = engine.handle();
    let tickets: Vec<Result<Ticket, ServeError>> = requests
        .iter()
        .map(|nodes| handle.submit(nodes.clone()))
        .collect();
    let results = tickets
        .into_iter()
        .map(|ticket| ticket.and_then(Ticket::wait))
        .collect();
    let (vault, stats) = engine.shutdown();
    let vault = vault.expect("serve_once engine kept at least one shard alive");
    Ok((results, vault, stats))
}
