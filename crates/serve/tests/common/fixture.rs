//! The train-and-deploy fixture every serve test suite builds its vaults
//! from: one small two-cluster corpus, built identically everywhere, so
//! every suite measures the same model and cross-suite label assertions
//! are meaningful. It does not depend on `serve`, so the crate's own
//! unit tests include it too (by `#[path]`).
#![allow(dead_code)]

use gnnvault::{Backbone, Rectifier, RectifierKind, SubstituteKind, Vault};
use graph::Graph;
use linalg::DenseMatrix;
use nn::TrainConfig;
use std::sync::Once;
use tee::{CostModel, OverBudgetPolicy, SealKey};

/// Trains and deploys the toy two-cluster vault: `n` nodes (even,
/// ≥ 6) in two ring clusters, two-class features, every other node
/// labelled for training. `flipped` inverts the training labels so the
/// resulting model answers oppositely on (almost) every node, so an
/// answer names the model that gave it.
fn build_toy_vault(
    n: usize,
    kind: RectifierKind,
    epc_budget: usize,
    flipped: bool,
    seal_key: SealKey,
) -> (Vault, DenseMatrix, Vec<usize>) {
    assert!(n >= 6 && n.is_multiple_of(2));
    let half = n / 2;
    let x = DenseMatrix::from_fn(n, 2, |r, c| {
        let in_first = r < half;
        let base = if (c == 0) == in_first { 1.0 } else { 0.0 };
        base + 0.05 * ((r * 7 + c) % 5) as f32
    });
    let labels: Vec<usize> = (0..n)
        .map(|r| usize::from((r >= half) != flipped))
        .collect();
    let train: Vec<usize> = (0..n).step_by(2).collect();
    let mut edges = Vec::new();
    for cluster in 0..2 {
        let offset = cluster * half;
        for i in 0..half {
            edges.push((offset + i, offset + (i + 1) % half));
        }
    }
    let real = Graph::from_edges(n, &edges).unwrap();
    let cfg = TrainConfig {
        epochs: 60,
        lr: 0.05,
        weight_decay: 0.0,
        dropout: 0.0,
        seed: 0,
    };
    let backbone = Backbone::train(
        &x,
        &labels,
        &train,
        SubstituteKind::Knn { k: 2 },
        &[8, 4, 2],
        real.num_edges(),
        &cfg,
        1,
    )
    .unwrap();
    let mut rectifier = Rectifier::new(kind, &[8, 4, 2], &backbone.channel_dims(), 2).unwrap();
    let real_adj = graph::normalization::gcn_normalize(&real);
    let embs = backbone.embeddings(&x).unwrap();
    rectifier
        .fit(&real_adj, &embs, &labels, &train, &cfg)
        .unwrap();
    let vault = Vault::deploy(
        backbone,
        rectifier,
        &real,
        epc_budget,
        CostModel::default(),
        OverBudgetPolicy::Fail,
        seal_key,
    )
    .unwrap();
    (vault, x, labels)
}

/// Trains and deploys a small two-cluster vault with `n` nodes
/// (n must be even), sealed under `SealKey(7)`.
pub fn toy_vault(n: usize, kind: RectifierKind) -> (Vault, DenseMatrix, Vec<usize>) {
    toy_vault_with_budget(n, kind, tee::SGX_EPC_BYTES)
}

/// [`toy_vault`] with an explicit enclave EPC budget.
pub fn toy_vault_with_budget(
    n: usize,
    kind: RectifierKind,
    epc_budget: usize,
) -> (Vault, DenseMatrix, Vec<usize>) {
    build_toy_vault(n, kind, epc_budget, false, SealKey(7))
}

/// Builds a second vault over the same corpus whose labels differ from
/// `toy_vault`'s: the training labels are flipped, so the two models
/// answer oppositely on (almost) every node: model B of the oracle and
/// of the shard state machine's word test.
pub fn toy_vault_flipped(n: usize, seal_key: SealKey) -> (Vault, DenseMatrix) {
    let (vault, x, _) =
        build_toy_vault(n, RectifierKind::Series, tee::SGX_EPC_BYTES, true, seal_key);
    (vault, x)
}

/// Silences the default panic printout for *injected* panics only, so
/// fault-injection runs don't bury real failures in expected backtrace
/// noise.
pub fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}
