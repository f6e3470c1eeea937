//! Partitioned-serving smoke gate: a 4-partition deployment must
//! answer bit-identically to sequential full-graph inference while
//! every shard seals strictly fewer private bytes than a full replica.
//!
//! ```text
//! cargo run --release --example partition_smoke
//! ```
//!
//! The drill block-partitions a 256-node ring-structured private graph
//! four ways, prints the per-partition sealed snapshot sizes against
//! the full-replica size, restores one partition replica to show it
//! answers its owned nodes (and only those), then runs the whole
//! corpus through a 4-shard partitioned engine. Any violation panics,
//! so CI can run this binary as a pass/fail gate.

use gnnvault_suite::gnnvault::{
    Backbone, Rectifier, RectifierKind, SubstituteKind, Vault, VaultError,
};
use gnnvault_suite::graph::partition::PartitionSpec;
use gnnvault_suite::graph::{normalization, Graph};
use gnnvault_suite::linalg::DenseMatrix;
use gnnvault_suite::nn::TrainConfig;
use gnnvault_suite::serve::{BatchPolicy, ServeConfig, ServingEngine, Topology};
use gnnvault_suite::tee;
use std::time::Duration;

const N: usize = 256;
const PARTS: usize = 4;
const SEAL_KEY: tee::SealKey = tee::SealKey(3);

fn random_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f32 / 500.0 - 1.0
    })
}

/// A ring with two extra chord families: sparse with strong locality,
/// so block partitions have small halos — the shape partitioning wins
/// on.
fn ring_graph(n: usize, extra: usize) -> Graph {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for k in 1..=extra {
        for i in 0..n {
            edges.push((i, (i + k * 7 + 1) % n));
        }
    }
    Graph::from_edges(n, &edges).expect("ring construction")
}

fn trained_vault(x: &DenseMatrix) -> Vault {
    let half = N / 2;
    let labels: Vec<usize> = (0..N).map(|r| usize::from(r >= half)).collect();
    let train: Vec<usize> = (0..N).step_by(2).collect();
    let real = ring_graph(N, 2);
    let cfg = TrainConfig {
        epochs: 10,
        lr: 0.05,
        weight_decay: 0.0,
        dropout: 0.0,
        seed: 0,
    };
    let backbone = Backbone::train(
        x,
        &labels,
        &train,
        SubstituteKind::Knn { k: 2 },
        &[16, 8, 2],
        real.num_edges(),
        &cfg,
        1,
    )
    .expect("backbone");
    let mut rectifier = Rectifier::new(
        RectifierKind::Series,
        &[16, 8, 2],
        &backbone.channel_dims(),
        2,
    )
    .expect("rectifier");
    let real_adj = normalization::gcn_normalize(&real);
    let embs = backbone.embeddings(x).expect("embeddings");
    rectifier
        .fit(&real_adj, &embs, &labels, &train, &cfg)
        .expect("fit");
    Vault::deploy(
        backbone,
        rectifier,
        &real,
        tee::SGX_EPC_BYTES,
        tee::CostModel::default(),
        tee::OverBudgetPolicy::Fail,
        SEAL_KEY,
    )
    .expect("deploy")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let x = random_matrix(N, 32, 17);
    let mut vault = trained_vault(&x);
    let (expected, _) = vault.infer(&x)?;

    // Gate 1: every partition seals strictly fewer private bytes than
    // a full replica.
    let full_bytes = vault.snapshot().sealed_nbytes();
    let spec = PartitionSpec::block(N, PARTS)?;
    let snapshots = vault.partition_snapshots(&spec)?;
    let per_shard: Vec<usize> = snapshots
        .iter()
        .map(gnnvault_suite::gnnvault::VaultSnapshot::sealed_nbytes)
        .collect();
    println!(
        "sealed snapshot bytes: full replica {full_bytes}, {PARTS}-way partitions {per_shard:?} \
         (replicated total {}, partitioned total {})",
        full_bytes * PARTS,
        per_shard.iter().sum::<usize>(),
    );
    for (part, &bytes) in per_shard.iter().enumerate() {
        assert!(
            bytes < full_bytes,
            "partition {part} seals {bytes} bytes, not under the {full_bytes}-byte full replica"
        );
    }

    // Gate 2: a restored partition replica answers exactly its owned
    // nodes, bit-identically — and refuses everyone else's, typed.
    let mut partial = Vault::restore(&snapshots[1], SEAL_KEY)?;
    assert_eq!(partial.partition_info(), Some((1, PARTS)));
    let owned: Vec<usize> = (0..N).filter(|&node| spec.owner_of(node) == 1).collect();
    let alien = (0..N).find(|&node| spec.owner_of(node) != 1).unwrap();
    let mut session = partial.open_session();
    let (labels, _) = partial.infer_batch(&mut session, &x, &owned)?;
    let want: Vec<_> = owned.iter().map(|&node| expected[node]).collect();
    assert_eq!(labels, want, "owned labels must match sequential inference");
    match partial.infer_batch(&mut session, &x, &[alien]) {
        Err(VaultError::NotOwned { node, part, .. }) => {
            assert_eq!((node, part), (alien, 1));
        }
        other => panic!("alien node must fail typed, got {other:?}"),
    }
    println!(
        "partition replica 1/{PARTS}: {} owned nodes bit-identical, alien node refused typed",
        owned.len()
    );

    // Gate 3: the 4-shard partitioned engine answers the whole corpus
    // bit-identically to sequential `Vault::infer`.
    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 16,
                max_delay: Duration::from_millis(1),
                max_queue_requests: 4096,
                ..BatchPolicy::default()
            },
            cache_capacity: 64,
            shards: PARTS,
            topology: Topology::Partitioned,
            ..ServeConfig::default()
        },
    )?;
    let handle = engine.handle();
    let tickets: Vec<_> = (0..N).map(|node| handle.submit_one(node)).collect();
    for (node, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(
            ticket?.wait()?,
            vec![expected[node]],
            "node {node} must answer bit-identically through the partitioned engine"
        );
    }
    let (survivor, stats) = engine.shutdown();
    assert_eq!(stats.failed_batches, 0);
    assert_eq!(stats.answered_nodes, N as u64);
    assert_eq!(stats.shards.len(), PARTS);
    assert!(
        survivor.is_some_and(|mut v| v.partition_info().is_none() && v.infer(&x).is_ok()),
        "the shutdown survivor must be the parked full vault"
    );
    println!(
        "partitioned engine: {N} queries over {PARTS} shards, {} answered, 0 failed batches",
        stats.answered_nodes
    );
    println!("partition smoke: PASS (bit-identical labels, every shard under the replica size)");
    Ok(())
}
