//! Serving throughput: a deployed vault behind the batching engine,
//! under concurrent client load.
//!
//! ```text
//! cargo run --release --example serving_throughput
//! ```
//!
//! Trains and deploys a GNNVault on a synthetic Cora, then compares
//! five ways of answering the same query stream:
//!
//! 1. sequential per-node `Vault::infer` (the paper's single-query
//!    deployment),
//! 2. the serving engine with batching but **no cache**,
//! 3. the serving engine with batching **and** the LRU result cache,
//! 4. the same plus the **submit-path fast cache**, which answers warm
//!    repeat queries on the client thread without touching a shard,
//! 5. batching and the LRU cache on **2 partitioned shards**, each
//!    holding half of the private graph.
//!
//! The interesting columns are enclave transitions per query, wall
//! time, and the per-path latency quantiles: batching divides the
//! per-query ECALL cost by the batch size, the LRU removes repeat
//! queries from the enclave, and the fast cache removes them from the
//! queue as well.

use gnnvault_suite::datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault_suite::gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};
use gnnvault_suite::serve::{BatchPolicy, ClientId, ServeConfig, ServingEngine, Topology};
use std::time::{Duration, Instant};

/// Queries per client thread.
const QUERIES_PER_CLIENT: usize = 200;
/// Concurrent client threads.
const CLIENTS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.20)
        .seed(11)
        .generate()?;
    println!(
        "dataset: {} ({} nodes, {} edges)",
        data.name,
        data.num_nodes(),
        data.graph.num_edges()
    );

    let spec = pipeline::PipelineConfig {
        model: ModelConfig::m1(data.num_classes),
        substitute: SubstituteKind::Knn { k: 2 },
        rectifier: RectifierKind::Series,
        epochs: 60,
        train_original: false,
        ..Default::default()
    };
    let trained = pipeline::train(&data, &spec)?;
    let mut vault = pipeline::deploy(trained, &data)?;

    // Zipf-ish skewed query stream: a few hot nodes dominate, as they
    // would in production traffic. Same stream for every strategy.
    let num_nodes = data.num_nodes();
    let stream: Vec<usize> = (0..CLIENTS * QUERIES_PER_CLIENT)
        .map(|i| {
            let r = (i * 2_654_435_761) % 1000;
            if r < 700 {
                r % 16 // 70% of traffic on 16 hot nodes
            } else {
                (i * 48_271) % num_nodes
            }
        })
        .collect();

    // --- 1. sequential per-node inference -------------------------------
    let transitions_before = vault.enclave_transitions();
    let start = Instant::now();
    let sample = &stream[..stream.len().min(100)]; // full run would take minutes
    for &node in sample {
        vault.infer_node(&data.features, node)?;
    }
    let sequential_elapsed = start.elapsed();
    let sequential_transitions = vault.enclave_transitions() - transitions_before;
    println!(
        "\nsequential per-node infer ({} queries):\n  {:>8.1} queries/s | {:.2} transitions/query",
        sample.len(),
        sample.len() as f64 / sequential_elapsed.as_secs_f64(),
        sequential_transitions as f64 / sample.len() as f64,
    );

    // --- 2..5. the serving engine: batching, + caches, + partitions -----
    for (label, cache_capacity, topology, shards, fast_cache_slots) in [
        ("batching only", 0, Topology::Replicated, 1, 0),
        (
            "batching + LRU cache",
            num_nodes,
            Topology::Replicated,
            1,
            0,
        ),
        (
            "batching + LRU + fast cache",
            num_nodes,
            Topology::Replicated,
            1,
            4096,
        ),
        (
            "2 partitions + LRU cache",
            num_nodes,
            Topology::Partitioned,
            2,
            0,
        ),
    ] {
        let config = ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 64,
                max_delay: Duration::from_millis(2),
                max_queue_requests: 8192,
            },
            cache_capacity,
            fast_cache_slots,
            shards,
            topology,
            ..ServeConfig::default()
        };
        let engine = ServingEngine::start(vault, data.features.clone(), config)?;
        let start = Instant::now();
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let handle = engine.handle();
            let queries: Vec<usize> =
                stream[c * QUERIES_PER_CLIENT..(c + 1) * QUERIES_PER_CLIENT].to_vec();
            clients.push(std::thread::spawn(move || {
                // Each client thread is an attributed session, so the
                // sentinel's per-session detectors see real traffic.
                let client = ClientId(c as u64 + 1);
                for node in queries {
                    handle
                        .submit_one_as(client, node)
                        .expect("admission")
                        .wait()
                        .expect("inference");
                }
            }));
        }
        for client in clients {
            client.join().expect("client thread");
        }
        let elapsed = start.elapsed();
        let (returned_vault, stats) = engine.shutdown();
        vault = returned_vault.expect("no faults injected: every shard survives");

        // Fast-path hits never reach a shard, so they are counted
        // separately from the queued `stats.requests`.
        let answered = stats.requests + stats.fast_path_hits;
        println!(
            "\nserving engine, {} ({} queries, {} clients):",
            label, answered, CLIENTS
        );
        println!(
            "  {:>8.1} queries/s | {:.3} transitions/query | {:.1} nodes/enclave batch",
            answered as f64 / elapsed.as_secs_f64(),
            stats.transitions_per_node(),
            stats.mean_enclave_batch_nodes(),
        );
        if let (Some(p50), Some(p99)) = (stats.queued_latency.p50(), stats.queued_latency.p99()) {
            println!(
                "  queued path: {} requests | p50 {:?} / p99 {:?}",
                stats.queued_latency.count(),
                p50,
                p99,
            );
        }
        if let (Some(p50), Some(p99)) =
            (stats.fast_path_latency.p50(), stats.fast_path_latency.p99())
        {
            println!(
                "  fast path:   {} hits | p50 {:?} / p99 {:?}",
                stats.fast_path_hits, p50, p99,
            );
        }
        println!(
            "  batches: {} ({} full, {} deadline, {} drain) | cache hit rate {:.1}%",
            stats.batches,
            stats.full_flushes,
            stats.deadline_flushes,
            stats.drain_flushes,
            stats.cache_hit_rate() * 100.0,
        );
        println!(
            "  recovery: {} panics caught, {} restarts, {} rollbacks | {} shed, {} timed out",
            stats.panics_caught,
            stats.shard_restarts,
            stats.deploy_rollbacks,
            stats.requests_shed,
            stats.timed_out_requests,
        );
        println!(
            "  sentinel: {} sessions observed | {} rate-limited requests, {} quarantined sessions",
            stats.sentinel.sessions_observed,
            stats.sentinel.rate_limited_requests,
            stats.sentinel.quarantined_sessions,
        );
        for shard in &stats.shards {
            println!(
                "  shard {}: {} requests, {} batches ({} full / {} deadline / {} drain)",
                shard.shard,
                shard.requests,
                shard.batches,
                shard.full_flushes,
                shard.deadline_flushes,
                shard.drain_flushes,
            );
        }
    }

    // --- 5. zero-downtime hot swap ---------------------------------------
    // Snapshot the model, keep serving, and swap the (re)deployed
    // snapshot in across every shard without dropping a request.
    let snapshot = vault.snapshot();
    println!(
        "
hot swap: sealed snapshot is {} KiB (epoch {})",
        snapshot.sealed_nbytes() / 1024,
        snapshot.epoch(),
    );
    let engine = ServingEngine::start(
        vault,
        data.features.clone(),
        ServeConfig {
            shards: 2,
            topology: Topology::Partitioned,
            cache_capacity: num_nodes,
            ..ServeConfig::default()
        },
    )?;
    let handle = engine.handle();
    handle.submit(vec![0, 1, 2])?.wait()?;
    // NOTE: restoring the snapshot installs a *replica of the same
    // epoch*; a retrained vault would carry a fresh epoch and
    // invalidate the caches. The drill is identical either way.
    let epoch = engine.deploy(&snapshot, pipeline::DEPLOY_SEAL_KEY)?;
    println!("  deploy(snapshot) installed epoch {epoch} on every shard");
    handle.submit(vec![0, 1, 2])?.wait()?;
    let (vault, stats) = engine.shutdown();
    println!(
        "  served {} queries across {} shards; {} hot swaps installed",
        stats.answered_nodes,
        stats.shards.len(),
        stats.shards.iter().map(|s| s.deploys).sum::<u64>(),
    );
    drop(vault);
    Ok(())
}
