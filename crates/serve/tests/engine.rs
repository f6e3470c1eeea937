//! What no label trace can see: typed errors from start, admission,
//! shedding and the request timeout; the cost meter; and the result
//! cache dropped at install even when the epoch collides. Labels,
//! deploys, faults, shutdown and the sentinel's view of a trace are
//! held by one oracle in `tests/trace.rs`.

mod common;

use common::{serve_once, toy_vault, toy_vault_with_budget};
use gnnvault::{RectifierKind, Vault};
use linalg::DenseMatrix;
use serve::{BatchPolicy, ServeConfig, ServeError, ServingEngine, ShardHealth};
use std::time::Duration;
use tee::SealKey;

#[test]
fn batching_amortizes_enclave_transitions_below_per_node_cost() {
    let (mut vault, x, _) = toy_vault(32, RectifierKind::Cascaded);

    // Per-node baseline: transitions one full infer charges per query.
    let (_, per_node_report) = vault.infer(&x).unwrap();
    let per_node_transitions = per_node_report.transitions;
    assert!(per_node_transitions >= 1);

    // Serve the same 32 nodes as one 32-node request (batch ≥ 16).
    let (results, _vault, stats) = serve_once(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 32,
                max_delay: Duration::from_millis(1),
                max_queue_requests: 64,
            },
            cache_capacity: 0, // isolate batching from caching
            shards: 1,
            ..ServeConfig::default()
        },
        &[(0..32).collect::<Vec<_>>()],
    )
    .unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].as_ref().unwrap().len(), 32);
    assert_eq!(stats.enclave_batches, 1);
    // One batch paid the tap-set once for 32 nodes: strictly lower
    // per-node cost than sequential querying.
    assert_eq!(stats.enclave_transitions, per_node_transitions);
    assert!(
        stats.transitions_per_node() < per_node_transitions as f64,
        "batched {} per node vs sequential {}",
        stats.transitions_per_node(),
        per_node_transitions
    );
}

#[test]
fn admission_control_and_validation_reject_cleanly() {
    let (vault, x, _) = toy_vault(6, RectifierKind::Series);
    let engine = ServingEngine::start(vault, x.clone(), ServeConfig::default()).unwrap();
    let handle = engine.handle();

    assert!(matches!(
        handle.submit(vec![999]),
        Err(ServeError::Rejected { .. })
    ));
    assert!(matches!(
        handle.submit(vec![]),
        Err(ServeError::Rejected { .. })
    ));
    assert_eq!(handle.num_nodes(), 6);

    let (_, stats) = engine.shutdown();
    assert_eq!(stats.requests, 0);

    // After shutdown the handle reports closed.
    assert!(matches!(handle.submit(vec![0]), Err(ServeError::Closed)));
}

#[test]
fn start_rejects_a_bad_corpus_or_topology_with_a_typed_error() {
    // A corpus whose row count disagrees with the deployed graph used
    // to panic the engine at startup; it must now surface as a typed,
    // recoverable error with nothing left running.
    let (vault, x, _) = toy_vault(6, RectifierKind::Series);
    let snapshot = vault.snapshot();
    let wrong_corpus = DenseMatrix::from_fn(4, 2, |r, c| (r + c) as f32);
    let result = ServingEngine::start(vault, wrong_corpus, ServeConfig::default());
    match result {
        Err(ServeError::Rejected { reason }) => {
            assert!(
                reason.contains("4") && reason.contains("6"),
                "rejection names both sizes: {reason}"
            );
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // A replicated engine has one shard; asking for two is a config
    // error, refused before any worker is spawned, and the reason names
    // the topology that does take several.
    let two_replicas = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let vault = Vault::restore(&snapshot, SealKey(7)).unwrap();
    match ServingEngine::start(vault, x, two_replicas) {
        Err(ServeError::Rejected { reason }) => {
            assert!(
                reason.contains("Topology::Partitioned"),
                "rejection points at partitioning: {reason}"
            );
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
}

#[test]
fn load_shedding_turns_overload_into_typed_retry_hints() {
    let (vault, x, _) = toy_vault(8, RectifierKind::Series);
    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                // Nothing flushes until shutdown: the queue only grows.
                max_batch_nodes: 10_000,
                max_delay: Duration::from_secs(3600),
                max_queue_requests: 2,
            },
            cache_capacity: 0,
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = engine.handle();
    let a = handle.submit_one(0).unwrap();
    let b = handle.submit_one(1).unwrap();
    // Queue depth is at the admission bound: the next submission is
    // shed with a retry hint instead of deepening the backlog.
    match handle.submit_one(2) {
        Err(ServeError::Overloaded {
            queued,
            retry_after,
        }) => {
            assert_eq!(queued, 2);
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Every shard is healthy the whole time — shedding is a load
    // condition, not a failure.
    assert_eq!(engine.health().states(), vec![ShardHealth::Healthy]);
    let (_, stats) = engine.shutdown();
    // The admitted requests still drained and were answered.
    assert_eq!(a.wait().unwrap().len(), 1);
    assert_eq!(b.wait().unwrap().len(), 1);
    assert_eq!(stats.requests_shed, 1);
    assert_eq!(stats.requests, 2);
}

#[test]
fn request_timeout_drops_stale_requests_with_a_typed_error() {
    let (vault, x, _) = toy_vault(8, RectifierKind::Series);
    let timeout = Duration::from_millis(20);
    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                // Nothing flushes until the shutdown drain, so every
                // request is long past its budget when examined.
                max_batch_nodes: 10_000,
                max_delay: Duration::from_secs(3600),
                max_queue_requests: 256,
            },
            cache_capacity: 0,
            shards: 1,
            request_timeout: timeout,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = engine.handle();
    let tickets: Vec<_> = (0..3).map(|n| handle.submit_one(n).unwrap()).collect();
    std::thread::sleep(timeout * 4);
    let (_, stats) = engine.shutdown();
    for ticket in tickets {
        match ticket.wait() {
            Err(ServeError::TimedOut { waited }) => assert!(waited > timeout),
            other => panic!("stale request must time out, got {other:?}"),
        }
    }
    assert_eq!(stats.timed_out_requests, 3);
    assert_eq!(stats.requests, 3, "timed-out requests are still requests");
    assert_eq!(stats.answered_nodes, 0);
    assert_eq!(
        stats.enclave_batches, 0,
        "no enclave work for stale requests"
    );
}

#[test]
fn failed_batches_error_cleanly_and_stay_meter_exact() {
    // Measure the resident set, then redeploy with so little headroom
    // that the transient activations can never fit: every enclave batch
    // fails after its taps were already charged.
    let (probe, _, _) = toy_vault(8, RectifierKind::Series);
    let resident = probe.enclave_in_use_bytes();
    drop(probe);
    let (vault, x, _) = toy_vault_with_budget(8, RectifierKind::Series, resident + 16);

    let engine = ServingEngine::start(vault, x.clone(), ServeConfig::default()).unwrap();
    let handle = engine.handle();
    for _ in 0..2 {
        let result = handle.submit_one(0).unwrap().wait();
        assert!(
            matches!(result, Err(ServeError::Vault(_))),
            "EPC-starved batch must surface the vault error: {result:?}"
        );
    }
    let (vault, stats) = engine.shutdown();
    let vault = vault.expect("vault errors are typed failures, not crashes");
    assert_eq!(stats.failed_batches, 2);
    assert_eq!(stats.enclave_batches, 0);
    assert_eq!(stats.answered_nodes, 0);
    // A vault error is not a panic: the shard never went through
    // supervision recovery.
    assert_eq!(stats.panics_caught, 0);
    assert_eq!(stats.shard_restarts, 0);
    // The failed attempts' ECALLs are still accounted: engine stats and
    // the vault's own lifetime counter agree exactly.
    assert!(stats.enclave_transitions > 0);
    assert_eq!(stats.enclave_transitions, vault.enclave_transitions());
    // And the failures leaked no enclave memory.
    assert_eq!(vault.enclave_in_use_bytes(), resident);
}

#[test]
fn stats_account_every_batch_through_the_meter() {
    let (vault, x, _) = toy_vault(16, RectifierKind::Series);
    let (results, vault, stats) = serve_once(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 4,
                max_delay: Duration::from_millis(1),
                max_queue_requests: 256,
            },
            cache_capacity: 0, // every batch enters the enclave
            shards: 1,
            ..ServeConfig::default()
        },
        &(0..16).map(|n| vec![n]).collect::<Vec<_>>(),
    )
    .unwrap();
    assert!(results.iter().all(|r| r.is_ok()));
    // With caching off, every flushed batch became an enclave batch and
    // the engine's aggregate equals the vault's own lifetime counter.
    assert_eq!(stats.enclave_batches, stats.batches);
    assert_eq!(stats.enclave_transitions, vault.enclave_transitions());
    assert!(stats.transferred_bytes > 0);
    assert!(stats.backbone_ns > 0);
    assert!(stats.transfer_ns > 0);
    assert!(stats.rectifier_ns > 0);
}

#[test]
fn install_drops_the_cache_even_under_an_epoch_collision() {
    // Epoch numbers are process-local, so a snapshot from another
    // worker could legitimately collide with the serving epoch while
    // carrying different weights. The install path must therefore drop
    // the cache outright rather than trust the epoch key. Observable
    // here with a same-epoch snapshot: warmed nodes re-enter the
    // enclave (fresh misses) after the deploy instead of hitting.
    let (vault, x, _) = toy_vault(12, RectifierKind::Series);
    let snapshot = vault.snapshot();
    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 4,
                max_delay: Duration::from_millis(1),
                max_queue_requests: 256,
            },
            cache_capacity: 256,
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = engine.handle();
    handle.submit(vec![0, 1, 2, 3]).unwrap().wait().unwrap();
    handle.submit(vec![0, 1, 2, 3]).unwrap().wait().unwrap(); // all hits
    engine
        .deploy(&snapshot, SealKey(7))
        .expect("same-model snapshot installs cleanly");
    handle.submit(vec![0, 1, 2, 3]).unwrap().wait().unwrap(); // must miss again
    let (_, stats) = engine.shutdown();
    assert_eq!(
        stats.cache_misses, 8,
        "the 4 warmed nodes must re-enter the enclave after the install"
    );
    assert_eq!(stats.cache_hits, 4);
    assert_eq!(stats.shards[0].deploys, 1);
}
