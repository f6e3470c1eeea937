//! Concurrency and correctness coverage for the serving engine:
//! batched answers must be bit-identical to sequential per-node
//! inference, cache hits must skip the enclave entirely (asserted
//! through the enclave meter's transition counter), the deadline
//! bound must flush partial batches, and the graceful-degradation
//! paths (load shedding, per-request timeouts, start failures) must
//! resolve with typed errors. Crash/recovery behaviour is exercised
//! separately in `tests/chaos.rs` under seeded fault plans.

mod common;

use common::{sequential_labels, serve_once, toy_vault, toy_vault_flipped, toy_vault_with_budget};
use gnnvault::{RectifierKind, Vault};
use linalg::DenseMatrix;
use serve::{BatchPolicy, ServeConfig, ServeError, ServingEngine, ShardHealth, Topology};
use std::time::Duration;
use tee::{ClassLabel, SealKey};

#[test]
fn batched_serving_is_bit_identical_to_sequential_infer() {
    for kind in RectifierKind::ALL {
        let (mut vault, x, _) = toy_vault(16, kind);
        let expected = sequential_labels(&mut vault, &x);

        let engine = ServingEngine::start(
            vault,
            x.clone(),
            ServeConfig {
                policy: BatchPolicy {
                    max_batch_nodes: 8,
                    max_delay: Duration::from_millis(1),
                    max_queue_requests: 256,
                },
                cache_capacity: 64,
                shards: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = engine.handle();
        let tickets: Vec<_> = (0..x.rows())
            .map(|node| handle.submit_one(node).unwrap())
            .collect();
        for (node, ticket) in tickets.into_iter().enumerate() {
            let labels = ticket.wait().unwrap();
            assert_eq!(
                labels,
                vec![expected[node]],
                "{kind:?}: node {node} served label must equal sequential infer"
            );
        }
        let (_, stats) = engine.shutdown();
        assert_eq!(stats.requests, 16, "{kind:?}");
        assert_eq!(stats.answered_nodes, 16, "{kind:?}");
        assert!(stats.enclave_batches >= 1, "{kind:?}");
    }
}

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
fn cache_hits_skip_enclave_transitions() {
    let (vault, x, _) = toy_vault(12, RectifierKind::Series);
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

    // Warm the cache, then hammer the same nodes.
    let first: Vec<ClassLabel> = handle.submit(vec![0, 1, 2, 3]).unwrap().wait().unwrap();
    for _ in 0..5 {
        let again = handle.submit(vec![0, 1, 2, 3]).unwrap().wait().unwrap();
        assert_eq!(again, first, "cache must return identical labels");
    }
    let (vault, stats) = engine.shutdown();
    let vault = vault.expect("the only shard never crashed");

    // The meter's transition counter proves repeats never re-entered
    // the enclave: total ECALLs equal exactly one batch's worth.
    assert_eq!(stats.enclave_batches, 1);
    assert_eq!(vault.enclave_transitions(), stats.enclave_transitions);
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.cache_hits, 20);
    assert!(stats.cache_hit_rate() > 0.8);
}

#[test]
fn deadline_flush_fires_on_a_partial_batch() {
    let (vault, x, _) = toy_vault(8, RectifierKind::Series);
    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                // Size bound far above anything we submit: only the
                // deadline can flush.
                max_batch_nodes: 10_000,
                max_delay: Duration::from_millis(25),
                max_queue_requests: 256,
            },
            cache_capacity: 0,
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = engine.handle();
    let ticket = handle.submit_one(3).unwrap();
    let answered = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("deadline flush must answer a lone request")
        .unwrap();
    assert_eq!(answered.len(), 1);
    let (_, stats) = engine.shutdown();
    assert!(
        stats.deadline_flushes >= 1,
        "partial batch must have been deadline-flushed: {stats:?}"
    );
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let (mut vault, x, _) = toy_vault(24, RectifierKind::Parallel);
    let expected = sequential_labels(&mut vault, &x);
    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 16,
                max_delay: Duration::from_millis(2),
                max_queue_requests: 4096,
            },
            cache_capacity: 512,
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut clients = Vec::new();
    for t in 0..6 {
        let handle = engine.handle();
        let expected = expected.clone();
        clients.push(std::thread::spawn(move || {
            for i in 0..40 {
                let node = (t * 13 + i * 7) % 24;
                let labels = handle.submit_one(node).unwrap().wait().unwrap();
                assert_eq!(labels, vec![expected[node]], "client {t} query {i}");
            }
        }));
    }
    for client in clients {
        client.join().unwrap();
    }
    let (_, stats) = engine.shutdown();
    assert_eq!(stats.requests, 240);
    assert_eq!(stats.answered_nodes, 240);
    // 24 distinct nodes, 240 queries: caching must have absorbed most.
    assert_eq!(stats.cache_misses, 24);
    assert_eq!(stats.cache_hits, 216);
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
fn dropping_the_engine_unparks_the_worker() {
    let (vault, x, _) = toy_vault(6, RectifierKind::Series);
    let engine = ServingEngine::start(vault, x.clone(), ServeConfig::default()).unwrap();
    let handle = engine.handle();
    let ticket = handle.submit_one(0).unwrap();
    // No shutdown: Drop must close the queue so the worker drains the
    // admitted request and exits instead of parking forever.
    drop(engine);
    let result = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("dropped engine's worker must still drain the queue");
    assert!(result.is_ok());
    assert!(matches!(handle.submit_one(1), Err(ServeError::Closed)));
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
fn sharded_engine_is_bit_identical_to_sequential_infer() {
    // The determinism headline: at every shard count, a mixed stream of
    // multi-node requests (whose nodes span partitions and must be
    // reassembled into request order) answers exactly what sequential
    // full-graph inference answers.
    let (mut vault, x, _) = toy_vault(24, RectifierKind::Series);
    let expected = sequential_labels(&mut vault, &x);
    let requests: Vec<Vec<usize>> = vec![
        vec![0],
        vec![5, 3, 3, 11, 0],
        (0..24).collect(),
        vec![23, 0, 12, 7],
        (0..24).rev().collect(),
        vec![13],
    ];
    let mut reference: Option<Vec<Result<Vec<ClassLabel>, ServeError>>> = None;
    for (shards, topology) in [
        (1, Topology::Replicated),
        (2, Topology::Partitioned),
        (4, Topology::Partitioned),
    ] {
        let (results, _vault, stats) = serve_once(
            Vault::restore(&vault.snapshot(), SealKey(7)).unwrap(),
            x.clone(),
            ServeConfig {
                policy: BatchPolicy {
                    max_batch_nodes: 8,
                    max_delay: Duration::from_millis(1),
                    max_queue_requests: 256,
                },
                cache_capacity: 64,
                shards,
                topology,
                ..ServeConfig::default()
            },
            &requests,
        )
        .unwrap();
        for (request, result) in requests.iter().zip(&results) {
            let labels = result.as_ref().unwrap();
            let want: Vec<ClassLabel> = request.iter().map(|&n| expected[n]).collect();
            assert_eq!(labels, &want, "{shards} shards: request {request:?}");
        }
        assert_eq!(stats.shards.len(), shards);
        assert_eq!(stats.answered_nodes, 59);
        // Shard-count invariance of the *results*, bit for bit.
        match &reference {
            None => reference = Some(results),
            Some(reference) => assert_eq!(
                reference, &results,
                "{shards}-shard results must be bit-identical to 1-shard results"
            ),
        }
    }
}

#[test]
fn client_storm_routes_across_shards_consistently() {
    let (mut vault, x, _) = toy_vault(24, RectifierKind::Parallel);
    let expected = sequential_labels(&mut vault, &x);
    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 16,
                max_delay: Duration::from_millis(2),
                max_queue_requests: 4096,
            },
            cache_capacity: 512,
            shards: 4,
            topology: Topology::Partitioned,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(engine.num_shards(), 4);

    let mut clients = Vec::new();
    for t in 0..6 {
        let handle = engine.handle();
        let expected = expected.clone();
        clients.push(std::thread::spawn(move || {
            for i in 0..40 {
                let node = (t * 13 + i * 7) % 24;
                let labels = handle.submit_one(node).unwrap().wait().unwrap();
                assert_eq!(labels, vec![expected[node]], "client {t} query {i}");
            }
        }));
    }
    for client in clients {
        client.join().unwrap();
    }
    let (_, stats) = engine.shutdown();
    assert_eq!(stats.requests, 240);
    assert_eq!(stats.answered_nodes, 240);
    // Ownership pins each node to one shard, so each of the 24 distinct
    // nodes misses exactly once across the whole engine.
    assert_eq!(stats.cache_misses, 24);
    assert_eq!(stats.cache_hits, 216);
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.panics_caught, 0);
    // Aggregates are exactly the sum of the per-shard breakdown.
    assert_eq!(
        stats.shards.iter().map(|s| s.requests).sum::<u64>(),
        stats.requests
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.batches).sum::<u64>(),
        stats.batches
    );
}

#[test]
fn per_shard_stats_expose_flush_reason_balance() {
    let (vault, x, _) = toy_vault(16, RectifierKind::Series);
    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 4,
                max_delay: Duration::from_millis(1),
                max_queue_requests: 256,
            },
            cache_capacity: 0,
            shards: 2,
            topology: Topology::Partitioned,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = engine.handle();
    let tickets: Vec<_> = (0..16)
        .map(|node| handle.submit_one(node).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let (_, stats) = engine.shutdown();
    assert_eq!(stats.shards.len(), 2);
    for (i, shard) in stats.shards.iter().enumerate() {
        assert_eq!(shard.shard, i);
        assert_eq!(
            shard.batches,
            shard.full_flushes + shard.deadline_flushes + shard.drain_flushes,
            "shard {i}: every batch has exactly one flush reason"
        );
        assert_eq!(shard.deploys, 0);
        assert_eq!(shard.panics_caught, 0);
        assert_eq!(shard.restarts, 0);
        assert_eq!(shard.rollbacks, 0);
        assert_eq!(shard.timed_out, 0);
    }
    // The per-shard flush counts decompose the aggregates exactly.
    assert_eq!(
        stats.shards.iter().map(|s| s.full_flushes).sum::<u64>(),
        stats.full_flushes
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.deadline_flushes).sum::<u64>(),
        stats.deadline_flushes
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.drain_flushes).sum::<u64>(),
        stats.drain_flushes
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.answered_nodes).sum::<u64>(),
        16
    );
}

#[test]
fn shutdown_under_load_answers_every_admitted_request() {
    // Regression test for shutdown-under-load: every request that was
    // *admitted* (submit returned Ok) must be answered with labels —
    // queued-but-unbatched requests drain, they are not dropped.
    for (shards, topology) in [(1, Topology::Replicated), (3, Topology::Partitioned)] {
        let (vault, x, _) = toy_vault(16, RectifierKind::Series);
        let engine = ServingEngine::start(
            vault,
            x.clone(),
            ServeConfig {
                policy: BatchPolicy {
                    // A far-off deadline and big batch bound: everything
                    // submitted sits *queued* until shutdown drains it.
                    max_batch_nodes: 10_000,
                    max_delay: Duration::from_secs(3600),
                    max_queue_requests: 4096,
                },
                cache_capacity: 64,
                shards,
                topology,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut clients = Vec::new();
        for t in 0..4 {
            let handle = engine.handle();
            clients.push(std::thread::spawn(move || {
                let mut admitted = Vec::new();
                for i in 0..50 {
                    match handle.submit(vec![(t * 11 + i) % 16, (t + i * 3) % 16]) {
                        Ok(ticket) => admitted.push(ticket),
                        Err(ServeError::Closed) => break,
                        Err(e) => panic!("unexpected admission failure: {e}"),
                    }
                }
                admitted
            }));
        }
        // Give the submitters a head start, then shut down while the
        // queues still hold everything (nothing has been batched).
        std::thread::sleep(Duration::from_millis(5));
        let queued_before = engine.queued_requests();
        let (_, stats) = engine.shutdown();
        let mut answered = 0u64;
        for client in clients {
            for ticket in client.join().unwrap() {
                let labels = ticket
                    .wait_timeout(Duration::from_secs(30))
                    .expect("admitted request must be answered, not time out")
                    .expect("admitted request must resolve to labels after drain");
                assert_eq!(labels.len(), 2);
                answered += 1;
            }
        }
        assert!(
            queued_before > 0,
            "{shards} shards: the load must have been queued, not already served"
        );
        assert_eq!(
            stats.answered_nodes,
            2 * answered,
            "{shards} shards: engine answered exactly the admitted queries"
        );
        assert!(
            stats.drain_flushes >= 1,
            "{shards} shards: shutdown drained queued-but-unbatched requests"
        );
    }
}

#[test]
fn hot_swap_deploys_new_epoch_without_dropping_or_mixing_responses() {
    let n = 16;
    let (mut vault_a, x, _) = toy_vault(n, RectifierKind::Series);
    let expected_a = sequential_labels(&mut vault_a, &x);
    let key_b = SealKey(99);
    let (mut vault_b, _) = toy_vault_flipped(n, key_b);
    let expected_b = sequential_labels(&mut vault_b, &x);
    assert_ne!(
        expected_a, expected_b,
        "the two models must be distinguishable for this test to bite"
    );
    let snapshot_b = vault_b.snapshot();
    let epoch_a = vault_a.epoch();
    let epoch_b = vault_b.epoch();

    let engine = ServingEngine::start(
        vault_a,
        x.clone(),
        ServeConfig {
            policy: BatchPolicy {
                max_batch_nodes: 8,
                max_delay: Duration::from_millis(1),
                max_queue_requests: 4096,
            },
            cache_capacity: 256,
            shards: 2,
            topology: Topology::Partitioned,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Clients hammer the engine before, during, and after the swap.
    // Every response must be exactly one model's answer — never a blend
    // (single-node requests make per-response epochs observable).
    let mut clients = Vec::new();
    for t in 0..4 {
        let handle = engine.handle();
        let expected_a = expected_a.clone();
        let expected_b = expected_b.clone();
        clients.push(std::thread::spawn(move || {
            for i in 0..120 {
                let node = (t * 5 + i) % n;
                let labels = handle.submit_one(node).unwrap().wait().unwrap();
                assert_eq!(labels.len(), 1, "no response may be dropped");
                assert!(
                    labels[0] == expected_a[node] || labels[0] == expected_b[node],
                    "client {t} query {i}: label {:?} is neither epoch's answer",
                    labels[0]
                );
            }
        }));
    }

    // Swap models mid-storm.
    std::thread::sleep(Duration::from_millis(3));
    let new_epoch = engine.deploy(&snapshot_b, key_b).unwrap();
    assert_eq!(new_epoch, epoch_b);
    assert_ne!(new_epoch, epoch_a);

    // After deploy() returns, every shard serves the new model: fresh
    // queries answer with B's labels, bit for bit.
    let handle = engine.handle();
    #[allow(clippy::needless_range_loop)] // node is also the query argument
    for node in 0..n {
        let labels = handle.submit_one(node).unwrap().wait().unwrap();
        assert_eq!(
            labels,
            vec![expected_b[node]],
            "post-deploy query for node {node} must come from the new epoch"
        );
    }
    for client in clients {
        client.join().unwrap();
    }

    let (vault, stats) = engine.shutdown();
    let vault = vault.expect("the engine parked the new full vault");
    assert_eq!(vault.epoch(), epoch_b, "shutdown returns the new model");
    assert_eq!(stats.shards.len(), 2);
    for shard in &stats.shards {
        assert_eq!(
            shard.deploys, 1,
            "shard {} installed the epoch",
            shard.shard
        );
        assert_eq!(shard.rollbacks, 0, "a clean deploy rolls nothing back");
    }
    // Nothing was dropped: every submission above was answered.
    assert_eq!(stats.answered_nodes, 4 * 120 + n as u64);
}

#[test]
fn deploy_rejects_bad_snapshots_and_keeps_serving() {
    let n = 16;
    let (mut vault, x, _) = toy_vault(n, RectifierKind::Series);
    let expected = sequential_labels(&mut vault, &x);
    let snapshot_self = vault.snapshot();
    let (small_vault, _, _) = toy_vault(6, RectifierKind::Series);
    let snapshot_small = small_vault.snapshot();

    let engine = ServingEngine::start(
        vault,
        x.clone(),
        ServeConfig {
            shards: 2,
            topology: Topology::Partitioned,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Wrong corpus size: rejected outright.
    assert!(matches!(
        engine.deploy(&snapshot_small, SealKey(7)),
        Err(ServeError::Rejected { .. })
    ));
    // Wrong seal key: every shard fails identically; the old model
    // keeps serving.
    assert!(matches!(
        engine.deploy(&snapshot_self, SealKey(12345)),
        Err(ServeError::Vault(_))
    ));
    let handle = engine.handle();
    for node in [0, 5, 11] {
        assert_eq!(
            handle.submit_one(node).unwrap().wait().unwrap(),
            vec![expected[node]],
            "failed deploys must not disturb the serving model"
        );
    }
    let (_, stats) = engine.shutdown();
    for shard in &stats.shards {
        assert_eq!(shard.deploys, 0);
        // No shard installed, so the all-or-nothing deploy had nothing
        // to roll back.
        assert_eq!(shard.rollbacks, 0);
    }
    assert_eq!(stats.deploy_rollbacks, 0);
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
