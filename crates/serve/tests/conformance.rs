//! Cross-topology conformance suite: one scenario matrix executed on
//! one replicated shard and on `{1, 2, 4}` partitioned shards. The
//! engine's behavioural contract — bit-identical labels, cache-epoch
//! identity, zero-downtime hot swap, shutdown drain, and
//! admission-side sentinel accounting — must hold *identically* in
//! every cell: partitioning the private graph may change only what
//! each shard holds, never what any client observes.

mod common;

use common::{sequential_labels, serve_once, toy_vault, toy_vault_flipped};
use gnnvault::{Precision, RectifierKind, Vault};
use serve::{BatchPolicy, ClientId, SentinelStats, ServeConfig, ServingEngine, Topology};
use std::time::Duration;
use tee::SealKey;

/// Corpus size: divisible by 1, 2, and 4 so block partitions are even.
const N: usize = 24;

/// The key `common::toy_vault` seals under.
const KEY: SealKey = SealKey(7);

/// Every cell of the conformance matrix, in a fixed order: the one
/// replicated shard, then 1, 2 and 4 partitions.
fn matrix() -> Vec<(usize, Topology)> {
    let mut cells = vec![(1, Topology::Replicated)];
    cells.extend([1usize, 2, 4].map(|shards| (shards, Topology::Partitioned)));
    cells
}

/// The shared engine configuration a cell runs under.
fn cell_config(shards: usize, topology: Topology) -> ServeConfig {
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
    }
}

#[test]
fn labels_are_bit_identical_across_the_topology_matrix() {
    // The tentpole invariant: a mixed stream of multi-node requests —
    // routed by partition owner, split, batched, cached,
    // reassembled — answers exactly what sequential full-graph
    // inference answers, in every cell.
    let (mut vault, x, _) = toy_vault(N, RectifierKind::Series);
    let expected = sequential_labels(&mut vault, &x);
    let requests: Vec<Vec<usize>> = vec![
        vec![0],
        vec![5, 3, 3, 11, 0],
        (0..N).collect(),
        vec![23, 0, 12, 7],
        (0..N).rev().collect(),
        vec![13],
    ];
    let queried: usize = requests.iter().map(Vec::len).sum();
    for (shards, topology) in matrix() {
        let (results, survivor, stats) = serve_once(
            Vault::restore(&vault.snapshot(), KEY).unwrap(),
            x.clone(),
            cell_config(shards, topology),
            &requests,
        )
        .unwrap();
        for (request, result) in requests.iter().zip(&results) {
            let labels = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{shards} shards, {topology:?}: {e}"));
            let want: Vec<_> = request.iter().map(|&n| expected[n]).collect();
            assert_eq!(labels, &want, "{shards} shards, {topology:?}");
        }
        assert_eq!(stats.shards.len(), shards);
        assert_eq!(stats.failed_batches, 0, "{shards} shards, {topology:?}");
        assert_eq!(
            stats.answered_nodes, queried as u64,
            "{shards} shards, {topology:?}"
        );
        assert_eq!(
            survivor.partition_info(),
            None,
            "the shutdown survivor is a full vault, {shards} shards, {topology:?}"
        );
    }
}

#[test]
fn cache_accounting_is_identical_across_the_topology_matrix() {
    // Cache-epoch identity: the same warm-then-requery trace produces
    // the same hit/miss split in every cell — four unique nodes enter
    // an enclave exactly once each, everything else resolves without
    // new enclave work, no matter how the nodes are spread over shards.
    let (vault, x, _) = toy_vault(N, RectifierKind::Parallel);
    // One warm node per block partition of a 4-way split.
    let warm = [1usize, 7, 13, 20];
    let requests: Vec<Vec<usize>> = warm.iter().chain(warm.iter()).map(|&n| vec![n]).collect();
    for (shards, topology) in matrix() {
        let (results, _survivor, stats) = serve_once(
            Vault::restore(&vault.snapshot(), KEY).unwrap(),
            x.clone(),
            cell_config(shards, topology),
            &requests,
        )
        .unwrap();
        assert!(
            results.iter().all(|r| r.is_ok()),
            "{shards} shards, {topology:?}"
        );
        assert_eq!(stats.answered_nodes, 8, "{shards} shards, {topology:?}");
        assert_eq!(stats.cache_misses, 4, "{shards} shards, {topology:?}");
        assert_eq!(stats.cache_hits, 4, "{shards} shards, {topology:?}");
    }
}

#[test]
fn fast_cache_labels_are_bit_identical_across_the_topology_matrix() {
    // The submit-path fast cache is an optimization, never an oracle:
    // with the cache on, a warmed-then-requeried trace must answer
    // byte-for-byte what the cache-off engine answers — which is what
    // sequential inference answers — in every cell of the matrix. The
    // warm pass waits every ticket, so each label is published (workers
    // publish before responding) before the requery pass probes it.
    let (mut vault, x, _) = toy_vault(N, RectifierKind::Series);
    let expected = sequential_labels(&mut vault, &x);
    let requests: Vec<Vec<usize>> = vec![
        vec![0],
        vec![5, 3, 3, 11, 0],
        (0..N).collect(),
        (0..N).rev().collect(),
        vec![13],
    ];
    for (shards, topology) in matrix() {
        for fast_cache_slots in [0usize, 256] {
            let mut config = cell_config(shards, topology);
            config.fast_cache_slots = fast_cache_slots;
            let engine = ServingEngine::start(
                Vault::restore(&vault.snapshot(), KEY).unwrap(),
                x.clone(),
                config,
            )
            .unwrap();
            let handle = engine.handle();
            for (n, &label) in expected.iter().enumerate() {
                assert_eq!(
                    handle.submit_one(n).unwrap().wait().unwrap(),
                    vec![label],
                    "warm pass, {shards} shards, {topology:?}, {fast_cache_slots} slots"
                );
            }
            for request in &requests {
                let labels = handle.submit(request.clone()).unwrap().wait().unwrap();
                let want: Vec<_> = request.iter().map(|&n| expected[n]).collect();
                assert_eq!(
                    labels, want,
                    "requery pass, {shards} shards, {topology:?}, {fast_cache_slots} slots"
                );
            }
            let (_, stats) = engine.shutdown();
            if fast_cache_slots > 0 {
                // Every requery node was warm, so the whole second pass
                // resolves on the submit thread.
                assert!(
                    stats.fast_path_hits > 0,
                    "{shards} shards, {topology:?}: warm requeries must fast-hit"
                );
            } else {
                assert_eq!(
                    stats.fast_path_hits, 0,
                    "{shards} shards, {topology:?}: fast path off means zero fast hits"
                );
            }
        }
    }
}

#[test]
fn hot_swap_is_clean_and_lossless_across_the_topology_matrix() {
    // Zero-downtime deploy: every pre-deploy query answers the old
    // model, every post-deploy query the new one, nothing is dropped,
    // and the shutdown survivor is a *full* vault of the new epoch in
    // both topologies (partitioned engines park the full vault and
    // re-cut the new model's graph per shard).
    let (mut old, x, _) = toy_vault(N, RectifierKind::Series);
    let expected_old = sequential_labels(&mut old, &x);
    let (mut new, _) = toy_vault_flipped(N, KEY);
    let expected_new = sequential_labels(&mut new, &x);
    let snapshot = new.snapshot();
    for (shards, topology) in matrix() {
        let engine = ServingEngine::start(
            Vault::restore(&old.snapshot(), KEY).unwrap(),
            x.clone(),
            cell_config(shards, topology),
        )
        .unwrap();
        let handle = engine.handle();
        let pre: Vec<_> = (0..N).map(|n| handle.submit_one(n).unwrap()).collect();
        for (n, ticket) in pre.into_iter().enumerate() {
            assert_eq!(
                ticket.wait().unwrap(),
                vec![expected_old[n]],
                "pre-deploy, {shards} shards, {topology:?}"
            );
        }
        let epoch = engine.deploy(&snapshot, KEY).unwrap();
        assert_eq!(epoch, new.epoch(), "{shards} shards, {topology:?}");
        let post: Vec<_> = (0..N).map(|n| handle.submit_one(n).unwrap()).collect();
        for (n, ticket) in post.into_iter().enumerate() {
            assert_eq!(
                ticket.wait().unwrap(),
                vec![expected_new[n]],
                "post-deploy, {shards} shards, {topology:?}"
            );
        }
        let (survivor, stats) = engine.shutdown();
        let mut survivor = survivor.unwrap();
        assert_eq!(survivor.epoch(), new.epoch());
        assert_eq!(
            survivor.partition_info(),
            None,
            "the survivor answers every node, {shards} shards, {topology:?}"
        );
        let (labels, _) = survivor.infer(&x).unwrap();
        assert_eq!(labels, expected_new, "{shards} shards, {topology:?}");
        assert_eq!(stats.failed_batches, 0, "{shards} shards, {topology:?}");
        assert!(
            stats.shards.iter().all(|s| s.deploys == 1),
            "{shards} shards, {topology:?}"
        );
    }
}

#[test]
fn shutdown_drains_every_admitted_request_across_the_topology_matrix() {
    // Drain guarantee: requests admitted before shutdown are answered
    // (correctly), not dropped, even when their batches never hit a
    // size or deadline flush before the queues close.
    let (mut vault, x, _) = toy_vault(N, RectifierKind::Cascaded);
    let expected = sequential_labels(&mut vault, &x);
    for (shards, topology) in matrix() {
        let mut config = cell_config(shards, topology);
        // Generous bounds: only the drain can flush these batches.
        config.policy.max_batch_nodes = 64;
        config.policy.max_delay = Duration::from_millis(250);
        let engine = ServingEngine::start(
            Vault::restore(&vault.snapshot(), KEY).unwrap(),
            x.clone(),
            config,
        )
        .unwrap();
        let handle = engine.handle();
        let tickets: Vec<_> = (0..N).map(|n| handle.submit_one(n).unwrap()).collect();
        let (survivor, stats) = engine.shutdown();
        assert!(survivor.is_some(), "{shards} shards, {topology:?}");
        for (n, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                ticket.wait().unwrap(),
                vec![expected[n]],
                "{shards} shards, {topology:?}"
            );
        }
        assert_eq!(
            stats.answered_nodes, N as u64,
            "{shards} shards, {topology:?}"
        );
        assert!(stats.drain_flushes >= 1, "{shards} shards, {topology:?}");
    }
}

#[test]
fn int8_serving_matches_f32_labels_across_kinds_and_topologies() {
    // The sealed-form contract, end to end: for every rectifier kind,
    // an engine started from an int8 vault (`Vault::set_precision`)
    // answers the full corpus with exactly the labels a sequential
    // `Vault::infer` on an int8 reference vault assigns — on one
    // replicated shard and on 1 and 4 partitions, every shard having
    // been restored from an int8 image — and the shutdown survivor
    // still seals int8. Those
    // labels are the grid weights'; that they also track the f32
    // model's is fidelity, not contract, and is held to 99 %.
    for kind in RectifierKind::ALL {
        let (mut vault, x, _) = toy_vault(N, kind);
        let f32_labels = sequential_labels(&mut vault, &x);
        let mut reference = Vault::restore(&vault.snapshot(), KEY).unwrap();
        reference.set_precision(Precision::Int8).unwrap();
        let expected = sequential_labels(&mut reference, &x);
        let agree = expected
            .iter()
            .zip(&f32_labels)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree * 100 >= N * 99,
            "{kind:?}: int8 grid weights keep only {agree}/{N} of the f32 labels"
        );
        let requests: Vec<Vec<usize>> =
            vec![(0..N).collect(), vec![0], vec![23, 5, 5, 11], vec![13]];
        for (shards, topology) in matrix().into_iter().filter(|&(shards, _)| shards != 2) {
            let mut int8 = Vault::restore(&vault.snapshot(), KEY).unwrap();
            int8.set_precision(Precision::Int8).unwrap();
            let config = cell_config(shards, topology);
            let (results, survivor, stats) =
                serve_once(int8, x.clone(), config, &requests).unwrap();
            for (request, result) in requests.iter().zip(&results) {
                let labels = result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{kind:?}, {shards} shards, {topology:?}: {e}"));
                let want: Vec<_> = request.iter().map(|&n| expected[n]).collect();
                assert_eq!(labels, &want, "{kind:?}, {shards} shards, {topology:?}");
            }
            assert_eq!(
                survivor.precision(),
                Precision::Int8,
                "{kind:?}, {shards} shards, {topology:?}: survivor lost the int8 model"
            );
            assert_eq!(
                stats.failed_batches, 0,
                "{kind:?}, {shards} shards, {topology:?}"
            );
        }
    }
}

#[test]
fn sentinel_stats_are_a_pure_function_of_the_trace_across_the_topology_matrix() {
    // The sentinel admits *before* routing, so for a fixed attributed
    // trace its counters must be byte-for-byte equal in every cell —
    // shard count and topology cannot leak into abuse accounting.
    let (vault, x, _) = toy_vault(N, RectifierKind::Series);
    let trace: Vec<(ClientId, Vec<usize>)> = (0..N)
        .map(|n| (ClientId(1), vec![n]))
        .chain((0..8).map(|i| (ClientId(2), vec![i % 2, (i % 2) + 6])))
        .chain([(ClientId::ANONYMOUS, vec![3, 17])])
        .collect();
    let mut reference: Option<SentinelStats> = None;
    for (shards, topology) in matrix() {
        let engine = ServingEngine::start(
            Vault::restore(&vault.snapshot(), KEY).unwrap(),
            x.clone(),
            cell_config(shards, topology),
        )
        .unwrap();
        let handle = engine.handle();
        for (client, nodes) in &trace {
            let ticket = handle.submit_as(*client, nodes.clone()).unwrap();
            ticket.wait().unwrap();
        }
        let (_, stats) = engine.shutdown();
        match &reference {
            None => reference = Some(stats.sentinel),
            Some(want) => {
                assert_eq!(&stats.sentinel, want, "{shards} shards, {topology:?}")
            }
        }
    }
}
