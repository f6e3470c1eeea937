//! Chaos coverage for the fault-tolerant serving runtime, driven by the
//! deterministic `serve::faults` injection harness.
//!
//! The contract under test: **every admitted request resolves** —
//! labels or a typed [`ServeError`] — no matter which shards panic or
//! fail a restore; every *successful* answer
//! is bit-identical to sequential [`Vault::infer`]; and the recovery
//! counters in [`ServeStats`] report exactly the injected faults.
//! Every fault is addressed by (shard, ordinal), so a shard is held
//! `Down` by construction — a panic plus a failed restart — never by a
//! clock. A shard restarts *before* it answers the panicked batch, so
//! every health assertion reads the board once, right after a ticket
//! resolves. The same transitions are checked exhaustively, without
//! threads, by the state-machine tests in `src/worker.rs`; this suite
//! holds the live engine to them. Multi-shard engines are partitioned:
//! a replicated engine runs one shard.

mod common;

use common::{quiet_injected_panics, toy_vault, toy_vault_flipped};
use gnnvault::{RectifierKind, Vault, VaultSnapshot};
use graph::partition::PartitionSpec;
use linalg::DenseMatrix;
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use serve::faults::{Fault, FaultPlan};
use serve::{BatchPolicy, ServeConfig, ServeError, ServingEngine, ShardHealth, Ticket, Topology};
use std::sync::OnceLock;
use std::time::Duration;
use tee::{ClassLabel, SealKey};

const N: usize = 16;
/// The key `common::toy_vault` seals model A under.
const KEY_A: SealKey = SealKey(7);
const KEY_B: SealKey = SealKey(99);

/// Trained-once fixture shared by every chaos test: a sealed snapshot
/// of model A (restored per test — training dominates the cost, restore
/// is cheap), its corpus and sequential labels, and a distinguishable
/// flipped-label model B for deploy/rollback tests. Both come from the
/// suite-wide `tests/common` builders.
struct Fixture {
    snapshot_a: VaultSnapshot,
    snapshot_b: VaultSnapshot,
    features: DenseMatrix,
    expected_a: Vec<ClassLabel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (mut vault_a, features, _) = toy_vault(N, RectifierKind::Series);
        let (mut vault_b, _) = toy_vault_flipped(N, KEY_B);
        let (expected_a, _) = vault_a.infer(&features).unwrap();
        let (expected_b, _) = vault_b.infer(&features).unwrap();
        // The labels this suite's former private fixture produced:
        // model A labels each ring cluster by its training label.
        let clusters: Vec<ClassLabel> = (0..N)
            .map(|r| ClassLabel(usize::from(r >= N / 2)))
            .collect();
        assert_eq!(expected_a, clusters, "model A's labels are unchanged");
        assert_ne!(
            expected_a, expected_b,
            "the two models must answer differently for rollback proofs to bite"
        );
        Fixture {
            snapshot_a: vault_a.snapshot(),
            snapshot_b: vault_b.snapshot(),
            features,
            expected_a,
        }
    })
}

/// A fresh replica of model A (the fixture's serving model).
fn fresh_vault() -> Vault {
    Vault::restore(&fixture().snapshot_a, KEY_A).unwrap()
}

/// One node owned by each of `shards` partitions — the handle that lets
/// a test address a specific shard's batch stream.
fn node_per_shard(shards: usize) -> Vec<usize> {
    let spec = PartitionSpec::block(N, shards).unwrap();
    (0..shards)
        .map(|s| {
            (0..N)
                .find(|&node| spec.owner_of(node) == s)
                .unwrap_or_else(|| panic!("no node of {N} is owned by shard {s}"))
        })
        .collect()
}

/// A policy where every single-node request is its own immediately
/// flushed batch, making per-shard batch ordinals — the time axis of a
/// [`FaultPlan`] — deterministic functions of the submission order.
fn one_request_per_batch_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch_nodes: 1,
        max_delay: Duration::from_secs(3600),
        max_queue_requests: 1024,
    }
}

/// The acceptance scenario: a seeded plan panics each of four shards
/// exactly once and fails one shard's deploy install; 100% of admitted
/// requests are answered (labels or typed error, zero hangs), every
/// successful label is bit-identical to sequential inference, and the
/// stats report the injected panic/restart/rollback counts *exactly*.
#[test]
fn seeded_chaos_plan_answers_everything_and_counts_exactly() {
    quiet_injected_panics();
    let fix = fixture();
    let shards = 4;
    let homes = node_per_shard(shards);

    // Batch 2 of every shard panics. Shard 2's restore 1 is its
    // post-panic restart; restore 2 is the deploy's install, refused.
    let mut plan = FaultPlan::new();
    for s in 0..shards {
        plan = plan.with_fault(Fault::PanicAt {
            shard: s,
            batch_n: 2,
        });
    }
    plan = plan.with_fault(Fault::FailRestore {
        shard: 2,
        restore_n: 2,
    });

    let engine = ServingEngine::start(
        fresh_vault(),
        fix.features.clone(),
        ServeConfig {
            policy: one_request_per_batch_policy(),
            cache_capacity: 64,
            shards,
            topology: Topology::Partitioned,
            fault_plan: Some(plan),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = engine.handle();
    let wait = |ticket: Ticket| {
        ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("an admitted chaos request must resolve, not hang")
    };

    // Batch 1 per shard: healthy serving, bit-identical labels.
    for &node in &homes {
        assert_eq!(
            wait(handle.submit_one(node).unwrap()).unwrap(),
            vec![fix.expected_a[node]]
        );
    }
    // Batch 2 per shard: the injected panic fails exactly that batch
    // with a typed error naming the shard — answered only after
    // supervision restored the shard from its retained snapshot.
    for (s, &node) in homes.iter().enumerate() {
        match wait(handle.submit_one(node).unwrap()) {
            Err(ServeError::ShardFailed { shard }) => assert_eq!(shard, s),
            other => panic!("shard {s} batch 2 must fail typed, got {other:?}"),
        }
        assert_eq!(engine.health().state(s), ShardHealth::Degraded);
    }
    // Batch 3 per shard: recovered replicas answer bit-identically.
    for &node in &homes {
        assert_eq!(
            wait(handle.submit_one(node).unwrap()).unwrap(),
            vec![fix.expected_a[node]]
        );
    }

    // All-or-nothing deploy of model B: shard 2's one install attempt
    // is refused, so the three shards that installed are rolled back
    // and the error surfaces the injected cause. Restore 2 failing the
    // deploy proves there was no second attempt — restore 3 would have
    // succeeded.
    match engine.deploy(&fix.snapshot_b, KEY_B) {
        Err(ServeError::Vault(e)) => assert!(
            e.to_string()
                .contains("injected fault: FailRestore { shard: 2, restore_n: 2 }"),
            "{e}"
        ),
        other => panic!("partially failing deploy must error, got {other:?}"),
    }
    // After rollback the *old* model answers everywhere — one request
    // spanning every node proves no shard kept model B.
    let all_labels = wait(handle.submit((0..N).collect()).unwrap()).unwrap();
    assert_eq!(
        all_labels, fix.expected_a,
        "rollback must restore model A on every shard"
    );

    let (vault, stats) = engine.shutdown();
    assert!(
        vault.is_some(),
        "every shard survived: panics were recovered, the failed deploy rolled back"
    );
    // Exact accounting of the injected faults:
    assert_eq!(stats.panics_caught, 4, "one caught panic per shard");
    assert_eq!(stats.shard_restarts, 4, "one supervised restore per shard");
    assert_eq!(
        stats.deploy_rollbacks, 3,
        "the three installed shards rolled back"
    );
    assert_eq!(stats.failed_batches, 4, "only the panicked batches failed");
    assert_eq!(stats.timed_out_requests, 0);
    assert_eq!(stats.requests_shed, 0);
    for shard in &stats.shards {
        assert_eq!(shard.panics_caught, 1, "shard {}", shard.shard);
        assert_eq!(shard.restarts, 1, "shard {}", shard.shard);
        if shard.shard == 2 {
            assert_eq!(shard.deploys, 0, "the refusing shard never installed");
            assert_eq!(shard.rollbacks, 0);
        } else {
            assert_eq!(
                shard.deploys, 1,
                "shard {} installed before rollback",
                shard.shard
            );
            assert_eq!(shard.rollbacks, 1, "shard {}", shard.shard);
        }
    }
}

/// Satellite regression: killing a worker mid-batch must resolve the
/// in-flight ticket to [`ServeError::ShardFailed`] — never leave the
/// client hanging on a responder that unwound with the worker's stack —
/// and the shard must come back and serve again.
#[test]
fn killed_worker_mid_batch_fails_the_ticket_and_recovers() {
    quiet_injected_panics();
    let fix = fixture();
    let plan = FaultPlan::new().with_fault(Fault::PanicAt {
        shard: 0,
        batch_n: 1,
    });
    let engine = ServingEngine::start(
        fresh_vault(),
        fix.features.clone(),
        ServeConfig {
            policy: one_request_per_batch_policy(),
            cache_capacity: 0,
            shards: 1,
            fault_plan: Some(plan),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = engine.handle();
    let result = handle
        .submit(vec![0, 1, 2])
        .unwrap()
        .wait_timeout(Duration::from_secs(30))
        .expect("the killed worker's ticket must resolve, not hang");
    assert_eq!(result, Err(ServeError::ShardFailed { shard: 0 }));
    // The shard restarted before it answered.
    assert_eq!(engine.health().state(0), ShardHealth::Degraded);
    // The restored replica serves the same model, bit for bit.
    let labels = handle.submit(vec![0, 1, 2]).unwrap().wait().unwrap();
    assert_eq!(
        labels,
        vec![fix.expected_a[0], fix.expected_a[1], fix.expected_a[2]]
    );
    let (vault, stats) = engine.shutdown();
    assert!(vault.is_some(), "the shard recovered before shutdown");
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 1);
}

/// Holds shard `shard` `Down` by construction: its first batch panics
/// and its restart — restore 1 — fails, so it stays down until a
/// deploy's install (restore 2) resurrects it. No clock is involved.
fn down_until_deploy(shard: usize) -> FaultPlan {
    FaultPlan::new()
        .with_fault(Fault::PanicAt { shard, batch_n: 1 })
        .with_fault(Fault::FailRestore {
            shard,
            restore_n: 1,
        })
}

/// A partition's nodes have exactly one holder, so when their owner is
/// down they are *not* handed to a neighbour (which could only misroute
/// them). They resolve to the typed [`ServeError::ShardFailed`]; the
/// failed restart is not retried. A deploy resurrects the owner
/// (`Down` → `Degraded`, then `Healthy` after its next batch), its nodes
/// are then answered bit-identically, and the other shard answers none
/// of them.
#[test]
fn partitioned_down_shard_queries_wait_for_their_owner_not_a_neighbour() {
    quiet_injected_panics();
    let fix = fixture();
    // Block layout over N=16, 2 parts: shard 0 owns 0..8, shard 1 owns
    // 8..16.
    let engine = ServingEngine::start(
        fresh_vault(),
        fix.features.clone(),
        ServeConfig {
            policy: one_request_per_batch_policy(),
            cache_capacity: 0,
            shards: 2,
            topology: Topology::Partitioned,
            fault_plan: Some(down_until_deploy(1)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = engine.handle();
    let wait = |ticket: Ticket| {
        ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("no hang")
    };

    // Trip shard 1's batch-1 panic with one of its owned nodes: the
    // in-flight batch resolves to the typed failure, never to a label
    // from the wrong partition.
    assert_eq!(
        wait(handle.submit_one(8).unwrap()),
        Err(ServeError::ShardFailed { shard: 1 })
    );
    assert_eq!(engine.health().state(1), ShardHealth::Down);

    // Another shard-1-owned node: it stays with its owner, which is
    // down, so it fails typed too.
    assert_eq!(
        wait(handle.submit_one(9).unwrap()),
        Err(ServeError::ShardFailed { shard: 1 })
    );

    // A deploy brings the owner back; now the node is answered with
    // the label sequential inference would give.
    engine.deploy(&fix.snapshot_a, KEY_A).unwrap();
    assert_eq!(engine.health().state(1), ShardHealth::Degraded);
    assert_eq!(
        wait(handle.submit_one(9).unwrap()).unwrap(),
        vec![fix.expected_a[9]]
    );
    assert_eq!(engine.health().state(1), ShardHealth::Healthy);

    let (_, stats) = engine.shutdown();
    assert_eq!(stats.panics_caught, 1);
    assert_eq!(stats.shard_restarts, 0, "the one restart failed");
    assert_eq!(
        stats.shards[0].answered_nodes, 0,
        "shard 0 must not answer shard 1's nodes"
    );
    assert_eq!(stats.shards[1].answered_nodes, 1);
    assert_eq!(stats.shards[1].deploys, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: under a *random* seeded fault plan (a panic per shard
    /// and a failed restore across 4 partitioned shards), every
    /// admitted request resolves — labels or a typed error, zero hangs
    /// — and every successful label is bit-identical to sequential
    /// inference. Deploying the engine's own snapshot mid-storm keeps
    /// the model invariant whether the all-or-nothing deploy commits or
    /// rolls back, so the bit-identity check holds across it.
    #[test]
    fn random_fault_plans_never_hang_and_never_corrupt_answers(seed in proptest::any::<u64>()) {
        quiet_injected_panics();
        let fix = fixture();
        let shards = 4;
        let plan = FaultPlan::random(seed, shards, 6);
        let engine = ServingEngine::start(
            fresh_vault(),
            fix.features.clone(),
            ServeConfig {
                policy: one_request_per_batch_policy(),
                cache_capacity: 32,
                shards,
                topology: Topology::Partitioned,
                fault_plan: Some(plan),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = engine.handle();
        let mut admitted: Vec<(usize, Ticket)> = Vec::new();
        for i in 0..24 {
            let node = (seed as usize).wrapping_add(i * 5) % N;
            admitted.push((node, handle.submit_one(node).unwrap()));
        }
        // A mid-storm deploy of the very model being served: commit and
        // rollback are indistinguishable to clients.
        let _ = engine.deploy(&fix.snapshot_a, KEY_A);
        for i in 0..24 {
            let node = (seed as usize).wrapping_add(3 + i * 7) % N;
            admitted.push((node, handle.submit_one(node).unwrap()));
        }
        let (_, stats) = engine.shutdown();
        for (node, ticket) in admitted {
            let resolved = ticket.wait_timeout(Duration::from_secs(30));
            prop_assert!(resolved.is_some(), "request for node {node} hung");
            if let Ok(labels) = resolved.unwrap() {
                prop_assert_eq!(&labels, &vec![fix.expected_a[node]]);
            }
        }
        // Supervision accounting stays coherent even under random
        // schedules: a restart requires a caught panic.
        prop_assert!(stats.shard_restarts <= stats.panics_caught);
    }
}
