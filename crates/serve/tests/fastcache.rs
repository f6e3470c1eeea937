//! Integration tests for the submit-path fast cache: warm requeries
//! resolving on the client thread, queue gauges, and — the critical
//! regression — a hot-swap deploy racing a full-speed client storm
//! without ever serving a pre-swap label.

mod common;

use common::{sequential_labels, toy_vault, toy_vault_flipped};
use gnnvault::{RectifierKind, Vault};
use serve::{BatchPolicy, ServeConfig, ServingEngine, Topology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tee::SealKey;

const N: usize = 24;

fn fast_config(shards: usize, fast_cache_slots: usize) -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch_nodes: 8,
            max_delay: Duration::from_millis(1),
            max_queue_requests: 256,
        },
        cache_capacity: 64,
        fast_cache_slots,
        shards,
        topology: if shards > 1 {
            Topology::Partitioned
        } else {
            Topology::Replicated
        },
        ..ServeConfig::default()
    }
}

#[test]
fn warm_requeries_resolve_on_the_submit_thread() {
    // Warm every node (waiting each ticket: workers publish to the
    // fast cache *before* responding, so a resolved ticket proves the
    // entry is probeable), then requery the whole corpus. With the
    // fast path on, the second pass never reaches the shard: its
    // request count stays at the warm pass's N.
    let (mut vault, x, _) = toy_vault(N, RectifierKind::Series);
    let expected = sequential_labels(&mut vault, &x);
    let engine = ServingEngine::start(
        Vault::restore(&vault.snapshot(), SealKey(7)).unwrap(),
        x.clone(),
        fast_config(1, 256),
    )
    .unwrap();
    let handle = engine.handle();
    for n in 0..N {
        handle.submit_one(n).unwrap().wait().unwrap();
    }
    for (n, &label) in expected.iter().enumerate() {
        assert_eq!(
            handle.submit_one(n).unwrap().wait().unwrap(),
            vec![label],
            "requery of node {n}"
        );
    }
    let (_, stats) = engine.shutdown();
    assert_eq!(
        stats.fast_path_hits, N as u64,
        "whole second pass fast-hits"
    );
    assert_eq!(stats.requests, N as u64, "the shard saw only the warm pass");
    assert_eq!(stats.fast_path_latency.count(), N as u64);
    assert!(stats.fast_path_latency.p99().is_some());
    // Queued-path telemetry covers every successfully answered request
    // either way, and the queue gauges are exported per shard.
    assert_eq!(stats.queued_latency.count(), stats.requests);
    assert!(stats.queued_latency.p50().is_some());
    let shard = &stats.shards[0];
    assert_eq!(shard.latency, stats.queued_latency);
    assert_eq!(shard.queue_depth, 0, "shutdown drained the queue");
    assert!(
        shard.queue_high_water >= 1,
        "the gauge saw at least one pending request"
    );
    assert!(shard.queue_high_water <= 2 * N);
}

#[test]
fn deploy_mid_storm_never_serves_a_pre_swap_label() {
    // The no-stale-label guarantee under maximum pressure: client
    // threads hammer warm (fast-hitting) nodes while a hot-swap deploy
    // lands. Mid-storm, every answer must be the old model's or the
    // new model's label — never garbage, never torn. The moment
    // `deploy` returns, *only* new-model labels may appear, fast path
    // included: the engine flips the probe tag before returning, so a
    // pre-swap entry can no longer match.
    let key = SealKey(7);
    let (mut old, x, _) = toy_vault(N, RectifierKind::Series);
    let expected_old = sequential_labels(&mut old, &x);
    let (mut new, _) = toy_vault_flipped(N, key);
    let expected_new = sequential_labels(&mut new, &x);
    assert_ne!(
        expected_old, expected_new,
        "the flipped vault must disagree somewhere or the test is vacuous"
    );
    let snapshot = new.snapshot();
    let engine = ServingEngine::start(
        Vault::restore(&old.snapshot(), key).unwrap(),
        x.clone(),
        fast_config(2, 256),
    )
    .unwrap();
    let handle = engine.handle();
    for n in 0..N {
        handle.submit_one(n).unwrap().wait().unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stormers: Vec<_> = (0..3)
        .map(|t| {
            let handle = engine.handle();
            let stop = Arc::clone(&stop);
            let expected_old = expected_old.clone();
            let expected_new = expected_new.clone();
            std::thread::spawn(move || {
                let mut i = t;
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let n = i % N;
                    i += 7;
                    // Admission refusals (e.g. a shed request) are not
                    // label errors; only served labels are checked.
                    let Ok(ticket) = handle.submit_one(n) else {
                        continue;
                    };
                    let Ok(labels) = ticket.wait() else {
                        continue;
                    };
                    assert!(
                        labels == vec![expected_old[n]] || labels == vec![expected_new[n]],
                        "mid-storm answer for node {n} matches neither epoch: {labels:?}"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();
    // Let the storm reach full speed before swapping underneath it.
    std::thread::sleep(Duration::from_millis(10));
    let epoch = engine.deploy(&snapshot, key).unwrap();
    assert_eq!(epoch, new.epoch());
    // deploy() has returned: the old epoch must be unreachable, fast
    // path and queued path alike, even with the storm still running.
    for (n, &label) in expected_new.iter().enumerate() {
        assert_eq!(
            handle.submit_one(n).unwrap().wait().unwrap(),
            vec![label],
            "node {n} served a pre-swap label after deploy returned"
        );
    }
    stop.store(true, Ordering::Relaxed);
    let served: u64 = stormers.into_iter().map(|s| s.join().unwrap()).sum();
    assert!(served > 0, "the storm must have been served at all");
    // A final warm-then-requery pass on the new epoch proves the fast
    // cache repopulates under the new tag.
    for n in 0..N {
        handle.submit_one(n).unwrap().wait().unwrap();
    }
    for n in 0..N {
        handle.submit_one(n).unwrap().wait().unwrap();
    }
    let (_, stats) = engine.shutdown();
    assert!(
        stats.fast_path_hits > 0,
        "post-deploy requeries must fast-hit under the new tag"
    );
}
