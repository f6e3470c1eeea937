//! End-to-end coverage for the serving sentinel's ladder: realistic
//! benign traffic must never be throttled at default thresholds (even
//! under full enforcement), an extraction sweep must climb the whole
//! ladder at the admission front door, and deploy/reset amnesty must
//! clear verdicts. That the sentinel's counters are a pure function of
//! the trace in every cell is held by `tests/trace.rs`.

mod common;

use common::toy_vault;
use gnnvault::RectifierKind;
use serve::{
    BatchPolicy, ClientId, SentinelConfig, SentinelMode, SentinelVerdict, ServeConfig, ServeError,
    ServingEngine, Topology,
};
use std::sync::Arc;
use std::time::Duration;
use tee::SealKey;

fn engine_config(sentinel: SentinelConfig, shards: usize) -> ServeConfig {
    ServeConfig {
        sentinel,
        policy: BatchPolicy {
            max_batch_nodes: 16,
            max_delay: Duration::from_millis(1),
            max_queue_requests: 8192, // never reached: isolate sentinel behaviour
        },
        cache_capacity: 256,
        shards,
        topology: if shards > 1 {
            Topology::Partitioned
        } else {
            Topology::Replicated
        },
        ..ServeConfig::default()
    }
}

/// A sentinel config that escalates quickly and deterministically (no
/// token refill), for the enforcement-path tests.
fn strict_sentinel() -> SentinelConfig {
    SentinelConfig {
        mode: SentinelMode::Enforce,
        window: 32,
        strikes_to_rate_limit: 4,
        strikes_to_quarantine: 12,
        rate_limit_burst: 2.0,
        rate_limit_refill_per_sec: 0.0,
        ..SentinelConfig::default()
    }
}

/// Satellite: a 6-thread storm of realistic traffic — hot-item heavy,
/// small working sets, repeat pair lookups — must finish with zero
/// RateLimited/Quarantined errors at *default* thresholds, even with
/// enforcement switched on.
#[test]
fn benign_storm_is_never_limited_at_default_thresholds() {
    let n = 64;
    let (vault, x, _) = toy_vault(n, RectifierKind::Series);
    let engine = ServingEngine::start(
        vault,
        x,
        engine_config(
            SentinelConfig {
                mode: SentinelMode::Enforce,
                ..SentinelConfig::default()
            },
            2,
        ),
    )
    .unwrap();
    let handle = Arc::new(engine.handle());

    let threads: Vec<_> = (0..6u64)
        .map(|t| {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || {
                let client = ClientId(t + 1);
                let hot: Vec<usize> = (0..8).map(|i| (i * 7 + t as usize) % 64).collect();
                let mut tickets = Vec::new();
                for i in 0..400usize {
                    // 70% hot-item lookups, a small recurring pair pool
                    // (related-item queries), and occasional 3-node
                    // scans of a bounded working set.
                    let nodes = match i % 10 {
                        0..=6 => vec![hot[(i * 13) % hot.len()]],
                        7 | 8 => {
                            let p = (i / 10) % 8;
                            vec![(p * 5) % 64, (p * 5 + 1) % 64]
                        }
                        _ => {
                            let base = (t as usize * 9 + i / 16) % 24;
                            vec![base, (base + 3) % 24, (base + 6) % 24]
                        }
                    };
                    match handle.submit_as(client, nodes) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(e) => panic!("benign client {t} rejected: {e}"),
                    }
                }
                for ticket in tickets {
                    ticket.wait().unwrap();
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }

    let (_, stats) = engine.shutdown();
    assert_eq!(stats.sentinel.sessions_observed, 6);
    assert_eq!(stats.sentinel.rate_limited_requests, 0);
    assert_eq!(stats.sentinel.quarantined_sessions, 0);
    assert_eq!(stats.sentinel.quarantined_requests, 0);
    for session in &stats.sentinel.sessions {
        assert_eq!(
            session.verdict,
            SentinelVerdict::Observe,
            "benign session {:?} escalated: {session:?}",
            session.client
        );
        assert_eq!(session.strikes, 0, "no benign strikes may persist");
    }
}

/// Tentpole: an extraction sweep climbs the full ladder — strikes, then
/// token-bucket rate limiting with a retry-after hint, then sticky
/// quarantine — all rejected at admission, while an interleaved benign
/// session on the same engine is untouched.
#[test]
fn extraction_sweep_climbs_the_ladder_at_admission() {
    let n = 64;
    let (vault, x, _) = toy_vault(n, RectifierKind::Series);
    let engine = ServingEngine::start(vault, x, engine_config(strict_sentinel(), 2)).unwrap();
    let handle = engine.handle();
    let attacker = ClientId(66);
    let benign = ClientId(7);

    let mut saw_rate_limit = false;
    let mut quarantined_at = None;
    let mut tickets = Vec::new();
    for i in 0..256usize {
        // Attacker: uniform sweep of the corpus.
        match handle.submit_one_as(attacker, i % n) {
            Ok(ticket) => tickets.push(ticket),
            Err(ServeError::RateLimited {
                client,
                retry_after,
            }) => {
                assert_eq!(client, attacker);
                assert!(retry_after > Duration::ZERO);
                saw_rate_limit = true;
            }
            Err(ServeError::Quarantined { client }) => {
                assert_eq!(client, attacker);
                quarantined_at.get_or_insert(i);
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
        // Benign: hot-loop over 4 nodes, never throttled.
        tickets.push(handle.submit_one_as(benign, i % 4).unwrap());
    }
    assert!(saw_rate_limit, "the ladder must pass through rate limiting");
    let at = quarantined_at.expect("the sweep must end quarantined");
    assert!(
        at < 128,
        "escalation took too long (first rejection at {at})"
    );
    // Quarantine is sticky: still rejected, still typed.
    assert!(matches!(
        handle.submit_one_as(attacker, 0),
        Err(ServeError::Quarantined { .. })
    ));
    for ticket in tickets {
        ticket.wait().unwrap();
    }

    let (_, stats) = engine.shutdown();
    assert_eq!(stats.sentinel.quarantined_sessions, 1);
    assert!(stats.sentinel.rate_limited_requests > 0);
    assert!(stats.sentinel.quarantined_requests > 0);
    let attacker_stats = stats
        .sentinel
        .sessions
        .iter()
        .find(|s| s.client == attacker)
        .unwrap();
    assert_eq!(attacker_stats.verdict, SentinelVerdict::Quarantined);
    assert!(attacker_stats.fresh_rate > 0.0);
    let benign_stats = stats
        .sentinel
        .sessions
        .iter()
        .find(|s| s.client == benign)
        .unwrap();
    assert_eq!(benign_stats.verdict, SentinelVerdict::Observe);
    assert_eq!(benign_stats.rate_limited, 0);
}

/// Satellite: the sentinel is consulted *before* the fast-cache probe,
/// so a link-stealing sweep is quarantined even when every single probe
/// would be a fast-cache hit — the submit-path cache cannot be used to
/// bypass admission accounting, and the sentinel trace is identical
/// whether answers come from the cache or the shards.
#[test]
fn probe_stream_is_quarantined_even_at_full_fast_cache_hit_rate() {
    let n = 64;
    let (vault, x, _) = toy_vault(n, RectifierKind::Series);
    let mut config = engine_config(strict_sentinel(), 1);
    config.fast_cache_slots = 1024;
    let engine = ServingEngine::start(vault, x, config).unwrap();
    let handle = engine.handle();
    // Warm the whole corpus in one request: a single submission cannot
    // accrue enough strikes to be throttled, and afterwards every node
    // is published in the fast cache.
    handle
        .submit_as(ClientId(1), (0..n).collect())
        .unwrap()
        .wait()
        .unwrap();

    let attacker = ClientId(66);
    let mut quarantined_at = None;
    let mut admitted = 0u64;
    for i in 0..256usize {
        match handle.submit_one_as(attacker, i % n) {
            Ok(ticket) => {
                // Every admitted probe resolves instantly off the cache
                // (never enqueued), yet still counts against the sweep.
                ticket.wait().unwrap();
                admitted += 1;
            }
            Err(ServeError::RateLimited { .. }) => {}
            Err(ServeError::Quarantined { client }) => {
                assert_eq!(client, attacker);
                quarantined_at.get_or_insert(i);
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    let at = quarantined_at.expect("sweep must end quarantined despite a 100% hit rate");
    assert!(
        at < 128,
        "escalation took too long (first quarantine at {at})"
    );
    assert!(matches!(
        handle.submit_one_as(attacker, 0),
        Err(ServeError::Quarantined { .. })
    ));

    let (_, stats) = engine.shutdown();
    assert_eq!(stats.sentinel.quarantined_sessions, 1);
    // Conservation: every admitted probe either fast-hit or became
    // exactly one shard request (the +1 is the warm request). The
    // cache is direct-mapped, so a colliding node pair may keep
    // evicting each other — the hit rate stays near-total, not
    // necessarily perfect.
    assert_eq!(stats.requests, 1 + (admitted - stats.fast_path_hits));
    assert!(
        stats.fast_path_hits * 10 >= admitted * 9,
        "hit rate collapsed: {} fast hits of {admitted} admitted",
        stats.fast_path_hits
    );
    let attacker_stats = stats
        .sentinel
        .sessions
        .iter()
        .find(|s| s.client == attacker)
        .unwrap();
    assert_eq!(attacker_stats.verdict, SentinelVerdict::Quarantined);
}

/// Tentpole: deploy-time amnesty and the explicit operator reset both
/// clear verdicts; aggregate counters survive.
#[test]
fn deploy_and_reset_grant_amnesty() {
    let n = 64;
    let (vault, x, _) = toy_vault(n, RectifierKind::Series);
    let snapshot = vault.snapshot();
    let engine = ServingEngine::start(vault, x, engine_config(strict_sentinel(), 1)).unwrap();
    let handle = engine.handle();
    let attacker = ClientId(13);

    let quarantine = |handle: &serve::ServeHandle| {
        let mut tickets = Vec::new();
        let mut quarantined = false;
        for i in 0..512usize {
            match handle.submit_one_as(attacker, i % n) {
                Ok(t) => tickets.push(t),
                Err(ServeError::RateLimited { .. }) => {}
                Err(ServeError::Quarantined { .. }) => {
                    quarantined = true;
                    break;
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(quarantined, "sweep must end quarantined");
        assert!(matches!(
            handle.submit_one_as(attacker, 0),
            Err(ServeError::Quarantined { .. })
        ));
    };

    // Operator reset clears the verdict...
    quarantine(&handle);
    engine.reset_sentinel();
    handle.submit_one_as(attacker, 0).unwrap().wait().unwrap();

    // ...and so does a successful deploy.
    quarantine(&handle);
    engine.deploy(&snapshot, SealKey(7)).unwrap();
    handle.submit_one_as(attacker, 0).unwrap().wait().unwrap();

    let (_, stats) = engine.shutdown();
    assert_eq!(
        stats.sentinel.quarantined_sessions, 2,
        "monotonic counters survive both amnesties"
    );
}
