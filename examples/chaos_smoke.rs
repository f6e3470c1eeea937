//! Chaos smoke drill: a fixed-seed fault plan against a 2-shard
//! serving engine, verifying the fault-tolerance contract end to end.
//!
//! ```text
//! cargo run --release --features fault-injection --example chaos_smoke
//! ```
//!
//! The plan panics each shard once mid-batch and makes shard 1 refuse
//! every snapshot install. The drill then checks the whole contract:
//! every admitted request resolves (labels or a typed error — zero
//! hangs), every successful label is bit-identical to sequential
//! `Vault::infer`, the partially failed deploy rolls back to a
//! single-epoch engine, and the recovery counters report exactly the
//! injected faults. Any violation panics, so CI can run this binary as
//! a pass/fail gate.

use gnnvault_suite::datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault_suite::gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};
use gnnvault_suite::serve::faults::{Fault, FaultPlan};
use gnnvault_suite::serve::{
    BatchPolicy, Router, ServeConfig, ServeError, ServingEngine, ShardHealth, Ticket,
};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

/// Silences the default panic printout for *injected* panics only, so
/// the drill's output shows the verdicts, not expected backtraces.
fn quiet_injected_panics() {
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
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    quiet_injected_panics();

    // A small synthetic deployment: training speed matters here, the
    // fault machinery does not care about model size.
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.03)
        .seed(5)
        .generate()?;
    let spec = pipeline::PipelineConfig {
        model: ModelConfig::m1(data.num_classes),
        substitute: SubstituteKind::Knn { k: 2 },
        rectifier: RectifierKind::Series,
        epochs: 30,
        train_original: false,
        ..Default::default()
    };
    let trained = pipeline::train(&data, &spec)?;
    let mut vault = pipeline::deploy(trained, &data)?;
    let (expected, _) = vault.infer(&data.features)?;
    let snapshot = vault.snapshot();
    let n = data.num_nodes();

    // The fixed-seed schedule: batch 2 of each shard dies, shard 1
    // refuses every install, and shard 0's batch 3 is slowed for shape.
    let plan = FaultPlan::new(0x5_EEDC_4A05)
        .with_fault(Fault::PanicAt {
            shard: 0,
            batch_n: 2,
        })
        .with_fault(Fault::PanicAt {
            shard: 1,
            batch_n: 2,
        })
        .with_fault(Fault::SlowBatch {
            shard: 0,
            batch_n: 3,
            delay: Duration::from_millis(2),
        })
        .with_fault(Fault::FailDeploy {
            shard: 1,
            attempts: 99,
        });
    println!(
        "chaos plan: seed {:#x}, {} scheduled faults, {} shards, {} nodes",
        plan.seed(),
        plan.faults().len(),
        SHARDS,
        n
    );

    let engine = ServingEngine::start(
        vault,
        data.features.clone(),
        ServeConfig {
            policy: BatchPolicy {
                // One request per flushed batch: deterministic per-shard
                // batch ordinals, the fault plan's time axis.
                max_batch_nodes: 1,
                max_delay: Duration::from_secs(3600),
                max_queue_requests: 4096,
                shed_high_water: 4096,
            },
            cache_capacity: 0,
            shards: SHARDS,
            restart_backoff: Duration::from_millis(1),
            deploy_retries: 2,
            fault_plan: Some(plan),
            ..ServeConfig::default()
        },
    )?;
    let handle = engine.handle();
    let router = Router::new(SHARDS);
    let homes: Vec<usize> = (0..SHARDS)
        .map(|s| (0..n).find(|&node| router.shard_of(node) == s).unwrap())
        .collect();
    let wait = |ticket: Ticket| {
        ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("an admitted request must resolve, never hang")
    };

    // Batch 1 per shard: healthy; batch 2: the injected panic.
    for &node in &homes {
        assert_eq!(wait(handle.submit_one(node)?)?, vec![expected[node]]);
    }
    for (s, &node) in homes.iter().enumerate() {
        match wait(handle.submit_one(node)?) {
            Err(ServeError::ShardFailed { shard }) => assert_eq!(shard, s),
            other => panic!("batch 2 of shard {s} must fail typed, got {other:?}"),
        }
    }
    println!("panics: both shards failed batch 2 with typed errors");

    // Supervision restores both shards from their retained snapshots.
    let t0 = Instant::now();
    while engine.health().states().contains(&ShardHealth::Down) {
        assert!(t0.elapsed() < Duration::from_secs(10), "recovery stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    for &node in &homes {
        assert_eq!(
            wait(handle.submit_one(node)?)?,
            vec![expected[node]],
            "recovered shard must answer bit-identically"
        );
    }
    println!("recovery: both shards restored in {:?}", t0.elapsed());

    // All-or-nothing deploy: shard 1's injected refusals outlast the
    // retry budget, so shard 0's install is rolled back.
    match engine.deploy(&snapshot, pipeline::DEPLOY_SEAL_KEY) {
        Err(ServeError::Vault(e)) => {
            assert!(e.to_string().contains("injected fault"), "{e}");
            println!("deploy: failed as scheduled and rolled back ({e})");
        }
        other => panic!("the deploy must fail on shard 1, got {other:?}"),
    }
    // Post-rollback, the whole corpus still answers the serving model.
    let all = wait(handle.submit((0..n).collect())?)?;
    assert_eq!(all, expected, "rollback must leave one epoch serving");

    let (survivor, stats) = engine.shutdown();
    assert!(survivor.is_some(), "every shard survived the drill");
    assert_eq!(stats.panics_caught, 2, "exactly the injected panics");
    assert_eq!(stats.shard_restarts, 2, "one restore per panicked shard");
    assert_eq!(stats.deploy_rollbacks, 1, "shard 0 rolled its install back");
    assert_eq!(stats.timed_out_requests, 0);
    println!(
        "stats: {} requests | {} panics caught, {} restarts, {} rollbacks, {} rerouted",
        stats.requests,
        stats.panics_caught,
        stats.shard_restarts,
        stats.deploy_rollbacks,
        stats.rerouted_subrequests,
    );
    println!("chaos smoke: PASS (all admitted requests answered, labels bit-identical)");
    Ok(())
}
