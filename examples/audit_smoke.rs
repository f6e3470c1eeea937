//! Audit smoke drill: the link-stealing attack run *through the serving
//! engine*, as a pass/fail CI gate for both halves of the serving-path
//! protection claim.
//!
//! ```text
//! cargo run --release --example audit_smoke
//! ```
//!
//! One fixed-seed deployment, two engines:
//!
//! 1. **Observe** (sentinel shadowing): every probe is answered, so the
//!    online AUC must match the offline vault-surface AUC (the serving
//!    stack — batching, caching, sharding — adds no leakage) and stay
//!    well below the unprotected model's AUC.
//! 2. **Enforce** (same default thresholds): the identical probe stream
//!    must end quarantined before it completes, while a benign client
//!    storm on the same engine is never throttled.
//!
//! Any violation panics, so CI runs this binary as a pass/fail gate.

use gnnvault_suite::attacks::{surface, LinkStealingAttack, OnlineLinkAudit, SimilarityMetric};
use gnnvault_suite::datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault_suite::gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};
use gnnvault_suite::serve::{ClientId, SentinelConfig, SentinelMode, ServeConfig, ServingEngine};

/// Max excess of the online AUC over the offline vault-surface AUC.
const SERVING_LEAKAGE_EPSILON: f64 = 0.02;
/// Min gap between the online AUC and the unprotected model's AUC.
const PROTECTION_MARGIN: f64 = 0.15;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.06)
        .seed(17)
        .generate()?;
    let cfg = pipeline::PipelineConfig {
        model: ModelConfig::custom(
            "audit",
            &[32, 16, data.num_classes],
            &[16, 8, data.num_classes],
        ),
        substitute: SubstituteKind::Knn { k: 2 },
        rectifier: RectifierKind::Parallel,
        epochs: 100,
        lr: 0.02,
        weight_decay: 5e-4,
        dropout: 0.2,
        seed: 1,
        train_original: true,
    };
    let trained = pipeline::train(&data, &cfg)?;
    println!(
        "audit target: {} ({} nodes, {} private edges)",
        data.name,
        data.num_nodes(),
        data.graph.num_edges()
    );

    // Offline reference points, computed before the backbone moves into
    // the vault: what the unprotected model and the vault's public
    // surface leak to a direct-embedding attacker.
    let m_org = surface::original_surface(
        trained.original.as_ref().expect("reference model"),
        &data.features,
    )?;
    let m_gv = surface::gnnvault_surface(&trained.backbone, &data.features)?;
    let attack = LinkStealingAttack::new(SimilarityMetric::Cosine).with_seed(2);
    let auc_org = attack.run(&data.graph, &m_org)?;
    let auc_gv = attack.run(&data.graph, &m_gv)?;
    println!("offline: Morg {auc_org:.3} | Mgv {auc_gv:.3}");

    let vault = pipeline::deploy(trained, &data)?;
    let serve_config = |mode: SentinelMode| ServeConfig {
        sentinel: SentinelConfig {
            mode,
            ..SentinelConfig::default()
        },
        shards: 2,
        cache_capacity: data.num_nodes(),
        ..ServeConfig::default()
    };
    let audit = OnlineLinkAudit::new(attack);

    // --- 1. Observe: the serving path adds no leakage -------------------
    let engine = ServingEngine::start(
        vault,
        data.features.clone(),
        serve_config(SentinelMode::Observe),
    )?;
    let observed = audit.run(&engine.handle(), &data.graph, &m_gv)?;
    let (vault, stats) = engine.shutdown();
    let vault = vault.expect("no faults injected");
    let online_auc = observed.auc.expect("both probe classes answered");
    println!(
        "observe: {} / {} probes answered, online AUC {online_auc:.3} \
         (label-agreement {:.3})",
        observed.pairs_answered,
        observed.pairs_planned,
        observed.label_agreement_auc.unwrap_or(0.5),
    );
    assert_eq!(
        observed.pairs_answered, observed.pairs_planned,
        "observe mode must answer every probe"
    );
    assert!(!observed.quarantined && observed.rate_limited == 0);
    assert!(
        online_auc <= auc_gv + SERVING_LEAKAGE_EPSILON,
        "serving path leaked beyond the offline surface: \
         online {online_auc:.3} vs offline {auc_gv:.3}"
    );
    assert!(
        online_auc <= auc_org - PROTECTION_MARGIN,
        "online attack too close to the unprotected model: \
         {online_auc:.3} vs Morg {auc_org:.3}"
    );
    assert!(
        stats.sentinel.sessions_observed >= 1,
        "the audit session must be attributed"
    );

    // --- 2. Enforce: the same probe stream is caught ---------------------
    let engine = ServingEngine::start(
        vault,
        data.features.clone(),
        serve_config(SentinelMode::Enforce),
    )?;
    let handle = engine.handle();
    let enforced = audit.run(&handle, &data.graph, &m_gv)?;
    println!(
        "enforce: quarantined = {}, {} probes answered ({:.0}% of planned), \
         {} rate-limited",
        enforced.quarantined,
        enforced.pairs_answered,
        enforced.completion() * 100.0,
        enforced.rate_limited,
    );
    assert!(
        enforced.quarantined,
        "default thresholds must quarantine the probe stream"
    );
    assert!(
        enforced.pairs_answered < enforced.pairs_planned,
        "quarantine must truncate the probe set"
    );

    // A benign session on the same (post-quarantine) engine: hot-item
    // lookups with a bounded working set are never throttled.
    let benign = ClientId(0xBE919);
    let mut tickets = Vec::new();
    for i in 0..300usize {
        let node = if i % 10 < 7 { i % 8 } else { (i / 3) % 24 };
        tickets.push(
            handle
                .submit_one_as(benign, node)
                .expect("benign traffic must never be throttled"),
        );
    }
    for ticket in tickets {
        ticket.wait()?;
    }
    let (_, stats) = engine.shutdown();
    let benign_stats = stats
        .sentinel
        .sessions
        .iter()
        .find(|s| s.client == benign)
        .expect("benign session observed");
    assert_eq!(benign_stats.rate_limited, 0);
    assert_eq!(benign_stats.quarantined_rejections, 0);
    assert_eq!(
        stats.sentinel.quarantined_sessions, 1,
        "exactly the audit session is quarantined"
    );

    println!(
        "audit smoke: PASS (online AUC {online_auc:.3} ≤ offline {auc_gv:.3} + {SERVING_LEAKAGE_EPSILON}, \
         ≥ {PROTECTION_MARGIN} below Morg {auc_org:.3}; extraction quarantined, benign untouched)"
    );
    Ok(())
}
