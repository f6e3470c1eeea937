//! End-to-end online-audit tests: the link-stealing attack driven
//! through a real serving engine must observe exactly the offline
//! vault-surface leakage when nothing is blocked — well below what the
//! unprotected model leaks — and must be caught by the sentinel's
//! default thresholds when enforcement is on, without throttling a
//! benign session on the same engine.

use attacks::{surface, LinkStealingAttack, OnlineLinkAudit, SimilarityMetric};
use datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};
use serve::{
    ClientId, SentinelConfig, SentinelMode, SentinelVerdict, ServeConfig, ServingEngine, Topology,
};

/// Min gap between the online AUC and the unprotected model's AUC.
const PROTECTION_MARGIN: f64 = 0.15;

/// A deployed vault, its dataset, and the two offline attack surfaces:
/// the vault's public backbone (`Mgv`) and the unprotected reference
/// model (`Morg`), both taken before the backbone moves into the vault.
fn audit_fixture() -> (
    gnnvault::Vault,
    datasets::CitationDataset,
    Vec<linalg::DenseMatrix>,
    Vec<linalg::DenseMatrix>,
) {
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.03)
        .seed(5)
        .generate()
        .expect("generation");
    let cfg = pipeline::PipelineConfig {
        model: ModelConfig::m1(data.num_classes),
        substitute: SubstituteKind::Knn { k: 2 },
        rectifier: RectifierKind::Series,
        epochs: 30,
        train_original: true,
        ..Default::default()
    };
    let trained = pipeline::train(&data, &cfg).expect("training");
    let m_gv = surface::gnnvault_surface(&trained.backbone, &data.features).expect("Mgv");
    let m_org = surface::original_surface(
        trained.original.as_ref().expect("reference model"),
        &data.features,
    )
    .expect("Morg");
    let vault = pipeline::deploy(trained, &data).expect("deployment");
    (vault, data, m_gv, m_org)
}

fn serve_config(mode: SentinelMode, shards: usize) -> ServeConfig {
    ServeConfig {
        sentinel: SentinelConfig {
            mode,
            ..SentinelConfig::default()
        },
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
fn observed_online_attack_matches_the_offline_surface_exactly() {
    let (vault, data, m_gv, m_org) = audit_fixture();
    let attack = LinkStealingAttack::new(SimilarityMetric::Cosine).with_seed(2);
    let offline_auc = attack.run(&data.graph, &m_gv).expect("offline attack");
    let unprotected_auc = attack.run(&data.graph, &m_org).expect("Morg attack");

    let engine = ServingEngine::start(
        vault,
        data.features.clone(),
        serve_config(SentinelMode::Observe, 2),
    )
    .expect("engine");
    let outcome = OnlineLinkAudit::new(attack)
        .run(&engine.handle(), &data.graph, &m_gv)
        .expect("audit");
    let (_, stats) = engine.shutdown();

    // Shadow mode answers everything, so the online audit scores the
    // identical probe set the offline attack samples: the AUCs are not
    // merely close, they are equal.
    assert_eq!(outcome.pairs_answered, outcome.pairs_planned);
    assert_eq!(outcome.completion(), 1.0);
    assert!(!outcome.quarantined);
    assert_eq!(outcome.rate_limited, 0);
    assert_eq!(outcome.auc, Some(offline_auc));
    assert!(outcome.label_agreement_auc.is_some());
    // ...and that served AUC sits well below the unprotected model's.
    assert!(
        offline_auc <= unprotected_auc - PROTECTION_MARGIN,
        "online attack too close to the unprotected model: \
         {offline_auc:.3} vs Morg {unprotected_auc:.3}"
    );

    // The probe stream is attributed and visible in the serving stats.
    let session = stats
        .sentinel
        .sessions
        .iter()
        .find(|s| s.client == ClientId(0xA0D17))
        .expect("audit session observed");
    assert_eq!(session.requests, outcome.pairs_planned as u64);
    assert_eq!(stats.sentinel.rate_limited_requests, 0);
    assert_eq!(stats.sentinel.quarantined_requests, 0);
}

#[test]
fn enforced_sentinel_quarantines_the_probe_stream_at_default_thresholds() {
    let (vault, data, m_gv, _) = audit_fixture();
    let attack = LinkStealingAttack::new(SimilarityMetric::Cosine).with_seed(2);
    let engine = ServingEngine::start(
        vault,
        data.features.clone(),
        serve_config(SentinelMode::Enforce, 1),
    )
    .expect("engine");
    let handle = engine.handle();
    let outcome = OnlineLinkAudit::new(attack)
        .run(&handle, &data.graph, &m_gv)
        .expect("audit");

    // A benign session on the same, post-quarantine engine: hot-item
    // lookups over a bounded working set are never throttled.
    let benign = ClientId(0xBE919);
    let tickets: Vec<_> = (0..300usize)
        .map(|i| {
            let node = if i % 10 < 7 { i % 8 } else { (i / 3) % 24 };
            handle
                .submit_one_as(benign, node)
                .expect("benign traffic is never throttled")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("benign lookup answered");
    }
    let (_, stats) = engine.shutdown();

    assert!(
        outcome.quarantined,
        "random pair probing must trip the default thresholds: {outcome:?}"
    );
    assert!(
        outcome.pairs_answered < outcome.pairs_planned,
        "quarantine must cost the attacker probes"
    );
    let session = stats
        .sentinel
        .sessions
        .iter()
        .find(|s| s.client == ClientId(0xA0D17))
        .expect("audit session observed");
    assert_eq!(session.verdict, SentinelVerdict::Quarantined);
    assert_eq!(stats.sentinel.quarantined_sessions, 1);
    let benign_session = stats
        .sentinel
        .sessions
        .iter()
        .find(|s| s.client == benign)
        .expect("benign session observed");
    assert_eq!(benign_session.verdict, SentinelVerdict::Observe);
    assert_eq!(benign_session.rate_limited, 0);
    assert_eq!(benign_session.quarantined_rejections, 0);
}
