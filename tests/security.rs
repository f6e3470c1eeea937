//! Security-property integration tests: the guarantees §IV claims,
//! checked end to end — isolation of the private graph, tamper-evident
//! sealing, label-only output, and attack resistance.

use attacks::{surface, LinkStealingAttack, SimilarityMetric};
use datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind, Vault, VaultError};
use tee::{SealKey, Sealed, TeeError};

fn trained_pair() -> (pipeline::TrainedGnnVault, datasets::CitationDataset) {
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.06)
        .seed(17)
        .generate()
        .expect("generation");
    let cfg = pipeline::PipelineConfig {
        model: ModelConfig::custom("sec", &[32, 16, 7], &[16, 8, 7]),
        substitute: SubstituteKind::Knn { k: 2 },
        rectifier: RectifierKind::Parallel,
        epochs: 100,
        lr: 0.02,
        weight_decay: 5e-4,
        dropout: 0.2,
        seed: 1,
        train_original: true,
    };
    let trained = pipeline::train(&data, &cfg).expect("training");
    (trained, data)
}

#[test]
fn untrusted_world_leaks_no_more_than_feature_baseline() {
    let (trained, data) = trained_pair();
    let m_org = surface::original_surface(
        trained.original.as_ref().expect("reference"),
        &data.features,
    )
    .expect("Morg");
    let m_gv = surface::gnnvault_surface(&trained.backbone, &data.features).expect("Mgv");

    for metric in [SimilarityMetric::Cosine, SimilarityMetric::Euclidean] {
        let attack = LinkStealingAttack::new(metric).with_seed(2);
        let auc_org = attack.run(&data.graph, &m_org).expect("attack");
        let auc_gv = attack.run(&data.graph, &m_gv).expect("attack");
        assert!(
            auc_gv < auc_org - 0.05,
            "{metric:?}: GNNVault surface ({auc_gv:.3}) must leak less than \
             the unprotected model ({auc_org:.3})"
        );
    }
}

#[test]
fn rectifier_activations_would_leak_if_exposed() {
    // The ablation behind the one-way-channel rule (§IV-B): rectifier
    // activations are computed with the real adjacency, so if they ever
    // crossed back to the untrusted world the attack would succeed again.
    let (trained, data) = trained_pair();
    let real_adj = graph::normalization::gcn_normalize(&data.graph);
    let embs = trained
        .backbone
        .embeddings(&data.features)
        .expect("embeddings");
    let rect_fwd = trained
        .rectifier
        .forward(&real_adj, &embs)
        .expect("rectifier forward");

    let attack = LinkStealingAttack::new(SimilarityMetric::Cosine).with_seed(2);
    let auc_backbone = attack
        .run(
            &data.graph,
            &surface::gnnvault_surface(&trained.backbone, &data.features).expect("Mgv"),
        )
        .expect("attack");
    let auc_rectifier = attack.run(&data.graph, &rect_fwd).expect("attack");
    assert!(
        auc_rectifier > auc_backbone + 0.05,
        "rectifier activations ({auc_rectifier:.3}) carry more edge signal than the \
         public surface ({auc_backbone:.3}) — which is why they must stay sealed"
    );
}

#[test]
fn vault_output_is_label_only() {
    let (trained, data) = trained_pair();
    let mut vault = pipeline::deploy(trained, &data).expect("deployment");
    let (labels, _) = vault.infer(&data.features).expect("inference");
    // The public type of the egress is ClassLabel (a bare usize); its
    // value range is the class space, not a logit vector.
    for l in &labels {
        assert!(l.0 < data.num_classes);
    }
}

#[test]
fn sealed_artifacts_resist_tampering_and_wrong_keys() {
    let payload = b"edge list 0-1 1-2 2-3";
    let key = SealKey(0x1234_5678_9ABC_DEF0);
    let sealed = Sealed::seal(key, payload);

    assert_eq!(&sealed.unseal(key).expect("unseal")[..], payload);
    assert_eq!(sealed.unseal(SealKey(1)), Err(TeeError::SealTampered));

    // Purpose-derived keys do not unseal each other's artifacts.
    let a = Sealed::seal(key.derive("weights"), payload);
    assert!(a.unseal(key.derive("graph")).is_err());
    assert!(a.unseal(key.derive("weights")).is_ok());
}

/// A deployment's at-rest form is its snapshot: only the deployment
/// key opens it, and its sealed bytes do not carry the private edge
/// list in the clear.
#[test]
fn deployment_records_sealed_private_artifacts() {
    let (trained, data) = trained_pair();
    let mut vault = pipeline::deploy(trained, &data).expect("deployment");
    let snapshot = vault.snapshot();
    assert!(matches!(
        Vault::restore(&snapshot, SealKey(pipeline::DEPLOY_SEAL_KEY.0 ^ 1)),
        Err(VaultError::Tee(TeeError::SealTampered))
    ));
    let mut replica = Vault::restore(&snapshot, pipeline::DEPLOY_SEAL_KEY).expect("restore");
    assert_eq!(
        replica.infer(&data.features).expect("replica").0,
        vault.infer(&data.features).expect("vault").0,
        "the snapshot carries the whole deployment, real graph included"
    );

    // The payload writes each edge as two little-endian u64s; `Sealed`
    // shows its ciphertext only through `Debug`, as a byte list.
    let edges: Vec<u8> = (data.graph.edges().iter())
        .flat_map(|&(u, v)| [u as u64, v as u64])
        .flat_map(u64::to_le_bytes)
        .collect();
    assert!(!edges.is_empty());
    let listed = format!("{edges:?}");
    assert!(
        !format!("{snapshot:?}").contains(&listed[1..listed.len() - 1]),
        "graph must be sealed at rest"
    );
}

#[test]
fn logits_contain_more_link_signal_than_labels() {
    // §IV-E's rationale for label-only output: posteriors (logits) of a
    // real-adjacency model leak links; hard labels leak far less. We
    // quantify by attacking the original model's logits vs a one-hot
    // encoding of its labels.
    let (trained, data) = trained_pair();
    let original = trained.original.as_ref().expect("reference");
    let embs = original.embeddings(&data.features).expect("embeddings");
    let logits = embs.last().expect("logits").clone();
    let preds = original.predict(&data.features).expect("predict");
    let onehot = linalg::DenseMatrix::from_fn(preds.len(), data.num_classes, |r, c| {
        if preds[r] == c {
            1.0
        } else {
            0.0
        }
    });
    let attack = LinkStealingAttack::new(SimilarityMetric::Cosine).with_seed(4);
    let auc_logits = attack.run(&data.graph, &[logits]).expect("attack");
    let auc_labels = attack.run(&data.graph, &[onehot]).expect("attack");
    assert!(
        auc_logits > auc_labels,
        "logits ({auc_logits:.3}) should leak more than hard labels ({auc_labels:.3})"
    );
}
