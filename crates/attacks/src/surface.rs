//! Attack-surface construction for the three rows of Table IV.
//!
//! An attack surface is the list of embedding matrices an attacker can
//! observe. Under the paper's threat model the attacker fully controls
//! the untrusted world, so:
//!
//! - against an unprotected GNN they see every layer computed with the
//!   real adjacency ([`original_surface`], `Morg`),
//! - against GNNVault they see only the backbone's layers computed with
//!   the *substitute* adjacency — rectifier activations never leave the
//!   enclave and the output is label-only ([`gnnvault_surface`], `Mgv`),
//! - the baseline is a feature-only MLP ([`baseline_surface`], `Mbase`).

use crate::AttackError;
use gnnvault::{Backbone, OriginalGnn, VaultError};
use linalg::DenseMatrix;
use nn::Network;

fn wrap(e: VaultError) -> AttackError {
    AttackError::InvalidInput {
        reason: format!("surface construction failed: {e}"),
    }
}

/// `Morg`: all intermediate embeddings of the unprotected GNN.
///
/// # Errors
///
/// Returns [`AttackError::InvalidInput`] when the model rejects the
/// features.
pub fn original_surface(
    model: &OriginalGnn,
    features: &DenseMatrix,
) -> Result<Vec<DenseMatrix>, AttackError> {
    model.embeddings(features).map_err(wrap)
}

/// `Mgv`: the embeddings observable in GNNVault's untrusted world — the
/// public backbone's per-layer outputs on the substitute graph.
///
/// # Errors
///
/// Returns [`AttackError::InvalidInput`] when the backbone rejects the
/// features.
pub fn gnnvault_surface(
    backbone: &Backbone,
    features: &DenseMatrix,
) -> Result<Vec<DenseMatrix>, AttackError> {
    backbone.embeddings(features).map_err(wrap)
}

/// `Mbase`: embeddings of a feature-only MLP — `model` run with no
/// propagation operator.
///
/// # Errors
///
/// Returns [`AttackError::InvalidInput`] when the network rejects the
/// features.
pub fn baseline_surface(
    model: &Network,
    features: &DenseMatrix,
) -> Result<Vec<DenseMatrix>, AttackError> {
    model
        .forward_embeddings(None, std::slice::from_ref(features))
        .map_err(|e| AttackError::InvalidInput {
            reason: format!("surface construction failed: {e}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkStealingAttack, SimilarityMetric};
    use datasets::{DatasetSpec, SyntheticPlanetoid};
    use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};
    use nn::TrainConfig;

    /// End-to-end Table IV shape: Morg leaks, Mgv drops to ~Mbase.
    #[test]
    fn gnnvault_surface_leaks_less_than_original() {
        let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
            .scale(0.05)
            .seed(11)
            .generate()
            .unwrap();
        let cfg = pipeline::PipelineConfig {
            model: ModelConfig::custom("tiny", &[32, 16, 7], &[16, 8, 7]),
            substitute: SubstituteKind::Knn { k: 2 },
            rectifier: RectifierKind::Parallel,
            epochs: 100,
            lr: 0.02,
            weight_decay: 5e-4,
            dropout: 0.2,
            seed: 0,
            train_original: true,
        };
        let trained = pipeline::train(&data, &cfg).unwrap();
        let original = trained.original.as_ref().unwrap();

        let mut mlp = Network::new(data.num_features(), &[32, 16, 7], 0).unwrap();
        mlp.fit(
            None,
            std::slice::from_ref(&data.features),
            &data.labels,
            &data.train_mask,
            &TrainConfig {
                epochs: 100,
                lr: 0.02,
                weight_decay: 5e-4,
                dropout: 0.2,
                seed: 0,
            },
        )
        .unwrap();

        let m_org = original_surface(original, &data.features).unwrap();
        let m_gv = gnnvault_surface(&trained.backbone, &data.features).unwrap();
        let m_base = baseline_surface(&mlp, &data.features).unwrap();

        let attack = LinkStealingAttack::new(SimilarityMetric::Cosine).with_seed(1);
        let auc_org = attack.run(&data.graph, &m_org).unwrap();
        let auc_gv = attack.run(&data.graph, &m_gv).unwrap();
        let auc_base = attack.run(&data.graph, &m_base).unwrap();

        assert!(auc_org > auc_gv + 0.05, "Morg {auc_org} vs Mgv {auc_gv}");
        assert!(
            (auc_gv - auc_base).abs() < 0.15,
            "Mgv {auc_gv} should be near Mbase {auc_base}"
        );
    }
}
