//! End-to-end GNNVault pipeline: the four steps of Fig. 2 plus the
//! evaluation bundle used by every table in the paper.
//!
//! ```text
//! 1. substitute graph  ->  2. train backbone  ->  3. train rectifier
//!                                        -> 4. deploy (Vault)
//! ```

use crate::{
    Backbone, ModelConfig, OriginalGnn, Rectifier, RectifierKind, SubstituteKind, Vault, VaultError,
};
use datasets::CitationDataset;
use nn::{ConvKind, TrainConfig};
use tee::{CostModel, OverBudgetPolicy, SealKey};

/// Configuration for one full pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Architecture preset (M1/M2/M3 or custom).
    pub model: ModelConfig,
    /// Substitute-graph construction for the backbone.
    pub substitute: SubstituteKind,
    /// Rectifier communication scheme.
    pub rectifier: RectifierKind,
    /// Training epochs (applied to backbone, rectifier, and reference).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Dropout on layer inputs during training.
    pub dropout: f32,
    /// Master seed (substitute generation, init, dropout).
    pub seed: u64,
    /// Whether to also train the unprotected reference model (`porg`).
    pub train_original: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            model: ModelConfig::m1(7),
            substitute: SubstituteKind::Knn { k: 2 },
            rectifier: RectifierKind::Parallel,
            epochs: 200,
            lr: 0.01,
            weight_decay: 5e-4,
            dropout: 0.5,
            seed: 0,
            train_original: true,
        }
    }
}

impl From<&PipelineConfig> for TrainConfig {
    fn from(config: &PipelineConfig) -> Self {
        TrainConfig {
            epochs: config.epochs,
            lr: config.lr,
            weight_decay: config.weight_decay,
            dropout: config.dropout,
            seed: config.seed,
        }
    }
}

/// Output of [`train`]: the partitioned model pair plus the optional
/// unprotected reference.
#[derive(Debug, Clone)]
pub struct TrainedGnnVault {
    /// Public backbone (untrusted world).
    pub backbone: Backbone,
    /// Private rectifier (enclave world, pre-deployment).
    pub rectifier: Rectifier,
    /// Unprotected reference model, when requested.
    pub original: Option<OriginalGnn>,
    /// The configuration that produced this bundle.
    pub config: PipelineConfig,
}

/// Accuracy bundle matching the columns of Tables II–III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// `porg`: unprotected reference accuracy (NaN when not trained).
    pub original_accuracy: f32,
    /// `pbb`: public backbone accuracy in the untrusted world.
    pub backbone_accuracy: f32,
    /// `prec`: rectified accuracy.
    pub rectifier_accuracy: f32,
    /// `θbb`: backbone parameter count.
    pub backbone_params: usize,
    /// `θrec`: rectifier parameter count.
    pub rectifier_params: usize,
}

impl Evaluation {
    /// Protection margin `Δp = prec − pbb` (Table II; higher is better).
    pub fn protection_margin(&self) -> f32 {
        self.rectifier_accuracy - self.backbone_accuracy
    }

    /// Accuracy degradation `porg − prec` (lower is better; the paper
    /// reports < 2 % on every dataset).
    pub fn accuracy_degradation(&self) -> f32 {
        self.original_accuracy - self.rectifier_accuracy
    }
}

/// Runs pipeline steps 1–3: [`backbone`] (with the reference model
/// when configured), then [`rectifier`] with GCN layers.
///
/// # Errors
///
/// Propagates substitute, architecture, and training failures.
///
/// # Examples
///
/// See the crate-level example.
pub fn train(
    data: &CitationDataset,
    config: &PipelineConfig,
) -> Result<TrainedGnnVault, VaultError> {
    let (backbone, original) = backbone(data, config)?;
    let rectifier = rectifier(data, config, &backbone, ConvKind::Gcn)?;
    Ok(TrainedGnnVault {
        backbone,
        rectifier,
        original,
        config: config.clone(),
    })
}

/// Steps 1–2: the substitute graph and the public backbone trained over
/// it, plus the unprotected reference model on the real graph when
/// `config.train_original` — every model that does not depend on a
/// rectifier. All three use `config.seed`.
///
/// # Errors
///
/// Propagates substitute, architecture, and training failures.
pub fn backbone(
    data: &CitationDataset,
    config: &PipelineConfig,
) -> Result<(Backbone, Option<OriginalGnn>), VaultError> {
    let cfg = TrainConfig::from(config);
    let backbone = Backbone::train(
        &data.features,
        &data.labels,
        &data.train_mask,
        config.substitute,
        &config.model.backbone_channels,
        data.graph.num_edges(),
        &cfg,
        config.seed,
    )?;
    let original = if config.train_original {
        Some(OriginalGnn::train(
            &data.graph,
            &data.features,
            &data.labels,
            &data.train_mask,
            &config.model.backbone_channels,
            &cfg,
            config.seed,
        )?)
    } else {
        None
    };
    Ok((backbone, original))
}

/// Step 3: a private `config.rectifier` rectifier with `conv` layers,
/// seeded `config.seed + 1` and trained on the real graph's
/// [`Rectifier::preferred_adjacency`] over `backbone`'s frozen
/// embeddings. One backbone can carry any number of them (Table II's
/// three wirings, the ablation's convolution sweep).
///
/// # Errors
///
/// Propagates wiring and training failures.
pub fn rectifier(
    data: &CitationDataset,
    config: &PipelineConfig,
    backbone: &Backbone,
    conv: ConvKind,
) -> Result<Rectifier, VaultError> {
    let mut rectifier = Rectifier::new_with_conv(
        config.rectifier,
        conv,
        &config.model.rectifier_channels,
        &backbone.channel_dims(),
        config.seed.wrapping_add(1),
    )?;
    let adj = rectifier.preferred_adjacency(&data.graph);
    let embeddings = backbone.embeddings(&data.features)?;
    rectifier.fit(
        &adj,
        &embeddings,
        &data.labels,
        &data.train_mask,
        &TrainConfig::from(config),
    )?;
    Ok(rectifier)
}

/// Computes the Table II/III accuracy bundle on the dataset's test mask
/// (the rectifier runs over its [`Rectifier::preferred_adjacency`]).
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn evaluate(
    trained: &TrainedGnnVault,
    data: &CitationDataset,
) -> Result<Evaluation, VaultError> {
    let real_adj = trained.rectifier.preferred_adjacency(&data.graph);
    let embeddings = trained.backbone.embeddings(&data.features)?;

    let backbone_preds = trained.backbone.predict(&data.features)?;
    let backbone_accuracy =
        metrics::masked_accuracy(&backbone_preds, &data.labels, &data.test_mask)
            .unwrap_or(f32::NAN);

    let rect_preds = trained.rectifier.predict(&real_adj, &embeddings)?;
    let rectifier_accuracy =
        metrics::masked_accuracy(&rect_preds, &data.labels, &data.test_mask).unwrap_or(f32::NAN);

    let original_accuracy = match &trained.original {
        Some(model) => {
            let preds = model.predict(&data.features)?;
            metrics::masked_accuracy(&preds, &data.labels, &data.test_mask).unwrap_or(f32::NAN)
        }
        None => f32::NAN,
    };

    Ok(Evaluation {
        original_accuracy,
        backbone_accuracy,
        rectifier_accuracy,
        backbone_params: trained.backbone.param_count(),
        rectifier_params: trained.rectifier.param_count(),
    })
}

/// Runs step 4: seals the trained pair into a simulated SGX enclave with
/// the paper's default resource envelope (96 MB EPC, strict no-paging
/// policy — every GNNVault configuration fits, per Fig. 6).
///
/// # Errors
///
/// Propagates deployment failures (e.g. EPC rejection).
pub fn deploy(trained: TrainedGnnVault, data: &CitationDataset) -> Result<Vault, VaultError> {
    Vault::deploy(
        trained.backbone,
        trained.rectifier,
        &data.graph,
        tee::SGX_EPC_BYTES,
        CostModel::default(),
        OverBudgetPolicy::Fail,
        DEPLOY_SEAL_KEY,
    )
}

/// The fixed sealing key [`deploy`] uses (a real platform would derive
/// it from hardware fuses). Exposed so harness code can unseal what the
/// pipeline sealed — e.g. restore a [`VaultSnapshot`](crate::VaultSnapshot)
/// taken from a pipeline-deployed vault.
pub const DEPLOY_SEAL_KEY: SealKey = SealKey(0x006E_6E76_6175_6C74_u128);

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{DatasetSpec, SyntheticPlanetoid};
    use graph::normalization;

    fn small_data() -> CitationDataset {
        SyntheticPlanetoid::new(DatasetSpec::CORA)
            .scale(0.06)
            .seed(3)
            .generate()
            .unwrap()
    }

    fn quick_config(rectifier: RectifierKind) -> PipelineConfig {
        PipelineConfig {
            model: ModelConfig::custom("tiny", &[32, 16, 7], &[16, 8, 7]),
            substitute: SubstituteKind::Knn { k: 2 },
            rectifier,
            epochs: 120,
            lr: 0.02,
            weight_decay: 5e-4,
            dropout: 0.2,
            seed: 0,
            train_original: true,
        }
    }

    #[test]
    fn full_pipeline_reproduces_the_papers_ordering() {
        let data = small_data();
        let trained = train(&data, &quick_config(RectifierKind::Parallel)).unwrap();
        let eval = evaluate(&trained, &data).unwrap();

        // The paper's headline shape: porg > prec > pbb, with the
        // rectifier recovering most of the original accuracy.
        assert!(
            eval.original_accuracy > eval.backbone_accuracy + 0.05,
            "porg {} should clearly beat pbb {}",
            eval.original_accuracy,
            eval.backbone_accuracy
        );
        assert!(
            eval.protection_margin() > 0.05,
            "Δp = {} should be positive",
            eval.protection_margin()
        );
        assert!(
            eval.accuracy_degradation() < 0.10,
            "degradation {} too large",
            eval.accuracy_degradation()
        );
        // And the enclave model is much smaller than the public one.
        assert!(eval.rectifier_params < eval.backbone_params);
    }

    #[test]
    fn all_rectifier_kinds_train_and_help() {
        let data = small_data();
        for kind in RectifierKind::ALL {
            let trained = train(&data, &quick_config(kind)).unwrap();
            let eval = evaluate(&trained, &data).unwrap();
            assert!(
                eval.protection_margin() > 0.0,
                "{kind:?}: Δp = {}",
                eval.protection_margin()
            );
        }
    }

    #[test]
    fn deploy_then_infer_matches_direct_rectifier() {
        let data = small_data();
        let trained = train(&data, &quick_config(RectifierKind::Series)).unwrap();
        let real_adj = normalization::gcn_normalize(&data.graph);
        let embs = trained.backbone.embeddings(&data.features).unwrap();
        let direct = trained.rectifier.predict(&real_adj, &embs).unwrap();

        let mut vault = deploy(trained, &data).unwrap();
        let (labels, report) = vault.infer(&data.features).unwrap();
        let via_vault: Vec<usize> = labels.iter().map(|l| l.0).collect();
        assert_eq!(direct, via_vault, "enclave path must match direct path");
        assert!(report.peak_enclave_bytes < tee::SGX_EPC_BYTES);
    }

    #[test]
    fn dnn_backbone_pipeline_works() {
        let data = small_data();
        let mut cfg = quick_config(RectifierKind::Series);
        cfg.substitute = SubstituteKind::Dnn;
        let trained = train(&data, &cfg).unwrap();
        let eval = evaluate(&trained, &data).unwrap();
        assert!(eval.rectifier_accuracy > eval.backbone_accuracy - 0.05);
    }
}
