//! The fixture every workload shares: synthetic Cora at full scale, an
//! M1 series-rectifier vault trained for 30 epochs, and the label table
//! of sequential `Vault::infer`. `--seed` never reaches this module.

use datasets::{CitationDataset, DatasetSpec, SyntheticPlanetoid};
use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind, Vault};
use std::error::Error;
use std::time::Instant;
use tee::ClassLabel;

/// Dataset seed, and training seed of model A.
pub const FIXTURE_SEED: u64 = 11;
pub const EPOCHS: usize = 30;
/// Training seed and epochs of model B, the "retrained" model
/// `deploy_churn` swaps in. Fewer epochs keep its training out of the
/// run-time budget; architecture, snapshot size and deploy cost are
/// those of model A, and the labels differ, which is what the
/// stale-label check needs.
pub const RETRAIN_SEED: u64 = 12;
pub const RETRAIN_EPOCHS: usize = 10;

pub const FIXTURE_DESCRIPTION: &str =
    "synthetic Cora scale 1.0 (2708 nodes x 1433 features) seed 11, \
     ModelConfig::m1, Knn{k:2}, Series, 30 epochs, train_original false, default CostModel, f32";

pub fn dataset() -> Result<CitationDataset, Box<dyn Error>> {
    Ok(SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(1.0)
        .seed(FIXTURE_SEED)
        .generate()?)
}

/// Trains and deploys a vault on `data`; returns it with the seconds
/// `pipeline::train` took.
pub fn trained_vault(
    data: &CitationDataset,
    seed: u64,
    epochs: usize,
) -> Result<(Vault, f64), Box<dyn Error>> {
    let spec = pipeline::PipelineConfig {
        model: ModelConfig::m1(data.num_classes),
        substitute: SubstituteKind::Knn { k: 2 },
        rectifier: RectifierKind::Series,
        epochs,
        seed,
        train_original: false,
        ..Default::default()
    };
    let began = Instant::now();
    let trained = pipeline::train(data, &spec)?;
    let train_s = began.elapsed().as_secs_f64();
    Ok((pipeline::deploy(trained, data)?, train_s))
}

/// The oracle: the label of every node by one sequential full-graph
/// `Vault::infer`, which every served label must equal.
pub fn oracle(
    vault: &mut Vault,
    data: &CitationDataset,
) -> Result<Vec<ClassLabel>, Box<dyn Error>> {
    Ok(vault.infer(&data.features)?.0)
}
