//! Enclave-memory integration tests: the §III-C / Fig. 6 resource
//! claims — rectifiers fit the EPC with strict (no-paging) policy, the
//! paging policy degrades gracefully, and the accounting is exact.

use datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind, Vault};
use tee::{CostModel, EnclaveSim, OverBudgetPolicy, SealKey, MB};

#[test]
fn every_model_config_fits_strict_epc() {
    for (spec, model_fn) in [
        (
            DatasetSpec::CORA,
            ModelConfig::m1 as fn(usize) -> ModelConfig,
        ),
        (DatasetSpec::CORAFULL, ModelConfig::m2),
        (DatasetSpec::COMPUTER, ModelConfig::m3),
    ] {
        let data = SyntheticPlanetoid::new(spec)
            .scale(0.03)
            .seed(1)
            .generate()
            .expect("generation");
        for kind in RectifierKind::ALL {
            let trained = pipeline::train(
                &data,
                &pipeline::PipelineConfig {
                    model: model_fn(data.num_classes),
                    substitute: SubstituteKind::Knn { k: 2 },
                    rectifier: kind,
                    epochs: 10,
                    train_original: false,
                    ..Default::default()
                },
            )
            .expect("training");
            // Strict policy: any EPC overflow fails the deployment/inference.
            let mut vault = Vault::deploy(
                trained.backbone,
                trained.rectifier,
                &data.graph,
                tee::SGX_EPC_BYTES,
                CostModel::default(),
                OverBudgetPolicy::Fail,
                SealKey(1),
            )
            .expect("deployment within EPC");
            let (_, report) = vault.infer(&data.features).expect("inference within EPC");
            assert!(
                report.peak_enclave_bytes < 48 * MB,
                "{} {kind:?}: peak {} MB leaves < 2x headroom",
                spec.name,
                report.peak_enclave_bytes / MB
            );
        }
    }
}

#[test]
fn paging_policy_charges_swap_costs_where_strict_fails() {
    let budget = 64 * 1024; // 64 KiB toy EPC
    let mut strict = EnclaveSim::new(budget, CostModel::default(), OverBudgetPolicy::Fail);
    assert!(strict.alloc(budget + 1).is_err());

    let mut paging = EnclaveSim::new(budget, CostModel::default(), OverBudgetPolicy::Swap);
    paging.alloc(budget + 8192).expect("paging accepts");
    assert_eq!(paging.swapped_pages(), 2);
    assert_eq!(paging.page_swap_ns(), CostModel::default().swap_ns(2));
}

#[test]
fn enclave_accounting_matches_component_sizes() {
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.03)
        .seed(2)
        .generate()
        .expect("generation");
    let trained = pipeline::train(
        &data,
        &pipeline::PipelineConfig {
            model: ModelConfig::custom("acct", &[16, 8, 7], &[8, 4, 7]),
            substitute: SubstituteKind::Knn { k: 2 },
            rectifier: RectifierKind::Series,
            epochs: 5,
            train_original: false,
            ..Default::default()
        },
    )
    .expect("training");
    let rect_bytes = trained.rectifier.nbytes();
    let coo_bytes = data.graph.coo_nbytes();
    let vault = Vault::deploy(
        trained.backbone,
        trained.rectifier,
        &data.graph,
        tee::SGX_EPC_BYTES,
        CostModel::free(),
        OverBudgetPolicy::Fail,
        SealKey(3),
    )
    .expect("deployment");
    // Resident set: params + COO + degrees + CSR adjacency. Peak at
    // deploy time must cover at least params + COO.
    assert!(vault.peak_enclave_bytes() >= rect_bytes + coo_bytes);
}

#[test]
fn transfer_bytes_scale_with_rectifier_kind() {
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.04)
        .seed(4)
        .generate()
        .expect("generation");
    let mut totals = std::collections::HashMap::new();
    for kind in RectifierKind::ALL {
        let trained = pipeline::train(
            &data,
            &pipeline::PipelineConfig {
                model: ModelConfig::custom("xfer", &[32, 16, 7], &[16, 8, 7]),
                substitute: SubstituteKind::Knn { k: 2 },
                rectifier: kind,
                epochs: 5,
                train_original: false,
                ..Default::default()
            },
        )
        .expect("training");
        let mut vault = pipeline::deploy(trained, &data).expect("deployment");
        let (_, report) = vault.infer(&data.features).expect("inference");
        totals.insert(kind, report.transferred_bytes);
    }
    // Cascaded ships every embedding; parallel ships the first L_rect;
    // series ships one. With equal layer counts cascaded >= parallel > series.
    assert!(totals[&RectifierKind::Cascaded] >= totals[&RectifierKind::Parallel]);
    assert!(totals[&RectifierKind::Parallel] > totals[&RectifierKind::Series]);
}
