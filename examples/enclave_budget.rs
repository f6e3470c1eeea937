//! Enclave memory budgeting (paper §III-C and Fig. 6 bottom): every
//! GNNVault rectifier fits comfortably inside the 96 MB EPC, while the
//! corresponding full backbone would not — the reason the whole GNN
//! cannot simply be moved into the enclave.
//!
//! ```text
//! cargo run --release --example enclave_budget
//! ```

use datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};
use tee::{CostModel, EnclaveSim, OverBudgetPolicy, MB};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "EPC budget: {} MB (of the {} MB PRM)\n",
        tee::SGX_EPC_BYTES / MB,
        tee::SGX_PRM_BYTES / MB
    );

    for (spec, model_for) in [
        (DatasetSpec::CORA, "M1"),
        (DatasetSpec::CORAFULL, "M2"),
        (DatasetSpec::COMPUTER, "M3"),
    ] {
        let data = SyntheticPlanetoid::new(spec)
            .scale(0.05)
            .seed(1)
            .generate()?;
        let model = match model_for {
            "M1" => ModelConfig::m1(data.num_classes),
            "M2" => ModelConfig::m2(data.num_classes),
            _ => ModelConfig::m3(data.num_classes),
        };
        let config = pipeline::PipelineConfig {
            model,
            substitute: SubstituteKind::Knn { k: 2 },
            rectifier: RectifierKind::Series,
            epochs: 40,
            train_original: false,
            ..Default::default()
        };
        let trained = pipeline::train(&data, &config)?;

        // What the full model + dense graph would need inside the enclave.
        let backbone_params_mb = trained.backbone.param_count() as f64 * 4.0 / MB as f64;
        let dense_adj_mb = spec.dense_adjacency_mb();

        let mut vault = pipeline::deploy(trained, &data)?;
        let (_, report) = vault.infer(&data.features)?;
        println!("{} ({}):", spec.name, model_for);
        println!(
            "  GNNVault enclave peak: {:.2} MB  -> fits ({}x headroom)",
            report.peak_enclave_bytes as f64 / MB as f64,
            tee::SGX_EPC_BYTES / report.peak_enclave_bytes.max(1)
        );
        println!(
            "  naive in-enclave GNN:  {:.1} MB params + {:.0} MB dense adjacency at full scale -> exceeds PRM",
            backbone_params_mb, dense_adj_mb
        );
    }

    // Demonstrate the strict policy rejecting an over-budget enclave.
    println!("\nstrict-policy demonstration:");
    let mut tiny = EnclaveSim::new(MB, CostModel::default(), OverBudgetPolicy::Fail);
    match tiny.alloc(2 * MB) {
        Err(e) => println!("  1 MB enclave refused a 2 MB model: {e}"),
        Ok(_) => unreachable!("allocation must fail"),
    }
    // And the paging policy charging swap costs instead.
    let mut paging = EnclaveSim::new(MB, CostModel::default(), OverBudgetPolicy::Swap);
    paging.alloc(2 * MB)?;
    println!(
        "  paging enclave accepted it but swapped {} pages (simulated {:.2} ms penalty)",
        paging.swapped_pages(),
        paging.page_swap_ns() as f64 / 1e6
    );
    Ok(())
}
