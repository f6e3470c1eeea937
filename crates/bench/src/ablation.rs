//! Ablation studies beyond the paper's tables, covering three design
//! choices:
//!
//! 1. **Rectifier convolution architecture** — GCN (paper) vs GraphSAGE
//!    vs GAT rectifiers (§VI future work), same backbone.
//! 2. **One-way channel rule** — how much a hypothetical two-way channel
//!    (leaking rectifier activations to the untrusted world) would give
//!    back to the link-stealing attacker.
//! 3. **Cost-model sensitivity** — how the Fig. 6 total responds to the
//!    simulated ECALL cost and in-enclave slowdown.
//!
//! ```text
//! cargo run -p bench --bin ablation --release [--epochs N] [--scale F]
//! ```

use crate::{load, pct, HarnessArgs};
use attacks::{surface, LinkStealingAttack, SimilarityMetric};
use datasets::DatasetSpec;
use gnnvault::{pipeline, ModelConfig, RectifierKind, Vault};
use nn::ConvKind;
use std::io::{self, Write};
use tee::{CostModel, OverBudgetPolicy, SealKey};

/// Writes the three ablations; rows 15 on (ablation 3) are wall-clock
/// timings.
pub fn ablation(args: &HarnessArgs, out: &mut impl Write) -> io::Result<()> {
    let data = load(&DatasetSpec::CORA, args.scale_mult, args.seed);
    let cfg = args.pipeline(ModelConfig::m1(data.num_classes));
    let trained = pipeline::train(&data, &cfg).expect("training");
    let eval = pipeline::evaluate(&trained, &data).expect("evaluation");

    // --- 1. Rectifier convolution architecture ---
    writeln!(
        out,
        "Ablation 1: rectifier convolution architecture ({})",
        data.name
    )?;
    writeln!(out, "{:<12} {:>8} {:>10}", "conv", "prec%", "θrec(M)")?;
    let mut swept = trained.clone();
    for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
        if conv != swept.rectifier.conv() {
            swept.rectifier = pipeline::rectifier(&data, &cfg, &trained.backbone, conv)
                .expect("rectifier training");
        }
        let eval = pipeline::evaluate(&swept, &data).expect("evaluation");
        writeln!(
            out,
            "{:<12} {:>8} {:>10.4}",
            conv.label(),
            pct(eval.rectifier_accuracy),
            eval.rectifier_params as f64 / 1e6
        )?;
    }
    writeln!(
        out,
        "(backbone pbb = {}%, original porg = {}%)\n",
        pct(eval.backbone_accuracy),
        pct(eval.original_accuracy)
    )?;

    // --- 2. One-way vs hypothetical two-way channel ---
    writeln!(out, "Ablation 2: what the one-way channel rule protects")?;
    let embeddings = trained
        .backbone
        .embeddings(&data.features)
        .expect("embeddings");
    let real_adj = trained.rectifier.preferred_adjacency(&data.graph);
    let rect_fwd = trained
        .rectifier
        .forward(&real_adj, &embeddings)
        .expect("rectifier forward");
    let one_way = surface::gnnvault_surface(&trained.backbone, &data.features).expect("Mgv");
    let mut two_way = one_way.clone();
    two_way.extend(rect_fwd);
    writeln!(out, "{:<30} {:>8}", "attack surface", "AUC")?;
    for (label, surface) in [
        ("one-way (deployed GNNVault)", &one_way),
        ("two-way (rectifier leaked)", &two_way),
    ] {
        let auc = LinkStealingAttack::new(SimilarityMetric::Cosine)
            .with_seed(args.seed)
            .run(&data.graph, surface)
            .expect("attack");
        writeln!(out, "{:<30} {:>8.3}", label, auc)?;
    }
    writeln!(out)?;

    // --- 3. Cost-model sensitivity ---
    writeln!(
        out,
        "Ablation 3: cost-model sensitivity (series rectifier, total ms)"
    )?;
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>10}",
        "cost model", "transfer", "enclave", "total"
    )?;
    let series = pipeline::train(
        &data,
        &pipeline::PipelineConfig {
            rectifier: RectifierKind::Series,
            epochs: args.epochs.min(40),
            train_original: false,
            ..cfg.clone()
        },
    )
    .expect("training");
    for (label, cost) in [
        ("zero-cost (no TEE tax)", CostModel::free()),
        ("default SGX1 calibration", CostModel::default()),
        (
            "10x transitions",
            CostModel {
                transition_ns: 80_000,
                ..CostModel::default()
            },
        ),
        (
            "3x enclave slowdown",
            CostModel {
                compute_slowdown_pct: 200,
                ..CostModel::default()
            },
        ),
    ] {
        let mut vault = Vault::deploy(
            series.backbone.clone(),
            series.rectifier.clone(),
            &data.graph,
            tee::SGX_EPC_BYTES,
            cost,
            OverBudgetPolicy::Fail,
            SealKey(1),
        )
        .expect("deployment");
        let _ = vault.infer(&data.features).expect("warmup");
        let (_, report) = vault.infer(&data.features).expect("inference");
        writeln!(
            out,
            "{:<28} {:>10.2} {:>10.2} {:>10.2}",
            label,
            report.transfer_ns as f64 / 1e6,
            report.rectifier_ns as f64 / 1e6,
            report.total_ns() as f64 / 1e6
        )?;
    }
    Ok(())
}
