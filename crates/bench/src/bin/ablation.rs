//! Ablation studies beyond the paper's tables, covering the design
//! choices DESIGN.md calls out:
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

use attacks::{surface, LinkStealingAttack, SimilarityMetric};
use bench::{pct, HarnessArgs};
use datasets::DatasetSpec;
use gnnvault::{pipeline, ModelConfig, Rectifier, RectifierKind, SubstituteKind, Vault};
use nn::ConvKind;
use tee::{CostModel, OverBudgetPolicy, SealKey};

fn main() {
    let args = HarnessArgs::from_env();
    let data = bench::load(&DatasetSpec::CORA, args.scale_mult, args.seed);
    let cfg = pipeline::PipelineConfig {
        model: ModelConfig::m1(data.num_classes),
        substitute: SubstituteKind::Knn { k: 2 },
        rectifier: RectifierKind::Parallel,
        epochs: args.epochs,
        seed: args.seed,
        ..Default::default()
    };
    let trained = pipeline::train(&data, &cfg).expect("training");
    let eval = pipeline::evaluate(&trained, &data).expect("evaluation");

    // --- 1. Rectifier convolution architecture ---
    println!(
        "Ablation 1: rectifier convolution architecture ({})",
        data.name
    );
    println!("{:<12} {:>8} {:>10}", "conv", "prec%", "θrec(M)");
    let embeddings = trained
        .backbone
        .embeddings(&data.features)
        .expect("embeddings");
    let train_cfg = nn::TrainConfig {
        epochs: args.epochs,
        lr: 0.01,
        weight_decay: 5e-4,
        dropout: 0.5,
        seed: args.seed,
    };
    for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
        let mut rect = Rectifier::new_with_conv(
            RectifierKind::Parallel,
            conv,
            &cfg.model.rectifier_channels,
            &trained.backbone.channel_dims(),
            args.seed + 1,
        )
        .expect("rectifier construction");
        let adj = rect.preferred_adjacency(&data.graph);
        rect.fit(
            &adj,
            &embeddings,
            &data.labels,
            &data.train_mask,
            &train_cfg,
        )
        .expect("rectifier training");
        let prec = metrics::masked_accuracy(
            &rect.predict(&adj, &embeddings).expect("predict"),
            &data.labels,
            &data.test_mask,
        )
        .expect("prec");
        println!(
            "{:<12} {:>8} {:>10.4}",
            conv.label(),
            pct(prec),
            rect.param_count() as f64 / 1e6
        );
    }
    println!(
        "(backbone pbb = {}%, original porg = {}%)\n",
        pct(eval.backbone_accuracy),
        pct(eval.original_accuracy)
    );

    // --- 2. One-way vs hypothetical two-way channel ---
    println!("Ablation 2: what the one-way channel rule protects");
    let real_adj = graph::normalization::gcn_normalize(&data.graph);
    let rect_fwd = trained
        .rectifier
        .forward(&real_adj, &embeddings)
        .expect("rectifier forward");
    let one_way = surface::gnnvault_surface(&trained.backbone, &data.features).expect("Mgv");
    let mut two_way = one_way.clone();
    two_way.extend(rect_fwd);
    println!("{:<30} {:>8}", "attack surface", "AUC");
    for (label, surface) in [
        ("one-way (deployed GNNVault)", &one_way),
        ("two-way (rectifier leaked)", &two_way),
    ] {
        let auc = LinkStealingAttack::new(SimilarityMetric::Cosine)
            .with_seed(args.seed)
            .run(&data.graph, surface)
            .expect("attack");
        println!("{:<30} {:>8.3}", label, auc);
    }
    println!();

    // --- 3. Cost-model sensitivity ---
    println!("Ablation 3: cost-model sensitivity (series rectifier, total ms)");
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "cost model", "transfer", "enclave", "total"
    );
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
        let trained = pipeline::train(
            &data,
            &pipeline::PipelineConfig {
                rectifier: RectifierKind::Series,
                epochs: args.epochs.min(40),
                train_original: false,
                ..cfg.clone()
            },
        )
        .expect("training");
        let mut vault = Vault::deploy(
            trained.backbone,
            trained.rectifier,
            &data.graph,
            tee::SGX_EPC_BYTES,
            cost,
            OverBudgetPolicy::Fail,
            SealKey(1),
        )
        .expect("deployment");
        let _ = vault.infer(&data.features).expect("warmup");
        let (_, report) = vault.infer(&data.features).expect("inference");
        println!(
            "{:<28} {:>10.2} {:>10.2} {:>10.2}",
            label,
            report.transfer_ns as f64 / 1e6,
            report.rectifier_ns as f64 / 1e6,
            report.total_ns() as f64 / 1e6
        );
    }
}
