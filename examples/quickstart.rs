//! Quickstart: the four GNNVault steps on a small synthetic Cora.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! 1. generate a substitute graph from public features,
//! 2. train the public backbone on it,
//! 3. train the private rectifier on the real adjacency,
//! 4. deploy into a simulated SGX enclave and run label-only inference.

use datasets::{DatasetSpec, SyntheticPlanetoid};
use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down synthetic stand-in for Cora (see the `datasets` crate).
    let data = SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(0.10)
        .seed(7)
        .generate()?;
    println!(
        "dataset: {} ({} nodes, {} edges, {} features, {} classes)",
        data.name,
        data.num_nodes(),
        data.graph.num_edges(),
        data.num_features(),
        data.num_classes
    );

    // Steps 1-3: substitute graph -> backbone -> rectifier (+ reference).
    let config = pipeline::PipelineConfig {
        model: ModelConfig::m1(data.num_classes),
        substitute: SubstituteKind::Knn { k: 2 },
        rectifier: RectifierKind::Parallel,
        epochs: 150,
        ..Default::default()
    };
    let trained = pipeline::train(&data, &config)?;
    let eval = pipeline::evaluate(&trained, &data)?;
    println!("\naccuracies on the test split:");
    println!(
        "  original GNN (porg, unprotected) : {:.1}%",
        eval.original_accuracy * 100.0
    );
    println!(
        "  public backbone (pbb, attacker)  : {:.1}%",
        eval.backbone_accuracy * 100.0
    );
    println!(
        "  GNNVault rectifier (prec)        : {:.1}%",
        eval.rectifier_accuracy * 100.0
    );
    println!(
        "  protection margin Δp             : {:.1}%",
        eval.protection_margin() * 100.0
    );
    println!(
        "  accuracy degradation porg - prec : {:.1}%",
        eval.accuracy_degradation() * 100.0
    );
    println!(
        "  θbb = {:.4} M, θrec = {:.4} M",
        eval.backbone_params as f64 / 1e6,
        eval.rectifier_params as f64 / 1e6
    );

    // Step 4: deploy and run the split inference.
    let mut vault = pipeline::deploy(trained, &data)?;
    let (labels, report) = vault.infer(&data.features)?;
    let correct = labels
        .iter()
        .zip(&data.labels)
        .filter(|(p, &l)| p.0 == l)
        .count();
    println!("\ndeployed inference (label-only output):");
    println!("  {}/{} nodes classified correctly", correct, labels.len());
    println!(
        "  time: backbone {:.2} ms | transfer {:.2} ms | rectifier {:.2} ms",
        report.backbone_ns as f64 / 1e6,
        report.transfer_ns as f64 / 1e6,
        report.rectifier_ns as f64 / 1e6
    );
    println!(
        "  enclave peak memory: {:.2} MB of {} MB EPC",
        report.peak_enclave_bytes as f64 / (1024.0 * 1024.0),
        tee::SGX_EPC_BYTES / (1024 * 1024)
    );
    Ok(())
}
