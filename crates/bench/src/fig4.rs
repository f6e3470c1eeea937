//! **Fig. 4** (quantitative part): layer-by-layer silhouette scores of
//! the node embeddings for the original GNN, the public backbone, and
//! the parallel rectifier on a Cora-like dataset — the figure's line
//! chart showing the rectifier's clustering quality approaching the
//! original model's while the backbone stays low.
//!
//! (The paper's t-SNE scatter is a qualitative visualization of the same
//! embeddings; no plotting backend is used here.)
//!
//! ```text
//! cargo run -p bench --bin fig4 --release [--epochs N] [--scale F]
//! ```

use crate::{load, HarnessArgs};
use datasets::DatasetSpec;
use gnnvault::{pipeline, ModelConfig};
use metrics::silhouette_score_sampled;
use std::io::{self, Write};

const MAX_SILHOUETTE_SAMPLES: usize = 600;

/// Writes Fig. 4's silhouette table.
pub fn fig4(args: &HarnessArgs, out: &mut impl Write) -> io::Result<()> {
    let data = load(&DatasetSpec::CORA, args.scale_mult, args.seed);
    // Fig. 4 uses a 5-gconv-layer structure; the rectifier mirrors it so
    // every layer has a comparison point.
    let channels = [64usize, 48, 32, 16, data.num_classes];
    let config = args.pipeline(ModelConfig::custom("fig4", &channels, &channels));
    let trained = pipeline::train(&data, &config).expect("training");
    let eval = pipeline::evaluate(&trained, &data).expect("evaluation");
    writeln!(out, "Fig. 4: embedding clustering quality, {}", data.name)?;
    writeln!(
        out,
        "accuracies: original {:.1}% | backbone {:.1}% | rectifier {:.1}%\n",
        eval.original_accuracy * 100.0,
        eval.backbone_accuracy * 100.0,
        eval.rectifier_accuracy * 100.0
    )?;

    let original = trained.original.as_ref().expect("reference model");
    let org_embs = original.embeddings(&data.features).expect("org embeddings");
    let embeddings = trained
        .backbone
        .embeddings(&data.features)
        .expect("embeddings");
    let real_adj = trained.rectifier.preferred_adjacency(&data.graph);
    let rect_fwd = trained
        .rectifier
        .forward(&real_adj, &embeddings)
        .expect("rect fwd");

    writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>10}",
        "layer", "original", "backbone", "rectifier"
    )?;
    writeln!(out, "{}", "-".repeat(48))?;
    for layer in 0..channels.len() {
        let s = |m: &linalg::DenseMatrix| {
            silhouette_score_sampled(m, &data.labels, MAX_SILHOUETTE_SAMPLES, args.seed)
                .expect("silhouette")
        };
        writeln!(
            out,
            "gconv layer {:<2} {:>10.3} {:>10.3} {:>10.3}",
            layer + 1,
            s(&org_embs[layer]),
            s(&embeddings[layer]),
            s(&rect_fwd[layer]),
        )?;
    }
    writeln!(
        out,
        "\nShape checks vs the paper: rectifier scores climb toward the original \
         model's layer by layer while the backbone's stay low."
    )
}
