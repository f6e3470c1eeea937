//! Regenerates **Fig. 4** (quantitative part): layer-by-layer silhouette
//! scores of the node embeddings for the original GNN, the public
//! backbone, and the parallel rectifier on a Cora-like dataset — the
//! figure's line chart showing the rectifier's clustering quality
//! approaching the original model's while the backbone stays low.
//!
//! (The paper's t-SNE scatter is a qualitative visualization of the same
//! embeddings; no plotting backend is used here, see DESIGN.md §2.)
//!
//! ```text
//! cargo run -p bench --bin fig4 --release [--epochs N] [--scale F]
//! ```

use bench::HarnessArgs;
use datasets::DatasetSpec;
use gnnvault::{Backbone, OriginalGnn, Rectifier, RectifierKind, SubstituteKind};
use graph::normalization;
use metrics::silhouette_score_sampled;
use nn::TrainConfig;

const MAX_SILHOUETTE_SAMPLES: usize = 600;

fn main() {
    let args = HarnessArgs::from_env();
    let data = bench::load(&DatasetSpec::CORA, args.scale_mult, args.seed);
    let cfg = TrainConfig {
        epochs: args.epochs,
        lr: 0.01,
        weight_decay: 5e-4,
        dropout: 0.5,
        seed: args.seed,
    };
    // Fig. 4 uses a 5-gconv-layer structure; the rectifier mirrors it so
    // every layer has a comparison point.
    let channels = [64usize, 48, 32, 16, data.num_classes];

    let original = OriginalGnn::train(
        &data.graph,
        &data.features,
        &data.labels,
        &data.train_mask,
        &channels,
        &cfg,
        args.seed,
    )
    .expect("original training");
    let backbone = Backbone::train(
        &data.features,
        &data.labels,
        &data.train_mask,
        SubstituteKind::Knn { k: 2 },
        &channels,
        data.graph.num_edges(),
        &cfg,
        args.seed,
    )
    .expect("backbone training");
    let real_adj = normalization::gcn_normalize(&data.graph);
    let embeddings = backbone.embeddings(&data.features).expect("embeddings");
    let mut rectifier = Rectifier::new(
        RectifierKind::Parallel,
        &channels,
        &backbone.channel_dims(),
        args.seed + 1,
    )
    .expect("rectifier construction");
    rectifier
        .fit(&real_adj, &embeddings, &data.labels, &data.train_mask, &cfg)
        .expect("rectifier training");

    let acc = |preds: &[usize]| {
        metrics::masked_accuracy(preds, &data.labels, &data.test_mask).expect("accuracy")
    };
    let p_org = acc(&original.predict(&data.features).expect("predict"));
    let p_bb = acc(&backbone.predict(&data.features).expect("predict"));
    let p_rec = acc(&rectifier.predict(&real_adj, &embeddings).expect("predict"));
    println!("Fig. 4: embedding clustering quality, {}", data.name);
    println!(
        "accuracies: original {:.1}% | backbone {:.1}% | rectifier {:.1}%\n",
        p_org * 100.0,
        p_bb * 100.0,
        p_rec * 100.0
    );

    let org_embs = original.embeddings(&data.features).expect("org embeddings");
    let rect_fwd = rectifier.forward(&real_adj, &embeddings).expect("rect fwd");

    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "layer", "original", "backbone", "rectifier"
    );
    println!("{}", "-".repeat(48));
    for layer in 0..channels.len() {
        let s = |m: &linalg::DenseMatrix| {
            silhouette_score_sampled(m, &data.labels, MAX_SILHOUETTE_SAMPLES, args.seed)
                .expect("silhouette")
        };
        println!(
            "gconv layer {:<2} {:>10.3} {:>10.3} {:>10.3}",
            layer + 1,
            s(&org_embs[layer]),
            s(&embeddings[layer]),
            s(&rect_fwd[layer]),
        );
    }
    println!(
        "\nShape checks vs the paper: rectifier scores climb toward the original \
         model's layer by layer while the backbone's stay low."
    );
}
