//! **Fig. 5**: the impact of substitute-graph hyperparameters on Cora
//! and Citeseer — sweeping the KNN neighbour count, the
//! cosine-similarity threshold, and the random-edge percentage,
//! reporting backbone (pbb) and rectified (prec) accuracy at each point.
//!
//! ```text
//! cargo run -p bench --bin fig5 --release [--epochs N] [--scale F]
//! ```

use crate::{load, model_for, pct, HarnessArgs};
use datasets::DatasetSpec;
use gnnvault::{pipeline, SubstituteKind};
use std::io::{self, Write};

/// Writes Fig. 5's three sweeps per dataset.
pub fn fig5(args: &HarnessArgs, out: &mut impl Write) -> io::Result<()> {
    for spec in [DatasetSpec::CORA, DatasetSpec::CITESEER] {
        let data = load(&spec, args.scale_mult, args.seed);
        // One sweep point: (pbb, prec) of a parallel rectifier over a
        // `substitute` backbone.
        let point = |substitute| {
            let config = pipeline::PipelineConfig {
                substitute,
                train_original: false,
                ..args.pipeline(model_for(&spec))
            };
            let trained = pipeline::train(&data, &config).expect("training");
            let eval = pipeline::evaluate(&trained, &data).expect("evaluation");
            (pct(eval.backbone_accuracy), pct(eval.rectifier_accuracy))
        };
        writeln!(out, "Fig. 5 sweeps on {}:", data.name)?;

        writeln!(out, "  KNN substitute: k sweep")?;
        writeln!(out, "  {:>4} {:>7} {:>7}", "k", "pbb%", "prec%")?;
        for k in [1usize, 2, 3, 4, 6, 8] {
            let (pbb, prec) = point(SubstituteKind::Knn { k });
            writeln!(out, "  {:>4} {:>7} {:>7}", k, pbb, prec)?;
        }

        writeln!(out, "  cosine substitute: threshold sweep")?;
        writeln!(out, "  {:>4} {:>7} {:>7}", "τ", "pbb%", "prec%")?;
        for tau in [0.0f32, 0.1, 0.2, 0.4, 0.6, 0.8] {
            let (pbb, prec) = point(SubstituteKind::CosineThreshold { tau });
            writeln!(out, "  {:>4.1} {:>7} {:>7}", tau, pbb, prec)?;
        }

        writeln!(out, "  random substitute: edge-percentage sweep")?;
        writeln!(out, "  {:>5} {:>7} {:>7}", "ratio", "pbb%", "prec%")?;
        for ratio in [0.01f64, 0.1, 0.5, 1.0, 1.5, 2.0] {
            let (pbb, prec) = point(SubstituteKind::Random { ratio });
            writeln!(out, "  {:>5.2} {:>7} {:>7}", ratio, pbb, prec)?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape checks vs the paper: KNN is stable in k; a too-low cosine threshold \
         (≤0.2) hurts; more random edges degrade both pbb and prec, and with almost \
         no edges the random backbone approaches the DNN baseline."
    )
}
