//! **Table III**: comparing backbone designs — feature-only DNN vs GNN
//! backbones with random / cosine / KNN substitute graphs — by backbone
//! accuracy (pbb) and rectified accuracy (prec, parallel rectifier).
//!
//! ```text
//! cargo run -p bench --bin table3 --release [--epochs N] [--scale F]
//! ```

use crate::{load, model_for, pct, HarnessArgs};
use datasets::DatasetSpec;
use gnnvault::{pipeline, SubstituteKind};
use std::io::{self, Write};

/// Writes Table III.
pub fn table3(args: &HarnessArgs, out: &mut impl Write) -> io::Result<()> {
    let kinds: [SubstituteKind; 4] = [
        SubstituteKind::Dnn,
        SubstituteKind::Random { ratio: 1.0 },
        SubstituteKind::CosineBudget,
        SubstituteKind::Knn { k: 2 },
    ];

    writeln!(
        out,
        "Table III: compare various backbone designs (parallel rectifier)"
    )?;
    writeln!(
        out,
        "{:<10} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6}",
        "", "DNN", "", "random", "", "cosine", "", "KNN", ""
    )?;
    writeln!(
        out,
        "{:<10} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6}",
        "Dataset", "pbb", "prec", "pbb", "prec", "pbb", "prec", "pbb", "prec"
    )?;
    writeln!(out, "{}", "-".repeat(76))?;

    for spec in &DatasetSpec::ALL {
        let data = load(spec, args.scale_mult, args.seed);
        let mut row = format!("{:<10}", spec.name);
        for substitute in kinds {
            let config = pipeline::PipelineConfig {
                substitute,
                train_original: false,
                ..args.pipeline(model_for(spec))
            };
            let trained = pipeline::train(&data, &config).expect("training");
            let eval = pipeline::evaluate(&trained, &data).expect("evaluation");
            row.push_str(&format!(
                " | {:>6} {:>6}",
                pct(eval.backbone_accuracy),
                pct(eval.rectifier_accuracy)
            ));
        }
        writeln!(out, "{row}")?;
    }
    writeln!(
        out,
        "\nShape checks vs the paper: the random substitute collapses both pbb and \
         prec; cosine and KNN lead; the DNN backbone rectifies but trails the \
         similarity-based GNN backbones."
    )
}
