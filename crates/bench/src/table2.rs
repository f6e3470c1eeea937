//! **Table II**: GNNVault performance with the KNN (k = 2) substitute
//! graph — porg/pbb/prec/Δp and model sizes for the three rectifier
//! designs across all six datasets.
//!
//! ```text
//! cargo run -p bench --bin table2 --release [--epochs N] [--scale F]
//! ```

use crate::{load, millions, model_for, pct, HarnessArgs};
use datasets::DatasetSpec;
use gnnvault::{pipeline, RectifierKind};
use nn::ConvKind;
use std::io::{self, Write};

/// Writes Table II.
pub fn table2(args: &HarnessArgs, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "Table II: GNNVault performance with KNN graph (k = 2)")?;
    writeln!(
        out,
        "{:<10} | {:>7} {:>8} {:>7} | {:>7} {:>7} {:>8} | {:>7} {:>7} {:>8} | {:>7} {:>7} {:>8}",
        "", "", "", "", "Parallel", "", "", "Series", "", "", "Cascaded", "", ""
    )?;
    writeln!(
        out,
        "{:<10} | {:>7} {:>8} {:>7} | {:>7} {:>7} {:>8} | {:>7} {:>7} {:>8} | {:>7} {:>7} {:>8}",
        "Dataset",
        "porg%",
        "θbb(M)",
        "pbb%",
        "prec%",
        "Δp%",
        "θrec(M)",
        "prec%",
        "Δp%",
        "θrec(M)",
        "prec%",
        "Δp%",
        "θrec(M)"
    )?;
    writeln!(out, "{}", "-".repeat(128))?;

    for spec in &DatasetSpec::ALL {
        let data = load(spec, args.scale_mult, args.seed);
        let config = args.pipeline(model_for(spec));
        // Reference (porg) and backbone (pbb) are shared across rectifiers.
        let mut trained = pipeline::train(&data, &config).expect("training");
        let eval = pipeline::evaluate(&trained, &data).expect("evaluation");
        let mut row = format!(
            "{:<10} | {:>7} {:>8} {:>7}",
            spec.name,
            pct(eval.original_accuracy),
            millions(eval.backbone_params),
            pct(eval.backbone_accuracy)
        );
        for kind in [
            RectifierKind::Parallel,
            RectifierKind::Series,
            RectifierKind::Cascaded,
        ] {
            if kind != trained.rectifier.kind() {
                let config = pipeline::PipelineConfig {
                    rectifier: kind,
                    ..config.clone()
                };
                trained.rectifier =
                    pipeline::rectifier(&data, &config, &trained.backbone, ConvKind::Gcn)
                        .expect("rectifier training");
            }
            let eval = pipeline::evaluate(&trained, &data).expect("evaluation");
            row.push_str(&format!(
                " | {:>7} {:>7} {:>8}",
                pct(eval.rectifier_accuracy),
                pct(eval.protection_margin()),
                millions(eval.rectifier_params)
            ));
        }
        writeln!(out, "{row}")?;
    }
    writeln!(
        out,
        "\nShape checks vs the paper: pbb well below porg; prec within a few points \
         of porg (Δp positive); series has the smallest θrec; datasets are synthetic \
         stand-ins at reduced scale (absolute numbers differ, see README, \"Reproducing paper artifacts\")."
    )
}
