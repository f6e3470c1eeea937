//! **Table I**: dataset statistics and dense-adjacency memory, plus the
//! synthetic stand-ins actually used by the harness.
//!
//! ```text
//! cargo run -p bench --bin table1 --release
//! ```

use crate::{harness_scale, load, HarnessArgs};
use datasets::DatasetSpec;
use std::io::{self, Write};

/// Writes Table I.
pub fn table1(args: &HarnessArgs, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "Table I: datasets used in GNNVault validation")?;
    writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>9} {:>7} {:>12} {:>12}",
        "Dataset", "#Node", "#Edge", "#Feature", "#Class", "DenseA f32MB", "DenseA f64MB"
    )?;
    writeln!(out, "{}", "-".repeat(72))?;
    for spec in &DatasetSpec::ALL {
        writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>9} {:>7} {:>12.2} {:>12.2}",
            spec.name,
            spec.num_nodes,
            spec.num_edges,
            spec.num_features,
            spec.num_classes,
            graph::stats::dense_adjacency_mb_f32(spec.num_nodes),
            spec.dense_adjacency_mb(),
        )?;
    }

    writeln!(
        out,
        "\nSynthetic stand-ins generated at harness scale (seed {}):",
        args.seed
    )?;
    writeln!(
        out,
        "{:<16} {:>7} {:>8} {:>9} {:>7} {:>10} {:>9}",
        "Dataset@scale", "#Node", "#Edge*2", "#Feature", "#Class", "homophily", "density"
    )?;
    writeln!(out, "{}", "-".repeat(72))?;
    for spec in &DatasetSpec::ALL {
        let data = load(spec, args.scale_mult, args.seed);
        writeln!(
            out,
            "{:<16} {:>7} {:>8} {:>9} {:>7} {:>10.3} {:>9.5}",
            data.name,
            data.num_nodes(),
            data.graph.num_directed_edges(),
            data.num_features(),
            data.num_classes,
            data.edge_homophily(),
            graph::stats::density(&data.graph),
        )?;
    }
    writeln!(
        out,
        "\nNote: Table I's DenseA figures motivate §III-C — Pubmed-scale graphs \
         exceed the {} MB SGX PRM as dense matrices; scales default to {:?}.",
        tee::SGX_PRM_BYTES / (1024 * 1024),
        DatasetSpec::ALL.map(|s| harness_scale(&s)),
    )
}
