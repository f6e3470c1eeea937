//! **Fig. 6**: GNNVault inference-time breakdown (backbone / transfer /
//! rectifier) and enclave runtime memory usage for the three model
//! configurations (M1 on Cora, M2 on CoraFull, M3 on Computer) under
//! each rectifier design, compared against running the unprotected GNN
//! on the CPU.
//!
//! Wall-clock portions come from the real Rust kernels; the SGX
//! transition/marshalling/paging components come from the calibrated
//! [`tee::CostModel`].
//!
//! ```text
//! cargo run -p bench --bin fig6 --release [--epochs N] [--scale F]
//! ```

use crate::{load, HarnessArgs};
use datasets::DatasetSpec;
use gnnvault::{pipeline, InferenceReport, ModelConfig, RectifierKind};
use nn::ConvKind;
use std::io::{self, Write};
use std::time::Instant;
use tee::MB;

/// Writes Fig. 6's timing and memory tables.
pub fn fig6(args: &HarnessArgs, out: &mut impl Write) -> io::Result<()> {
    type Preset = (&'static DatasetSpec, fn(usize) -> ModelConfig, &'static str);
    let configs: [Preset; 3] = [
        (&DatasetSpec::CORA, ModelConfig::m1, "M1 (Cora)"),
        (&DatasetSpec::CORAFULL, ModelConfig::m2, "M2 (CoraFull)"),
        (&DatasetSpec::COMPUTER, ModelConfig::m3, "M3 (Computer)"),
    ];

    writeln!(
        out,
        "Fig. 6 (top): inference time breakdown, ms per full-graph inference"
    )?;
    writeln!(
        out,
        "{:<14} {:<9} {:>9} {:>9} {:>9} {:>9} | {:>11} {:>9}",
        "model", "rectifier", "backbone", "transfer", "enclave", "total", "unprotected", "overhead"
    )?;
    writeln!(out, "{}", "-".repeat(92))?;

    let mut memory_rows = Vec::new();
    for (spec, model_fn, label) in configs {
        let data = load(spec, args.scale_mult, args.seed);
        let config = pipeline::PipelineConfig {
            epochs: args.epochs.min(60),
            ..args.pipeline(model_fn(data.num_classes))
        };
        // One backbone serves every rectifier design; the reference model
        // is the unprotected GNN on CPU the paper compares against.
        let (backbone, original) = pipeline::backbone(&data, &config).expect("training");
        let original = original.expect("reference model");
        const REPS: u32 = 5;
        let _ = original.predict(&data.features).expect("baseline warmup");
        let start = Instant::now();
        for _ in 0..REPS {
            let _ = original
                .predict(&data.features)
                .expect("baseline inference");
        }
        let unprotected_ms = start.elapsed().as_nanos() as f64 / 1e6 / REPS as f64;

        for kind in RectifierKind::ALL {
            let config = pipeline::PipelineConfig {
                rectifier: kind,
                train_original: false,
                ..config.clone()
            };
            let rectifier = pipeline::rectifier(&data, &config, &backbone, ConvKind::Gcn)
                .expect("rectifier training");
            let trained = pipeline::TrainedGnnVault {
                backbone: backbone.clone(),
                rectifier,
                original: None,
                config,
            };
            let mut vault = pipeline::deploy(trained, &data).expect("deploy");
            // Warm up once, then average several measured inferences.
            let _ = vault.infer(&data.features).expect("warmup");
            let reports: Vec<_> = (0..REPS)
                .map(|_| vault.infer(&data.features).expect("inference").1)
                .collect();
            let mean_ms = |ns: fn(&InferenceReport) -> u64| {
                reports.iter().map(ns).sum::<u64>() as f64 / 1e6 / REPS as f64
            };
            let phases = [
                mean_ms(|r| r.backbone_ns),
                mean_ms(|r| r.transfer_ns),
                mean_ms(|r| r.rectifier_ns),
            ];
            let total_ms: f64 = phases.iter().sum();
            writeln!(
                out,
                "{:<14} {:<9} {:>9.2} {:>9.2} {:>9.2} {:>9.2} | {:>11.2} {:>8.0}%",
                label,
                kind.label(),
                phases[0],
                phases[1],
                phases[2],
                total_ms,
                unprotected_ms,
                (total_ms / unprotected_ms - 1.0) * 100.0
            )?;
            memory_rows.push((
                label,
                kind.label(),
                reports[0].peak_enclave_bytes as f64 / MB as f64,
            ));
        }
    }

    writeln!(out, "\nFig. 6 (bottom): enclave runtime memory usage")?;
    writeln!(
        out,
        "{:<14} {:<9} {:>12} {:>10}",
        "model", "rectifier", "peak (MB)", "fits EPC?"
    )?;
    writeln!(out, "{}", "-".repeat(50))?;
    for (label, kind, mb) in &memory_rows {
        writeln!(
            out,
            "{:<14} {:<9} {:>12.2} {:>10}",
            label,
            kind,
            mb,
            if *mb < (tee::SGX_EPC_BYTES / MB) as f64 {
                "yes"
            } else {
                "NO"
            }
        )?;
    }
    writeln!(
        out,
        "\nShape checks vs the paper: series transfers the least and is cheapest; \
         every configuration stays far below the {} MB EPC; the paper reports a \
         52–131% series overhead on real SGX hardware — absolute values here come \
         from the simulator's calibrated cost model.",
        tee::SGX_EPC_BYTES / MB
    )
}
