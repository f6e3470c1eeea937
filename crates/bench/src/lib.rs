//! The paper's tables and figures, one function per artifact.
//!
//! | function / binary | regenerates |
//! |-------------------|-------------|
//! | [`table1`]   | Table I: dataset statistics |
//! | [`table2`]   | Table II: GNNVault performance, KNN k = 2 |
//! | [`table3`]   | Table III: backbone comparison |
//! | [`table4`]   | Table IV: link-stealing ROC-AUC |
//! | [`fig4`]     | Fig. 4: layer-wise silhouette scores |
//! | [`fig5`]     | Fig. 5: substitute-graph hyperparameter sweeps |
//! | [`fig6`]     | Fig. 6: inference-time breakdown + enclave memory |
//! | [`ablation`] | rectifier convolution, one-way channel, cost model |
//!
//! Each function writes what its binary (`src/bin/<name>.rs`, a
//! one-line `main`) prints, trains through [`gnnvault::pipeline`]
//! alone, and panics if training fails. The Criterion micro-benches
//! live under `benches/`. Everything runs on scaled-down synthetic
//! datasets (a per-dataset default scale); pass `--scale <multiplier>`
//! to grow or shrink them and `--epochs <n>` to change the training
//! budget.
//!
//! Every function but [`fig6`] (and [`ablation`]'s last four rows,
//! which time inference) prints the same bytes at any pool width and
//! kernel variant; the root package's `paper_goldens` test holds them
//! to `goldens/*.txt` at `--epochs 2 --scale 0.1`.

mod ablation;
mod fig4;
mod fig5;
mod fig6;
mod table1;
mod table2;
mod table3;
mod table4;

pub use ablation::ablation;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig6::fig6;
pub use table1::table1;
pub use table2::table2;
pub use table3::table3;
pub use table4::table4;

use datasets::{CitationDataset, DatasetSpec, SyntheticPlanetoid};
use gnnvault::{pipeline::PipelineConfig, ModelConfig};

/// Formats a fraction as a percentage with one decimal, the style used
/// in the paper's tables.
fn pct(fraction: f32) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// Formats a parameter count in millions with four decimals, matching
/// the `θ (M)` columns of Table II.
fn millions(count: usize) -> String {
    format!("{:.4}", count as f64 / 1.0e6)
}

/// Default generation scale per dataset, chosen so each harness binary
/// finishes in minutes on a laptop while keeping every class populated.
fn harness_scale(spec: &DatasetSpec) -> f64 {
    match spec.name {
        "Cora" => 0.15,
        "Citeseer" => 0.12,
        "Pubmed" => 0.05,
        "Computer" => 0.05,
        "Photo" => 0.08,
        "CoraFull" => 0.04,
        _ => 0.10,
    }
}

/// Model preset per dataset, following §V-A: M1 for the three citation
/// graphs, M2 for CoraFull's 70 classes, M3 for the Amazon graphs.
fn model_for(spec: &DatasetSpec) -> ModelConfig {
    match spec.name {
        "CoraFull" => ModelConfig::m2(spec.num_classes),
        "Computer" | "Photo" => ModelConfig::m3(spec.num_classes),
        _ => ModelConfig::m1(spec.num_classes),
    }
}

/// Generates the harness dataset for a spec at `scale_mult` times the
/// default scale: what every artifact trains on at `--scale
/// scale_mult --seed seed`.
///
/// # Panics
///
/// Panics when generation fails (harness binaries treat that as fatal).
pub fn load(spec: &DatasetSpec, scale_mult: f64, seed: u64) -> CitationDataset {
    SyntheticPlanetoid::new(*spec)
        .scale((harness_scale(spec) * scale_mult).clamp(0.005, 1.0))
        .seed(seed)
        .generate()
        .expect("harness dataset generation")
}

/// Common CLI arguments for every harness binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessArgs {
    /// Multiplier on the per-dataset default scale.
    pub scale_mult: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale_mult: 1.0,
            epochs: 150,
            seed: 42,
        }
    }
}

impl HarnessArgs {
    /// Parses `--scale <f>`, `--epochs <n>` and `--seed <n>` from an
    /// argument iterator.
    ///
    /// # Errors
    ///
    /// Names the argument when a flag is unknown, or its value is
    /// missing or does not parse, and rejects a `--scale` that is not
    /// positive (NaN included).
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
            let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
        }
        let mut out = Self::default();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => out.scale_mult = value(&flag, args.next())?,
                "--epochs" => out.epochs = value(&flag, args.next())?,
                "--seed" => out.seed = value(&flag, args.next())?,
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if out.scale_mult.is_nan() || out.scale_mult <= 0.0 {
            return Err(format!("--scale must be positive, got {}", out.scale_mult));
        }
        Ok(out)
    }

    /// Parses the process arguments; on an error, prints it with the
    /// usage line and exits with status 2.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: [--scale F] [--epochs N] [--seed N]");
            std::process::exit(2)
        })
    }

    /// The pipeline every artifact trains unless it says otherwise:
    /// `model` with [`PipelineConfig`]'s defaults (KNN k = 2 substitute,
    /// parallel rectifier, reference model, optimizer settings) at these
    /// epochs and this seed.
    fn pipeline(&self, model: ModelConfig) -> PipelineConfig {
        PipelineConfig {
            model,
            epochs: self.epochs,
            seed: self.seed,
            ..PipelineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.804), "80.4");
        assert_eq!(pct(0.0), "0.0");
    }

    #[test]
    fn millions_formats_theta_columns() {
        assert_eq!(millions(188_000), "0.1880");
        assert_eq!(millions(2_270_000), "2.2700");
    }

    #[test]
    fn args_parse_flags_and_reject_what_they_cannot_use() {
        let parse = |argv: &[&str]| HarnessArgs::parse(argv.iter().map(|s| s.to_string()));
        let args = parse(&["--epochs", "10", "--scale", "0.5", "--seed", "7"]).unwrap();
        assert_eq!(args.epochs, 10);
        assert_eq!(args.scale_mult, 0.5);
        assert_eq!(args.seed, 7);
        assert_eq!(parse(&[]), Ok(HarnessArgs::default()));
        assert_eq!(
            parse(&["--epochs", "10", "--mystery"]),
            Err("unknown argument `--mystery`".to_string())
        );
        assert_eq!(
            parse(&["--epoch", "2"]),
            Err("unknown argument `--epoch`".to_string())
        );
        assert_eq!(
            parse(&["--epochs", "x"]),
            Err("--epochs: cannot parse `x`".to_string())
        );
        assert_eq!(parse(&["--seed"]), Err("--seed needs a value".to_string()));
        assert_eq!(
            parse(&["--scale", "NaN"]),
            Err("--scale must be positive, got NaN".to_string())
        );
        assert!(parse(&["--scale", "0"]).is_err());
    }

    #[test]
    fn every_spec_has_scale_and_model() {
        for spec in &DatasetSpec::ALL {
            assert!(harness_scale(spec) > 0.0);
            assert_eq!(model_for(spec).classes(), spec.num_classes);
        }
    }

    #[test]
    fn load_generates_consistent_tiny_dataset() {
        let d = load(&DatasetSpec::CORA, 0.2, 1);
        d.check_consistency().unwrap();
    }
}
