/// Architecture preset pairing a backbone with a rectifier, matching the
/// paper's M1/M2/M3 (§V-A "Models").
///
/// Channel lists give each layer's *output* width; the final entry is
/// always the class count `C`.
///
/// # Examples
///
/// ```
/// let m1 = gnnvault::ModelConfig::m1(7);
/// assert_eq!(m1.backbone_channels, vec![128, 32, 7]);
/// assert_eq!(m1.rectifier_channels, vec![128, 32, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Human-readable name ("M1", "M2", "M3", or custom).
    pub name: String,
    /// Backbone layer output widths, ending in the class count.
    pub backbone_channels: Vec<usize>,
    /// Rectifier layer output widths, ending in the class count.
    pub rectifier_channels: Vec<usize>,
}

impl ModelConfig {
    /// M1: 3-layer GCN backbone `(128, 32, C)` with rectifier
    /// `(128, 32, C)` — used for Cora, Citeseer, Pubmed.
    pub fn m1(classes: usize) -> Self {
        Self {
            name: "M1".into(),
            backbone_channels: vec![128, 32, classes],
            rectifier_channels: vec![128, 32, classes],
        }
    }

    /// M2: wider channels (256) for high class counts — used for
    /// CoraFull. The paper states "wider output channels (256) for both
    /// the backbone and the rectifier"; the exact hidden widths are not
    /// fully specified, so this preset uses backbone `(256, 64, C)` and
    /// rectifier `(128, 32, C)`, which reproduces the reported θ
    /// magnitudes.
    pub fn m2(classes: usize) -> Self {
        Self {
            name: "M2".into(),
            backbone_channels: vec![256, 64, classes],
            rectifier_channels: vec![128, 32, classes],
        }
    }

    /// M3: larger and deeper — backbone `(256, 64, 32, 16, C)` with
    /// rectifier `(64, 32, C)`, used for the Amazon graphs.
    pub fn m3(classes: usize) -> Self {
        Self {
            name: "M3".into(),
            backbone_channels: vec![256, 64, 32, 16, classes],
            rectifier_channels: vec![64, 32, classes],
        }
    }

    /// A compact custom config for tests and small examples.
    pub fn custom(name: &str, backbone: &[usize], rectifier: &[usize]) -> Self {
        Self {
            name: name.into(),
            backbone_channels: backbone.to_vec(),
            rectifier_channels: rectifier.to_vec(),
        }
    }

    /// Class count (last backbone channel).
    ///
    /// # Panics
    ///
    /// Panics if the channel list is empty (configs are always built
    /// through the constructors, which never produce one).
    pub fn classes(&self) -> usize {
        *self
            .backbone_channels
            .last()
            .expect("model config has at least one backbone layer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_shapes() {
        let m1 = ModelConfig::m1(7);
        assert_eq!(m1.classes(), 7);
        let m2 = ModelConfig::m2(70);
        assert_eq!(m2.backbone_channels[0], 256);
        assert_eq!(m2.classes(), 70);
        let m3 = ModelConfig::m3(10);
        assert_eq!(m3.backbone_channels.len(), 5);
        assert_eq!(m3.rectifier_channels, vec![64, 32, 10]);
    }

    #[test]
    fn m1_parameter_count_matches_table2_cora() {
        // Table II reports θbb = 0.188 M for Cora (1433 features):
        // 1433·128 + 128 + 128·32 + 32 + 32·7 + 7 = 187,879.
        let m1 = ModelConfig::m1(7);
        let mut count = 0usize;
        let mut prev = 1433;
        for &c in &m1.backbone_channels {
            count += prev * c + c;
            prev = c;
        }
        assert!((187_000..190_000).contains(&count), "θbb = {count}");
    }

    #[test]
    fn custom_builder() {
        let c = ModelConfig::custom("tiny", &[8, 3], &[4, 3]);
        assert_eq!(c.name, "tiny");
        assert_eq!(c.classes(), 3);
    }
}
