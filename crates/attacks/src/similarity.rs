use linalg::{ops, pairwise, DenseMatrix};

/// The six pairwise similarity metrics of Table IV.
///
/// Every metric is oriented so that **higher means more similar** (the
/// distance-based ones are negated), so they can be fed directly into a
/// ROC-AUC over "connected vs. not".
///
/// # Examples
///
/// ```
/// use attacks::SimilarityMetric;
///
/// let close = SimilarityMetric::Euclidean.score(&[0.0, 0.0], &[0.1, 0.0]);
/// let far = SimilarityMetric::Euclidean.score(&[0.0, 0.0], &[5.0, 0.0]);
/// assert!(close > far);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimilarityMetric {
    /// Negative Euclidean (L2) distance.
    Euclidean,
    /// Pearson correlation coefficient.
    Correlation,
    /// Cosine similarity.
    Cosine,
    /// Negative Chebyshev (L∞) distance.
    Chebyshev,
    /// Negative Bray–Curtis dissimilarity.
    Braycurtis,
    /// Negative Canberra distance.
    Canberra,
}

impl SimilarityMetric {
    /// All metrics in the paper's Table IV order.
    pub const ALL: [SimilarityMetric; 6] = [
        SimilarityMetric::Euclidean,
        SimilarityMetric::Correlation,
        SimilarityMetric::Cosine,
        SimilarityMetric::Chebyshev,
        SimilarityMetric::Braycurtis,
        SimilarityMetric::Canberra,
    ];

    /// Display label matching the paper's column headers.
    pub fn label(&self) -> &'static str {
        match self {
            SimilarityMetric::Euclidean => "Euclidean",
            SimilarityMetric::Correlation => "Correlation",
            SimilarityMetric::Cosine => "Cosine",
            SimilarityMetric::Chebyshev => "Chebyshev",
            SimilarityMetric::Braycurtis => "Braycurtis",
            SimilarityMetric::Canberra => "Canberra",
        }
    }

    /// Similarity of two equal-length vectors (higher = more similar).
    ///
    /// # Panics
    ///
    /// Panics (debug) when lengths differ.
    pub fn score(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "similarity inputs must match");
        match self {
            SimilarityMetric::Euclidean => -a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt(),
            SimilarityMetric::Correlation => pearson(a, b),
            SimilarityMetric::Cosine => linalg::ops::cosine_similarity(a, b),
            SimilarityMetric::Chebyshev => -a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max),
            SimilarityMetric::Braycurtis => {
                let num: f32 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
                let den: f32 = a.iter().zip(b).map(|(x, y)| (x + y).abs()).sum();
                if den == 0.0 {
                    0.0
                } else {
                    -num / den
                }
            }
            SimilarityMetric::Canberra => -a
                .iter()
                .zip(b)
                .map(|(x, y)| {
                    let den = x.abs() + y.abs();
                    if den == 0.0 {
                        0.0
                    } else {
                        (x - y).abs() / den
                    }
                })
                .sum::<f32>(),
        }
    }
}

/// Batch pair scorer: per-node terms are computed **once** per
/// embedding layer, so scoring a pair costs one dot product for every
/// metric that decomposes into dot/norm terms.
///
/// - `Euclidean`: cached squared row norms from
///   [`linalg::pairwise::sq_norms`]; `d²(u,v) = ‖u‖² + ‖v‖² − 2·u·v`.
/// - `Cosine`: rows L2-normalized up front; the score is a plain dot.
/// - `Correlation`: rows centered then L2-normalized (Pearson is the
///   cosine of centered vectors); the score is a plain dot.
/// - `Chebyshev` / `Braycurtis` / `Canberra` do not decompose and fall
///   back to the scalar [`SimilarityMetric::score`] kernel.
///
/// The decomposed paths reassociate f32 arithmetic relative to the
/// scalar kernel; scores agree to ≈1e-5 absolute on unit-scale
/// embeddings, which is far below the resolution of the AUCs built on
/// them.
///
/// # Examples
///
/// ```
/// use attacks::{PairScorer, SimilarityMetric};
/// use linalg::DenseMatrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let e = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0]])?;
/// let layers = [e];
/// let scorer = PairScorer::new(SimilarityMetric::Cosine, &layers);
/// assert!(scorer.score_mean(0, 1) > scorer.score_mean(0, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PairScorer<'a> {
    metric: SimilarityMetric,
    embeddings: &'a [DenseMatrix],
    prepared: Vec<Prepared>,
}

/// Cached per-layer terms backing one decomposed metric.
#[derive(Debug, Clone)]
enum Prepared {
    /// Squared row norms (Euclidean).
    SqNorms(Vec<f32>),
    /// Row-normalized copy (Cosine), or row-centered + normalized copy
    /// (Correlation). Either way the pair score is a dot product.
    DotReady(DenseMatrix),
    /// No dot/norm decomposition; score from the raw rows.
    Raw,
}

impl<'a> PairScorer<'a> {
    /// Precomputes per-node terms for `metric` over every layer.
    pub fn new(metric: SimilarityMetric, embeddings: &'a [DenseMatrix]) -> Self {
        let prepared = embeddings
            .iter()
            .map(|e| match metric {
                SimilarityMetric::Euclidean => Prepared::SqNorms(pairwise::sq_norms(e)),
                SimilarityMetric::Cosine => {
                    let mut m = e.clone();
                    ops::l2_normalize_rows(&mut m);
                    Prepared::DotReady(m)
                }
                SimilarityMetric::Correlation => {
                    let mut m = e.clone();
                    let cols = m.cols();
                    if cols > 0 {
                        for r in 0..m.rows() {
                            let row = m.row_mut(r);
                            let mean = row.iter().sum::<f32>() / cols as f32;
                            for v in row.iter_mut() {
                                *v -= mean;
                            }
                        }
                    }
                    // Constant rows become all-zero and stay zero under
                    // normalization, reproducing pearson's var == 0 => 0.
                    ops::l2_normalize_rows(&mut m);
                    Prepared::DotReady(m)
                }
                _ => Prepared::Raw,
            })
            .collect();
        Self {
            metric,
            embeddings,
            prepared,
        }
    }

    /// Number of embedding layers this scorer covers.
    pub fn num_layers(&self) -> usize {
        self.embeddings.len()
    }

    /// Similarity of nodes `u` and `v` on one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer`, `u`, or `v` is out of range.
    pub fn score_layer(&self, layer: usize, u: usize, v: usize) -> f32 {
        let e = &self.embeddings[layer];
        match &self.prepared[layer] {
            Prepared::SqNorms(n2) => {
                let d2 = (n2[u] + n2[v] - 2.0 * ops::dot(e.row(u), e.row(v))).max(0.0);
                -d2.sqrt()
            }
            Prepared::DotReady(m) => ops::dot(m.row(u), m.row(v)),
            Prepared::Raw => self.metric.score(e.row(u), e.row(v)),
        }
    }

    /// Mean similarity across all layers — the "all intermediate
    /// embeddings" surface of §V-D.
    ///
    /// # Panics
    ///
    /// Panics if there are no layers (a 0/0 mean would silently yield
    /// NaN) or `u`/`v` is out of range.
    pub fn score_mean(&self, u: usize, v: usize) -> f32 {
        assert!(
            self.num_layers() > 0,
            "PairScorer needs at least one embedding layer"
        );
        let sum: f32 = (0..self.num_layers())
            .map(|layer| self.score_layer(layer, u, v))
            .sum();
        sum / self.num_layers() as f32
    }
}

fn pearson(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len() as f32;
    if n == 0.0 {
        return 0.0;
    }
    let mean_a: f32 = a.iter().sum::<f32>() / n;
    let mean_b: f32 = b.iter().sum::<f32>() / n;
    let mut cov = 0.0f32;
    let mut var_a = 0.0f32;
    let mut var_b = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let dx = x - mean_a;
        let dy = y - mean_b;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    if var_a == 0.0 || var_b == 0.0 {
        0.0
    } else {
        cov / (var_a.sqrt() * var_b.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_vectors_maximize_each_metric() {
        let v = [0.3f32, -0.7, 1.2, 0.0];
        let w = [5.0f32, 2.0, -1.0, 0.4];
        for m in SimilarityMetric::ALL {
            let self_sim = m.score(&v, &v);
            let cross_sim = m.score(&v, &w);
            assert!(
                self_sim >= cross_sim,
                "{m:?}: self {self_sim} < cross {cross_sim}"
            );
        }
    }

    #[test]
    fn euclidean_and_chebyshev_zero_at_identity() {
        let v = [1.0f32, 2.0];
        assert_eq!(SimilarityMetric::Euclidean.score(&v, &v), 0.0);
        assert_eq!(SimilarityMetric::Chebyshev.score(&v, &v), 0.0);
    }

    #[test]
    fn correlation_detects_linear_relation() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [2.0f32, 4.0, 6.0, 8.0];
        assert!((SimilarityMetric::Correlation.score(&a, &b) - 1.0).abs() < 1e-5);
        let c = [8.0f32, 6.0, 4.0, 2.0];
        assert!((SimilarityMetric::Correlation.score(&a, &c) + 1.0).abs() < 1e-5);
        let flat = [1.0f32, 1.0, 1.0, 1.0];
        assert_eq!(SimilarityMetric::Correlation.score(&a, &flat), 0.0);
    }

    #[test]
    fn braycurtis_and_canberra_handle_zeros() {
        let z = [0.0f32, 0.0];
        assert_eq!(SimilarityMetric::Braycurtis.score(&z, &z), 0.0);
        assert_eq!(SimilarityMetric::Canberra.score(&z, &z), 0.0);
    }

    #[test]
    fn labels_match_table4_headers() {
        let labels: Vec<&str> = SimilarityMetric::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Euclidean",
                "Correlation",
                "Cosine",
                "Chebyshev",
                "Braycurtis",
                "Canberra"
            ]
        );
    }

    #[test]
    fn pair_scorer_falls_back_for_nondecomposable_metrics() {
        let e = DenseMatrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.3, 0.3, -1.0]]).unwrap();
        let layers = [e.clone()];
        for m in [
            SimilarityMetric::Chebyshev,
            SimilarityMetric::Braycurtis,
            SimilarityMetric::Canberra,
        ] {
            let scorer = PairScorer::new(m, &layers);
            assert_eq!(scorer.score_layer(0, 0, 1), m.score(e.row(0), e.row(1)));
        }
    }

    #[test]
    fn pair_scorer_handles_zero_and_constant_rows() {
        let e = DenseMatrix::from_rows(&[&[0.0, 0.0, 0.0], &[2.0, 2.0, 2.0], &[1.0, 0.0, 3.0]])
            .unwrap();
        let layers = [e.clone()];
        for m in SimilarityMetric::ALL {
            let scorer = PairScorer::new(m, &layers);
            for (u, v) in [(0, 1), (0, 2), (1, 2)] {
                let batch = scorer.score_layer(0, u, v);
                let scalar = m.score(e.row(u), e.row(v));
                assert!(
                    (batch - scalar).abs() < 1e-5,
                    "{m:?} ({u},{v}): batch {batch} scalar {scalar}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn pair_scorer_matches_scalar_kernel(
            a in proptest::collection::vec(-5.0f32..5.0, 6),
            b in proptest::collection::vec(-5.0f32..5.0, 6),
        ) {
            let e = DenseMatrix::from_rows(&[&a, &b]).unwrap();
            let layers = [e.clone()];
            for m in SimilarityMetric::ALL {
                let scorer = PairScorer::new(m, &layers);
                let batch = scorer.score_layer(0, 0, 1);
                let scalar = m.score(&a, &b);
                prop_assert!(
                    (batch - scalar).abs() < 1e-4,
                    "{:?}: batch {} scalar {}", m, batch, scalar
                );
                prop_assert!((scorer.score_mean(0, 1) - batch).abs() < 1e-6);
            }
        }

        #[test]
        fn metrics_are_symmetric(
            a in proptest::collection::vec(-5.0f32..5.0, 4),
            b in proptest::collection::vec(-5.0f32..5.0, 4),
        ) {
            for m in SimilarityMetric::ALL {
                let ab = m.score(&a, &b);
                let ba = m.score(&b, &a);
                prop_assert!((ab - ba).abs() < 1e-5, "{m:?}: {ab} vs {ba}");
            }
        }

        #[test]
        fn distances_never_rank_self_below_other(
            a in proptest::collection::vec(-5.0f32..5.0, 4),
            b in proptest::collection::vec(-5.0f32..5.0, 4),
        ) {
            for m in [SimilarityMetric::Euclidean, SimilarityMetric::Chebyshev, SimilarityMetric::Canberra] {
                prop_assert!(m.score(&a, &a) >= m.score(&a, &b), "{m:?}");
            }
        }
    }
}
