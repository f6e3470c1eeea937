use linalg::DenseMatrix;
use rand::Rng;

/// Glorot/Xavier uniform initialization: samples from
/// `U(-limit, limit)` with `limit = sqrt(6 / (fan_in + fan_out))`.
///
/// This matches the default initialization of PyTorch-Geometric's
/// `GCNConv`, which the paper's implementation uses.
pub(crate) fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> DenseMatrix {
    let limit = (6.0f32 / (fan_in as f32 + fan_out as f32)).sqrt();
    DenseMatrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-limit..=limit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_under_seed() {
        let a = glorot_uniform(8, 4, &mut StdRng::seed_from_u64(42));
        let b = glorot_uniform(8, 4, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
        let c = glorot_uniform(8, 4, &mut StdRng::seed_from_u64(43));
        assert_ne!(a, c);
    }

    #[test]
    fn respects_limit_and_is_not_degenerate() {
        let w = glorot_uniform(100, 50, &mut StdRng::seed_from_u64(1));
        assert_eq!(w.shape(), (100, 50));
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
        // Should not be all zeros or all equal.
        let first = w.get(0, 0);
        assert!(w.as_slice().iter().any(|&v| (v - first).abs() > 1e-6));
    }
}
