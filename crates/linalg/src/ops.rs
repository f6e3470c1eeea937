//! Elementwise activations, softmax family, and reductions.
//!
//! These free functions operate on [`DenseMatrix`] and are the numeric
//! building blocks for the `nn` crate's layers and losses.

use crate::DenseMatrix;

/// Gradient mask of ReLU: `grad * (x > 0)` elementwise.
///
/// `x` may be either the pre-activation input or the post-activation
/// output: `max(z, 0) > 0 ⇔ z > 0`, so both tensors produce the same
/// mask. Training loops that use fused bias + ReLU forwards (see
/// [`crate::Epilogue::BiasRelu`]) pass the post-activation output they
/// cached.
///
/// # Panics
///
/// Panics if shapes differ (internal use only expects matched shapes).
pub fn relu_backward(x: &DenseMatrix, grad: &DenseMatrix) -> DenseMatrix {
    assert_eq!(x.shape(), grad.shape(), "relu_backward shape mismatch");
    let mut out = grad.clone();
    for (o, &xv) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        if xv <= 0.0 {
            *o = 0.0;
        }
    }
    out
}

/// Row-wise softmax with the max-subtraction trick for stability.
///
/// Each row sums to 1 (rows of length zero are returned unchanged).
///
/// # Examples
///
/// ```
/// # use linalg::{DenseMatrix, ops};
/// let logits = DenseMatrix::from_rows(&[&[0.0, 0.0]]).unwrap();
/// let p = ops::softmax_rows(&logits);
/// assert!((p.get(0, 0) - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(x: &DenseMatrix) -> DenseMatrix {
    let mut out = x.clone();
    for row in out.as_mut_slice().chunks_exact_mut(x.cols().max(1)) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

/// Row-wise log-softmax (numerically stable).
pub fn log_softmax_rows(x: &DenseMatrix) -> DenseMatrix {
    let mut out = x.clone();
    for row in out.as_mut_slice().chunks_exact_mut(x.cols().max(1)) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
    out
}

/// Index of the maximum entry in each row (ties broken toward the lower
/// index), i.e. the predicted class per node.
pub fn argmax_rows(x: &DenseMatrix) -> Vec<usize> {
    x.iter_rows()
        .map(|row| {
            row.iter()
                .enumerate()
                .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                })
                .0
        })
        .collect()
}

/// L2-normalizes each row in place; zero rows are left untouched.
pub fn l2_normalize_rows(x: &mut DenseMatrix) {
    let cols = x.cols().max(1);
    for row in x.as_mut_slice().chunks_exact_mut(cols) {
        let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
}

/// Dot product of two equal-length vectors.
///
/// # Examples
///
/// ```
/// assert_eq!(linalg::ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Cosine similarity between two equal-length vectors; zero when either
/// vector has zero norm.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relu_backward_masks_by_preactivation() {
        let x = DenseMatrix::from_rows(&[&[-1.0, 2.0]]).unwrap();
        let g = DenseMatrix::from_rows(&[&[5.0, 5.0]]).unwrap();
        assert_eq!(relu_backward(&x, &g).row(0), &[0.0, 5.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]).unwrap();
        let p = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Monotone in logits.
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = DenseMatrix::from_rows(&[&[1000.0, 1000.0]]).unwrap();
        let p = softmax_rows(&x);
        assert!((p.get(0, 0) - 0.5).abs() < 1e-6);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = DenseMatrix::from_rows(&[&[0.5, -1.0, 2.0]]).unwrap();
        let a = log_softmax_rows(&x);
        let b = softmax_rows(&x).map(f32::ln);
        assert!(a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn argmax_breaks_ties_low() {
        let x = DenseMatrix::from_rows(&[&[1.0, 1.0], &[0.0, 2.0]]).unwrap();
        assert_eq!(argmax_rows(&x), vec![0, 1]);
    }

    #[test]
    fn l2_normalize_makes_unit_rows() {
        let mut x = DenseMatrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]).unwrap();
        l2_normalize_rows(&mut x);
        assert!((x.row(0)[0] - 0.6).abs() < 1e-6);
        assert_eq!(x.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn cosine_similarity_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn softmax_rows_are_distributions(vals in proptest::collection::vec(-50.0f32..50.0, 1..40)) {
            let cols = vals.len();
            let x = DenseMatrix::from_vec(1, cols, vals).unwrap();
            let p = softmax_rows(&x);
            let sum: f32 = p.row(0).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(0).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn cosine_similarity_bounded(a in proptest::collection::vec(-10.0f32..10.0, 1..20)) {
            let b: Vec<f32> = a.iter().map(|v| v * 2.0 + 0.1).collect();
            let s = cosine_similarity(&a, &b);
            prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&s));
        }
    }
}
