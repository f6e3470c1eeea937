//! Masked softmax cross-entropy for semi-supervised node classification.
//!
//! Only a small labelled subset (20 nodes per class in the paper's
//! setup) contributes to the loss; the gradient is zero on all other
//! rows.

use crate::NnError;
use linalg::{ops, DenseMatrix};

/// Computes the mean cross-entropy over the masked rows and the gradient
/// `∂L/∂logits`.
///
/// Returns `(loss, grad)` where `grad` has the same shape as `logits`
/// and is `(softmax(z) - onehot(y)) / |mask|` on masked rows, zero
/// elsewhere.
///
/// # Errors
///
/// Returns [`NnError::InvalidLabels`] when `labels.len() != logits.rows()`,
/// when the mask is empty or out of bounds, or when any masked label is
/// `>= logits.cols()`.
pub(crate) fn masked_cross_entropy(
    logits: &DenseMatrix,
    labels: &[usize],
    mask: &[usize],
) -> Result<(f32, DenseMatrix), NnError> {
    let (n, classes) = logits.shape();
    if labels.len() != n {
        return Err(NnError::InvalidLabels {
            reason: format!("{} labels for {} rows", labels.len(), n),
        });
    }
    if mask.is_empty() {
        return Err(NnError::InvalidLabels {
            reason: "mask must contain at least one node".into(),
        });
    }
    for &i in mask {
        if i >= n {
            return Err(NnError::InvalidLabels {
                reason: format!("mask index {i} out of bounds for {n} rows"),
            });
        }
        if labels[i] >= classes {
            return Err(NnError::InvalidLabels {
                reason: format!("label {} out of bounds for {classes} classes", labels[i]),
            });
        }
    }

    let log_probs = ops::log_softmax_rows(logits);
    let probs = ops::softmax_rows(logits);
    let scale = 1.0 / mask.len() as f32;
    let mut loss = 0.0f32;
    let mut grad = DenseMatrix::zeros(n, classes);
    for &i in mask {
        let y = labels[i];
        loss -= log_probs.get(i, y);
        let grow = grad.row_mut(i);
        grow.copy_from_slice(probs.row(i));
        grow[y] -= 1.0;
        for v in grow.iter_mut() {
            *v *= scale;
        }
    }
    Ok((loss * scale, grad))
}

/// Fraction of rows whose argmax equals the label, restricted to `mask`.
///
/// # Errors
///
/// Returns [`NnError::InvalidLabels`] on length/bounds mismatches, or an
/// empty mask.
pub(crate) fn masked_accuracy(
    logits: &DenseMatrix,
    labels: &[usize],
    mask: &[usize],
) -> Result<f32, NnError> {
    if labels.len() != logits.rows() {
        return Err(NnError::InvalidLabels {
            reason: format!("{} labels for {} rows", labels.len(), logits.rows()),
        });
    }
    if mask.is_empty() {
        return Err(NnError::InvalidLabels {
            reason: "mask must contain at least one node".into(),
        });
    }
    let preds = ops::argmax_rows(logits);
    let mut correct = 0usize;
    for &i in mask {
        if i >= logits.rows() {
            return Err(NnError::InvalidLabels {
                reason: format!("mask index {i} out of bounds"),
            });
        }
        if preds[i] == labels[i] {
            correct += 1;
        }
    }
    Ok(correct as f32 / mask.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confident_correct_logits_give_near_zero_loss() {
        let logits = DenseMatrix::from_rows(&[&[100.0, 0.0], &[0.0, 100.0]]).unwrap();
        let (loss, _) = masked_cross_entropy(&logits, &[0, 1], &[0, 1]).unwrap();
        assert!(loss < 1e-4);
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = DenseMatrix::zeros(3, 4);
        let (loss, _) = masked_cross_entropy(&logits, &[0, 1, 2], &[0, 1, 2]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_zero_outside_mask() {
        let logits = DenseMatrix::from_rows(&[&[1.0, -1.0], &[0.5, 0.5], &[2.0, 0.0]]).unwrap();
        let (_, grad) = masked_cross_entropy(&logits, &[0, 1, 0], &[1]).unwrap();
        assert_eq!(grad.row(0), &[0.0, 0.0]);
        assert_eq!(grad.row(2), &[0.0, 0.0]);
        assert!(grad.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // softmax - onehot always sums to zero per row.
        let logits = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let (_, grad) = masked_cross_entropy(&logits, &[2], &[0]).unwrap();
        let s: f32 = grad.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut logits = DenseMatrix::from_rows(&[&[0.3, -0.2, 0.9], &[-1.0, 0.4, 0.1]]).unwrap();
        let labels = [2usize, 1];
        let mask = [0usize, 1];
        let (_, grad) = masked_cross_entropy(&logits, &labels, &mask).unwrap();
        let eps = 1e-3f32;
        for (r, c) in [(0, 0), (0, 2), (1, 1)] {
            let orig = logits.get(r, c);
            logits.set(r, c, orig + eps);
            let (plus, _) = masked_cross_entropy(&logits, &labels, &mask).unwrap();
            logits.set(r, c, orig - eps);
            let (minus, _) = masked_cross_entropy(&logits, &labels, &mask).unwrap();
            logits.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - grad.get(r, c)).abs() < 1e-3,
                "grad[{r},{c}]: numeric {numeric} vs analytic {}",
                grad.get(r, c)
            );
        }
    }

    #[test]
    fn validation_errors() {
        let logits = DenseMatrix::zeros(2, 2);
        assert!(masked_cross_entropy(&logits, &[0], &[0]).is_err()); // label len
        assert!(masked_cross_entropy(&logits, &[0, 1], &[]).is_err()); // empty mask
        assert!(masked_cross_entropy(&logits, &[0, 1], &[5]).is_err()); // mask oob
        assert!(masked_cross_entropy(&logits, &[0, 7], &[1]).is_err()); // label oob
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = DenseMatrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.6, 0.4]]).unwrap();
        let labels = [0usize, 1, 1];
        let acc = masked_accuracy(&logits, &labels, &[0, 1, 2]).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
        let acc_masked = masked_accuracy(&logits, &labels, &[0, 1]).unwrap();
        assert!((acc_masked - 1.0).abs() < 1e-6);
        assert!(masked_accuracy(&logits, &labels, &[]).is_err());
        assert!(masked_accuracy(&logits, &labels, &[9]).is_err());
    }
}
