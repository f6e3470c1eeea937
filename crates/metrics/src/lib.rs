//! Evaluation metrics for the GNNVault reproduction.
//!
//! - [`accuracy`]: classification accuracy over index masks (the
//!   `porg`/`pbb`/`prec` columns of Tables II–III),
//! - [`roc_auc`]: rank-based ROC-AUC for the link-stealing attack
//!   (Table IV),
//! - [`silhouette_score`]: clustering quality of embeddings (Fig. 4's
//!   line chart).
//!
//! # Examples
//!
//! ```
//! let scores = [0.9, 0.8, 0.3, 0.1];
//! let labels = [true, true, false, false];
//! let auc = metrics::roc_auc(&scores, &labels).unwrap();
//! assert_eq!(auc, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auc;
mod silhouette;

pub use auc::{roc_auc, MetricError};
pub use silhouette::{silhouette_score, silhouette_score_sampled};

/// Fraction of positions where `predictions[i] == labels[i]`.
///
/// # Errors
///
/// Returns [`MetricError::LengthMismatch`] when the slices differ in
/// length and [`MetricError::Empty`] when they are empty.
///
/// # Examples
///
/// ```
/// let acc = metrics::accuracy(&[0, 1, 1], &[0, 1, 0]).unwrap();
/// assert!((acc - 2.0 / 3.0).abs() < 1e-6);
/// ```
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> Result<f32, MetricError> {
    if predictions.len() != labels.len() {
        return Err(MetricError::LengthMismatch {
            left: predictions.len(),
            right: labels.len(),
        });
    }
    if predictions.is_empty() {
        return Err(MetricError::Empty);
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    Ok(correct as f32 / predictions.len() as f32)
}

/// Accuracy restricted to the given index mask.
///
/// # Errors
///
/// Returns [`MetricError::LengthMismatch`] on slice-length mismatch,
/// [`MetricError::Empty`] on an empty mask, and
/// [`MetricError::IndexOutOfBounds`] when a mask index is invalid.
pub fn masked_accuracy(
    predictions: &[usize],
    labels: &[usize],
    mask: &[usize],
) -> Result<f32, MetricError> {
    if predictions.len() != labels.len() {
        return Err(MetricError::LengthMismatch {
            left: predictions.len(),
            right: labels.len(),
        });
    }
    if mask.is_empty() {
        return Err(MetricError::Empty);
    }
    let mut correct = 0usize;
    for &i in mask {
        if i >= predictions.len() {
            return Err(MetricError::IndexOutOfBounds {
                index: i,
                bound: predictions.len(),
            });
        }
        if predictions[i] == labels[i] {
            correct += 1;
        }
    }
    Ok(correct as f32 / mask.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 3]).unwrap(), 1.0);
        assert_eq!(accuracy(&[0, 0], &[1, 1]).unwrap(), 0.0);
        assert!(accuracy(&[], &[]).is_err());
        assert!(accuracy(&[1], &[1, 2]).is_err());
    }

    #[test]
    fn masked_accuracy_respects_mask() {
        let preds = [0usize, 1, 0, 1];
        let labels = [0usize, 0, 0, 1];
        assert_eq!(masked_accuracy(&preds, &labels, &[0, 3]).unwrap(), 1.0);
        assert_eq!(masked_accuracy(&preds, &labels, &[1]).unwrap(), 0.0);
        assert!(masked_accuracy(&preds, &labels, &[]).is_err());
        assert!(masked_accuracy(&preds, &labels, &[10]).is_err());
        assert!(masked_accuracy(&preds, &labels[..2], &[0]).is_err());
    }
}
