use std::error::Error;
use std::fmt;

/// Error type for network construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A linear-algebra kernel failed (shape mismatch etc.).
    Linalg(linalg::LinalgError),
    /// Model architecture was invalid (e.g. no layers).
    InvalidArchitecture {
        /// Description of the problem.
        reason: String,
    },
    /// Labels/masks were inconsistent with the data.
    InvalidLabels {
        /// Description of the problem.
        reason: String,
    },
    /// A training hyperparameter was outside its valid range.
    InvalidTrainConfig {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            NnError::InvalidArchitecture { reason } => {
                write!(f, "invalid architecture: {reason}")
            }
            NnError::InvalidLabels { reason } => write!(f, "invalid labels: {reason}"),
            NnError::InvalidTrainConfig { reason } => {
                write!(f, "invalid training configuration: {reason}")
            }
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<linalg::LinalgError> for NnError {
    fn from(e: linalg::LinalgError) -> Self {
        NnError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_linalg_error_with_source() {
        let inner = linalg::LinalgError::DataLength {
            expected: 4,
            actual: 2,
        };
        let e = NnError::from(inner.clone());
        assert!(e.to_string().contains("linear algebra"));
        assert!(Error::source(&e).is_some());
        assert_eq!(NnError::Linalg(inner), e);
    }
}
