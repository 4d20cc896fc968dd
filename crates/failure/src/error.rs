//! Error type for failure-model construction and validation.

use std::error::Error;
use std::fmt;

/// Error returned when a failure model is constructed with invalid parameters.
///
/// All constructors in this crate validate their arguments eagerly
/// (`C-VALIDATE`): a distribution with a non-positive rate, a platform with
/// zero processors or a trace with non-monotone timestamps is rejected at
/// construction time rather than producing NaNs later.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureModelError {
    /// A numeric parameter was expected to be strictly positive and finite.
    NonPositiveParameter {
        /// Human-readable name of the offending parameter.
        name: &'static str,
        /// The value that was supplied.
        value: f64,
    },
    /// A numeric parameter was expected to be finite.
    NonFiniteParameter {
        /// Human-readable name of the offending parameter.
        name: &'static str,
        /// The value that was supplied.
        value: f64,
    },
    /// A probability was outside of `[0, 1]`.
    InvalidProbability {
        /// Human-readable name of the offending parameter.
        name: &'static str,
        /// The value that was supplied.
        value: f64,
    },
    /// A platform must have at least one processor.
    EmptyPlatform,
    /// A failure trace must have non-decreasing timestamps.
    NonMonotoneTrace {
        /// Index of the first out-of-order event.
        index: usize,
    },
    /// A trace event referenced a processor outside of the platform.
    UnknownProcessor {
        /// The offending processor index.
        processor: usize,
        /// The number of processors in the platform.
        platform_size: usize,
    },
}

impl fmt::Display for FailureModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureModelError::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be strictly positive, got {value}")
            }
            FailureModelError::NonFiniteParameter { name, value } => {
                write!(f, "parameter `{name}` must be finite, got {value}")
            }
            FailureModelError::InvalidProbability { name, value } => {
                write!(f, "parameter `{name}` must lie in [0, 1], got {value}")
            }
            FailureModelError::EmptyPlatform => {
                write!(f, "a platform must contain at least one processor")
            }
            FailureModelError::NonMonotoneTrace { index } => {
                write!(
                    f,
                    "failure trace timestamps must be non-decreasing (violated at index {index})"
                )
            }
            FailureModelError::UnknownProcessor { processor, platform_size } => {
                write!(
                    f,
                    "trace event references processor {processor} but the platform only has {platform_size} processors"
                )
            }
        }
    }
}

impl Error for FailureModelError {}

/// Validates that `value` is strictly positive and finite.
pub(crate) fn ensure_positive(name: &'static str, value: f64) -> Result<f64, FailureModelError> {
    if !value.is_finite() {
        return Err(FailureModelError::NonFiniteParameter { name, value });
    }
    if value <= 0.0 {
        return Err(FailureModelError::NonPositiveParameter { name, value });
    }
    Ok(value)
}

/// Validates that `value` is finite and non-negative.
pub(crate) fn ensure_non_negative(
    name: &'static str,
    value: f64,
) -> Result<f64, FailureModelError> {
    if !value.is_finite() {
        return Err(FailureModelError::NonFiniteParameter { name, value });
    }
    if value < 0.0 {
        return Err(FailureModelError::NonPositiveParameter { name, value });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = FailureModelError::NonPositiveParameter { name: "lambda", value: -1.0 };
        let msg = err.to_string();
        assert!(msg.contains("lambda"));
        assert!(msg.contains("-1"));
    }

    #[test]
    fn ensure_positive_accepts_positive() {
        assert_eq!(ensure_positive("x", 2.0).unwrap(), 2.0);
    }

    #[test]
    fn ensure_positive_rejects_zero_and_negative() {
        assert!(ensure_positive("x", 0.0).is_err());
        assert!(ensure_positive("x", -3.0).is_err());
    }

    #[test]
    fn ensure_positive_rejects_nan_and_inf() {
        assert!(matches!(
            ensure_positive("x", f64::NAN),
            Err(FailureModelError::NonFiniteParameter { .. })
        ));
        assert!(matches!(
            ensure_positive("x", f64::INFINITY),
            Err(FailureModelError::NonFiniteParameter { .. })
        ));
    }

    #[test]
    fn ensure_non_negative_accepts_zero() {
        assert_eq!(ensure_non_negative("x", 0.0).unwrap(), 0.0);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FailureModelError>();
    }
}
