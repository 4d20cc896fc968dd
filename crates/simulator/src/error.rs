//! Error type for simulator configuration.

use std::error::Error;
use std::fmt;

/// Error returned when a simulation is configured with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// A numeric parameter must be strictly positive and finite.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// A numeric parameter must be non-negative and finite.
    NegativeParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// At least one segment is required.
    EmptySchedule,
    /// At least one Monte-Carlo trial is required.
    ZeroTrials,
    /// A DAG execution order (or a policy's proposed suffix reorder) is not
    /// a permutation of the task set it must cover.
    InvalidTaskOrder,
    /// A policy named an attempt that does not start at the position to run:
    /// `through` must lie in `position..tasks`.
    InvalidDecision {
        /// The position the attempt starts at.
        position: usize,
        /// The last position the policy named.
        through: usize,
        /// The number of tasks in the order.
        tasks: usize,
    },
    /// The failure trace ended before the execution completed.
    TraceExhausted {
        /// Simulated time at which the trace ran out.
        at_time: f64,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be strictly positive, got {value}")
            }
            SimulationError::NegativeParameter { name, value } => {
                write!(f, "parameter `{name}` must be non-negative, got {value}")
            }
            SimulationError::EmptySchedule => write!(f, "at least one segment is required"),
            SimulationError::ZeroTrials => write!(f, "at least one Monte-Carlo trial is required"),
            SimulationError::InvalidTaskOrder => {
                write!(f, "the execution order is not a permutation of the tasks it must cover")
            }
            SimulationError::InvalidDecision { position, through, tasks } => write!(
                f,
                "a decision at position {position} named through = {through}, outside \
                 {position}..{tasks}"
            ),
            SimulationError::TraceExhausted { at_time } => {
                write!(f, "failure trace exhausted at simulated time {at_time}")
            }
        }
    }
}

impl Error for SimulationError {}

pub(crate) fn ensure_positive(name: &'static str, value: f64) -> Result<f64, SimulationError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(SimulationError::NonPositiveParameter { name, value });
    }
    Ok(value)
}

pub(crate) fn ensure_non_negative(name: &'static str, value: f64) -> Result<f64, SimulationError> {
    if !value.is_finite() || value < 0.0 {
        return Err(SimulationError::NegativeParameter { name, value });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SimulationError::EmptySchedule.to_string().contains("segment"));
        assert!(SimulationError::ZeroTrials.to_string().contains("trial"));
        let err = SimulationError::TraceExhausted { at_time: 12.5 };
        assert!(err.to_string().contains("12.5"));
    }

    #[test]
    fn validators() {
        assert!(ensure_positive("x", 1.0).is_ok());
        assert!(ensure_positive("x", 0.0).is_err());
        assert!(ensure_positive("x", f64::NAN).is_err());
        assert!(ensure_non_negative("x", 0.0).is_ok());
        assert!(ensure_non_negative("x", -0.1).is_err());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimulationError>();
    }
}
