//! Error type for scheduling operations — each variant is the violation of
//! one §2 model assumption (positive parameters, topological orders, the
//! mandatory final checkpoint) or of a solver's applicability condition
//! (chains for Algorithm 1, independent tasks for the Proposition 2
//! heuristics).

use std::error::Error;
use std::fmt;

use ckpt_dag::TaskId;

/// Error returned by instance construction, schedule validation and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
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
    /// A per-task cost vector has the wrong length.
    CostVectorLength {
        /// What the vector describes (e.g. "checkpoint costs").
        what: &'static str,
        /// Expected length (the task count).
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
    /// The instance has no tasks.
    EmptyInstance,
    /// The schedule's order is not a topological order of the instance graph.
    InvalidOrder,
    /// The schedule's checkpoint vector has the wrong length.
    CheckpointVectorLength {
        /// Expected length (the task count).
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
    /// The paper's model always checkpoints after the last executed task.
    MissingFinalCheckpoint,
    /// The operation requires the instance graph to be a linear chain.
    NotAChain,
    /// The operation requires the instance tasks to be independent.
    NotIndependent,
    /// The instance is too large for exhaustive search.
    TooLargeForBruteForce {
        /// Number of tasks in the instance.
        tasks: usize,
        /// Maximum supported by the exhaustive solver.
        limit: usize,
    },
    /// A task id referenced by the schedule does not belong to the instance.
    UnknownTask {
        /// The offending task id.
        task: TaskId,
    },
    /// A 3-PARTITION instance is malformed (wrong count, sum or value range).
    InvalidThreePartition {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A storage hierarchy is malformed: more than one slot-bounded level
    /// (the levelled DP threads a single slot budget through its state), or
    /// a sole level without a slot for the mandatory final checkpoint.
    InvalidStorageLevels,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be strictly positive and finite, got {value}")
            }
            ScheduleError::NegativeParameter { name, value } => {
                write!(f, "parameter `{name}` must be non-negative, got {value}")
            }
            ScheduleError::CostVectorLength { what, expected, actual } => {
                write!(f, "{what} must have one entry per task ({expected}), got {actual}")
            }
            ScheduleError::EmptyInstance => write!(f, "the instance has no tasks"),
            ScheduleError::InvalidOrder => {
                write!(f, "the schedule order is not a topological order of the task graph")
            }
            ScheduleError::CheckpointVectorLength { expected, actual } => {
                write!(
                    f,
                    "checkpoint decisions must have one entry per task ({expected}), got {actual}"
                )
            }
            ScheduleError::MissingFinalCheckpoint => {
                write!(f, "the model requires a checkpoint after the last executed task")
            }
            ScheduleError::NotAChain => {
                write!(f, "this algorithm requires a linear-chain task graph")
            }
            ScheduleError::NotIndependent => {
                write!(f, "this algorithm requires independent tasks (no dependences)")
            }
            ScheduleError::TooLargeForBruteForce { tasks, limit } => {
                write!(f, "exhaustive search supports at most {limit} tasks, got {tasks}")
            }
            ScheduleError::UnknownTask { task } => {
                write!(f, "task {task} does not belong to the instance")
            }
            ScheduleError::InvalidThreePartition { reason } => {
                write!(f, "invalid 3-PARTITION instance: {reason}")
            }
            ScheduleError::InvalidStorageLevels => write!(
                f,
                "at most one storage level may carry a slot bound, and a sole level needs a slot"
            ),
        }
    }
}

impl Error for ScheduleError {}

impl ScheduleError {
    /// Maps a validation error from the analytical layer (`ckpt-expectation`)
    /// onto the scheduling error vocabulary — shared by every call site that
    /// builds a [`SegmentCostTable`](ckpt_expectation::segment_cost::SegmentCostTable)
    /// or [`LambdaSweep`](ckpt_expectation::sweep::LambdaSweep) from instance
    /// data.
    pub fn from_expectation(err: ckpt_expectation::ExpectationError) -> Self {
        use ckpt_expectation::ExpectationError;
        match err {
            ExpectationError::NegativeParameter { name, value } => {
                ScheduleError::NegativeParameter { name, value }
            }
            ExpectationError::NonPositiveParameter { name, value }
            | ExpectationError::NonFiniteParameter { name, value }
            | ExpectationError::FractionOutOfRange { name, value } => {
                ScheduleError::NonPositiveParameter { name, value }
            }
            ExpectationError::ZeroProcessors => {
                ScheduleError::NonPositiveParameter { name: "processors", value: 0.0 }
            }
            ExpectationError::MultipleBoundedLevels => ScheduleError::InvalidStorageLevels,
        }
    }
}

pub(crate) fn ensure_positive(name: &'static str, value: f64) -> Result<f64, ScheduleError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(ScheduleError::NonPositiveParameter { name, value });
    }
    Ok(value)
}

pub(crate) fn ensure_non_negative(name: &'static str, value: f64) -> Result<f64, ScheduleError> {
    if !value.is_finite() || value < 0.0 {
        return Err(ScheduleError::NegativeParameter { name, value });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ScheduleError::EmptyInstance.to_string().contains("no tasks"));
        assert!(ScheduleError::NotAChain.to_string().contains("chain"));
        assert!(ScheduleError::MissingFinalCheckpoint.to_string().contains("last"));
        let err =
            ScheduleError::CostVectorLength { what: "checkpoint costs", expected: 3, actual: 2 };
        assert!(err.to_string().contains('3'));
        assert!(err.to_string().contains('2'));
        let err = ScheduleError::UnknownTask { task: TaskId(4) };
        assert!(err.to_string().contains("T4"));
    }

    #[test]
    fn validators() {
        assert!(ensure_positive("x", 1.0).is_ok());
        assert!(ensure_positive("x", 0.0).is_err());
        assert!(ensure_non_negative("x", 0.0).is_ok());
        assert!(ensure_non_negative("x", -1.0).is_err());
        assert!(ensure_non_negative("x", f64::NAN).is_err());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScheduleError>();
    }
}
