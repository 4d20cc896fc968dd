//! Error type of the online-scheduling subsystem.

use std::error::Error;
use std::fmt;

use ckpt_core::ScheduleError;
use ckpt_expectation::ExpectationError;
use ckpt_failure::FailureModelError;
use ckpt_simulator::SimulationError;

/// Error returned by policy construction and the evaluation harness.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptiveError {
    /// A numeric parameter must be strictly positive and finite.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// A trace-replay evaluation produced a trial whose makespan exceeded
    /// the generated trace horizon: its tail ran spuriously failure-free,
    /// so the comparison would be silently optimistic. Use a less extreme
    /// truth (or a shorter chain) — the harness generates traces covering
    /// 64× the failure-free makespan.
    TraceHorizonExceeded {
        /// The generated trace horizon.
        horizon: f64,
        /// The worst offending trial's makespan.
        makespan: f64,
        /// How many of the run's trials outran the horizon — surfaced so
        /// harness robustness is observable (the experiment binaries report
        /// this count in their `--json` summaries instead of only dying).
        trials: usize,
    },
    /// A scheduling-layer error (instance or plan construction).
    Schedule(ScheduleError),
    /// An expectation-layer error (cost-table construction).
    Expectation(ExpectationError),
    /// A failure-model error (truth-model construction).
    FailureModel(FailureModelError),
    /// A simulation error (policy Monte-Carlo runs).
    Simulation(SimulationError),
}

impl fmt::Display for AdaptiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptiveError::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be strictly positive, got {value}")
            }
            AdaptiveError::TraceHorizonExceeded { horizon, makespan, trials } => write!(
                f,
                "{trials} trial(s) exceeded the generated trace horizon ({horizon}, worst \
                 makespan {makespan}): their tails would have run spuriously failure-free"
            ),
            AdaptiveError::Schedule(e) => write!(f, "scheduling error: {e}"),
            AdaptiveError::Expectation(e) => write!(f, "expectation error: {e}"),
            AdaptiveError::FailureModel(e) => write!(f, "failure-model error: {e}"),
            AdaptiveError::Simulation(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl Error for AdaptiveError {}

impl From<ScheduleError> for AdaptiveError {
    fn from(err: ScheduleError) -> Self {
        AdaptiveError::Schedule(err)
    }
}

impl From<ExpectationError> for AdaptiveError {
    fn from(err: ExpectationError) -> Self {
        AdaptiveError::Expectation(err)
    }
}

impl From<FailureModelError> for AdaptiveError {
    fn from(err: FailureModelError) -> Self {
        AdaptiveError::FailureModel(err)
    }
}

impl From<SimulationError> for AdaptiveError {
    fn from(err: SimulationError) -> Self {
        AdaptiveError::Simulation(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = AdaptiveError::NonPositiveParameter { name: "lambda", value: 0.0 };
        assert!(e.to_string().contains("lambda"));
        let wrapped: AdaptiveError = ScheduleError::EmptyInstance.into();
        assert!(wrapped.to_string().contains("scheduling"));
        let wrapped: AdaptiveError = SimulationError::EmptySchedule.into();
        assert!(wrapped.to_string().contains("simulation"));
    }
}
