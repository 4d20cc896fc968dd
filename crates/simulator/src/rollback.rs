//! Shared §2 rollback primitives.
//!
//! The policy engine (chains through [`crate::policy::simulate_policy`],
//! linearised DAGs through [`crate::policy::simulate_dag_policy`]) and the
//! multi-machine cluster engine (`ckpt-cluster`) execute the same failure
//! semantics: an interruptible *phase* (work,
//! checkpoint or recovery) either completes or is cut short by the first
//! failure of a [`FailureStream`]; a failure during work or checkpointing
//! loses the run back to the last durable checkpoint, costs a failure-free
//! downtime `D` and an interruptible recovery; a durable checkpoint commits
//! the run as useful time.
//!
//! These helpers keep the *exact* sequence of stream queries and
//! floating-point operations in one place, so independently written engines
//! degenerate to each other **bitwise**: the cluster engine's
//! single-machine/no-migration configuration replays [`simulate_policy`]
//! seed for seed because both call the same functions in the same order.
//!
//! [`simulate_policy`]: crate::policy::simulate_policy

use crate::engine::TimeBreakdown;
use crate::stream::FailureStream;

/// The outcome of one interruptible phase attempt (see [`run_phase`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseOutcome {
    /// The phase ran to completion; the clock was advanced past it.
    Completed,
    /// A failure struck at time `at`, strictly inside the phase; the clock
    /// was **not** advanced (failure bookkeeping decides where it goes).
    Failed {
        /// The failure instant.
        at: f64,
    },
}

/// Attempts one failure-prone phase of `duration` seconds starting at
/// `*clock`: queries the stream for the first failure strictly after the
/// current clock and compares it against the phase end.
///
/// On success the clock advances by `duration`; on failure it is left
/// untouched — callers account the failure with [`absorb_run_failure`] or
/// [`absorb_recovery_failure`], which set the post-downtime clock.
///
/// This is the single stream-consumption pattern of the §2 engines: one
/// query per attempt, `f < clock + duration` deciding the outcome.
pub fn run_phase<S: FailureStream + ?Sized>(
    stream: &mut S,
    clock: &mut f64,
    duration: f64,
) -> PhaseOutcome {
    match stream.next_failure_after(*clock) {
        Some(f) if f < *clock + duration => PhaseOutcome::Failed { at: f },
        _ => {
            *clock += duration;
            PhaseOutcome::Completed
        }
    }
}

/// Accounts a failure at `at` during **work or checkpointing**: everything
/// since `run_start` is lost, the failure is recorded, and the clock jumps
/// to the end of the failure-free downtime (`at + downtime`).
pub fn absorb_run_failure(
    at: f64,
    downtime: f64,
    clock: &mut f64,
    run_start: f64,
    failure_times: &mut Vec<f64>,
    breakdown: &mut TimeBreakdown,
) {
    breakdown.lost += at - run_start;
    failure_times.push(at);
    *clock = at + downtime;
    breakdown.downtime += downtime;
}

/// Accounts a failure at `at` during an **interruptible recovery**: the
/// partial recovery time is booked in the recovery bucket (nothing new was
/// lost — the run was already rolled back), the failure is recorded, and the
/// clock jumps to the end of the downtime, after which the recovery restarts
/// from scratch.
pub fn absorb_recovery_failure(
    at: f64,
    downtime: f64,
    clock: &mut f64,
    failure_times: &mut Vec<f64>,
    breakdown: &mut TimeBreakdown,
) {
    breakdown.recovery += at - *clock;
    failure_times.push(at);
    *clock = at + downtime;
    breakdown.downtime += downtime;
}

/// Commits the run ending at `clock` as useful time: a checkpoint became
/// durable, so everything since `*run_start` can no longer be lost.
pub fn commit_run(clock: f64, run_start: &mut f64, breakdown: &mut TimeBreakdown) {
    breakdown.useful += clock - *run_start;
    *run_start = clock;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{NoFailureStream, ScriptedStream};

    #[test]
    fn run_phase_completes_without_failures() {
        let mut clock = 10.0;
        assert_eq!(run_phase(&mut NoFailureStream, &mut clock, 5.0), PhaseOutcome::Completed);
        assert_eq!(clock, 15.0);
    }

    #[test]
    fn run_phase_reports_strictly_interior_failures() {
        // Failure at the exact phase end does not interrupt it (strict `<`).
        let mut s = ScriptedStream::new(vec![15.0, 18.0]);
        let mut clock = 10.0;
        assert_eq!(run_phase(&mut s, &mut clock, 5.0), PhaseOutcome::Completed);
        assert_eq!(clock, 15.0);
        assert_eq!(run_phase(&mut s, &mut clock, 5.0), PhaseOutcome::Failed { at: 18.0 });
        assert_eq!(clock, 15.0, "failure leaves the clock untouched");
    }

    #[test]
    fn failure_bookkeeping_matches_the_model() {
        let mut breakdown = TimeBreakdown::default();
        let mut failures = Vec::new();
        let mut clock = 0.0;
        absorb_run_failure(40.0, 5.0, &mut clock, 10.0, &mut failures, &mut breakdown);
        assert_eq!(breakdown.lost, 30.0);
        assert_eq!(breakdown.downtime, 5.0);
        assert_eq!(clock, 45.0);
        absorb_recovery_failure(52.0, 5.0, &mut clock, &mut failures, &mut breakdown);
        assert_eq!(breakdown.recovery, 7.0);
        assert_eq!(clock, 57.0);
        assert_eq!(failures, vec![40.0, 52.0]);
        let mut run_start = 45.0;
        commit_run(60.0, &mut run_start, &mut breakdown);
        assert_eq!(breakdown.useful, 15.0);
        assert_eq!(run_start, 60.0);
    }
}
