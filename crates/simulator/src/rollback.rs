//! Shared §2 rollback primitives.
//!
//! The simulator's one engine ([`crate::policy`], under every entry from
//! [`crate::engine::simulate`] to the Monte-Carlo drivers) and the
//! multi-machine cluster engine (`ckpt-cluster`) execute the same failure
//! semantics. An *attempt* runs the work of a run of tasks and the
//! checkpoint after its last one as one atomic phase, and every attempt
//! ends in a durable checkpoint. A phase (an attempt or a recovery) either
//! completes or is cut short by the first failure of a [`FailureStream`].
//! A failure loses the phase's elapsed time, costs a failure-free downtime
//! `D`, and is followed by an interruptible recovery of the last durable
//! state.
//!
//! These helpers keep the *exact* sequence of stream queries and
//! floating-point operations in one place, so independently written engines
//! degenerate to each other **bitwise**: the cluster engine's
//! single-machine/no-migration configuration replays [`simulate_policy`]
//! seed for seed because both call the same functions in the same order.
//!
//! [`simulate_policy`]: crate::policy::simulate_policy

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

/// The duration of one attempt: the work of its tasks, summed left to
/// right, plus the checkpoint after the last one. Every engine prices its
/// attempts through this sum, so equal task runs take bitwise-equal time.
pub fn attempt_duration(works: impl IntoIterator<Item = f64>, checkpoint: f64) -> f64 {
    works.into_iter().sum::<f64>() + checkpoint
}

/// Attempts one failure-prone phase of `duration` seconds starting at
/// `*clock`: queries the stream for the first failure strictly after the
/// current clock and compares it against the phase end.
///
/// On success the clock advances by `duration`; on failure it is left
/// untouched — callers account the failure with [`absorb_failure`], which
/// sets the post-downtime clock.
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

/// Accounts a failure at `at` that interrupted a phase started at `*clock`:
/// the phase's elapsed time goes to `wasted` (the `lost` bucket for an
/// attempt, the `recovery` bucket for a recovery), the failure-free
/// downtime to `downtime_total`, and the clock jumps to `at + downtime`.
/// Callers record the failure itself.
pub fn absorb_failure(
    at: f64,
    downtime: f64,
    clock: &mut f64,
    wasted: &mut f64,
    downtime_total: &mut f64,
) {
    *wasted += at - *clock;
    *clock = at + downtime;
    *downtime_total += downtime;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TimeBreakdown;
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
        let mut b = TimeBreakdown::default();
        let mut clock = 10.0;
        absorb_failure(40.0, 5.0, &mut clock, &mut b.lost, &mut b.downtime);
        assert_eq!(b.lost, 30.0);
        assert_eq!(b.downtime, 5.0);
        assert_eq!(clock, 45.0);
        absorb_failure(52.0, 5.0, &mut clock, &mut b.recovery, &mut b.downtime);
        assert_eq!(b.recovery, 7.0);
        assert_eq!(b.downtime, 10.0);
        assert_eq!(clock, 57.0);
        assert_eq!(attempt_duration([1.0, 2.0, 3.0], 0.5), 6.5);
    }
}
