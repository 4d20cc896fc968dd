//! Fixed schedules: a sequence of segments played against a failure stream
//! on the one §2 engine, and the records every execution returns.

use ckpt_telemetry::NoopSink;

use crate::error::SimulationError;
use crate::policy::{execute, validate, ChainTask, Decision, DecisionContext, Policy};
use crate::segment::Segment;
use crate::stream::FailureStream;

/// Where the simulated time went, aggregated over one execution.
///
/// The four buckets partition the makespan exactly:
/// `makespan = useful + lost + downtime + recovery`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Work and checkpoint time of attempts that completed successfully.
    pub useful: f64,
    /// Work and checkpoint time wasted in attempts interrupted by a failure.
    pub lost: f64,
    /// Total downtime (one `D` per failure, including failures during
    /// recovery).
    pub downtime: f64,
    /// Time spent recovering, including partial recoveries interrupted by
    /// further failures.
    pub recovery: f64,
}

impl TimeBreakdown {
    /// The sum of all buckets; equals the makespan of the execution.
    pub fn total(&self) -> f64 {
        self.useful + self.lost + self.downtime + self.recovery
    }
}

/// The outcome of simulating one complete execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionRecord {
    /// Total wall-clock time of the execution.
    pub makespan: f64,
    /// Number of failures that struck during the execution (during work,
    /// checkpoint or recovery — failures "during downtime" do not exist in
    /// the model).
    pub failures: u64,
    /// Where the time went.
    pub breakdown: TimeBreakdown,
}

/// Simulates one execution of `segments` (in order) with downtime `downtime`,
/// drawing failures from `stream`.
///
/// Semantics (paper §2/§3):
///
/// 1. each segment is attempted as an atomic `work + checkpoint` block;
/// 2. a failure during the attempt costs the time elapsed in the attempt, then
///    a downtime `D` (failure-free by definition), then a recovery of the
///    segment's `recovery` cost;
/// 3. failures may strike during recovery, each costing the elapsed recovery
///    time plus another downtime, until a recovery completes;
/// 4. after a successful recovery the whole segment is re-attempted.
///
/// The segments run on the one §2 engine ([`crate::policy`]) as tasks with a
/// checkpoint after every one: segment `i` becomes task `i`, whose recovery
/// is the one protecting segment `i + 1`.
///
/// # Errors
///
/// * [`SimulationError::EmptySchedule`] if `segments` is empty;
/// * [`SimulationError::NegativeParameter`] if `downtime` is negative or
///   not finite;
/// * [`SimulationError::TraceExhausted`] is **not** returned — an exhausted
///   stream means no more failures, so the execution simply completes.
pub fn simulate<S: FailureStream + ?Sized>(
    segments: &[Segment],
    downtime: f64,
    stream: &mut S,
) -> Result<ExecutionRecord, SimulationError> {
    let (tasks, initial_recovery) = segment_tasks(segments)?;
    let order: Vec<usize> = (0..tasks.len()).collect();
    validate(&tasks, &order, initial_recovery, downtime)?;
    let run = execute(
        &tasks,
        &order,
        initial_recovery,
        downtime,
        &mut EveryTask,
        stream,
        &mut Vec::new(),
        &mut NoopSink,
    )?;
    Ok(run.record)
}

/// The task view of a fixed schedule: segment `i` becomes task `i`, whose
/// recovery protects segment `i + 1`, and segment 0's recovery becomes the
/// initial recovery `R₀`.
pub(crate) fn segment_tasks(
    segments: &[Segment],
) -> Result<(Vec<ChainTask>, f64), SimulationError> {
    let first = segments.first().ok_or(SimulationError::EmptySchedule)?;
    let tasks = segments
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let recovery = segments.get(i + 1).map_or(0.0, Segment::recovery);
            ChainTask::new(s.work(), s.checkpoint(), recovery)
        })
        .collect::<Result<_, _>>()?;
    Ok((tasks, first.recovery()))
}

/// A fixed schedule's policy: every attempt is one segment.
pub(crate) struct EveryTask;

impl Policy for EveryTask {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        Decision::keep_order(ctx.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{NoFailureStream, ScriptedStream};

    fn seg(work: f64, ckpt: f64, rec: f64) -> Segment {
        Segment::new(work, ckpt, rec).unwrap()
    }

    #[test]
    fn empty_schedule_is_rejected() {
        let mut stream = NoFailureStream;
        assert!(matches!(simulate(&[], 0.0, &mut stream), Err(SimulationError::EmptySchedule)));
    }

    #[test]
    fn negative_downtime_is_rejected() {
        let mut stream = NoFailureStream;
        assert!(simulate(&[seg(1.0, 0.0, 0.0)], -1.0, &mut stream).is_err());
    }

    #[test]
    fn failure_free_execution_takes_nominal_time() {
        let mut stream = NoFailureStream;
        let segments = vec![seg(100.0, 10.0, 5.0), seg(200.0, 20.0, 10.0)];
        let record = simulate(&segments, 60.0, &mut stream).unwrap();
        assert_eq!(record.makespan, 330.0);
        assert_eq!(record.failures, 0);
        assert_eq!(record.breakdown.useful, 330.0);
        assert_eq!(record.breakdown.lost, 0.0);
        assert_eq!(record.breakdown.downtime, 0.0);
        assert_eq!(record.breakdown.recovery, 0.0);
    }

    #[test]
    fn single_failure_during_work_costs_lost_downtime_recovery() {
        // Segment: 100 s work + 10 s checkpoint, recovery 20 s, downtime 5 s.
        // Failure at t = 30: lose 30 s, 5 s downtime, 20 s recovery, then a
        // clean re-attempt of 110 s.  Makespan = 30 + 5 + 20 + 110 = 165.
        let mut stream = ScriptedStream::new(vec![30.0]);
        let record = simulate(&[seg(100.0, 10.0, 20.0)], 5.0, &mut stream).unwrap();
        assert_eq!(record.failures, 1);
        assert_eq!(record.makespan, 165.0);
        assert_eq!(record.breakdown.lost, 30.0);
        assert_eq!(record.breakdown.downtime, 5.0);
        assert_eq!(record.breakdown.recovery, 20.0);
        assert_eq!(record.breakdown.useful, 110.0);
    }

    #[test]
    fn failure_during_checkpoint_also_rolls_back() {
        // Failure at t = 105, i.e. 5 s into the checkpoint.
        let mut stream = ScriptedStream::new(vec![105.0]);
        let record = simulate(&[seg(100.0, 10.0, 0.0)], 0.0, &mut stream).unwrap();
        // 105 lost + 110 useful.
        assert_eq!(record.failures, 1);
        assert_eq!(record.makespan, 215.0);
    }

    #[test]
    fn failure_during_recovery_repeats_recovery() {
        // work 100, ckpt 0, recovery 50, downtime 10.
        // Failure at t = 20 -> lost 20, downtime 10 (t = 30), recovery starts.
        // Second failure at t = 60, i.e. 30 s into recovery -> recovery lost
        // 30, downtime 10 (t = 70), recovery completes at 120, then the
        // 100 s re-attempt finishes at 220.
        let mut stream = ScriptedStream::new(vec![20.0, 60.0]);
        let record = simulate(&[seg(100.0, 0.0, 50.0)], 10.0, &mut stream).unwrap();
        assert_eq!(record.failures, 2);
        assert_eq!(record.makespan, 220.0);
        assert_eq!(record.breakdown.recovery, 80.0);
        assert_eq!(record.breakdown.downtime, 20.0);
        assert_eq!(record.breakdown.lost, 20.0);
        assert_eq!(record.breakdown.useful, 100.0);
    }

    #[test]
    fn failure_exactly_at_attempt_end_does_not_interrupt() {
        // Attempt covers [0, 110); failure at exactly 110 must not interrupt.
        let mut stream = ScriptedStream::new(vec![110.0]);
        let record = simulate(&[seg(100.0, 10.0, 0.0)], 0.0, &mut stream).unwrap();
        assert_eq!(record.failures, 0);
        assert_eq!(record.makespan, 110.0);
    }

    #[test]
    fn failures_during_downtime_are_ignored() {
        // Failure at 10 interrupts; downtime is 100 (t in [10, 110]); a
        // scripted failure at 50 falls inside the downtime and must be
        // skipped, not charged. Recovery is 0, so the re-attempt starts at
        // 110 and runs 20 s; the next scripted failure is at 50 (already
        // past), so no further interruption.
        let mut stream = ScriptedStream::new(vec![10.0, 50.0]);
        let record = simulate(&[seg(20.0, 0.0, 0.0)], 100.0, &mut stream).unwrap();
        assert_eq!(record.failures, 1);
        assert_eq!(record.makespan, 130.0);
    }

    #[test]
    fn breakdown_partitions_makespan() {
        let mut stream = ScriptedStream::new(vec![30.0, 60.0, 200.0, 500.0]);
        let segments = vec![seg(100.0, 10.0, 20.0), seg(150.0, 15.0, 25.0)];
        let record = simulate(&segments, 7.5, &mut stream).unwrap();
        assert_eq!(record.breakdown.total(), record.makespan);
    }

    #[test]
    fn multi_segment_failure_only_replays_current_segment() {
        // Two segments of 100 s each (no checkpoints costs, no recovery).
        // A failure at t = 150 hits the second segment 50 s in: only those
        // 50 s are lost, not the first segment.
        let mut stream = ScriptedStream::new(vec![150.0]);
        let segments = vec![seg(100.0, 0.0, 0.0), seg(100.0, 0.0, 0.0)];
        let record = simulate(&segments, 0.0, &mut stream).unwrap();
        assert_eq!(record.failures, 1);
        assert_eq!(record.makespan, 250.0);
        assert_eq!(record.breakdown.lost, 50.0);
    }

    #[test]
    fn works_through_dyn_reference() {
        let mut stream: Box<dyn FailureStream> = Box::new(NoFailureStream);
        let record = simulate(&[seg(10.0, 1.0, 0.0)], 0.0, stream.as_mut()).unwrap();
        assert_eq!(record.makespan, 11.0);
    }
}
