//! Policy-driven simulation: online checkpoint decisions at task boundaries.
//!
//! The fixed-schedule engine ([`crate::engine::simulate`]) replays a
//! partition of the workflow into segments that was decided *offline*. This
//! module closes the loop: execution proceeds **task by task**, and after
//! each completed task an online policy is asked the paper's §2 question
//! — *"checkpoint now or keep going?"* — with full visibility of what the
//! execution has observed so far (the clock, the failure times, the last
//! checkpointed position). Failures roll the execution back to the last
//! checkpoint exactly as in the offline model, but the policy is consulted
//! again at every boundary of the re-execution, so it can re-plan
//! mid-execution (insert an extra checkpoint after a burst of failures,
//! stretch segments when the platform turns out healthier than planned).
//!
//! There is one engine and one [`Policy`] trait. [`simulate_dag_policy`]
//! executes tasks in a caller-supplied order, and the policy consulted at
//! every boundary returns a [`Decision`]: it may both toggle the next
//! checkpoint *and* swap in a new order for the unexecuted suffix — the
//! "re-linearise the remaining graph after a failure" primitive the
//! `ckpt-adaptive` DAG policies build on. A chain is a DAG whose order is
//! forced: [`simulate_policy`] runs the same engine over the identity
//! order, and a chain policy simply never reorders. The concrete adaptive
//! policies live in the `ckpt-adaptive` crate; the matching Monte-Carlo
//! drivers are [`crate::montecarlo`]'s `run_policy` and `run_dag_policy`.
//!
//! Semantics (the §2 model at task granularity):
//!
//! 1. tasks execute in order; work accumulates since the last checkpoint;
//! 2. after a task's work completes, the policy decides whether to
//!    checkpoint (the decision after the **final** task is forced to
//!    "checkpoint", matching the model's mandatory final checkpoint);
//! 3. a failure during work or checkpointing loses everything back to the
//!    last completed checkpoint, then costs a failure-free downtime `D` and
//!    an interruptible recovery (the recovery cost of the last checkpointed
//!    task, or `R₀` before the first checkpoint), after which execution
//!    resumes at the task following the last checkpoint.
//!
//! Both entry points emit the execution's sim-domain events **live** into a
//! [`TelemetrySink`], in chronological order. Pass
//! [`NoopSink`](ckpt_telemetry::NoopSink) to run untraced: the sink's
//! `enabled()` is read once per run, and a disabled sink builds no event.
//! Every event carries the order position it concerns as `segment`:
//!
//! | event | extra fields | emitted when |
//! |---|---|---|
//! | `attempt_started` | | a task's work starts |
//! | `failure` | `wasted` | a failure strikes work, checkpoint or recovery; `wasted` is the time lost since the run (or the recovery) started |
//! | `downtime_completed` | | the downtime after a failure ends |
//! | `recovery_completed` | | a recovery completes |
//! | `policy_decision` | `checkpoint` | the policy answered at a non-final boundary |
//! | `segment_completed` | | a checkpoint became durable |

use std::borrow::Cow;

use ckpt_telemetry::{TelemetrySink, TraceEvent};

use crate::engine::{ExecutionRecord, TimeBreakdown};
use crate::error::{ensure_non_negative, SimulationError};
use crate::rollback::{
    absorb_recovery_failure, absorb_run_failure, commit_run, run_phase, PhaseOutcome,
};
use crate::stream::FailureStream;

/// Records one sim-domain event into the run's sink, if it is traced. Every
/// event carries the order position as `segment`, then its extra fields.
macro_rules! emit {
    ($trace:expr, $name:literal, $time:expr, $position:expr $(, $key:literal => $value:expr)*) => {
        if let Some(sink) = $trace.as_deref_mut() {
            let event = TraceEvent::sim($name, $time).with("segment", $position);
            sink.record(&event$(.with($key, $value))*);
        }
    };
}

/// One task of a chain executed under an online policy.
///
/// Unlike [`crate::segment::Segment`] (whose `recovery` protects the segment
/// *itself*), a task's `recovery` is the cost of recovering **from this
/// task's own checkpoint** — it is paid by failures occurring *after* the
/// checkpoint is taken, which is only known online.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainTask {
    work: f64,
    checkpoint: f64,
    recovery: f64,
}

impl ChainTask {
    /// Creates a task: `work` seconds of computation (> 0), the cost of
    /// checkpointing right after it (≥ 0) and the cost of recovering from
    /// that checkpoint (≥ 0).
    ///
    /// # Errors
    ///
    /// Returns a [`SimulationError`] if any argument is invalid.
    pub fn new(work: f64, checkpoint: f64, recovery: f64) -> Result<Self, SimulationError> {
        if !work.is_finite() || work <= 0.0 {
            return Err(SimulationError::NonPositiveParameter { name: "work", value: work });
        }
        Ok(ChainTask {
            work,
            checkpoint: ensure_non_negative("checkpoint", checkpoint)?,
            recovery: ensure_non_negative("recovery", recovery)?,
        })
    }

    /// The work duration of the task.
    pub fn work(&self) -> f64 {
        self.work
    }

    /// The cost of checkpointing right after the task.
    pub fn checkpoint(&self) -> f64 {
        self.checkpoint
    }

    /// The cost of recovering from this task's checkpoint.
    pub fn recovery(&self) -> f64 {
        self.recovery
    }
}

/// The outcome of one policy-driven execution (chain or DAG).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyExecutionRecord {
    /// Makespan, failure count and time breakdown (the same buckets as the
    /// fixed-schedule engine: `useful + lost + downtime + recovery`
    /// partitions the makespan).
    pub record: ExecutionRecord,
    /// Checkpoints taken, the mandatory final one included.
    pub checkpoints: u64,
    /// Policy consultations (one per non-final task boundary reached,
    /// re-executions included).
    pub decisions: u64,
    /// Decisions that swapped in a new suffix order (always 0 on a chain).
    pub reorders: u64,
    /// The order the execution finished with (the initial order with every
    /// accepted suffix reorder applied), or `None` if no decision reordered
    /// the suffix and the initial order stands.
    pub final_order: Option<Vec<usize>>,
}

/// Simulates one policy-driven execution of the chain `tasks` (see the
/// module docs for the exact semantics and the events emitted into `sink`).
///
/// `initial_recovery` is the cost `R₀` of restoring the initial state
/// (failures before the first checkpoint), `downtime` the failure-free
/// downtime `D` paid after every failure. The chain runs on the DAG engine
/// over the identity order.
///
/// # Errors
///
/// * [`SimulationError::EmptySchedule`] if `tasks` is empty;
/// * [`SimulationError::NegativeParameter`] if `downtime` or
///   `initial_recovery` is negative.
pub fn simulate_policy<P, S>(
    tasks: &[ChainTask],
    initial_recovery: f64,
    downtime: f64,
    policy: &mut P,
    stream: &mut S,
    sink: &mut dyn TelemetrySink,
) -> Result<PolicyExecutionRecord, SimulationError>
where
    P: Policy + ?Sized,
    S: FailureStream + ?Sized,
{
    let order: Vec<usize> = (0..tasks.len()).collect();
    validate(tasks, &order, initial_recovery, downtime)?;
    execute(tasks, &order, initial_recovery, downtime, policy, stream, sink)
}

/// What a policy sees at a decision point (a just-completed task of the
/// current execution order).
///
/// The context carries the **current order** itself: a policy may not only
/// toggle the next checkpoint but also swap in a new order for the
/// unexecuted suffix (a re-linearisation of the remaining graph), and it
/// needs to see the order it would be amending. On a chain the order is the
/// identity and `task == position`.
#[derive(Debug, Clone, Copy)]
pub struct DecisionContext<'a> {
    /// Position (index into the current order) of the task that just
    /// completed.
    pub position: usize,
    /// The task (index into the task slice) that just completed —
    /// `order[position]`.
    pub task: usize,
    /// Current simulated time.
    pub clock: f64,
    /// Position of the last task whose checkpoint completed, or `None` if
    /// nothing has been checkpointed yet.
    pub last_checkpoint: Option<usize>,
    /// Times of every failure observed so far, in increasing order.
    pub failure_times: &'a [f64],
    /// The current execution order (task indices); positions
    /// `0..=position` are fixed history, positions `position + 1..` are the
    /// unexecuted suffix a [`Decision::reorder_suffix`] may permute.
    pub order: &'a [usize],
}

impl DecisionContext<'_> {
    /// The position execution would roll back to on a failure right now
    /// (the position after the last checkpoint).
    pub fn resume_position(&self) -> usize {
        self.last_checkpoint.map_or(0, |k| k + 1)
    }

    /// The unexecuted suffix of the current order (positions strictly after
    /// the current one) — the only part a decision may reorder.
    pub fn suffix(&self) -> &[usize] {
        &self.order[self.position + 1..]
    }
}

/// What a [`Policy`] decides at a task boundary.
#[derive(Debug, Clone, Default)]
pub struct Decision {
    /// Whether to checkpoint right after the just-completed task.
    pub checkpoint: bool,
    /// A replacement execution order for the **unexecuted suffix**
    /// (positions strictly after the current one), as task indices. Must be
    /// a permutation of [`DecisionContext::suffix`] — the engine verifies
    /// the permutation and rejects the run with
    /// [`SimulationError::InvalidTaskOrder`] otherwise. **Precedence
    /// validity is the policy's contract**: the engine has no knowledge of
    /// the task graph, so policies must only propose suffixes that keep the
    /// whole order topological (the `ckpt-adaptive` DAG policies derive
    /// theirs from `ckpt_dag` re-linearisations, which guarantee it).
    pub reorder_suffix: Option<Vec<usize>>,
}

impl Decision {
    /// A plain "checkpoint or not" decision leaving the order untouched —
    /// the only kind a chain policy makes.
    pub fn keep_order(checkpoint: bool) -> Self {
        Decision { checkpoint, reorder_suffix: None }
    }
}

/// An online checkpoint policy, consulted at every non-final task boundary
/// of a chain or a linearised DAG: "checkpoint now or keep going?", and
/// optionally "re-order the remaining tasks" (see [`Decision`]).
///
/// Implementations may carry arbitrary mutable state (a running failure-rate
/// estimate, a re-solved plan); one policy value drives one execution. The
/// Monte-Carlo drivers build a fresh policy per trial through a factory, so
/// trials stay independent and the threading deterministic.
pub trait Policy {
    /// The decision for the boundary described by `ctx`. Not consulted after
    /// the final task, whose checkpoint is mandatory and whose suffix is
    /// empty.
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision;
}

impl<P: Policy + ?Sized> Policy for &mut P {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        (**self).decide(ctx)
    }
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        (**self).decide(ctx)
    }
}

/// Simulates one policy-driven execution of a linearised DAG: the tasks of
/// `tasks` are executed in the order given by `order` (task indices), with
/// the §2 rollback semantics at the granularity of order positions, and
/// `policy` consulted at every non-final boundary. Events go to `sink` (see
/// the module docs).
///
/// The execution tracks the **completed-and-checkpointed frontier**: a
/// checkpoint after position `p` durably commits positions `0..=p`, and a
/// failure rolls back to the position after the last durable checkpoint.
/// Decisions may both toggle the next checkpoint and swap in a new order
/// for the unexecuted suffix (see [`Decision`]); the engine verifies each
/// proposed suffix is a permutation of the current one. A chain executed
/// with the identity order is exactly [`simulate_policy`].
///
/// # Errors
///
/// * [`SimulationError::EmptySchedule`] if `tasks` is empty;
/// * [`SimulationError::InvalidTaskOrder`] if `order` is not a permutation
///   of `0..tasks.len()`, or a decision proposes a suffix that is not a
///   permutation of the unexecuted suffix;
/// * [`SimulationError::NegativeParameter`] if `downtime` or
///   `initial_recovery` is negative.
pub fn simulate_dag_policy<P, S>(
    tasks: &[ChainTask],
    order: &[usize],
    initial_recovery: f64,
    downtime: f64,
    policy: &mut P,
    stream: &mut S,
    sink: &mut dyn TelemetrySink,
) -> Result<PolicyExecutionRecord, SimulationError>
where
    P: Policy + ?Sized,
    S: FailureStream + ?Sized,
{
    validate(tasks, order, initial_recovery, downtime)?;
    execute(tasks, order, initial_recovery, downtime, policy, stream, sink)
}

/// Checks the inputs [`execute`] relies on: a non-empty task set, an order
/// that is a permutation of it, and non-negative downtime and initial
/// recovery. The Monte-Carlo drivers call this once per run, not per trial.
pub(crate) fn validate(
    tasks: &[ChainTask],
    order: &[usize],
    initial_recovery: f64,
    downtime: f64,
) -> Result<(), SimulationError> {
    if tasks.is_empty() {
        return Err(SimulationError::EmptySchedule);
    }
    let n = tasks.len();
    let mut seen = vec![false; n];
    if order.len() != n || order.iter().any(|&t| t >= n || std::mem::replace(&mut seen[t], true)) {
        return Err(SimulationError::InvalidTaskOrder);
    }
    ensure_non_negative("downtime", downtime)?;
    ensure_non_negative("initial_recovery", initial_recovery)?;
    Ok(())
}

/// The policy engine: the one task-level §2 rollback loop. The inputs must
/// have passed [`validate`].
pub(crate) fn execute<P, S>(
    tasks: &[ChainTask],
    order: &[usize],
    initial_recovery: f64,
    downtime: f64,
    policy: &mut P,
    stream: &mut S,
    sink: &mut dyn TelemetrySink,
) -> Result<PolicyExecutionRecord, SimulationError>
where
    P: Policy + ?Sized,
    S: FailureStream + ?Sized,
{
    let n = tasks.len();
    let mut trace = if sink.enabled() { Some(sink) } else { None };
    // The order is borrowed until the first reorder copies it; the
    // permutation bitmap is allocated on that first reorder too.
    let mut order = Cow::Borrowed(order);
    let mut seen: Vec<bool> = Vec::new();
    let mut clock = 0.0f64;
    let mut breakdown = TimeBreakdown::default();
    let mut failure_times: Vec<f64> = Vec::new();
    let mut last_checkpoint: Option<usize> = None;
    // Start of the current uncheckpointed run: everything executed since is
    // lost on failure, committed as useful when a checkpoint completes.
    let mut run_start = 0.0f64;
    let mut checkpoints = 0u64;
    let mut decisions = 0u64;
    let mut reorders = 0u64;
    let mut position = 0usize;

    // Recovery cost of the last durable state, through the current order.
    macro_rules! protecting_recovery {
        () => {
            last_checkpoint.map_or(initial_recovery, |k| tasks[order[k]].recovery)
        };
    }

    while position < n {
        emit!(trace, "attempt_started", clock, position);

        let work = tasks[order[position]].work;
        if let PhaseOutcome::Failed { at } = run_phase(stream, &mut clock, work) {
            position = handle_failure(
                protecting_recovery!(),
                downtime,
                at,
                position,
                last_checkpoint,
                stream,
                &mut clock,
                &mut run_start,
                &mut failure_times,
                &mut breakdown,
                &mut trace,
            );
            continue;
        }

        // Decision point: the final boundary forces the checkpoint and has
        // no suffix to reorder; every other boundary asks the policy.
        let take = if position + 1 == n {
            true
        } else {
            decisions += 1;
            let ctx = DecisionContext {
                position,
                task: order[position],
                clock,
                last_checkpoint,
                failure_times: &failure_times,
                order: &order,
            };
            let decision = policy.decide(&ctx);
            emit!(trace, "policy_decision", clock, position, "checkpoint" => decision.checkpoint);
            if let Some(suffix) = decision.reorder_suffix {
                if seen.is_empty() {
                    seen = vec![false; n];
                }
                if !is_permutation_of(&order[position + 1..], &suffix, &mut seen) {
                    return Err(SimulationError::InvalidTaskOrder);
                }
                order.to_mut()[position + 1..].copy_from_slice(&suffix);
                reorders += 1;
            }
            decision.checkpoint
        };

        if take {
            let ckpt = tasks[order[position]].checkpoint;
            if ckpt > 0.0 {
                if let PhaseOutcome::Failed { at } = run_phase(stream, &mut clock, ckpt) {
                    position = handle_failure(
                        protecting_recovery!(),
                        downtime,
                        at,
                        position,
                        last_checkpoint,
                        stream,
                        &mut clock,
                        &mut run_start,
                        &mut failure_times,
                        &mut breakdown,
                        &mut trace,
                    );
                    continue;
                }
            }
            // The checkpoint is durable: commit the run as useful time.
            commit_run(clock, &mut run_start, &mut breakdown);
            last_checkpoint = Some(position);
            checkpoints += 1;
            emit!(trace, "segment_completed", clock, position);
        }
        position += 1;
    }

    let failures = failure_times.len() as u64;
    Ok(PolicyExecutionRecord {
        record: ExecutionRecord { makespan: clock, failures, breakdown },
        checkpoints,
        decisions,
        reorders,
        final_order: match order {
            Cow::Owned(order) => Some(order),
            Cow::Borrowed(_) => None,
        },
    })
}

/// Failure at `failure_time` while executing work or checkpoint of the task
/// at `position`: lose the run back to the last checkpoint, pay the
/// failure-free downtime, recover (interruptibly — recovery failures pay
/// another downtime and restart the recovery), and return the position
/// execution resumes at. `recovery` is the cost of restoring the last
/// durable state (the last checkpointed task's recovery, or `R₀`).
#[allow(clippy::too_many_arguments)] // the engine's flat state
fn handle_failure<S: FailureStream + ?Sized>(
    recovery: f64,
    downtime: f64,
    failure_time: f64,
    position: usize,
    last_checkpoint: Option<usize>,
    stream: &mut S,
    clock: &mut f64,
    run_start: &mut f64,
    failure_times: &mut Vec<f64>,
    breakdown: &mut TimeBreakdown,
    trace: &mut Option<&mut dyn TelemetrySink>,
) -> usize {
    emit!(trace, "failure", failure_time, position, "wasted" => failure_time - *run_start);
    absorb_run_failure(failure_time, downtime, clock, *run_start, failure_times, breakdown);
    emit!(trace, "downtime_completed", *clock, position);
    if recovery > 0.0 {
        loop {
            match run_phase(stream, clock, recovery) {
                PhaseOutcome::Failed { at } => {
                    emit!(trace, "failure", at, position, "wasted" => at - *clock);
                    absorb_recovery_failure(at, downtime, clock, failure_times, breakdown);
                    emit!(trace, "downtime_completed", *clock, position);
                }
                PhaseOutcome::Completed => {
                    breakdown.recovery += recovery;
                    emit!(trace, "recovery_completed", *clock, position);
                    break;
                }
            }
        }
    }
    *run_start = *clock;
    last_checkpoint.map_or(0, |k| k + 1)
}

/// Verifies that `proposed` is a permutation of `current`, using `seen` as a
/// scratch bitmap over task indices (`seen` must be all-false on entry and
/// is restored to all-false before returning). One `O(k)` sweep: each
/// proposed task consumes its mark, so membership and duplicates are
/// checked together.
fn is_permutation_of(current: &[usize], proposed: &[usize], seen: &mut [bool]) -> bool {
    if proposed.len() != current.len() {
        return false;
    }
    for &t in current {
        seen[t] = true;
    }
    let ok = proposed.iter().all(|&t| t < seen.len() && std::mem::replace(&mut seen[t], false));
    for &t in current {
        seen[t] = false;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::segment::Segment;
    use crate::stream::{ExponentialStream, NoFailureStream, ScriptedStream};
    use ckpt_telemetry::{FieldValue, NoopSink, RingBufferSink, TimeDomain};

    fn task(work: f64, ckpt: f64, rec: f64) -> ChainTask {
        ChainTask::new(work, ckpt, rec).unwrap()
    }

    /// `(name, segment)` of every event a traced run emitted, in order.
    fn events(sink: &RingBufferSink) -> Vec<(&str, usize)> {
        sink.events()
            .map(|e| match &e.fields()[0] {
                (key, FieldValue::U64(segment)) if key == "segment" => {
                    (e.name(), *segment as usize)
                }
                other => panic!("first field must be the segment, got {other:?}"),
            })
            .collect()
    }

    /// A policy replaying fixed per-position decisions, never reordering.
    struct Flags(Vec<bool>);
    impl Policy for Flags {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            Decision::keep_order(self.0[ctx.position])
        }
    }

    /// A policy that never checkpoints (the engine still forces the final
    /// one).
    struct Never;
    impl Policy for Never {
        fn decide(&mut self, _ctx: &DecisionContext<'_>) -> Decision {
            Decision::keep_order(false)
        }
    }

    #[test]
    fn validates_inputs() {
        let mut stream = NoFailureStream;
        assert!(matches!(
            simulate_policy(&[], 0.0, 0.0, &mut Never, &mut stream, &mut NoopSink),
            Err(SimulationError::EmptySchedule)
        ));
        let tasks = [task(1.0, 0.0, 0.0)];
        assert!(simulate_policy(&tasks, 0.0, -1.0, &mut Never, &mut stream, &mut NoopSink).is_err());
        assert!(simulate_policy(&tasks, -1.0, 0.0, &mut Never, &mut stream, &mut NoopSink).is_err());
        assert!(ChainTask::new(0.0, 1.0, 1.0).is_err());
        assert!(ChainTask::new(1.0, -1.0, 1.0).is_err());
        assert!(ChainTask::new(1.0, 1.0, -1.0).is_err());
    }

    #[test]
    fn failure_free_run_takes_nominal_time_and_forces_final_checkpoint() {
        let tasks = vec![task(100.0, 10.0, 5.0), task(200.0, 20.0, 5.0)];
        let mut stream = NoFailureStream;
        let out =
            simulate_policy(&tasks, 0.0, 30.0, &mut Never, &mut stream, &mut NoopSink).unwrap();
        // No intermediate checkpoint, but the final one is mandatory.
        assert_eq!(out.checkpoints, 1);
        assert_eq!(out.decisions, 1);
        assert_eq!(out.record.makespan, 320.0);
        assert_eq!(out.record.breakdown.useful, 320.0);
        assert_eq!(out.record.failures, 0);
        assert_eq!(out.final_order, None);
    }

    #[test]
    fn static_flags_match_the_fixed_schedule_engine() {
        // The same plan, played through the policy engine and through the
        // fixed-schedule engine on the equivalent segments, must agree on
        // identical failure streams.
        let tasks = vec![
            task(500.0, 60.0, 30.0),
            task(900.0, 45.0, 60.0),
            task(200.0, 20.0, 40.0),
            task(700.0, 80.0, 25.0),
        ];
        let flags = vec![true, false, true, true];
        let initial_recovery = 15.0;
        // Segment view: positions {0}, {1,2}, {3}; recovery protecting a
        // segment is the recovery of the previous checkpointed task.
        let segments = vec![
            Segment::new(500.0, 60.0, initial_recovery).unwrap(),
            Segment::new(1100.0, 20.0, 30.0).unwrap(),
            Segment::new(700.0, 80.0, 40.0).unwrap(),
        ];
        for seed in 0..25u64 {
            let mut s1 = ExponentialStream::new(1.0 / 900.0, seed);
            let mut s2 = ExponentialStream::new(1.0 / 900.0, seed);
            let fixed = simulate(&segments, 25.0, &mut s1).unwrap();
            let mut policy = Flags(flags.clone());
            let online = simulate_policy(
                &tasks,
                initial_recovery,
                25.0,
                &mut policy,
                &mut s2,
                &mut NoopSink,
            )
            .unwrap();
            assert_eq!(fixed.failures, online.record.failures, "seed {seed}");
            assert!(
                (fixed.makespan - online.record.makespan).abs() < 1e-9,
                "seed {seed}: {} vs {}",
                fixed.makespan,
                online.record.makespan
            );
            assert!((fixed.breakdown.useful - online.record.breakdown.useful).abs() < 1e-9);
            assert!((fixed.breakdown.lost - online.record.breakdown.lost).abs() < 1e-9);
            assert_eq!(online.checkpoints, 3);
        }
    }

    #[test]
    fn breakdown_partitions_makespan() {
        let tasks = vec![task(100.0, 10.0, 20.0), task(150.0, 15.0, 25.0), task(80.0, 5.0, 10.0)];
        let mut stream = ScriptedStream::new(vec![30.0, 60.0, 200.0, 390.0]);
        let mut policy = Flags(vec![true; 3]);
        let out =
            simulate_policy(&tasks, 12.0, 7.5, &mut policy, &mut stream, &mut NoopSink).unwrap();
        assert!((out.record.breakdown.total() - out.record.makespan).abs() < 1e-9);
        // 30 and 60 strike task 0's attempts, 200 task 1's work and 390 task
        // 1's checkpoint.
        assert_eq!(out.record.failures, 4);
    }

    #[test]
    fn scripted_failure_emits_the_sim_vocabulary() {
        // One task: failure at t = 30, downtime 5, recovery 20, then a
        // clean re-attempt and the mandatory final checkpoint.
        let mut stream = ScriptedStream::new(vec![30.0]);
        let mut sink = RingBufferSink::new(64);
        let out = simulate_policy(
            &[task(100.0, 10.0, 0.0)],
            20.0,
            5.0,
            &mut Never,
            &mut stream,
            &mut sink,
        )
        .unwrap();
        assert_eq!(out.record.failures, 1);
        assert!((out.record.makespan - 165.0).abs() < 1e-12);
        assert_eq!(
            events(&sink),
            vec![
                ("attempt_started", 0),
                ("failure", 0),
                ("downtime_completed", 0),
                ("recovery_completed", 0),
                ("attempt_started", 0),
                ("segment_completed", 0),
            ]
        );
        let times: Vec<f64> = sink.events().map(|e| e.time()).collect();
        assert_eq!(times, vec![0.0, 30.0, 35.0, 55.0, 55.0, 165.0]);
        assert!(sink.events().all(|e| e.domain() == TimeDomain::Sim));
        let failure = sink.events().nth(1).unwrap();
        assert_eq!(failure.fields()[1], ("wasted".into(), FieldValue::F64(30.0)));
    }

    #[test]
    fn disabled_sinks_receive_no_events() {
        /// A sink that counts what it is handed while claiming to be off.
        struct Disabled(usize);
        impl TelemetrySink for Disabled {
            fn enabled(&self) -> bool {
                false
            }
            fn record(&mut self, _event: &TraceEvent) {
                self.0 += 1;
            }
        }
        let tasks = vec![task(100.0, 10.0, 20.0), task(100.0, 10.0, 20.0)];
        let mut stream = ScriptedStream::new(vec![30.0, 60.0, 150.0]);
        let mut sink = Disabled(0);
        let mut policy = Flags(vec![true, true]);
        let out = simulate_policy(&tasks, 5.0, 5.0, &mut policy, &mut stream, &mut sink).unwrap();
        assert!(out.record.failures > 0);
        assert_eq!(sink.0, 0);
    }

    #[test]
    fn rollback_resumes_after_the_last_checkpoint() {
        // Tasks of 100 s each; checkpoint after task 0 (cost 10, recovery
        // 20). Failure at t = 250, i.e. 140 s into the run following the
        // checkpoint (tasks 1 and part of 2): roll back to task 1, not 0.
        let tasks = vec![task(100.0, 10.0, 20.0), task(100.0, 0.0, 0.0), task(100.0, 0.0, 0.0)];
        let mut stream = ScriptedStream::new(vec![250.0]);
        let mut policy = Flags(vec![true, false, false]);
        let mut sink = RingBufferSink::new(64);
        let out = simulate_policy(&tasks, 5.0, 8.0, &mut policy, &mut stream, &mut sink).unwrap();
        // Timeline: ckpt done at 110; failure at 250 loses 140; downtime 8
        // (258), recovery 20 (278); re-run tasks 1..2 (200) -> 478; no
        // checkpoint cost at the end (task 2's C = 0). Final checkpoint
        // completes at 478.
        assert!((out.record.makespan - 478.0).abs() < 1e-9);
        assert!((out.record.breakdown.lost - 140.0).abs() < 1e-9);
        assert_eq!(out.record.failures, 1);
        // Task 0 is attempted once; tasks 1 and 2 twice.
        let attempts =
            |p: usize| events(&sink).iter().filter(|&&e| e == ("attempt_started", p)).count();
        assert_eq!(attempts(0), 1);
        assert_eq!(attempts(1), 2);
        assert_eq!(attempts(2), 2);
    }

    /// The `(segment, checkpoint)` of every `policy_decision` event.
    fn decisions(sink: &RingBufferSink) -> Vec<(usize, bool)> {
        sink.events()
            .filter(|e| e.name() == "policy_decision")
            .map(|e| match e.fields() {
                [(_, FieldValue::U64(segment)), (_, FieldValue::Bool(checkpoint))] => {
                    (*segment as usize, *checkpoint)
                }
                other => panic!("unexpected decision fields {other:?}"),
            })
            .collect()
    }

    #[test]
    fn decision_events_are_logged_with_their_outcome() {
        let tasks = vec![task(10.0, 1.0, 1.0), task(10.0, 1.0, 1.0), task(10.0, 1.0, 1.0)];
        let mut stream = NoFailureStream;
        let mut policy = Flags(vec![false, true, false]);
        let mut sink = RingBufferSink::new(64);
        let out = simulate_policy(&tasks, 0.0, 0.0, &mut policy, &mut stream, &mut sink).unwrap();
        // The final boundary is mandatory, not a decision.
        assert_eq!(decisions(&sink), vec![(0, false), (1, true)]);
        assert_eq!(out.decisions, 2);
        assert_eq!(out.checkpoints, 2);
    }

    #[test]
    fn policy_can_adapt_to_observed_failures() {
        // A policy that checkpoints only once it has seen a failure: the
        // second pass over task 0 checkpoints where the first did not.
        struct AfterFirstFailure;
        impl Policy for AfterFirstFailure {
            fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
                Decision::keep_order(!ctx.failure_times.is_empty())
            }
        }
        let tasks = vec![task(100.0, 10.0, 0.0), task(100.0, 10.0, 0.0)];
        // Failure at t = 150: inside task 1's work (no checkpoint was taken
        // after task 0 on the first pass).
        let mut stream = ScriptedStream::new(vec![150.0]);
        let mut sink = RingBufferSink::new(64);
        let out = simulate_policy(&tasks, 0.0, 0.0, &mut AfterFirstFailure, &mut stream, &mut sink)
            .unwrap();
        let taken: Vec<bool> = decisions(&sink).into_iter().map(|(_, c)| c).collect();
        assert_eq!(taken, vec![false, true], "re-execution decision must flip");
        // Timeline: 150 lost, rollback to 0; re-run task 0 (100) + ckpt
        // (10) at 260, task 1 (100) + final ckpt (10) at 370.
        assert!((out.record.makespan - 370.0).abs() < 1e-9);
        assert_eq!(out.checkpoints, 2);
    }

    /// Runs `tasks` in `order` under `policy`, untraced.
    fn run_dag<P: Policy>(
        tasks: &[ChainTask],
        order: &[usize],
        initial_recovery: f64,
        downtime: f64,
        mut policy: P,
        stream: &mut dyn FailureStream,
    ) -> Result<PolicyExecutionRecord, SimulationError> {
        simulate_dag_policy(
            tasks,
            order,
            initial_recovery,
            downtime,
            &mut policy,
            stream,
            &mut NoopSink,
        )
    }

    #[test]
    fn dag_engine_with_identity_order_matches_the_chain_engine() {
        let tasks = vec![
            task(500.0, 60.0, 30.0),
            task(900.0, 45.0, 60.0),
            task(200.0, 20.0, 40.0),
            task(700.0, 80.0, 25.0),
        ];
        let order: Vec<usize> = (0..tasks.len()).collect();
        let flags = vec![true, false, true, true];
        for seed in 0..20u64 {
            let mut s1 = ExponentialStream::new(1.0 / 900.0, seed);
            let mut s2 = ExponentialStream::new(1.0 / 900.0, seed);
            let mut policy = Flags(flags.clone());
            let chain =
                simulate_policy(&tasks, 15.0, 25.0, &mut policy, &mut s1, &mut NoopSink).unwrap();
            let dag = run_dag(&tasks, &order, 15.0, 25.0, Flags(flags.clone()), &mut s2).unwrap();
            assert_eq!(chain, dag, "seed {seed}");
            assert_eq!(dag.reorders, 0);
            assert_eq!(dag.final_order, None);
        }
    }

    #[test]
    fn dag_engine_executes_through_the_order_indirection() {
        // Order [2, 0, 1]: position costs must come from the ordered tasks.
        let tasks = vec![task(100.0, 10.0, 5.0), task(200.0, 20.0, 6.0), task(300.0, 30.0, 7.0)];
        let policy = Flags(vec![true, false, false]);
        let out = run_dag(&tasks, &[2, 0, 1], 0.0, 0.0, policy, &mut NoFailureStream).unwrap();
        // 300 + 30 (ckpt after T2) + 100 + 200 + 20 (final ckpt = T1's).
        assert!((out.record.makespan - 650.0).abs() < 1e-9);
        assert_eq!(out.checkpoints, 2);
    }

    #[test]
    fn dag_rollback_recovers_with_the_ordered_tasks_recovery() {
        // Order [1, 0]; checkpoint after position 0 (task 1, recovery 80).
        // A failure during position 1's work must pay task 1's recovery.
        let tasks = vec![task(100.0, 0.0, 5.0), task(100.0, 10.0, 80.0)];
        let mut stream = ScriptedStream::new(vec![150.0]);
        let policy = Flags(vec![true, false]);
        let out = run_dag(&tasks, &[1, 0], 3.0, 7.0, policy, &mut stream).unwrap();
        // 100 + 10 (ckpt at 110); failure at 150 loses 40; downtime 7
        // (157), recovery 80 (237); re-run task 0 (100) -> 337; final ckpt
        // costs 0.
        assert!((out.record.makespan - 337.0).abs() < 1e-9, "makespan {}", out.record.makespan);
        assert!((out.record.breakdown.recovery - 80.0).abs() < 1e-9);
    }

    /// A policy that swaps the two tasks following the first boundary.
    struct SwapOnce {
        done: bool,
    }
    impl Policy for SwapOnce {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            if !self.done && ctx.suffix().len() >= 2 {
                self.done = true;
                let mut suffix = ctx.suffix().to_vec();
                suffix.swap(0, 1);
                return Decision { checkpoint: true, reorder_suffix: Some(suffix) };
            }
            Decision::keep_order(false)
        }
    }

    #[test]
    fn suffix_reorders_are_applied_and_counted() {
        let tasks = vec![task(100.0, 1.0, 1.0), task(200.0, 2.0, 2.0), task(300.0, 3.0, 3.0)];
        let policy = SwapOnce { done: false };
        let out = run_dag(&tasks, &[0, 1, 2], 0.0, 0.0, policy, &mut NoFailureStream).unwrap();
        assert_eq!(out.reorders, 1);
        assert_eq!(out.final_order, Some(vec![0, 2, 1]));
        // 100 + 1 (ckpt) + 300 + 200 + 2 (final ckpt = task 1's).
        assert!((out.record.makespan - 603.0).abs() < 1e-9);
    }

    /// A policy proposing a suffix that is not a permutation.
    struct BadReorder;
    impl Policy for BadReorder {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            Decision { checkpoint: false, reorder_suffix: Some(vec![ctx.task; ctx.suffix().len()]) }
        }
    }

    #[test]
    fn dag_engine_validates_orders_and_reorders() {
        let tasks = vec![task(1.0, 0.0, 0.0), task(1.0, 0.0, 0.0)];
        let never = || Flags(vec![false, false]);
        // Wrong length, out-of-range and duplicate initial orders.
        for bad in [vec![0usize], vec![0, 2], vec![0, 0]] {
            assert!(matches!(
                run_dag(&tasks, &bad, 0.0, 0.0, never(), &mut NoFailureStream),
                Err(SimulationError::InvalidTaskOrder)
            ));
        }
        assert!(matches!(
            run_dag(&tasks, &[0, 1], 0.0, 0.0, BadReorder, &mut NoFailureStream),
            Err(SimulationError::InvalidTaskOrder)
        ));
        assert!(matches!(
            run_dag(&[], &[], 0.0, 0.0, never(), &mut NoFailureStream),
            Err(SimulationError::EmptySchedule)
        ));
    }

    #[test]
    fn dag_logged_and_plain_runs_agree() {
        let tasks = vec![task(300.0, 30.0, 15.0), task(500.0, 25.0, 40.0), task(150.0, 10.0, 5.0)];
        let order = vec![0usize, 2, 1];
        for seed in 0..10u64 {
            let mut s1 = ExponentialStream::new(1.0 / 600.0, seed);
            let mut s2 = ExponentialStream::new(1.0 / 600.0, seed);
            let flags = || Flags(vec![true, false, true]);
            let plain = run_dag(&tasks, &order, 20.0, 12.0, flags(), &mut s1).unwrap();
            let mut sink = RingBufferSink::new(1024);
            let traced =
                simulate_dag_policy(&tasks, &order, 20.0, 12.0, &mut flags(), &mut s2, &mut sink)
                    .unwrap();
            assert_eq!(plain, traced, "seed {seed}");
            assert!(!sink.is_empty());
        }
    }

    #[test]
    fn logged_and_plain_policy_runs_agree() {
        let tasks = vec![task(300.0, 30.0, 15.0), task(500.0, 25.0, 40.0), task(150.0, 10.0, 5.0)];
        for seed in 0..15u64 {
            let mut s1 = ExponentialStream::new(1.0 / 600.0, seed);
            let mut s2 = ExponentialStream::new(1.0 / 600.0, seed);
            let flags = || Flags(vec![true, false, true]);
            let plain =
                simulate_policy(&tasks, 20.0, 12.0, &mut flags(), &mut s1, &mut NoopSink).unwrap();
            let mut sink = RingBufferSink::new(1024);
            let traced =
                simulate_policy(&tasks, 20.0, 12.0, &mut flags(), &mut s2, &mut sink).unwrap();
            assert_eq!(plain, traced, "seed {seed}");
            let failures = sink.events().filter(|e| e.name() == "failure").count() as u64;
            assert_eq!(traced.record.failures, failures, "seed {seed}");
        }
    }
}
