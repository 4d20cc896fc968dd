//! The §2 engine: a workflow runs as attempts, and a policy names each one.
//!
//! In the paper's §2 model a workflow runs as segments, each one atomic
//! `work + checkpoint` attempt. This module holds the one engine that
//! executes them. Whenever an attempt is about to start — at the start, after
//! a durable checkpoint, or after a completed recovery — the engine asks a
//! [`Policy`] where the attempt ends: the [`Decision`] names its last
//! position `through`, and the engine runs the work of positions
//! `position..=through` and the checkpoint after `through` as one phase,
//! with one failure-stream query. Every attempt therefore ends in a durable
//! checkpoint, and a failure rolls back to the attempt's own start.
//!
//! Consulting the policy only at attempt starts loses nothing. Between two
//! failures an execution is deterministic: a consultation that does not
//! checkpoint shows the policy no new failure, and the clock only advances
//! by the known work. Any plan that would decide "keep going" task by task
//! can be written as one attempt with a later `through`, and it sees the
//! same failures on renewal streams.
//!
//! [`simulate_dag_policy`] executes tasks in a caller-supplied order, and a
//! decision may also swap in a new order for the unexecuted suffix — the
//! "re-linearise the remaining graph after a failure" primitive the
//! `ckpt-adaptive` DAG policies build on. A chain is a DAG whose order is
//! forced: [`simulate_policy`] runs the same engine over the identity order.
//! A fixed schedule is a policy too: [`crate::engine::simulate`] replays its
//! segments as tasks with a checkpoint after every one. The concrete
//! adaptive policies live in the `ckpt-adaptive` crate; the matching
//! Monte-Carlo drivers are [`crate::montecarlo`]'s `try_run`, `run_policy`
//! and `run_dag_policy`.
//!
//! Semantics:
//!
//! 1. an attempt runs `work(position..=through) + C_through`, the work
//!    summed left to right ([`attempt_duration`]);
//! 2. on success the attempt is booked as useful time, and execution
//!    resumes at `through + 1`;
//! 3. a failure during the attempt loses the time elapsed in it, then costs a
//!    failure-free downtime `D` and an interruptible recovery (the recovery
//!    cost of the task at `position − 1`, or `R₀` at position 0), after which
//!    the policy is consulted again at the same position.
//!
//! Both entry points emit the execution's sim-domain events **live** into a
//! [`TelemetrySink`], in chronological order. Pass
//! [`NoopSink`](ckpt_telemetry::NoopSink) to run untraced: the sink's
//! `enabled()` is read once per run, and a disabled sink builds no event.
//! Every event carries an order position as `segment`:
//!
//! | event | `segment` | extra fields | emitted when |
//! |---|---|---|---|
//! | `policy_decision` | `position` | `through` | the policy named the next attempt |
//! | `attempt_started` | `position` | | the attempt's work starts |
//! | `failure` | `position` | `wasted` | a failure strikes an attempt or a recovery; `wasted` is the time lost since the attempt (or the recovery) started |
//! | `downtime_completed` | `position` | | the downtime after a failure ends |
//! | `recovery_completed` | `position` | | a recovery completes |
//! | `segment_completed` | `through` | | the attempt's checkpoint became durable |

use std::borrow::Cow;

use ckpt_telemetry::{TelemetrySink, TraceEvent};

use crate::engine::{ExecutionRecord, TimeBreakdown};
use crate::error::{ensure_non_negative, SimulationError};
use crate::rollback::{absorb_failure, attempt_duration, run_phase, PhaseOutcome};
use crate::stream::FailureStream;

/// Records one sim-domain event into the run's sink, if it is traced. Every
/// event carries an order position as `segment`, then its extra fields.
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
    /// that checkpoint (≥ 0). Every value must be finite.
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
    /// Makespan, failure count and time breakdown (`useful + lost +
    /// downtime + recovery` partitions the makespan).
    pub record: ExecutionRecord,
    /// Checkpoints taken: one per successful attempt, the final one
    /// included.
    pub checkpoints: u64,
    /// Policy consultations: one per attempt, re-executions included.
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
///   `initial_recovery` is negative or not finite;
/// * [`SimulationError::InvalidDecision`] if a decision names a `through`
///   outside `position..tasks.len()`.
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
    simulate_dag_policy(tasks, &order, initial_recovery, downtime, policy, stream, sink)
}

/// What a policy sees when an attempt is about to start.
///
/// The context carries the **current order** itself: a policy may not only
/// name the attempt's end but also swap in a new order for the unexecuted
/// suffix (a re-linearisation of the remaining graph), and it needs to see
/// the order it would be amending. On a chain the order is the identity.
#[derive(Debug, Clone, Copy)]
pub struct DecisionContext<'a> {
    /// The next position to run (an index into the current order). It is
    /// always the resume position: 0 before the first checkpoint, the
    /// position after the last durable checkpoint otherwise.
    pub position: usize,
    /// Current simulated time.
    pub clock: f64,
    /// Times of every failure observed so far, in increasing order.
    pub failure_times: &'a [f64],
    /// The current execution order (task indices); positions
    /// `0..position` are durable history, positions `position..` are the
    /// unexecuted suffix a [`Decision::reorder_suffix`] may permute.
    pub order: &'a [usize],
}

impl DecisionContext<'_> {
    /// The unexecuted suffix of the current order (positions `position..`)
    /// — the only part a decision may reorder.
    pub fn suffix(&self) -> &[usize] {
        &self.order[self.position..]
    }
}

/// What a [`Policy`] decides when an attempt is about to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The last position of the attempt: the engine runs the work of
    /// positions `position..=through` and checkpoints after `through`. Must
    /// lie in `position..n`; any other value fails the run with
    /// [`SimulationError::InvalidDecision`]. With a reorder it indexes the
    /// new order.
    pub through: usize,
    /// A replacement execution order for the **unexecuted suffix**
    /// (positions `position..`), as task indices. Must be a permutation of
    /// [`DecisionContext::suffix`] — the engine verifies the permutation
    /// and rejects the run with [`SimulationError::InvalidTaskOrder`]
    /// otherwise. **Precedence validity is the policy's contract**: the
    /// engine has no knowledge of the task graph, so policies must only
    /// propose suffixes that keep the whole order topological (the
    /// `ckpt-adaptive` DAG policies derive theirs from `ckpt_dag`
    /// re-linearisations, which guarantee it).
    pub reorder_suffix: Option<Vec<usize>>,
}

impl Decision {
    /// An attempt through `through` that leaves the order untouched — the
    /// only kind a chain policy makes.
    pub fn keep_order(through: usize) -> Self {
        Decision { through, reorder_suffix: None }
    }
}

/// The last position of the attempt that a fixed checkpoint placement
/// starts at `position`, out of `n > 0` positions: the first position in
/// `position..n − 1` that `checkpoint_after` flags, or `n − 1`, which is
/// always checkpointed. Flags at or past `n − 1` are ignored, and positions
/// past the end of a short `checkpoint_after` read as unflagged.
pub fn next_checkpoint(checkpoint_after: &[bool], position: usize, n: usize) -> usize {
    let last = n - 1;
    let flagged = checkpoint_after.iter().take(last).skip(position).position(|&c| c);
    flagged.map_or(last, |k| position + k)
}

/// An online checkpoint policy, consulted whenever an attempt of a chain or
/// a linearised DAG is about to start: "which position does the next
/// checkpoint follow?", and optionally "re-order the remaining tasks" (see
/// [`Decision`]).
///
/// Implementations may carry arbitrary mutable state (a running failure-rate
/// estimate, a re-solved plan); one policy value drives one execution. The
/// Monte-Carlo drivers build a fresh policy per trial through a factory, so
/// trials stay independent and the threading deterministic.
pub trait Policy {
    /// The next attempt, given the execution state in `ctx`.
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
/// `policy` consulted before every attempt. Events go to `sink` (see the
/// module docs).
///
/// A successful attempt through position `p` durably commits positions
/// `0..=p`, and a failure rolls back to the attempt's start. Decisions may
/// also swap in a new order for the unexecuted suffix (see [`Decision`]);
/// the engine verifies each proposed suffix is a permutation of the current
/// one. A chain executed with the identity order is exactly
/// [`simulate_policy`].
///
/// # Errors
///
/// * [`SimulationError::EmptySchedule`] if `tasks` is empty;
/// * [`SimulationError::InvalidTaskOrder`] if `order` is not a permutation
///   of `0..tasks.len()`, or a decision proposes a suffix that is not a
///   permutation of the unexecuted suffix;
/// * [`SimulationError::InvalidDecision`] if a decision names a `through`
///   outside `position..tasks.len()`;
/// * [`SimulationError::NegativeParameter`] if `downtime` or
///   `initial_recovery` is negative or not finite.
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
    let mut failure_times = Vec::new();
    execute(tasks, order, initial_recovery, downtime, policy, stream, &mut failure_times, sink)
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

/// The engine: the one §2 attempt loop. The inputs must have passed
/// [`validate`]. `failure_times` is the caller's buffer (the Monte-Carlo
/// drivers keep one per worker); it is cleared first and holds the run's
/// failure times on return. The sink is generic so that the untraced
/// drivers, which pass `NoopSink` itself, compile every event away.
#[allow(clippy::too_many_arguments)] // the engine's inputs, one call site per driver
pub(crate) fn execute<P, S, T>(
    tasks: &[ChainTask],
    order: &[usize],
    initial_recovery: f64,
    downtime: f64,
    policy: &mut P,
    stream: &mut S,
    failure_times: &mut Vec<f64>,
    sink: &mut T,
) -> Result<PolicyExecutionRecord, SimulationError>
where
    P: Policy + ?Sized,
    S: FailureStream + ?Sized,
    T: TelemetrySink + ?Sized,
{
    let n = tasks.len();
    let mut trace = if sink.enabled() { Some(sink) } else { None };
    // The order is borrowed until the first reorder copies it; the
    // permutation bitmap is allocated on that first reorder too.
    let mut order = Cow::Borrowed(order);
    let mut seen: Vec<bool> = Vec::new();
    failure_times.clear();
    let mut clock = 0.0f64;
    let mut breakdown = TimeBreakdown::default();
    let (mut checkpoints, mut decisions, mut reorders) = (0u64, 0u64, 0u64);
    let mut position = 0usize;

    while position < n {
        let decision =
            policy.decide(&DecisionContext { position, clock, failure_times, order: &order });
        decisions += 1;
        if let Some(suffix) = decision.reorder_suffix {
            if seen.is_empty() {
                seen = vec![false; n];
            }
            if !is_permutation_of(&order[position..], &suffix, &mut seen) {
                return Err(SimulationError::InvalidTaskOrder);
            }
            order.to_mut()[position..].copy_from_slice(&suffix);
            reorders += 1;
        }
        let through = decision.through;
        if !(position..n).contains(&through) {
            return Err(SimulationError::InvalidDecision { position, through, tasks: n });
        }
        emit!(trace, "policy_decision", clock, position, "through" => through);
        emit!(trace, "attempt_started", clock, position);

        let attempt = attempt_duration(
            order[position..=through].iter().map(|&t| tasks[t].work),
            tasks[order[through]].checkpoint,
        );
        let PhaseOutcome::Failed { at } = run_phase(stream, &mut clock, attempt) else {
            breakdown.useful += attempt;
            checkpoints += 1;
            emit!(trace, "segment_completed", clock, through);
            position = through + 1;
            continue;
        };

        // Roll back to the attempt's start: downtime, then an interruptible
        // recovery of the last durable state.
        emit!(trace, "failure", at, position, "wasted" => at - clock);
        failure_times.push(at);
        absorb_failure(at, downtime, &mut clock, &mut breakdown.lost, &mut breakdown.downtime);
        emit!(trace, "downtime_completed", clock, position);
        let recovery =
            if position == 0 { initial_recovery } else { tasks[order[position - 1]].recovery };
        if recovery > 0.0 {
            while let PhaseOutcome::Failed { at } = run_phase(stream, &mut clock, recovery) {
                emit!(trace, "failure", at, position, "wasted" => at - clock);
                failure_times.push(at);
                absorb_failure(
                    at,
                    downtime,
                    &mut clock,
                    &mut breakdown.recovery,
                    &mut breakdown.downtime,
                );
                emit!(trace, "downtime_completed", clock, position);
            }
            breakdown.recovery += recovery;
            emit!(trace, "recovery_completed", clock, position);
        }
    }

    Ok(PolicyExecutionRecord {
        record: ExecutionRecord {
            makespan: clock,
            failures: failure_times.len() as u64,
            breakdown,
        },
        checkpoints,
        decisions,
        reorders,
        final_order: match order {
            Cow::Owned(order) => Some(order),
            Cow::Borrowed(_) => None,
        },
    })
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

    /// A policy replaying per-position checkpoint flags, never reordering:
    /// each attempt runs through the next flagged position, or to the end.
    struct Flags(Vec<bool>);
    impl Policy for Flags {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            Decision::keep_order(next_checkpoint(&self.0, ctx.position, ctx.order.len()))
        }
    }

    /// A policy that only checkpoints at the end.
    struct Never;
    impl Policy for Never {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            Decision::keep_order(ctx.order.len() - 1)
        }
    }

    #[test]
    fn next_checkpoint_runs_through_the_next_flag_or_the_last_position() {
        let flags = [false, true, false, true, true];
        assert_eq!(next_checkpoint(&flags, 0, 5), 1);
        assert_eq!(next_checkpoint(&flags, 1, 5), 1);
        assert_eq!(next_checkpoint(&flags, 2, 5), 3);
        assert_eq!(next_checkpoint(&flags, 4, 5), 4);
        // Flags at or past n − 1 are ignored; a short vector is unflagged
        // past its end.
        assert_eq!(next_checkpoint(&flags, 0, 2), 1);
        assert_eq!(next_checkpoint(&[true, true], 0, 1), 0);
        assert_eq!(next_checkpoint(&[], 0, 3), 2);
        assert_eq!(next_checkpoint(&[true], 1, 3), 2);
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
        // One attempt through the last task: its checkpoint is the only one.
        assert_eq!(out.checkpoints, 1);
        assert_eq!(out.decisions, 1);
        assert_eq!(out.record.makespan, 320.0);
        assert_eq!(out.record.breakdown.useful, 320.0);
        assert_eq!(out.record.failures, 0);
        assert_eq!(out.final_order, None);
    }

    #[test]
    fn static_flags_match_the_fixed_schedule_engine() {
        // The same plan, played through the policy engine and through
        // `simulate` on the equivalent segments, must agree bit for bit on
        // identical failure streams: both run one attempt per segment.
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
            assert_eq!(fixed.makespan.to_bits(), online.record.makespan.to_bits(), "seed {seed}");
            let (f, o) = (fixed.breakdown, online.record.breakdown);
            for (a, b) in [
                (f.useful, o.useful),
                (f.lost, o.lost),
                (f.downtime, o.downtime),
                (f.recovery, o.recovery),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
            }
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
        // Every duration is a short dyadic fraction, so the partition is
        // exact.
        assert_eq!(out.record.breakdown.total(), out.record.makespan);
        // 30 and 60 strike task 0's attempts, 200 task 1's work and 390 task
        // 1's checkpoint.
        assert_eq!(out.record.failures, 4);
        assert_eq!(out.record.makespan, 667.5);
    }

    #[test]
    fn scripted_failure_emits_the_sim_vocabulary() {
        // One task: failure at t = 30, downtime 5, recovery 20, then a
        // clean re-attempt through the task and its checkpoint.
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
        assert_eq!(out.record.makespan, 165.0);
        assert_eq!(
            events(&sink),
            vec![
                ("policy_decision", 0),
                ("attempt_started", 0),
                ("failure", 0),
                ("downtime_completed", 0),
                ("recovery_completed", 0),
                ("policy_decision", 0),
                ("attempt_started", 0),
                ("segment_completed", 0),
            ]
        );
        let times: Vec<f64> = sink.events().map(|e| e.time()).collect();
        assert_eq!(times, vec![0.0, 0.0, 30.0, 35.0, 55.0, 55.0, 55.0, 165.0]);
        assert!(sink.events().all(|e| e.domain() == TimeDomain::Sim));
        let failure = sink.events().nth(2).unwrap();
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
        // 20). Failure at t = 250, i.e. 140 s into the attempt through tasks
        // 1 and 2: roll back to task 1, not 0.
        let tasks = vec![task(100.0, 10.0, 20.0), task(100.0, 0.0, 0.0), task(100.0, 0.0, 0.0)];
        let mut stream = ScriptedStream::new(vec![250.0]);
        let mut policy = Flags(vec![true, false, false]);
        let mut sink = RingBufferSink::new(64);
        let out = simulate_policy(&tasks, 5.0, 8.0, &mut policy, &mut stream, &mut sink).unwrap();
        // Timeline: ckpt done at 110; failure at 250 loses 140; downtime 8
        // (258), recovery 20 (278); re-run tasks 1..2 (200) -> 478, whose
        // final checkpoint costs 0.
        assert_eq!(out.record.makespan, 478.0);
        assert_eq!(out.record.breakdown.lost, 140.0);
        assert_eq!(out.record.failures, 1);
        // Position 0 is attempted once, the attempt from position 1 twice,
        // and position 2 never starts an attempt of its own.
        let attempts =
            |p: usize| events(&sink).iter().filter(|&&e| e == ("attempt_started", p)).count();
        assert_eq!((attempts(0), attempts(1), attempts(2)), (1, 2, 0));
        let completed: Vec<usize> = events(&sink)
            .into_iter()
            .filter_map(|(name, p)| (name == "segment_completed").then_some(p))
            .collect();
        assert_eq!(completed, vec![0, 2]);
    }

    /// Counts the queries it forwards to the wrapped stream.
    struct Counting<S>(S, u64);
    impl<S: FailureStream> FailureStream for Counting<S> {
        fn next_failure_after(&mut self, after: f64) -> Option<f64> {
            self.1 += 1;
            self.0.next_failure_after(after)
        }
    }

    #[test]
    fn one_stream_query_per_attempt() {
        // Recovery is free, so every query is an attempt's: one per
        // decision, however many tasks the attempt fuses.
        let tasks = vec![task(100.0, 10.0, 0.0), task(50.0, 5.0, 0.0), task(70.0, 7.0, 0.0)];
        let script = vec![30.0, 150.0, 190.0, 400.0];
        for flags in [vec![false, false, false], vec![true, false, false], vec![true, true, true]] {
            let mut stream = Counting(ScriptedStream::new(script.clone()), 0);
            let out =
                simulate_policy(&tasks, 0.0, 2.0, &mut Flags(flags), &mut stream, &mut NoopSink)
                    .unwrap();
            assert!(out.record.failures > 0);
            assert_eq!(stream.1, out.decisions);
            assert_eq!(out.decisions, out.checkpoints + out.record.failures);
        }
    }

    /// The `(segment, through)` of every `policy_decision` event.
    fn decisions(sink: &RingBufferSink) -> Vec<(usize, usize)> {
        sink.events()
            .filter(|e| e.name() == "policy_decision")
            .map(|e| match e.fields() {
                [(_, FieldValue::U64(segment)), (_, FieldValue::U64(through))] => {
                    (*segment as usize, *through as usize)
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
        // One decision per attempt: through task 1, then through the end.
        assert_eq!(decisions(&sink), vec![(0, 1), (2, 2)]);
        assert_eq!(out.decisions, 2);
        assert_eq!(out.checkpoints, 2);
        assert_eq!(out.record.makespan, 32.0);
    }

    #[test]
    fn policy_can_adapt_to_observed_failures() {
        // A policy that checkpoints after every task only once it has seen a
        // failure: the attempt after the recovery is shorter than the one
        // the failure struck.
        struct AfterFirstFailure;
        impl Policy for AfterFirstFailure {
            fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
                let last = ctx.order.len() - 1;
                Decision::keep_order(if ctx.failure_times.is_empty() { last } else { ctx.position })
            }
        }
        let tasks = vec![task(100.0, 10.0, 0.0), task(100.0, 10.0, 0.0)];
        // Failure at t = 150: inside the first attempt (both tasks).
        let mut stream = ScriptedStream::new(vec![150.0]);
        let mut sink = RingBufferSink::new(64);
        let out = simulate_policy(&tasks, 0.0, 0.0, &mut AfterFirstFailure, &mut stream, &mut sink)
            .unwrap();
        assert_eq!(decisions(&sink), vec![(0, 1), (0, 0), (1, 1)], "the re-attempt must shrink");
        // Timeline: 150 lost, rollback to 0; re-run task 0 (100) + ckpt
        // (10) at 260, task 1 (100) + ckpt (10) at 370.
        assert_eq!(out.record.makespan, 370.0);
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
        assert_eq!(out.record.makespan, 650.0);
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
        assert_eq!(out.record.makespan, 337.0);
        assert_eq!(out.record.breakdown.recovery, 80.0);
    }

    /// A policy that checkpoints after position 0, then swaps the next two
    /// tasks once and runs to the end.
    struct SwapOnce {
        done: bool,
    }
    impl Policy for SwapOnce {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            if !self.done && ctx.position > 0 && ctx.suffix().len() >= 2 {
                self.done = true;
                let mut suffix = ctx.suffix().to_vec();
                suffix.swap(0, 1);
                return Decision { through: ctx.order.len() - 1, reorder_suffix: Some(suffix) };
            }
            Decision::keep_order(ctx.position)
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
        assert_eq!(out.record.makespan, 603.0);
    }

    /// A policy proposing a suffix that is not a permutation.
    struct BadReorder;
    impl Policy for BadReorder {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            let suffix = vec![ctx.suffix()[0]; ctx.suffix().len()];
            Decision { through: ctx.position, reorder_suffix: Some(suffix) }
        }
    }

    /// A policy naming a fixed `through`, whatever the position.
    struct Through(usize);
    impl Policy for Through {
        fn decide(&mut self, _ctx: &DecisionContext<'_>) -> Decision {
            Decision::keep_order(self.0)
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
        // `through` past the last task, and behind the position once the
        // first attempt committed position 0 (and 1 would be next).
        assert_eq!(
            run_dag(&tasks, &[0, 1], 0.0, 0.0, Through(2), &mut NoFailureStream),
            Err(SimulationError::InvalidDecision { position: 0, through: 2, tasks: 2 })
        );
        assert_eq!(
            run_dag(&tasks, &[0, 1], 0.0, 0.0, Through(0), &mut NoFailureStream),
            Err(SimulationError::InvalidDecision { position: 1, through: 0, tasks: 2 })
        );
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
            let attempts = sink.events().filter(|e| e.name() == "attempt_started").count() as u64;
            assert_eq!(traced.decisions, attempts, "seed {seed}");
        }
    }
}
