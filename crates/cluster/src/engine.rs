//! The deterministic event-driven cluster engine.
//!
//! A pool of machines executes many chain jobs concurrently. Each dispatched
//! job is simulated **synchronously** on its machine with the exact §2
//! semantics of the single-machine chain engine: the job's static plan names
//! each attempt, which runs its tasks' work and the checkpoint after the
//! last one as one phase, through the same
//! [`attempt_duration`]/[`run_phase`]/[`absorb_failure`] helpers called in
//! the same order. A single-machine, no-migration, no-replica cluster run is
//! therefore **bitwise identical** to
//! [`simulate_policy`](ckpt_simulator::simulate_policy). Synchronous
//! run-ahead is sound because machines own disjoint failure streams and a
//! running job cannot be preempted: cross-machine interaction happens only
//! through the ready queue and replica attachment, both resolved at
//! event-processing times.
//!
//! On a machine failure the job's [`ClusterPolicy`] picks a
//! [`FailureAction`]:
//!
//! * **restart** — the job holds the machine, waits out the §2 downtime and
//!   any remaining machine repair, and recovers in place;
//! * **migrate** — the job re-enters the ready queue (plus retry backoff once
//!   its budget is exhausted) and pays the migration overhead at its next
//!   dispatch, on whichever machine picks it up;
//! * **failover** — the job continues immediately on the warm replica it paid
//!   to keep (checkpoints were inflated by the replication factor, and the
//!   replica machine was reserved). The replica watches its own failure
//!   stream while standing by, so a correlated burst can kill it together
//!   with the primary — failover then degrades to a restart.
//!
//! **Graceful degradation**: when no machine is idle (all busy or repairing),
//! ready jobs simply wait in FIFO order — queue depth and per-job waiting
//! time grow, but no error is produced; repairs eventually free machines and
//! the queue drains.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::{ensure_non_negative, ClusterError};
use crate::job::{ClusterJob, JobRecord};
use crate::policy::{ClusterPolicy, FailureAction, FailureContext};
use crate::source::{MachineFailureSource, MachineStream};
use ckpt_simulator::rollback::{absorb_failure, attempt_duration, run_phase, PhaseOutcome};
use ckpt_simulator::{next_checkpoint, ExecutionRecord, TimeBreakdown};
use ckpt_telemetry::{TelemetrySink, TraceEvent};

/// Safety cap on the events one [`run_cluster`] call processes — a livelock
/// guard, not a tuning knob.
const EVENT_CAP: u64 = 1_000_000;

/// Cluster-level cost and robustness knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    migration_overhead: f64,
    failover_overhead: f64,
    replication_checkpoint_factor: f64,
    retry_budget: u64,
    backoff_base: f64,
    backoff_cap: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            migration_overhead: 0.0,
            failover_overhead: 0.0,
            replication_checkpoint_factor: 1.0,
            retry_budget: 8,
            backoff_base: 0.0,
            backoff_cap: 0.0,
        }
    }
}

impl ClusterConfig {
    /// Default migration overhead handed to policies (builder style).
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] if the value is negative or non-finite.
    pub fn with_migration_overhead(mut self, value: f64) -> Result<Self, ClusterError> {
        self.migration_overhead = ensure_non_negative("migration_overhead", value)?;
        Ok(self)
    }

    /// Overhead paid when failing over to the replica (builder style).
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] if the value is negative or non-finite.
    pub fn with_failover_overhead(mut self, value: f64) -> Result<Self, ClusterError> {
        self.failover_overhead = ensure_non_negative("failover_overhead", value)?;
        Ok(self)
    }

    /// Multiplier (≥ 1) applied to checkpoint costs while a replica is
    /// attached — shipping state to the replica makes checkpoints dearer
    /// (builder style).
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] if the factor is below 1 or non-finite.
    pub fn with_replication_checkpoint_factor(mut self, value: f64) -> Result<Self, ClusterError> {
        if !value.is_finite() || value < 1.0 {
            return Err(ClusterError::InvalidParameter {
                name: "replication_checkpoint_factor",
                value,
            });
        }
        self.replication_checkpoint_factor = value;
        Ok(self)
    }

    /// Failures a job may absorb before migration re-admissions start paying
    /// exponential backoff (builder style).
    pub fn with_retry_budget(mut self, budget: u64) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Backoff parameters: re-admission `i` beyond the retry budget waits
    /// `base · 2^(i−1)`, capped at `cap` (builder style).
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] if either value is negative or non-finite.
    pub fn with_backoff(mut self, base: f64, cap: f64) -> Result<Self, ClusterError> {
        self.backoff_base = ensure_non_negative("backoff_base", base)?;
        self.backoff_cap = ensure_non_negative("backoff_cap", cap)?;
        Ok(self)
    }

    /// The default migration overhead.
    pub fn migration_overhead(&self) -> f64 {
        self.migration_overhead
    }
}

/// The outcome of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Per-job outcomes, in job order.
    pub jobs: Vec<JobRecord>,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Useful machine utilisation: total useful work over
    /// `machines × makespan`.
    pub utilisation: f64,
    /// Largest number of jobs simultaneously waiting for a machine — the
    /// graceful-degradation observable.
    pub peak_queue_depth: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A job entered (or re-entered) the ready queue.
    JobReady(usize),
    /// A machine became idle (job completed, or repair finished after the
    /// job left it).
    MachineFreed(usize),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, ties
        // broken by insertion order for determinism.
        other.time.total_cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
struct EventQueue {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }
}

/// Mutable per-job execution state (the chain-engine state plus cluster
/// metadata), persisted across migrations.
#[derive(Debug)]
struct JobState {
    /// The next position to run: the position after the last durable
    /// checkpoint, since every attempt ends in one.
    position: usize,
    failures: u64,
    breakdown: TimeBreakdown,
    checkpoints: u64,
    decisions: u64,
    retries: u64,
    waiting: f64,
    migrations: u64,
    failovers: u64,
    /// Overhead to pay at the next dispatch (migration cost).
    pending_overhead: f64,
    /// Whether the next execution episode starts with a recovery.
    needs_recovery: bool,
    /// When the job entered the ready queue (to account waiting).
    ready_since: f64,
    completed_at: Option<f64>,
}

impl JobState {
    fn new() -> Self {
        JobState {
            position: 0,
            failures: 0,
            breakdown: TimeBreakdown::default(),
            checkpoints: 0,
            decisions: 0,
            retries: 0,
            waiting: 0.0,
            migrations: 0,
            failovers: 0,
            pending_overhead: 0.0,
            needs_recovery: false,
            ready_since: 0.0,
            completed_at: None,
        }
    }
}

/// How an execution episode left the machine-failure handler.
enum AfterFailure {
    /// Keep executing (possibly on the replica after a failover): re-enter
    /// the recovery phase on the current machine.
    Resume,
    /// The job left its machine (migration): re-enqueue at `ready_at`.
    Leave { ready_at: f64 },
}

/// Runs `jobs` on a pool of `machines` machines whose failures come from
/// `source`, consulting `policy` on every machine failure.
///
/// Returns one [`JobRecord`] per job (same order) plus cluster-level
/// aggregates. Jobs queue FIFO; machines are picked lowest-index-first; every
/// tie is broken deterministically, so a run is a pure function of its
/// inputs.
///
/// Every engine transition (job ready, dispatch, machine failure, repair,
/// migration, failover, replica loss, queue-depth change, job completion,
/// standby release) is recorded into `sink` as a **sim-domain**
/// [`TraceEvent`], stamped with simulated time. Pass
/// [`NoopSink`](ckpt_telemetry::NoopSink) to run untraced: every emission
/// site guards on `sink.enabled()`, so a disabled sink builds no event. The
/// outcome does not depend on the sink (instrumentation is observation-only),
/// and the emitted event stream is itself a pure function of the inputs.
///
/// # Errors
///
/// * [`ClusterError::EmptyCluster`] if `machines == 0`;
/// * [`ClusterError::NoJobs`] if `jobs` is empty;
/// * [`ClusterError::MachineCountMismatch`] if `source` covers fewer than
///   `machines` machines;
/// * [`ClusterError::PlanLengthMismatch`] if a job's plan is inconsistent
///   (jobs constructed via [`ClusterJob::new`] cannot trip this);
/// * [`ClusterError::EventCapExceeded`] if the simulation fails to make
///   progress within the configured event cap.
pub fn run_cluster<S, P>(
    jobs: &[ClusterJob],
    machines: usize,
    source: &mut S,
    policy: &mut P,
    config: &ClusterConfig,
    sink: &mut dyn TelemetrySink,
) -> Result<ClusterOutcome, ClusterError>
where
    S: MachineFailureSource + ?Sized,
    P: ClusterPolicy + ?Sized,
{
    if machines == 0 {
        return Err(ClusterError::EmptyCluster);
    }
    if jobs.is_empty() {
        return Err(ClusterError::NoJobs);
    }
    if source.machine_count() < machines {
        return Err(ClusterError::MachineCountMismatch {
            machines,
            source: source.machine_count(),
        });
    }
    for (j, job) in jobs.iter().enumerate() {
        if job.plan().len() != job.tasks().len() {
            return Err(ClusterError::PlanLengthMismatch {
                job: j,
                plan: job.plan().len(),
                tasks: job.tasks().len(),
            });
        }
    }

    let mut states: Vec<JobState> = jobs.iter().map(|_| JobState::new()).collect();
    let mut idle = vec![true; machines];
    let mut events = EventQueue::new();
    for j in 0..jobs.len() {
        events.push(0.0, EventKind::JobReady(j));
    }

    let mut ready: Vec<usize> = Vec::new();
    let mut peak_queue_depth = 0usize;
    let mut processed = 0u64;

    while let Some(first) = events.pop() {
        let now = first.time;
        // Drain every event at this exact instant before dispatching, so
        // simultaneous ready jobs contend (and are measured) together.
        let mut next = Some(first);
        while let Some(event) = next {
            processed += 1;
            if processed > EVENT_CAP {
                return Err(ClusterError::EventCapExceeded { cap: EVENT_CAP });
            }
            match event.kind {
                EventKind::JobReady(j) => {
                    ready.push(j);
                    if sink.enabled() {
                        sink.record(&TraceEvent::sim("job_ready", now).with("job", j));
                    }
                }
                EventKind::MachineFreed(m) => {
                    idle[m] = true;
                    if sink.enabled() {
                        sink.record(&TraceEvent::sim("machine_up", now).with("machine", m));
                    }
                }
            }
            next = if events.peek_time() == Some(now) { events.pop() } else { None };
        }
        peak_queue_depth = peak_queue_depth.max(ready.len());
        if sink.enabled() {
            sink.record(
                &TraceEvent::sim("queue_depth", now)
                    .with("depth", ready.len())
                    .with("idle_machines", idle.iter().filter(|&&free| free).count()),
            );
        }

        // Dispatch as many ready jobs as there are idle machines, FIFO,
        // lowest machine index first.
        while !ready.is_empty() {
            let Some(machine) = idle.iter().position(|&free| free) else { break };
            let j = ready.remove(0);
            idle[machine] = false;
            // Reserve the replica from the remaining idle machines; when the
            // pool is too busy the job simply runs unreplicated.
            let buddy = if jobs[j].replica_requested() {
                let b = idle.iter().position(|&free| free);
                if let Some(b) = b {
                    idle[b] = false;
                }
                b
            } else {
                None
            };
            if sink.enabled() {
                let mut dispatch = TraceEvent::sim("dispatch", now)
                    .with("job", j)
                    .with("machine", machine)
                    .with("waited", now - states[j].ready_since);
                if let Some(b) = buddy {
                    dispatch = dispatch.with("replica", b);
                }
                sink.record(&dispatch);
            }
            states[j].waiting += now - states[j].ready_since;
            run_episode(
                jobs,
                &mut states,
                &idle,
                &mut events,
                source,
                policy,
                config,
                j,
                machine,
                buddy,
                now,
                sink,
            );
        }
    }

    let mut records = Vec::with_capacity(jobs.len());
    let mut makespan = 0.0f64;
    let mut useful = 0.0f64;
    for state in &states {
        let completed_at =
            state.completed_at.ok_or(ClusterError::EventCapExceeded { cap: EVENT_CAP })?;
        makespan = makespan.max(completed_at);
        useful += state.breakdown.useful;
        records.push(JobRecord {
            record: ExecutionRecord {
                makespan: completed_at,
                failures: state.failures,
                breakdown: state.breakdown,
            },
            checkpoints: state.checkpoints,
            decisions: state.decisions,
            waiting: state.waiting,
            migrations: state.migrations,
            failovers: state.failovers,
            completed_at,
        });
    }
    let utilisation = if makespan > 0.0 { useful / (machines as f64 * makespan) } else { 0.0 };
    Ok(ClusterOutcome { jobs: records, makespan, utilisation, peak_queue_depth })
}

/// One execution episode: job `j` runs on `machine` (with an optional standby
/// `buddy`) from `start` until it completes or migrates away. Mirrors the
/// simulator's engine loop exactly on the restart path.
#[allow(clippy::too_many_arguments)] // flat engine state, one call site
fn run_episode<S, P>(
    jobs: &[ClusterJob],
    states: &mut [JobState],
    idle: &[bool],
    events: &mut EventQueue,
    source: &mut S,
    policy: &mut P,
    config: &ClusterConfig,
    j: usize,
    mut machine: usize,
    mut buddy: Option<usize>,
    start: f64,
    sink: &mut dyn TelemetrySink,
) where
    S: MachineFailureSource + ?Sized,
    P: ClusterPolicy + ?Sized,
{
    let job = &jobs[j];
    let tasks = job.tasks();
    let n = tasks.len();
    let downtime = job.downtime();
    let mut clock = start;
    // When the buddy started standing by — its failure stream is inspected
    // from here on failover attempts.
    let watch_from = start;

    // Handles a failure at `$at` that struck a phase whose elapsed time goes
    // to `$wasted`; leaves the episode if the job migrates away.
    macro_rules! on_failure {
        ($at:expr, $wasted:ident) => {{
            let st = &mut states[j];
            st.failures += 1;
            st.needs_recovery = true;
            let b = &mut st.breakdown;
            absorb_failure($at, downtime, &mut clock, &mut b.$wasted, &mut b.downtime);
            let after = failure_decision(
                source,
                policy,
                config,
                idle,
                events,
                st,
                job,
                j,
                &mut machine,
                &mut buddy,
                watch_from,
                &mut clock,
                $at,
                sink,
            );
            if let AfterFailure::Leave { ready_at } = after {
                leave(states, events, j, clock, ready_at);
                return;
            }
        }};
    }

    loop {
        // Entry overhead: migration cost carried from the previous episode,
        // booked as downtime (the §2 bucket for failure-induced waiting).
        if states[j].pending_overhead > 0.0 {
            clock += states[j].pending_overhead;
            states[j].breakdown.downtime += states[j].pending_overhead;
            states[j].pending_overhead = 0.0;
        }

        let position = states[j].position;
        if states[j].needs_recovery {
            let recovery = match position {
                0 => job.initial_recovery(),
                p => tasks[p - 1].recovery(),
            };
            if recovery > 0.0 {
                let stream = &mut MachineStream::new(source, machine);
                if let PhaseOutcome::Failed { at } = run_phase(stream, &mut clock, recovery) {
                    on_failure!(at, recovery);
                    continue;
                }
                states[j].breakdown.recovery += recovery;
            }
            states[j].needs_recovery = false;
        }
        if position == n {
            break;
        }

        // The static plan names the attempt, by `StaticPlan`'s rule (counted
        // like the chain engine's policy consultations).
        let through = next_checkpoint(job.plan(), position, n);
        states[j].decisions += 1;
        // Shipping state to an attached replica inflates the checkpoint.
        let base = tasks[through].checkpoint();
        let ckpt = if buddy.is_some() { base * config.replication_checkpoint_factor } else { base };
        let attempt = attempt_duration(tasks[position..=through].iter().map(|t| t.work()), ckpt);
        let stream = &mut MachineStream::new(source, machine);
        if let PhaseOutcome::Failed { at } = run_phase(stream, &mut clock, attempt) {
            on_failure!(at, lost);
            continue;
        }
        let st = &mut states[j];
        st.breakdown.useful += attempt;
        st.checkpoints += 1;
        st.position = through + 1;
    }

    // Chain complete.
    states[j].completed_at = Some(clock);
    if sink.enabled() {
        sink.record(
            &TraceEvent::sim("job_complete", clock).with("job", j).with("machine", machine),
        );
    }
    events.push(clock, EventKind::MachineFreed(machine));
    if let Some(b) = buddy {
        release_standby(source, events, b, watch_from, clock, sink);
    }
}

/// Book a migration departure: the job left its machine at `left_at` and
/// re-enters the queue at `ready_at`. Waiting accrues from `left_at`, so any
/// retry backoff (`ready_at − left_at`) is accounted as queue time and the
/// makespan decomposition stays exact.
fn leave(states: &mut [JobState], events: &mut EventQueue, j: usize, left_at: f64, ready_at: f64) {
    states[j].ready_since = left_at;
    events.push(ready_at, EventKind::JobReady(j));
}

/// Release a standby machine at episode end: if it silently failed while
/// watching, it must repair before rejoining the pool.
fn release_standby<S: MachineFailureSource + ?Sized>(
    source: &mut S,
    events: &mut EventQueue,
    standby: usize,
    watch_from: f64,
    now: f64,
    sink: &mut dyn TelemetrySink,
) {
    let failed_at = source.next_failure_after(standby, watch_from);
    if failed_at <= now {
        let done = source.begin_repair(standby, failed_at);
        if sink.enabled() {
            sink.record(
                &TraceEvent::sim("standby_release", now)
                    .with("machine", standby)
                    .with("failed", true)
                    .with("repair_done", done),
            );
        }
        events.push(done.max(now), EventKind::MachineFreed(standby));
    } else {
        if sink.enabled() {
            sink.record(
                &TraceEvent::sim("standby_release", now)
                    .with("machine", standby)
                    .with("failed", false),
            );
        }
        events.push(now, EventKind::MachineFreed(standby));
    }
}

/// Handle a machine failure at `at`: repair the machine, consult the policy
/// and apply the chosen action. The §2 downtime has already been absorbed
/// (the clock sits at `at + D`).
#[allow(clippy::too_many_arguments)] // flat engine state, called from two phases
fn failure_decision<S, P>(
    source: &mut S,
    policy: &mut P,
    config: &ClusterConfig,
    idle: &[bool],
    events: &mut EventQueue,
    st: &mut JobState,
    job: &ClusterJob,
    j: usize,
    machine: &mut usize,
    buddy: &mut Option<usize>,
    watch_from: f64,
    clock: &mut f64,
    at: f64,
    sink: &mut dyn TelemetrySink,
) -> AfterFailure
where
    S: MachineFailureSource + ?Sized,
    P: ClusterPolicy + ?Sized,
{
    st.retries += 1;
    let repair_done = source.begin_repair(*machine, at);
    if sink.enabled() {
        sink.record(
            &TraceEvent::sim("machine_failure", at)
                .with("machine", *machine)
                .with("job", j)
                .with("retries", st.retries)
                .with("resume_position", st.position)
                .with("repair_done", repair_done),
        );
    }

    // Is the replica still alive? Its stream is inspected (not consumed past
    // the failure instant); a dead replica goes to repair and detaches.
    let mut replica_alive = false;
    if let Some(b) = *buddy {
        let buddy_failed_at = source.next_failure_after(b, watch_from);
        if buddy_failed_at <= at {
            let done = source.begin_repair(b, buddy_failed_at);
            if sink.enabled() {
                sink.record(
                    &TraceEvent::sim("replica_lost", at)
                        .with("machine", b)
                        .with("job", j)
                        .with("failed_at", buddy_failed_at)
                        .with("repair_done", done),
                );
            }
            events.push(done.max(at), EventKind::MachineFreed(b));
            *buddy = None;
        } else {
            replica_alive = true;
        }
    }

    let resume = st.position;
    let remaining_work: f64 = job.tasks()[resume..].iter().map(|t| t.work()).sum();
    let ctx = FailureContext {
        job: j,
        machine: *machine,
        failure_time: at,
        repair_done,
        retries: st.retries,
        resume_position: resume,
        remaining_work,
        replica_alive,
        // Snapshot as of this job's dispatch: machines freed since then are
        // still queued as events. Advisory only — allocation happens at
        // event-processing time and is always consistent.
        idle_machines: idle.iter().filter(|&&free| free).count(),
        migration_overhead: config.migration_overhead,
    };

    match policy.on_failure(&ctx) {
        FailureAction::Failover if replica_alive => {
            let b = buddy.take().expect("replica_alive implies an attached buddy");
            events.push(repair_done, EventKind::MachineFreed(*machine));
            if sink.enabled() {
                sink.record(
                    &TraceEvent::sim("failover", at)
                        .with("job", j)
                        .with("from_machine", *machine)
                        .with("to_machine", b),
                );
            }
            *machine = b;
            st.failovers += 1;
            if config.failover_overhead > 0.0 {
                *clock += config.failover_overhead;
                st.breakdown.downtime += config.failover_overhead;
            }
            AfterFailure::Resume
        }
        FailureAction::Migrate { overhead } => {
            st.migrations += 1;
            st.pending_overhead = overhead.max(0.0);
            events.push(repair_done, EventKind::MachineFreed(*machine));
            if let Some(b) = buddy.take() {
                // The (healthy) replica is released back to the pool.
                events.push(at, EventKind::MachineFreed(b));
            }
            let excess = st.retries.saturating_sub(config.retry_budget);
            let backoff = if excess > 0 {
                let exponent = (excess - 1).min(62) as i32;
                (config.backoff_base * 2f64.powi(exponent)).min(config.backoff_cap)
            } else {
                0.0
            };
            if sink.enabled() {
                sink.record(
                    &TraceEvent::sim("migrate", *clock)
                        .with("job", j)
                        .with("machine", *machine)
                        .with("backoff", backoff)
                        .with("ready_at", *clock + backoff),
                );
            }
            AfterFailure::Leave { ready_at: *clock + backoff }
        }
        // Restart, or a failover request the engine cannot honour (replica
        // dead or never attached): hold the machine through its repair.
        FailureAction::RestartFromCheckpoint | FailureAction::Failover => {
            if repair_done > *clock {
                st.breakdown.downtime += repair_done - *clock;
                *clock = repair_done;
            }
            if sink.enabled() {
                sink.record(
                    &TraceEvent::sim("restart", *clock)
                        .with("job", j)
                        .with("machine", *machine)
                        .with("resume_position", st.position),
                );
            }
            AfterFailure::Resume
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BaselinePolicy;
    use ckpt_simulator::ChainTask;
    use ckpt_telemetry::NoopSink;

    /// Scripted machine failures with fixed repair duration: machine `m`
    /// fails at each listed time (unless silenced by an earlier repair).
    struct ScriptedSource {
        times: Vec<Vec<f64>>,
        silenced: Vec<f64>,
        repair: f64,
    }

    impl ScriptedSource {
        fn new(times: Vec<Vec<f64>>, repair: f64) -> Self {
            let silenced = vec![f64::NEG_INFINITY; times.len()];
            ScriptedSource { times, silenced, repair }
        }
    }

    impl MachineFailureSource for ScriptedSource {
        fn machine_count(&self) -> usize {
            self.times.len()
        }

        fn next_failure_after(&mut self, machine: usize, after: f64) -> f64 {
            let floor = self.silenced[machine];
            self.times[machine]
                .iter()
                .copied()
                .find(|&t| t > after && t > floor)
                .unwrap_or(f64::INFINITY)
        }

        fn begin_repair(&mut self, machine: usize, at: f64) -> f64 {
            let done = at + self.repair;
            self.silenced[machine] = done;
            done
        }
    }

    fn job(works: &[f64], ckpt: f64, rec: f64, r0: f64, d: f64, plan: &[bool]) -> ClusterJob {
        let tasks: Vec<ChainTask> =
            works.iter().map(|&w| ChainTask::new(w, ckpt, rec).unwrap()).collect();
        ClusterJob::new(tasks, r0, d, plan.to_vec()).unwrap()
    }

    #[test]
    fn failure_free_run_is_pure_work_plus_checkpoints() {
        let jobs = vec![job(&[100.0, 100.0], 10.0, 5.0, 0.0, 3.0, &[true, true])];
        let mut source = ScriptedSource::new(vec![vec![]], 0.0);
        let mut policy = BaselinePolicy::CheckpointOnly;
        let out = run_cluster(
            &jobs,
            1,
            &mut source,
            &mut policy,
            &ClusterConfig::default(),
            &mut NoopSink,
        )
        .unwrap();
        let rec = &out.jobs[0];
        assert_eq!(rec.record.makespan, 220.0);
        assert_eq!(rec.record.failures, 0);
        assert_eq!(rec.checkpoints, 2);
        // One plan consultation per attempt.
        assert_eq!(rec.decisions, 2);
        assert_eq!(rec.waiting, 0.0);
        assert_eq!(out.makespan, 220.0);
        assert_eq!(out.peak_queue_depth, 1);
        // The useful bucket includes checkpoint time (the chain convention):
        // a failure-free single-job run keeps its machine fully utilised.
        assert_eq!(out.utilisation, 1.0);
    }

    #[test]
    fn restart_waits_out_the_machine_repair() {
        // Work 100, failure at 40. §2 downtime 3 ⇒ clock 43, but the machine
        // repairs until 40 + 50 = 90 ⇒ extra 47 of downtime, then recovery 5
        // and a clean re-run: makespan 90 + 5 + 100 + 10 = 205.
        let jobs = vec![job(&[100.0], 10.0, 5.0, 5.0, 3.0, &[true])];
        let mut source = ScriptedSource::new(vec![vec![40.0]], 50.0);
        let mut policy = BaselinePolicy::CheckpointOnly;
        let out = run_cluster(
            &jobs,
            1,
            &mut source,
            &mut policy,
            &ClusterConfig::default(),
            &mut NoopSink,
        )
        .unwrap();
        let rec = &out.jobs[0];
        assert_eq!(rec.record.makespan, 205.0);
        assert_eq!(rec.record.failures, 1);
        assert_eq!(rec.record.breakdown.lost, 40.0);
        assert_eq!(rec.record.breakdown.downtime, 50.0);
        assert_eq!(rec.record.breakdown.recovery, 5.0);
        assert_eq!(rec.record.breakdown.useful, 110.0);
        assert_eq!(rec.waiting, 0.0);
    }

    #[test]
    fn migration_requeues_and_pays_overhead_elsewhere() {
        // Machine 0 fails at 40 and repairs for 1000; machine 1 is idle. The
        // job re-enters the queue at 40 + D = 43, pays the migration overhead
        // 7 and R₀ = 5, then re-runs: 43 + 7 + 5 + 100 + 10 = 165.
        let jobs = vec![job(&[100.0], 10.0, 5.0, 5.0, 3.0, &[true])];
        let mut source = ScriptedSource::new(vec![vec![40.0], vec![]], 1000.0);
        let mut policy = BaselinePolicy::AlwaysMigrate;
        let config = ClusterConfig::default().with_migration_overhead(7.0).unwrap();
        let out = run_cluster(&jobs, 2, &mut source, &mut policy, &config, &mut NoopSink).unwrap();
        let rec = &out.jobs[0];
        assert_eq!(rec.record.makespan, 165.0);
        assert_eq!(rec.migrations, 1);
        assert_eq!(rec.waiting, 0.0);
        assert_eq!(rec.record.breakdown.downtime, 3.0 + 7.0);
        assert_eq!(rec.record.breakdown.lost, 40.0);
    }

    #[test]
    fn failover_continues_on_the_replica() {
        // Job replicated on machine 1; machine 0 fails at 40. Failover pays 2
        // and recovers R₀ = 5 on the replica: 40 + 3 + 2 + 5 + 100 + 10 = 160.
        let jobs = vec![job(&[100.0], 10.0, 5.0, 5.0, 3.0, &[true]).with_replica()];
        let mut source = ScriptedSource::new(vec![vec![40.0], vec![]], 1000.0);
        let mut policy = BaselinePolicy::ReplicateTopK { k: 1 };
        let config = ClusterConfig::default().with_failover_overhead(2.0).unwrap();
        let out = run_cluster(&jobs, 2, &mut source, &mut policy, &config, &mut NoopSink).unwrap();
        let rec = &out.jobs[0];
        assert_eq!(rec.record.makespan, 160.0);
        assert_eq!(rec.failovers, 1);
        assert_eq!(rec.migrations, 0);
    }

    #[test]
    fn dead_replica_degrades_to_migration() {
        // The replica (machine 1) dies at 30, before the primary's failure at
        // 40 — the burst scenario. ReplicateTopK then migrates; the only
        // healthy machine is 2.
        let jobs = vec![job(&[100.0], 10.0, 5.0, 5.0, 3.0, &[true]).with_replica()];
        let mut source = ScriptedSource::new(vec![vec![40.0], vec![30.0], vec![]], 1000.0);
        let mut policy = BaselinePolicy::ReplicateTopK { k: 1 };
        let out = run_cluster(
            &jobs,
            3,
            &mut source,
            &mut policy,
            &ClusterConfig::default(),
            &mut NoopSink,
        )
        .unwrap();
        let rec = &out.jobs[0];
        assert_eq!(rec.failovers, 0);
        assert_eq!(rec.migrations, 1);
        // 40 + 3 (D) + 0 (overhead) + 5 (R₀) + 100 + 10 = 158.
        assert_eq!(rec.record.makespan, 158.0);
    }

    #[test]
    fn replication_inflates_checkpoints_while_attached() {
        let jobs = vec![job(&[50.0, 50.0], 10.0, 5.0, 5.0, 3.0, &[true, true]).with_replica()];
        let mut source = ScriptedSource::new(vec![vec![], vec![]], 0.0);
        let mut policy = BaselinePolicy::ReplicateTopK { k: 1 };
        let config = ClusterConfig::default().with_replication_checkpoint_factor(1.5).unwrap();
        let out = run_cluster(&jobs, 2, &mut source, &mut policy, &config, &mut NoopSink).unwrap();
        // 50 + 15 + 50 + 15 = 130 (checkpoints cost 10 × 1.5 each).
        assert_eq!(out.jobs[0].record.makespan, 130.0);
    }

    #[test]
    fn jobs_queue_gracefully_when_machines_are_scarce() {
        let jobs = vec![
            job(&[100.0], 10.0, 5.0, 0.0, 3.0, &[true]),
            job(&[100.0], 10.0, 5.0, 0.0, 3.0, &[true]),
        ];
        let mut source = ScriptedSource::new(vec![vec![]], 0.0);
        let mut policy = BaselinePolicy::CheckpointOnly;
        let out = run_cluster(
            &jobs,
            1,
            &mut source,
            &mut policy,
            &ClusterConfig::default(),
            &mut NoopSink,
        )
        .unwrap();
        // FIFO: job 0 runs 0..110, job 1 waits 110 then runs 110..220.
        assert_eq!(out.jobs[0].waiting, 0.0);
        assert_eq!(out.jobs[1].waiting, 110.0);
        assert_eq!(out.jobs[1].completed_at, 220.0);
        assert_eq!(out.jobs[1].record.makespan, 220.0);
        assert_eq!(out.peak_queue_depth, 2);
        assert_eq!(out.makespan, 220.0);
    }

    #[test]
    fn backoff_delays_re_admissions_beyond_the_budget() {
        // Machine 0 fails at 10 (repairing until 16), machine 1 at 31.
        // AlwaysMigrate with a budget of 1: the first re-admission is free,
        // the second pays a backoff of 8 · 2⁰ = 8.
        let jobs = vec![job(&[100.0], 10.0, 5.0, 5.0, 3.0, &[true])];
        let mut source = ScriptedSource::new(vec![vec![10.0], vec![31.0]], 6.0);
        let mut policy = BaselinePolicy::AlwaysMigrate;
        let config = ClusterConfig::default().with_retry_budget(1).with_backoff(8.0, 20.0).unwrap();
        let out = run_cluster(&jobs, 2, &mut source, &mut policy, &config, &mut NoopSink).unwrap();
        let rec = &out.jobs[0];
        assert_eq!(rec.migrations, 2);
        // Failure 1 (within budget): ready at 10 + 3 = 13; m0 is repairing,
        // so m1 takes the job. Recovery R₀ = 5 ⇒ work starts 18; m1 fails at
        // 31 (13 into the work). Retry 2 ⇒ backoff 8: ready at 31 + 3 + 8 =
        // 42, back on m0 (repaired at 16): 42 + 5 + 100 + 10 = 157.
        assert_eq!(rec.record.makespan, 157.0);
        // The backoff window is booked as queue time.
        assert_eq!(rec.waiting, 8.0);
        assert_eq!(rec.record.breakdown.lost, 10.0 + 13.0);
        assert_eq!(rec.record.breakdown.recovery, 10.0);
        assert_eq!(rec.record.breakdown.downtime, 6.0);
        assert_eq!(rec.record.breakdown.useful, 110.0);
    }

    #[test]
    fn validation_errors_are_reported() {
        let jobs = vec![job(&[10.0], 0.0, 0.0, 0.0, 0.0, &[true])];
        let mut source = ScriptedSource::new(vec![vec![]], 0.0);
        let mut policy = BaselinePolicy::CheckpointOnly;
        let config = ClusterConfig::default();
        assert!(matches!(
            run_cluster(&jobs, 0, &mut source, &mut policy, &config, &mut NoopSink),
            Err(ClusterError::EmptyCluster)
        ));
        assert!(matches!(
            run_cluster(&[], 1, &mut source, &mut policy, &config, &mut NoopSink),
            Err(ClusterError::NoJobs)
        ));
        assert!(matches!(
            run_cluster(&jobs, 2, &mut source, &mut policy, &config, &mut NoopSink),
            Err(ClusterError::MachineCountMismatch { .. })
        ));
    }

    #[test]
    fn config_builders_validate() {
        assert!(ClusterConfig::default().with_migration_overhead(-1.0).is_err());
        assert!(ClusterConfig::default().with_failover_overhead(f64::NAN).is_err());
        assert!(ClusterConfig::default().with_replication_checkpoint_factor(0.5).is_err());
        assert!(ClusterConfig::default().with_backoff(-1.0, 0.0).is_err());
        let cfg = ClusterConfig::default()
            .with_migration_overhead(1.0)
            .unwrap()
            .with_failover_overhead(2.0)
            .unwrap()
            .with_replication_checkpoint_factor(1.25)
            .unwrap();
        assert_eq!(cfg.migration_overhead(), 1.0);
        assert_eq!(cfg.failover_overhead, 2.0);
        assert_eq!(cfg.replication_checkpoint_factor, 1.25);
    }

    /// One eventful scenario reused by the tracing tests: replication with a
    /// dead buddy (degrades to migration), plus a later restart on the same
    /// machine — it exercises dispatch, failure, replica-loss, migration and
    /// completion events.
    fn eventful_run(sink: &mut dyn TelemetrySink) -> ClusterOutcome {
        let jobs = vec![
            job(&[100.0], 10.0, 5.0, 5.0, 3.0, &[true]).with_replica(),
            job(&[50.0], 10.0, 5.0, 5.0, 3.0, &[true]),
        ];
        let mut source = ScriptedSource::new(vec![vec![40.0], vec![30.0], vec![160.0]], 1000.0);
        let mut policy = BaselinePolicy::ReplicateTopK { k: 1 };
        run_cluster(&jobs, 3, &mut source, &mut policy, &ClusterConfig::default(), sink).unwrap()
    }

    #[test]
    fn traced_run_matches_untraced_run_exactly() {
        let jobs = vec![
            job(&[100.0], 10.0, 5.0, 5.0, 3.0, &[true]).with_replica(),
            job(&[50.0], 10.0, 5.0, 5.0, 3.0, &[true]),
        ];
        let mut policy = BaselinePolicy::ReplicateTopK { k: 1 };
        let mut source = ScriptedSource::new(vec![vec![40.0], vec![30.0], vec![160.0]], 1000.0);
        let untraced = run_cluster(
            &jobs,
            3,
            &mut source,
            &mut policy,
            &ClusterConfig::default(),
            &mut NoopSink,
        )
        .unwrap();

        let mut sink = ckpt_telemetry::RingBufferSink::new(4096);
        let traced = eventful_run(&mut sink);
        assert_eq!(traced.makespan, untraced.makespan);
        assert_eq!(traced.utilisation, untraced.utilisation);
        for (t, u) in traced.jobs.iter().zip(&untraced.jobs) {
            assert_eq!(t.record.makespan, u.record.makespan);
            assert_eq!(t.record.failures, u.record.failures);
            assert_eq!(t.migrations, u.migrations);
            assert_eq!(t.waiting, u.waiting);
        }
    }

    #[test]
    fn traced_run_emits_the_expected_event_kinds() {
        let mut sink = ckpt_telemetry::RingBufferSink::new(4096);
        eventful_run(&mut sink);
        assert_eq!(sink.dropped(), 0);
        let names: Vec<&str> = sink.events().map(|e| e.name()).collect();
        for expected in [
            "job_ready",
            "machine_up",
            "queue_depth",
            "dispatch",
            "machine_failure",
            "replica_lost",
            "migrate",
            "job_complete",
        ] {
            assert!(names.contains(&expected), "missing event {expected} in {names:?}");
        }
        // Every engine event carries simulated time, and the trace opens at
        // the jobs' common arrival (time 0).
        assert!(sink.events().all(|e| e.domain() == ckpt_telemetry::TimeDomain::Sim));
        assert_eq!(sink.events().next().unwrap().time(), 0.0);
    }

    #[test]
    fn trace_digest_is_stable_across_runs() {
        let mut first = ckpt_telemetry::DigestSink::new();
        eventful_run(&mut first);
        let mut second = ckpt_telemetry::DigestSink::new();
        eventful_run(&mut second);
        assert!(first.sim_events() > 0);
        assert_eq!(first.hex(), second.hex());
    }
}
