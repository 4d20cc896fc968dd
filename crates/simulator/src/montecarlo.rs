//! Monte-Carlo driver: repeat an execution many times and summarise.
//!
//! Trials are embarrassingly parallel and run across threads
//! ([`SimulationScenario::with_threads`]); every trial derives its own seed
//! from the master seed and the trial index, and the aggregation pass walks
//! trials in index order, so outcomes are **bit-identical for any thread
//! count** at the same seed.
//!
//! The drivers — [`SimulationScenario::try_run`] (and [`run`]) for fixed
//! schedules, [`run_policy`] for a policy over a chain and [`run_dag_policy`]
//! for a policy over a linearised DAG — are one driver on the one §2
//! engine: a fixed schedule runs as a policy that checkpoints after every
//! segment, and a chain as the identity order. The driver validates the
//! scenario once, derives each trial's seed, builds the trial's failure
//! stream from the scenario's source, scatters the trials across workers
//! (each with one failure-time buffer it reuses) and aggregates them into
//! one [`MonteCarloOutcome`].
//!
//! [`run`]: SimulationScenario::run
//! [`run_policy`]: SimulationScenario::run_policy
//! [`run_dag_policy`]: SimulationScenario::run_dag_policy

use std::fmt;
use std::sync::Arc;

use ckpt_expectation::numeric::SampleStats;
use ckpt_failure::{FailureDistribution, Pcg64, PlatformFailureProcess, RandomSource};
use ckpt_telemetry::NoopSink;

use crate::engine::{segment_tasks, EveryTask, ExecutionRecord, TimeBreakdown};
use crate::error::{ensure_positive, SimulationError};
use crate::policy::{self, ChainTask, Policy};
use crate::segment::Segment;
use crate::stream::{ExponentialStream, FailureStream, PlatformStream};

/// A per-trial stream factory: `(trial index, trial seed) → stream`.
type StreamFactory = Arc<dyn Fn(usize, u64) -> Box<dyn FailureStream> + Send + Sync>;

/// Where each trial's failures come from.
#[derive(Clone)]
enum FailureSource {
    /// Platform-level Exponential process with the given rate.
    Exponential { lambda: f64 },
    /// Superposition of `p` per-processor processes drawn from a prototype law.
    Platform { processors: usize, law: Arc<dyn FailureDistribution + Send + Sync> },
    /// A caller-supplied factory (trace replay, scripted failures).
    Streams(StreamFactory),
}

impl fmt::Debug for FailureSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureSource::Exponential { lambda } => {
                f.debug_struct("Exponential").field("lambda", lambda).finish()
            }
            FailureSource::Platform { processors, law } => f
                .debug_struct("Platform")
                .field("processors", processors)
                .field("law", law)
                .finish(),
            FailureSource::Streams(_) => f.write_str("Streams(..)"),
        }
    }
}

impl FailureSource {
    fn validate(&self) -> Result<(), SimulationError> {
        match *self {
            FailureSource::Exponential { lambda } => ensure_positive("lambda", lambda).map(drop),
            FailureSource::Platform { processors: 0, .. } => {
                Err(SimulationError::NonPositiveParameter { name: "processors", value: 0.0 })
            }
            FailureSource::Platform { .. } | FailureSource::Streams(_) => Ok(()),
        }
    }
}

/// A reusable Monte-Carlo simulation configuration.
///
/// Build one with [`SimulationScenario::exponential`],
/// [`SimulationScenario::platform`] or [`SimulationScenario::from_streams`],
/// adjust it with the `with_*` methods and run it against any segment
/// sequence with [`SimulationScenario::run`], or under an online policy with
/// [`SimulationScenario::run_policy`] and
/// [`SimulationScenario::run_dag_policy`].
#[derive(Debug, Clone)]
pub struct SimulationScenario {
    source: FailureSource,
    downtime: f64,
    trials: usize,
    seed: u64,
    /// Worker threads; `0` means one per available core.
    threads: usize,
}

/// Aggregated outcome of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloOutcome {
    /// Statistics of the makespan across trials.
    pub makespan: SampleStats,
    /// Statistics of the failure count across trials.
    pub failures: SampleStats,
    /// Statistics of the checkpoints taken per trial, the mandatory final
    /// one included (a fixed schedule takes one per segment).
    pub checkpoints: SampleStats,
    /// Statistics of the suffix reorders per trial (zero except under a
    /// reordering DAG policy).
    pub reorders: SampleStats,
    /// Mean time breakdown across trials.
    pub mean_breakdown: TimeBreakdown,
    /// The raw makespan observations (one per trial), in trial order.
    pub samples: Vec<f64>,
}

impl MonteCarloOutcome {
    /// The empirical `q`-quantile of the makespan (`0 < q < 1`): the order
    /// statistic at rank `round((n − 1)·q)`, the same nearest-rank convention
    /// `ckpt_telemetry`'s `LogHistogram::quantile` uses — so a quantile read
    /// off raw samples and one read off a histogram of the same samples
    /// always pick the same rank.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)` or no samples were collected.
    pub fn makespan_quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile requires q in (0, 1)");
        assert!(!self.samples.is_empty(), "no samples collected");
        // `select_nth_unstable_by` partitions in O(n) instead of the
        // O(n log n) full sort; `samples` stays in trial order, so the
        // selection works on a scratch copy.
        let mut scratch = self.samples.clone();
        let rank = (((scratch.len() - 1) as f64) * q).round() as usize;
        let (_, nth, _) = scratch
            .select_nth_unstable_by(rank, |a, b| a.partial_cmp(b).expect("makespans are finite"));
        *nth
    }
}

impl SimulationScenario {
    fn new(source: FailureSource) -> Self {
        SimulationScenario { source, downtime: 0.0, trials: 1000, seed: 0x5EED, threads: 0 }
    }

    /// Scenario with a platform-level Exponential failure process of rate
    /// `lambda` (the paper's model).
    pub fn exponential(lambda: f64) -> Self {
        Self::new(FailureSource::Exponential { lambda })
    }

    /// Scenario with `processors` processors each following `law`
    /// (the §6 general-distribution extension).
    pub fn platform<D>(processors: usize, law: D) -> Self
    where
        D: FailureDistribution + Send + Sync + 'static,
    {
        Self::new(FailureSource::Platform { processors, law: Arc::new(law) })
    }

    /// Scenario whose trial `i` plays the stream `make_stream(i, seed_i)`,
    /// where `seed_i` is the seed the trial derives from the master seed —
    /// for replaying recorded traces or scripted failures. The outcome is
    /// identical at any thread count as long as `make_stream` is a pure
    /// function of its arguments.
    pub fn from_streams<F, S>(make_stream: F) -> Self
    where
        F: Fn(usize, u64) -> S + Send + Sync + 'static,
        S: FailureStream + 'static,
    {
        Self::new(FailureSource::Streams(Arc::new(move |trial, seed| {
            Box::new(make_stream(trial, seed)) as Box<dyn FailureStream>
        })))
    }

    /// Sets the downtime `D` (builder style).
    pub fn with_downtime(mut self, downtime: f64) -> Self {
        self.downtime = downtime;
        self
    }

    /// Sets the number of Monte-Carlo trials (builder style).
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the master seed (builder style). Each trial derives its own
    /// sub-stream, so two scenarios with equal seeds produce identical
    /// results.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads trials are spread across (builder
    /// style). `0` (the default) uses one worker per available core.
    ///
    /// The outcome is **bit-identical for every thread count**: each trial
    /// derives its own RNG stream from the master seed and its index, and the
    /// aggregation walks trials in index order regardless of which worker ran
    /// them.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured number of trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Runs the scenario on the given segment sequence.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, the scenario has zero trials, or the
    /// failure-model parameters are invalid; use [`SimulationScenario::try_run`]
    /// for a recoverable error.
    pub fn run(&self, segments: &[Segment]) -> MonteCarloOutcome {
        self.try_run(segments).expect("invalid simulation scenario")
    }

    /// Runs the scenario on a fixed schedule: each trial replays `segments`
    /// as [`crate::engine::simulate`] does, on the one §2 engine, returning
    /// configuration errors instead of panicking.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::EmptySchedule`] if `segments` is empty;
    /// * [`SimulationError::ZeroTrials`] if the scenario has zero trials;
    /// * [`SimulationError::NonPositiveParameter`] for an invalid failure
    ///   rate or a platform without processors;
    /// * [`SimulationError::NegativeParameter`] for a negative or
    ///   non-finite downtime.
    pub fn try_run(&self, segments: &[Segment]) -> Result<MonteCarloOutcome, SimulationError> {
        let (tasks, initial_recovery) = segment_tasks(segments)?;
        let order: Vec<usize> = (0..tasks.len()).collect();
        self.run_dag_policy(&tasks, &order, initial_recovery, |_| EveryTask)
    }

    /// Runs a **policy-driven** Monte-Carlo experiment: each trial builds a
    /// fresh failure stream from the scenario's source and a fresh policy
    /// from `make_policy(trial)`, then executes the chain `tasks` under
    /// [`crate::policy::simulate_policy`]'s engine — [`run_dag_policy`] over
    /// the identity order.
    ///
    /// [`run_dag_policy`]: SimulationScenario::run_dag_policy
    ///
    /// # Errors
    ///
    /// * the [`crate::policy::simulate_policy`] errors (empty task set,
    ///   negative downtime or initial recovery, an invalid decision);
    /// * the scenario errors of [`SimulationScenario::try_run`].
    pub fn run_policy<P, G>(
        &self,
        tasks: &[ChainTask],
        initial_recovery: f64,
        make_policy: G,
    ) -> Result<MonteCarloOutcome, SimulationError>
    where
        P: Policy,
        G: Fn(usize) -> P + Sync,
    {
        let order: Vec<usize> = (0..tasks.len()).collect();
        self.run_dag_policy(tasks, &order, initial_recovery, make_policy)
    }

    /// The one Monte-Carlo driver, and the **DAG** counterpart of
    /// [`SimulationScenario::run_policy`]: validates the inputs and the
    /// scenario once, then runs every trial on its own failure stream —
    /// seeded `hash(seed, trial)` — with a fresh [`Policy`] from
    /// `make_policy(trial)`, executing `tasks` in `order` under
    /// [`crate::policy::simulate_dag_policy`]'s engine across the worker
    /// threads, and aggregates the records in trial order. Each worker keeps
    /// one failure-time buffer for all its trials.
    ///
    /// # Errors
    ///
    /// * the [`crate::policy::simulate_dag_policy`] errors (empty task set,
    ///   invalid order or suffix reorder, invalid decision, negative
    ///   downtime/recovery);
    /// * the scenario errors of [`SimulationScenario::try_run`].
    pub fn run_dag_policy<P, G>(
        &self,
        tasks: &[ChainTask],
        order: &[usize],
        initial_recovery: f64,
        make_policy: G,
    ) -> Result<MonteCarloOutcome, SimulationError>
    where
        P: Policy,
        G: Fn(usize) -> P + Sync,
    {
        policy::validate(tasks, order, initial_recovery, self.downtime)?;
        if self.trials == 0 {
            return Err(SimulationError::ZeroTrials);
        }
        self.source.validate()?;
        let root = Pcg64::seed_from_u64(self.seed);
        let (records, _) = scatter_trials_with(
            self.trials,
            effective_threads(self.threads),
            Vec::new,
            |index, failure_times: &mut Vec<f64>| {
                let seed = root.derive(index as u64).next_u64();
                let mut policy = make_policy(index);
                // The source is picked once per trial, so the engine runs
                // monomorphised on each concrete stream type.
                macro_rules! trial {
                    ($stream:expr) => {
                        policy::execute(
                            tasks,
                            order,
                            initial_recovery,
                            self.downtime,
                            &mut policy,
                            $stream,
                            failure_times,
                            &mut NoopSink,
                        )
                        .map(|out| TrialRecord {
                            record: out.record,
                            checkpoints: out.checkpoints,
                            reorders: out.reorders,
                        })
                    };
                }
                match &self.source {
                    FailureSource::Exponential { lambda } => {
                        trial!(&mut ExponentialStream::new(*lambda, seed))
                    }
                    FailureSource::Platform { processors, law } => {
                        let process =
                            PlatformFailureProcess::homogeneous(*processors, Arc::clone(law), seed)
                                .expect("the processor count was validated");
                        trial!(&mut PlatformStream::new(process))
                    }
                    FailureSource::Streams(make_stream) => {
                        trial!(make_stream(index, seed).as_mut())
                    }
                }
            },
        );
        aggregate(records)
    }
}

/// What the aggregation keeps of one trial.
struct TrialRecord {
    record: ExecutionRecord,
    checkpoints: u64,
    reorders: u64,
}

/// Aggregates the trial records strictly in trial order: the summation
/// order (and hence every floating-point result) is independent of the
/// thread count.
fn aggregate(
    records: Vec<Result<TrialRecord, SimulationError>>,
) -> Result<MonteCarloOutcome, SimulationError> {
    let trials = records.len();
    let mut makespans = Vec::with_capacity(trials);
    let mut failures = Vec::with_capacity(trials);
    let mut checkpoints = Vec::with_capacity(trials);
    let mut reorders = Vec::with_capacity(trials);
    let mut sum = TimeBreakdown::default();
    for slot in records {
        let trial = slot?;
        makespans.push(trial.record.makespan);
        failures.push(trial.record.failures as f64);
        checkpoints.push(trial.checkpoints as f64);
        reorders.push(trial.reorders as f64);
        sum.useful += trial.record.breakdown.useful;
        sum.lost += trial.record.breakdown.lost;
        sum.downtime += trial.record.breakdown.downtime;
        sum.recovery += trial.record.breakdown.recovery;
    }
    let n = trials as f64;
    Ok(MonteCarloOutcome {
        makespan: SampleStats::from_values(&makespans),
        failures: SampleStats::from_values(&failures),
        checkpoints: SampleStats::from_values(&checkpoints),
        reorders: SampleStats::from_values(&reorders),
        mean_breakdown: TimeBreakdown {
            useful: sum.useful / n,
            lost: sum.lost / n,
            downtime: sum.downtime / n,
            recovery: sum.recovery / n,
        },
        samples: makespans,
    })
}

/// The number of worker threads a request for `requested` threads uses:
/// `0` means one per available core. Every thread-parallel path of the
/// workspace resolves its worker count through this rule.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        requested
    }
}

/// The determinism-critical trial scatter shared by every Monte-Carlo
/// runner: executes `run_trial` for trial indices `0..trials`, spread
/// across `workers` threads in **contiguous chunks** (each worker writes
/// only its own slice, so trial `i`'s record always lands in slot `i`
/// whatever the thread count), and returns the records strictly in trial
/// order — the invariant the bit-identical-at-any-thread-count guarantee
/// rests on, kept in exactly one place.
///
/// `run_trial` must be a pure function of the trial index (derive per-trial
/// RNG streams from a shared root and the index); downstream drivers (the
/// `ckpt-cluster` Monte-Carlo runner) reuse this function so every runner in
/// the workspace shares the one audited implementation.
pub fn scatter_trials<T, E, R>(trials: usize, workers: usize, run_trial: R) -> Vec<Result<T, E>>
where
    T: Send,
    E: Send,
    R: Fn(usize) -> Result<T, E> + Sync,
{
    scatter_trials_with(trials, workers, || (), |trial, ()| run_trial(trial)).0
}

/// [`scatter_trials`] with a per-worker scratch state, returned **in chunk
/// order** alongside the trial records.
///
/// Each worker owns one `S` built by `init` and threads it through every
/// trial of its contiguous chunk; the states come back ordered by chunk
/// index (worker 0's chunk first), so any order-sensitive reduction over
/// them — merging per-worker telemetry shards, concatenating logs — is a
/// pure function of `(trials, workers)` and never of thread scheduling.
/// `workers` is clamped to `1..=trials`; with one worker exactly one state
/// is returned.
pub fn scatter_trials_with<T, E, S, G, R>(
    trials: usize,
    workers: usize,
    init: G,
    run_trial: R,
) -> (Vec<Result<T, E>>, Vec<S>)
where
    T: Send,
    E: Send,
    S: Send,
    G: Fn() -> S + Sync,
    R: Fn(usize, &mut S) -> Result<T, E> + Sync,
{
    let workers = workers.min(trials).max(1);
    let mut records: Vec<Option<Result<T, E>>> = (0..trials).map(|_| None).collect();
    let states = if workers == 1 {
        let mut state = init();
        for (trial, slot) in records.iter_mut().enumerate() {
            *slot = Some(run_trial(trial, &mut state));
        }
        vec![state]
    } else {
        let chunk = trials.div_ceil(workers);
        let chunk_count = trials.div_ceil(chunk);
        let mut slots: Vec<Option<S>> = (0..chunk_count).map(|_| None).collect();
        let init = &init;
        let run_trial = &run_trial;
        std::thread::scope(|scope| {
            for ((index, slice), state_slot) in
                records.chunks_mut(chunk).enumerate().zip(slots.iter_mut())
            {
                scope.spawn(move || {
                    let mut state = init();
                    let base = index * chunk;
                    for (offset, slot) in slice.iter_mut().enumerate() {
                        *slot = Some(run_trial(base + offset, &mut state));
                    }
                    *state_slot = Some(state);
                });
            }
        });
        slots.into_iter().map(|slot| slot.expect("every worker chunk ran")).collect()
    };
    let records =
        records.into_iter().map(|slot| slot.expect("every trial slot is filled")).collect();
    (records, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Decision, DecisionContext};
    use crate::stream::ScriptedStream;
    use ckpt_expectation::exact::{expected_time, ExecutionParams};
    use ckpt_failure::{Exponential, Weibull};

    fn seg(work: f64, ckpt: f64, rec: f64) -> Segment {
        Segment::new(work, ckpt, rec).unwrap()
    }

    #[test]
    fn states_come_back_in_chunk_order() {
        let trials = 20usize;
        for workers in [1usize, 2, 3, 8] {
            let (results, states) =
                scatter_trials_with(trials, workers, Vec::new, |trial, seen: &mut Vec<usize>| {
                    seen.push(trial);
                    Ok::<usize, ()>(trial * 2)
                });
            let results: Vec<usize> = results.into_iter().map(Result::unwrap).collect();
            assert_eq!(results, (0..trials).map(|t| t * 2).collect::<Vec<_>>());
            // Concatenating the per-chunk states in order recovers the full
            // trial sequence — the property the cluster runner's metric
            // shard merge needs to be bitwise identical at any worker count.
            let concatenated: Vec<usize> = states.into_iter().flatten().collect();
            assert_eq!(concatenated, (0..trials).collect::<Vec<_>>(), "at {workers} workers");
        }
    }

    #[test]
    fn scenario_validation() {
        let scenario = SimulationScenario::exponential(0.001);
        assert!(matches!(scenario.try_run(&[]), Err(SimulationError::EmptySchedule)));
        let zero = SimulationScenario::exponential(0.001).with_trials(0);
        assert!(matches!(zero.try_run(&[seg(1.0, 0.0, 0.0)]), Err(SimulationError::ZeroTrials)));
        let bad = SimulationScenario::exponential(0.0);
        assert!(bad.try_run(&[seg(1.0, 0.0, 0.0)]).is_err());
    }

    #[test]
    fn zero_processor_platform_is_rejected() {
        let scenario = SimulationScenario::platform(0, Exponential::new(1e-3).unwrap());
        let rejected = |result: Result<MonteCarloOutcome, SimulationError>| {
            matches!(result, Err(SimulationError::NonPositiveParameter { name: "processors", .. }))
        };
        assert!(rejected(scenario.try_run(&[seg(1.0, 0.0, 0.0)])));
        assert!(rejected(
            scenario.run_policy(&chain_tasks(), 0.0, |_| EveryOther { toggle: false })
        ));
        let order: Vec<usize> = (0..chain_tasks().len()).collect();
        assert!(rejected(scenario.run_dag_policy(&chain_tasks(), &order, 0.0, |_| {
            AlternateAndFlip { toggle: false, flipped: false }
        })));
    }

    #[test]
    fn outcomes_are_bit_identical_across_thread_counts() {
        // The tentpole determinism guarantee: same seed, any worker count,
        // byte-for-byte identical outcome (samples, stats and breakdown).
        let segments =
            vec![seg(1_500.0, 80.0, 40.0), seg(700.0, 20.0, 60.0), seg(2_400.0, 120.0, 30.0)];
        let scenario = || {
            SimulationScenario::exponential(1.0 / 2_000.0)
                .with_downtime(25.0)
                .with_trials(4_001)
                .with_seed(0xDEADBEEF)
        };
        let single = scenario().with_threads(1).run(&segments);
        for threads in [2usize, 3, 8, 64] {
            let multi = scenario().with_threads(threads).run(&segments);
            assert_eq!(single, multi, "outcome differs at {threads} threads");
        }
        let auto = scenario().run(&segments);
        assert_eq!(single, auto, "outcome differs with automatic thread count");
    }

    #[test]
    fn platform_outcomes_are_bit_identical_across_thread_counts() {
        let segments = vec![seg(3_000.0, 150.0, 90.0)];
        let scenario = || {
            SimulationScenario::platform(8, Weibull::with_mean(0.7, 50_000.0).unwrap())
                .with_downtime(30.0)
                .with_trials(801)
                .with_seed(99)
        };
        let single = scenario().with_threads(1).run(&segments);
        let multi = scenario().with_threads(7).run(&segments);
        assert_eq!(single, multi);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let outcome = SimulationScenario::exponential(1e-3)
            .with_trials(3)
            .with_threads(16)
            .run(&[seg(10.0, 1.0, 0.0)]);
        assert_eq!(outcome.samples.len(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let segments = vec![seg(1000.0, 50.0, 30.0)];
        let a = SimulationScenario::exponential(1e-3).with_seed(5).with_trials(200).run(&segments);
        let b = SimulationScenario::exponential(1e-3).with_seed(5).with_trials(200).run(&segments);
        let c = SimulationScenario::exponential(1e-3).with_seed(6).with_trials(200).run(&segments);
        assert_eq!(a.samples, b.samples);
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn monte_carlo_mean_matches_proposition_1() {
        // The headline validation (experiment E1 in miniature): the sample
        // mean of the simulated makespan of a single segment must match the
        // closed form of Proposition 1.
        let lambda = 1.0 / 5_000.0;
        let (w, c, d, r) = (3_600.0, 120.0, 60.0, 90.0);
        let scenario = SimulationScenario::exponential(lambda)
            .with_downtime(d)
            .with_trials(20_000)
            .with_seed(2024);
        let outcome = scenario.run(&[seg(w, c, r)]);
        let exact = expected_time(&ExecutionParams::new(w, c, d, r, lambda).unwrap());
        let rel = outcome.makespan.relative_error(exact);
        assert!(rel < 0.02, "relative error {rel}, mean {}, exact {exact}", outcome.makespan.mean);
    }

    #[test]
    fn multi_segment_expectation_is_sum_of_segment_expectations() {
        let lambda = 1.0 / 2_000.0;
        let d = 30.0;
        let segments = vec![seg(500.0, 60.0, 0.0), seg(800.0, 60.0, 45.0), seg(300.0, 30.0, 45.0)];
        let scenario = SimulationScenario::exponential(lambda)
            .with_downtime(d)
            .with_trials(20_000)
            .with_seed(99);
        let outcome = scenario.run(&segments);
        let exact: f64 = segments
            .iter()
            .map(|s| {
                expected_time(
                    &ExecutionParams::new(s.work(), s.checkpoint(), d, s.recovery(), lambda)
                        .unwrap(),
                )
            })
            .sum();
        let rel = outcome.makespan.relative_error(exact);
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn breakdown_mean_partitions_mean_makespan() {
        let scenario =
            SimulationScenario::exponential(1e-3).with_downtime(20.0).with_trials(500).with_seed(3);
        let outcome = scenario.run(&[seg(1000.0, 100.0, 50.0), seg(500.0, 0.0, 50.0)]);
        assert!((outcome.mean_breakdown.total() - outcome.makespan.mean).abs() < 1e-6);
        // A fixed schedule checkpoints once per segment and never reorders.
        assert_eq!((outcome.checkpoints.mean, outcome.checkpoints.variance), (2.0, 0.0));
        assert_eq!(outcome.reorders.mean, 0.0);
    }

    #[test]
    fn quantiles_are_ordered_and_above_the_failure_free_time() {
        let scenario = SimulationScenario::exponential(1e-4).with_trials(1000).with_seed(1);
        let outcome = scenario.run(&[seg(100.0, 10.0, 5.0)]);
        let q50 = outcome.makespan_quantile(0.5);
        let q95 = outcome.makespan_quantile(0.95);
        assert!(q95 >= q50);
        assert!(q50 >= 110.0 - 1e-9);
    }

    #[test]
    fn quantile_rank_matches_telemetry_convention() {
        // The workspace-wide convention is the telemetry histogram's
        // nearest-rank rule `round((n − 1)·q)` — not `floor(n·q)`, which
        // disagrees at the upper tail (n = 4, q = 0.75 → index 3 instead
        // of 2).
        let scenario = SimulationScenario::exponential(1e-4).with_trials(4).with_seed(1);
        let outcome = scenario.run(&[seg(100.0, 10.0, 5.0)]);
        let mut sorted = outcome.samples.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(outcome.makespan_quantile(0.25), sorted[1]); // round(0.75)
        assert_eq!(outcome.makespan_quantile(0.5), sorted[2]); // round(1.5)
        assert_eq!(outcome.makespan_quantile(0.75), sorted[2]); // round(2.25)
        assert_eq!(outcome.makespan_quantile(0.95), sorted[3]); // round(2.85)
    }

    #[test]
    fn platform_scenario_exponential_matches_aggregate_rate() {
        // p processors with per-processor rate λ_proc behave like a single
        // platform-level stream of rate p·λ_proc.
        let p = 8;
        let lambda_proc = 1.0 / 40_000.0;
        let lambda = lambda_proc * p as f64;
        let (w, c, d, r) = (2_000.0, 100.0, 30.0, 60.0);
        let platform = SimulationScenario::platform(p, Exponential::new(lambda_proc).unwrap())
            .with_downtime(d)
            .with_trials(15_000)
            .with_seed(7)
            .run(&[seg(w, c, r)]);
        let exact = expected_time(&ExecutionParams::new(w, c, d, r, lambda).unwrap());
        let rel = platform.makespan.relative_error(exact);
        assert!(rel < 0.03, "relative error {rel}");
    }

    #[test]
    fn weibull_platform_runs_and_differs_from_exponential() {
        let mean = 20_000.0;
        let segments = vec![seg(5_000.0, 200.0, 100.0)];
        let weib = SimulationScenario::platform(4, Weibull::with_mean(0.7, mean).unwrap())
            .with_downtime(30.0)
            .with_trials(4_000)
            .with_seed(11)
            .run(&segments);
        let expo = SimulationScenario::platform(4, Exponential::from_mtbf(mean).unwrap())
            .with_downtime(30.0)
            .with_trials(4_000)
            .with_seed(11)
            .run(&segments);
        assert!(weib.makespan.mean > 0.0 && expo.makespan.mean > 0.0);
        // Same MTBF but different law: means should not coincide exactly.
        assert!((weib.makespan.mean - expo.makespan.mean).abs() > 1e-6);
    }

    #[test]
    fn run_with_streams_uses_the_factory() {
        let scenario =
            SimulationScenario::from_streams(|_, _| ScriptedStream::new(vec![])).with_trials(3);
        // Scripted: no failures at all.
        let outcome = scenario.try_run(&[seg(10.0, 1.0, 0.0)]).unwrap();
        assert_eq!(outcome.makespan.mean, 11.0);
        assert_eq!(outcome.failures.mean, 0.0);
    }

    #[test]
    fn factory_streams_receive_the_trial_seeds() {
        // A factory building the model's own stream from the derived seed
        // reproduces the model-driven scenario bitwise.
        let lambda = 1.0 / 2_000.0;
        let segments = vec![seg(1_500.0, 80.0, 40.0), seg(700.0, 20.0, 60.0)];
        let model = SimulationScenario::exponential(lambda).with_trials(301).with_seed(4);
        let factory =
            SimulationScenario::from_streams(move |_, seed| ExponentialStream::new(lambda, seed))
                .with_trials(301)
                .with_seed(4);
        for threads in [1usize, 3] {
            let expected = model.clone().with_threads(threads).run(&segments);
            assert_eq!(factory.clone().with_threads(threads).run(&segments), expected);
        }
    }

    #[test]
    fn trials_accessor() {
        assert_eq!(SimulationScenario::exponential(1.0).with_trials(17).trials(), 17);
    }

    /// The next attempt's end when `toggle` alternates between one- and
    /// two-task attempts.
    fn alternate(toggle: &mut bool, ctx: &DecisionContext<'_>) -> usize {
        *toggle = !*toggle;
        if *toggle {
            ctx.position
        } else {
            (ctx.position + 1).min(ctx.order.len() - 1)
        }
    }

    /// A chain policy with per-trial state, alternating one- and two-task
    /// attempts, for the policy-runner determinism tests.
    struct EveryOther {
        toggle: bool,
    }
    impl Policy for EveryOther {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            Decision::keep_order(alternate(&mut self.toggle, ctx))
        }
    }

    fn chain_tasks() -> Vec<crate::policy::ChainTask> {
        [(1_500.0, 80.0, 40.0), (700.0, 20.0, 60.0), (2_400.0, 120.0, 30.0), (900.0, 50.0, 35.0)]
            .into_iter()
            .map(|(w, c, r)| crate::policy::ChainTask::new(w, c, r).unwrap())
            .collect()
    }

    #[test]
    fn policy_outcomes_are_bit_identical_across_thread_counts() {
        let tasks = chain_tasks();
        let scenario = || {
            SimulationScenario::exponential(1.0 / 2_000.0)
                .with_downtime(25.0)
                .with_trials(2_001)
                .with_seed(0xADA97)
        };
        let factory = |_trial: usize| EveryOther { toggle: false };
        let single = scenario().with_threads(1).run_policy(&tasks, 15.0, factory).unwrap();
        for threads in [2usize, 3, 8, 64] {
            let multi = scenario().with_threads(threads).run_policy(&tasks, 15.0, factory).unwrap();
            assert_eq!(single, multi, "policy outcome differs at {threads} threads");
        }
        let auto = scenario().run_policy(&tasks, 15.0, factory).unwrap();
        assert_eq!(single, auto);
    }

    /// A policy that alternates one- and two-task attempts and reverses the
    /// suffix after the first observed failure — enough statefulness to
    /// catch any thread-order dependence in the driver.
    struct AlternateAndFlip {
        toggle: bool,
        flipped: bool,
    }
    impl Policy for AlternateAndFlip {
        fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
            let reorder = if !self.flipped && !ctx.failure_times.is_empty() {
                self.flipped = true;
                let mut suffix = ctx.suffix().to_vec();
                suffix.reverse();
                Some(suffix)
            } else {
                None
            };
            Decision { through: alternate(&mut self.toggle, ctx), reorder_suffix: reorder }
        }
    }

    #[test]
    fn dag_policy_outcomes_are_bit_identical_across_thread_counts() {
        let tasks = chain_tasks();
        let order: Vec<usize> = (0..tasks.len()).collect();
        let scenario = || {
            SimulationScenario::exponential(1.0 / 2_000.0)
                .with_downtime(25.0)
                .with_trials(1_001)
                .with_seed(0xDA6)
        };
        let factory = |_trial: usize| AlternateAndFlip { toggle: false, flipped: false };
        let single =
            scenario().with_threads(1).run_dag_policy(&tasks, &order, 15.0, factory).unwrap();
        for threads in [2usize, 3, 8] {
            let multi = scenario()
                .with_threads(threads)
                .run_dag_policy(&tasks, &order, 15.0, factory)
                .unwrap();
            assert_eq!(single, multi, "DAG policy outcome differs at {threads} threads");
        }
        assert!(single.failures.mean > 0.0);
        assert!(single.reorders.mean > 0.0, "the flip policy must have reordered");
        assert!((single.mean_breakdown.total() - single.makespan.mean).abs() < 1e-6);
    }

    #[test]
    fn dag_policy_runner_with_streams_is_deterministic() {
        let tasks = chain_tasks();
        let order: Vec<usize> = (0..tasks.len()).collect();
        let scenario = || {
            SimulationScenario::from_streams(|trial, _seed| {
                ScriptedStream::new(vec![700.0 + 41.0 * (trial % 5) as f64, 9_000.0])
            })
            .with_downtime(10.0)
            .with_trials(201)
            .with_seed(5)
        };
        let factory = |_trial: usize| AlternateAndFlip { toggle: true, flipped: false };
        let single =
            scenario().with_threads(1).run_dag_policy(&tasks, &order, 15.0, factory).unwrap();
        let multi =
            scenario().with_threads(3).run_dag_policy(&tasks, &order, 15.0, factory).unwrap();
        assert_eq!(single, multi);
        assert!(single.failures.mean > 0.0);
    }

    #[test]
    fn policy_runner_validates_inputs() {
        let scenario = SimulationScenario::exponential(1e-3);
        let factory = |_trial: usize| EveryOther { toggle: false };
        assert!(matches!(
            scenario.run_policy(&[], 0.0, factory),
            Err(SimulationError::EmptySchedule)
        ));
        let zero = SimulationScenario::exponential(1e-3).with_trials(0);
        assert!(matches!(
            zero.run_policy(&chain_tasks(), 0.0, factory),
            Err(SimulationError::ZeroTrials)
        ));
        assert!(SimulationScenario::exponential(0.0)
            .run_policy(&chain_tasks(), 0.0, factory)
            .is_err());
    }

    #[test]
    fn policy_runner_with_streams_is_thread_deterministic() {
        // Per-trial scripted streams (a stand-in for trace replay): the
        // factory is a pure function of the trial index, so the outcome must
        // not depend on the thread count.
        let tasks = chain_tasks();
        let scenario = || {
            SimulationScenario::from_streams(|trial, _seed| {
                ScriptedStream::new(vec![500.0 + 37.0 * (trial % 7) as f64, 4_000.0])
            })
            .with_downtime(10.0)
            .with_trials(301)
            .with_seed(9)
        };
        let factory = |_trial: usize| EveryOther { toggle: false };
        let single = scenario().with_threads(1).run_policy(&tasks, 15.0, factory).unwrap();
        for threads in [2usize, 5] {
            let multi = scenario().with_threads(threads).run_policy(&tasks, 15.0, factory).unwrap();
            assert_eq!(single, multi, "differs at {threads} threads");
        }
        assert!(single.failures.mean > 0.0);
        assert!(single.checkpoints.mean >= 1.0);
    }

    #[test]
    fn policy_platform_scenario_runs() {
        let tasks = chain_tasks();
        let outcome = SimulationScenario::platform(4, Weibull::with_mean(0.7, 30_000.0).unwrap())
            .with_downtime(20.0)
            .with_trials(500)
            .with_seed(3)
            .run_policy(&tasks, 10.0, |_| EveryOther { toggle: true })
            .unwrap();
        assert!(outcome.makespan.mean >= 5_500.0);
        assert!((outcome.mean_breakdown.total() - outcome.makespan.mean).abs() < 1e-6);
    }
}
