//! Monte-Carlo evaluation of online policies under **misspecified** failure
//! models.
//!
//! The operationally interesting question is not how a policy behaves when
//! the planner knew the failure law exactly — the offline DP is provably
//! optimal there — but how it degrades when the *planning* rate and the
//! *true* failure process diverge: a platform failing 4–10× more often than
//! assumed, Weibull-bursty failures planned as Exponential, or a recorded
//! trace. [`compare_policies`] runs the four policies of
//! [`crate::policies`] through the policy-driven Monte-Carlo engine under
//! one [`TruthModel`], all on **identical per-trial failure streams**
//! (paired comparison: every policy sees the same failures, so differences
//! are policy effects, not sampling noise), and reports each policy's mean
//! makespan and its **regret** against the clairvoyant baseline — the
//! offline DP optimum solved at the truth's effective rate and replayed
//! statically.
//!
//! Everything is deterministic: trials derive their streams from the master
//! seed and the trial index, and the engine's contiguous-chunk threading
//! makes the outcome bit-identical at any thread count. The DAG harness
//! ([`crate::compare_dag_policies`]) reports the same [`PolicyResult`] rows
//! through the same truth runner.

use ckpt_failure::{TraceGenerator, TraceReplay, Weibull};
use ckpt_simulator::stream::TraceStream;
use ckpt_simulator::{ChainTask, MonteCarloOutcome, Policy, SimulationScenario};

use crate::chain::ChainSpec;
use crate::error::AdaptiveError;
use crate::policies::{
    optimal_static_plan, AdaptiveResolve, PeriodicYoung, RateLearning, StaticPlan,
};

/// The failure process executions are actually subjected to (as opposed to
/// the rate the offline plan assumed).
#[derive(Debug, Clone)]
pub enum TruthModel {
    /// Platform-level Exponential failures of the given rate — the paper's
    /// model with a possibly wrong planning rate.
    Exponential {
        /// The true platform failure rate.
        lambda: f64,
    },
    /// `processors` per-processor Weibull streams (shape < 1 = infant
    /// mortality bursts) superposed, with the given **platform-level** MTBF.
    WeibullPlatform {
        /// Number of processors.
        processors: usize,
        /// Weibull shape parameter.
        shape: f64,
        /// Platform-level mean time between failures.
        platform_mtbf: f64,
    },
    /// Per-trial synthetic Weibull failure traces, replayed through
    /// [`TraceStream`] — the "recorded log" scenario: the policy sees a
    /// finite trace, not a generative law. Traces cover 64× the chain's
    /// failure-free makespan; a regime so extreme that a trial outruns its
    /// trace is rejected with [`AdaptiveError::TraceHorizonExceeded`]
    /// rather than evaluated optimistically.
    WeibullTrace {
        /// Number of processors recorded in the trace.
        processors: usize,
        /// Weibull shape parameter of each processor's process.
        shape: f64,
        /// Platform-level mean time between failures.
        platform_mtbf: f64,
    },
}

impl TruthModel {
    /// The platform-level failure rate of the truth — what a clairvoyant
    /// planner (knowing the truth's intensity, if not its law) would plan
    /// with.
    pub fn effective_rate(&self) -> f64 {
        match *self {
            TruthModel::Exponential { lambda } => lambda,
            TruthModel::WeibullPlatform { platform_mtbf, .. }
            | TruthModel::WeibullTrace { platform_mtbf, .. } => 1.0 / platform_mtbf,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), AdaptiveError> {
        let (name, value) = match *self {
            TruthModel::Exponential { lambda } => ("true lambda", lambda),
            TruthModel::WeibullPlatform { platform_mtbf, shape, processors }
            | TruthModel::WeibullTrace { platform_mtbf, shape, processors } => {
                if processors == 0 {
                    return Err(AdaptiveError::NonPositiveParameter {
                        name: "processors",
                        value: 0.0,
                    });
                }
                if !shape.is_finite() || shape <= 0.0 {
                    return Err(AdaptiveError::NonPositiveParameter {
                        name: "shape",
                        value: shape,
                    });
                }
                ("platform MTBF", platform_mtbf)
            }
        };
        if !value.is_finite() || value <= 0.0 {
            return Err(AdaptiveError::NonPositiveParameter { name, value });
        }
        Ok(())
    }
}

/// Monte-Carlo configuration of one policy comparison.
#[derive(Debug, Clone, Copy)]
pub struct EvaluationConfig {
    /// Trials per policy (every policy replays the same trial streams).
    pub trials: usize,
    /// Master seed; streams derive per-trial.
    pub seed: u64,
    /// Worker threads (`0` = one per core); the outcome is identical for
    /// every value.
    pub threads: usize,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig { trials: 1_000, seed: 0xADA7, threads: 0 }
    }
}

/// One policy's aggregate outcome in a comparison, chain or DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// Policy name (chain rows: `clairvoyant`, `static-plan`,
    /// `periodic-young`, `adaptive-resolve`, `rate-learning`; DAG rows:
    /// `clairvoyant`, `dag-static`, `dag-adaptive-resolve`,
    /// `dag-relinearise`).
    pub policy: &'static str,
    /// Mean makespan across trials.
    pub mean_makespan: f64,
    /// Mean number of failures observed per trial.
    pub mean_failures: f64,
    /// Mean number of checkpoints taken per trial.
    pub mean_checkpoints: f64,
    /// Mean number of suffix reorders per trial (0 on a chain and for the
    /// policies that never reorder).
    pub mean_reorders: f64,
    /// `mean_makespan − clairvoyant mean makespan` (0 for the clairvoyant
    /// row itself; negative values are possible only within Monte-Carlo
    /// noise, since the clairvoyant static plan is optimal in expectation
    /// only under an Exponential truth at exactly its rate).
    pub regret: f64,
}

/// The outcome of [`compare_policies`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyComparison {
    /// Mean makespan of the clairvoyant baseline (offline optimum at the
    /// truth's effective rate, replayed statically).
    pub clairvoyant_makespan: f64,
    /// One row per policy, in a fixed order: `clairvoyant`, `static-plan`,
    /// `periodic-young`, `adaptive-resolve`, `rate-learning`.
    pub results: Vec<PolicyResult>,
}

impl PolicyComparison {
    /// The row of a policy by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not one of the five fixed rows.
    pub fn row(&self, policy: &str) -> &PolicyResult {
        find_row(&self.results, policy)
    }
}

/// The row of `policy` among `results`.
pub(crate) fn find_row<'r>(results: &'r [PolicyResult], policy: &str) -> &'r PolicyResult {
    results
        .iter()
        .find(|r| r.policy == policy)
        .unwrap_or_else(|| panic!("unknown policy row `{policy}`"))
}

/// Horizon multiple (× the chain's failure-free makespan) generated for
/// trace truths. A trial whose makespan exceeded the generated horizon
/// would have seen a spuriously failure-free tail, so [`compare_policies`]
/// **rejects** such runs with [`AdaptiveError::TraceHorizonExceeded`]
/// instead of returning silently optimistic means — with the slowdowns of
/// the regimes under study (≲ a few ×) the bound is never approached.
const TRACE_HORIZON_FACTOR: f64 = 64.0;

/// Runs the four online policies (plus the clairvoyant static baseline)
/// over `spec`, planned at `planning_rate`, under the given truth.
///
/// # Errors
///
/// Returns an [`AdaptiveError`] for invalid rates, truth parameters, or an
/// empty trial count.
pub fn compare_policies(
    spec: &ChainSpec,
    planning_rate: f64,
    truth: &TruthModel,
    config: &EvaluationConfig,
) -> Result<PolicyComparison, AdaptiveError> {
    truth.validate()?;

    // The plans: offline optimum at the planning rate, and at the truth's
    // effective rate (the clairvoyant reference).
    let planned = optimal_static_plan(spec, planning_rate)?;
    let clairvoyant = optimal_static_plan(spec, truth.effective_rate())?;

    let static_proto = StaticPlan::from_placement(&planned);
    let clairvoyant_proto = StaticPlan::from_placement(&clairvoyant);
    let young_proto = PeriodicYoung::new(spec, planning_rate)?;
    let adaptive_proto = AdaptiveResolve::new(spec, planning_rate)?;
    let learning_proto = RateLearning::new(spec, planning_rate)?;

    // A chain executes in its identity order.
    let runner =
        TruthRunner::new(truth, config, spec.tasks(), spec.initial_recovery(), spec.downtime())?;
    let order: Vec<usize> = (0..spec.len()).collect();
    let clairvoyant_outcome = runner.run(&order, &clairvoyant_proto)?;
    let clairvoyant_makespan = clairvoyant_outcome.makespan.mean;
    let row = |policy, outcome| result_row(policy, outcome, clairvoyant_makespan);

    let results = vec![
        row("clairvoyant", &clairvoyant_outcome),
        row("static-plan", &runner.run(&order, &static_proto)?),
        row("periodic-young", &runner.run(&order, &young_proto)?),
        row("adaptive-resolve", &runner.run(&order, &adaptive_proto)?),
        row("rate-learning", &runner.run(&order, &learning_proto)?),
    ];
    Ok(PolicyComparison { clairvoyant_makespan, results })
}

/// The comparison row of `policy`'s Monte-Carlo `outcome`.
pub(crate) fn result_row(
    policy: &'static str,
    outcome: &MonteCarloOutcome,
    clairvoyant_makespan: f64,
) -> PolicyResult {
    PolicyResult {
        policy,
        mean_makespan: outcome.makespan.mean,
        mean_failures: outcome.failures.mean,
        mean_checkpoints: outcome.checkpoints.mean,
        mean_reorders: outcome.reorders.mean,
        regret: outcome.makespan.mean - clairvoyant_makespan,
    }
}

/// The truth runner shared by the chain and the DAG harnesses: the
/// Monte-Carlo scenario of one truth (downtime, trials, seed and threads
/// applied uniformly) over one task set. Every policy a runner runs sees
/// the same per-trial failure streams — paired comparisons.
///
/// A trace truth draws per-trial traces covering [`TRACE_HORIZON_FACTOR`]
/// × the failure-free makespan from each trial's seed, and every outcome
/// must pass the horizon guard: a makespan beyond the generated horizon
/// means that trial's trace ran out and its tail executed spuriously
/// failure-free, so the run is rejected instead of reported optimistically.
pub(crate) struct TruthRunner<'a> {
    scenario: SimulationScenario,
    horizon: Option<f64>,
    tasks: &'a [ChainTask],
    initial_recovery: f64,
}

impl<'a> TruthRunner<'a> {
    /// The runner of `tasks` under `truth`.
    pub(crate) fn new(
        truth: &TruthModel,
        config: &EvaluationConfig,
        tasks: &'a [ChainTask],
        initial_recovery: f64,
        downtime: f64,
    ) -> Result<Self, AdaptiveError> {
        let (scenario, horizon) = match *truth {
            TruthModel::Exponential { lambda } => (SimulationScenario::exponential(lambda), None),
            TruthModel::WeibullPlatform { processors, shape, platform_mtbf } => {
                let law = Weibull::with_mean(shape, platform_mtbf * processors as f64)?;
                (SimulationScenario::platform(processors, law), None)
            }
            TruthModel::WeibullTrace { processors, shape, platform_mtbf } => {
                let law = Weibull::with_mean(shape, platform_mtbf * processors as f64)?;
                // The failure-free makespan: all the work plus one mean
                // checkpoint per task.
                let n = tasks.len() as f64;
                let work: f64 = tasks.iter().map(ChainTask::work).sum();
                let checkpoints: f64 = tasks.iter().map(ChainTask::checkpoint).sum();
                let horizon = TRACE_HORIZON_FACTOR * (work + n * (checkpoints / n));
                // Every policy re-generates the same per-trial trace from
                // the derived seed, keeping the comparison paired.
                let scenario = SimulationScenario::from_streams(move |_trial, derived_seed| {
                    let generator = TraceGenerator::new(processors, derived_seed)
                        .expect("processors validated before running");
                    TraceStream::new(TraceReplay::new(generator.generate(law, horizon)))
                });
                (scenario, Some(horizon))
            }
        };
        let scenario = scenario
            .with_downtime(downtime)
            .with_trials(config.trials)
            .with_seed(config.seed)
            .with_threads(config.threads);
        Ok(TruthRunner { scenario, horizon, tasks, initial_recovery })
    }

    /// Runs one policy prototype, cloned per trial, over the tasks in
    /// `order`.
    pub(crate) fn run<P>(
        &self,
        order: &[usize],
        prototype: &P,
    ) -> Result<MonteCarloOutcome, AdaptiveError>
    where
        P: Policy + Clone + Sync,
    {
        let outcome =
            self.scenario
                .run_dag_policy(self.tasks, order, self.initial_recovery, |_| prototype.clone())?;
        if let Some(horizon) = self.horizon {
            let beyond = || outcome.samples.iter().filter(|&&m| m > horizon);
            if let Some(&worst) = beyond().max_by(|a, b| a.total_cmp(b)) {
                return Err(AdaptiveError::TraceHorizonExceeded {
                    horizon,
                    makespan: worst,
                    trials: beyond().count(),
                });
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChainSpec {
        // 24 × 600 s of work; checkpoints cost 45, recoveries 70.
        ChainSpec::new(&[600.0; 24], &[45.0; 24], &[70.0; 24], 30.0, 15.0).unwrap()
    }

    #[test]
    fn truth_models_validate() {
        assert!(TruthModel::Exponential { lambda: 0.0 }.validate().is_err());
        assert!(TruthModel::WeibullPlatform { processors: 0, shape: 0.7, platform_mtbf: 1e4 }
            .validate()
            .is_err());
        assert!(TruthModel::WeibullPlatform { processors: 4, shape: 0.0, platform_mtbf: 1e4 }
            .validate()
            .is_err());
        assert!(TruthModel::WeibullTrace { processors: 2, shape: 0.7, platform_mtbf: -1.0 }
            .validate()
            .is_err());
        let ok = TruthModel::WeibullTrace { processors: 2, shape: 0.7, platform_mtbf: 5e3 };
        assert!(ok.validate().is_ok());
        assert!((ok.effective_rate() - 2e-4).abs() < 1e-18);
    }

    #[test]
    fn well_specified_truth_keeps_policies_near_the_clairvoyant() {
        // Truth == plan: the static plan IS the clairvoyant plan, and the
        // adaptive policies must stay within noise of it.
        let spec = spec();
        let rate = 1.0 / 8_000.0;
        let config = EvaluationConfig { trials: 400, seed: 11, threads: 1 };
        let cmp = compare_policies(&spec, rate, &TruthModel::Exponential { lambda: rate }, &config)
            .unwrap();
        assert_eq!(cmp.row("static-plan").regret, 0.0);
        let adaptive_gap = cmp.row("adaptive-resolve").regret.abs() / cmp.clairvoyant_makespan;
        assert!(adaptive_gap < 0.02, "adaptive gap {adaptive_gap}");
        let learning_gap = cmp.row("rate-learning").regret.abs() / cmp.clairvoyant_makespan;
        assert!(learning_gap < 0.02, "rate-learning gap {learning_gap}");
    }

    #[test]
    fn misspecified_truth_rewards_adaptation() {
        // The platform fails 8× more often than planned: policies that
        // observe and re-plan must beat the stale static plan.
        let spec = spec();
        let planning = 1.0 / 40_000.0;
        let truth = TruthModel::Exponential { lambda: 8.0 / 40_000.0 };
        let config = EvaluationConfig { trials: 400, seed: 13, threads: 1 };
        let cmp = compare_policies(&spec, planning, &truth, &config).unwrap();
        let stale = cmp.row("static-plan").mean_makespan;
        assert!(
            cmp.row("adaptive-resolve").mean_makespan < stale,
            "adaptive {} vs static {stale}",
            cmp.row("adaptive-resolve").mean_makespan
        );
        assert!(
            cmp.row("rate-learning").mean_makespan < stale,
            "learning {} vs static {stale}",
            cmp.row("rate-learning").mean_makespan
        );
        // And nobody beats the clairvoyant by more than noise.
        for row in &cmp.results {
            assert!(
                row.regret > -0.02 * cmp.clairvoyant_makespan,
                "{}: {}",
                row.policy,
                row.regret
            );
        }
    }

    #[test]
    fn comparisons_are_bit_identical_across_thread_counts() {
        let spec = spec();
        let planning = 1.0 / 20_000.0;
        let truth = TruthModel::Exponential { lambda: 1.0 / 5_000.0 };
        let base = EvaluationConfig { trials: 201, seed: 7, threads: 1 };
        let single = compare_policies(&spec, planning, &truth, &base).unwrap();
        for threads in [2usize, 3, 8] {
            let config = EvaluationConfig { threads, ..base };
            let multi = compare_policies(&spec, planning, &truth, &config).unwrap();
            assert_eq!(single, multi, "comparison differs at {threads} threads");
        }
    }

    #[test]
    fn trace_truth_rejects_exhausted_horizons() {
        // A 50 s platform MTBF against 600 s tasks: rework blows past the
        // 64× trace horizon, the tail would run spuriously failure-free,
        // and the harness must refuse instead of reporting optimistic means.
        let spec = spec();
        let truth = TruthModel::WeibullTrace { processors: 2, shape: 0.7, platform_mtbf: 50.0 };
        let config = EvaluationConfig { trials: 10, seed: 1, threads: 1 };
        match compare_policies(&spec, 1.0 / 20_000.0, &truth, &config) {
            Err(AdaptiveError::TraceHorizonExceeded { horizon, makespan, trials }) => {
                assert!(makespan > horizon, "worst makespan must exceed the horizon");
                assert!(
                    (1..=config.trials).contains(&trials),
                    "exceeded-trial count {trials} out of range"
                );
            }
            other => panic!("expected TraceHorizonExceeded, got {other:?}"),
        }
    }

    #[test]
    fn trace_truth_runs_and_is_deterministic() {
        let spec = spec();
        let planning = 1.0 / 20_000.0;
        let truth = TruthModel::WeibullTrace { processors: 4, shape: 0.7, platform_mtbf: 4_000.0 };
        let config = EvaluationConfig { trials: 101, seed: 3, threads: 1 };
        let a = compare_policies(&spec, planning, &truth, &config).unwrap();
        let b = compare_policies(&spec, planning, &truth, &config).unwrap();
        assert_eq!(a, b);
        let threaded =
            compare_policies(&spec, planning, &truth, &EvaluationConfig { threads: 3, ..config })
                .unwrap();
        assert_eq!(a, threaded);
        assert!(a.row("static-plan").mean_failures > 0.0);
    }
}
