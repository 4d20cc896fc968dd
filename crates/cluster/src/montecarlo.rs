//! Monte-Carlo driver and policy-comparison harness for the cluster tier.
//!
//! A [`ClusterScenario`] bundles everything a trial needs: the machine pool,
//! the per-machine failure law, the correlated-shock and repair models, the
//! cluster cost knobs, and the job mix (one [`ChainSpec`] per job).
//! Checkpoint plans are computed from the chain DP
//! ([`optimal_static_plan`]) at the scenario's planning rate — replicated
//! jobs optionally plan at a policy-chosen sparser rate (the Setlur
//! trade-off).
//!
//! Trials are scattered across threads with the simulator's
//! [`scatter_trials`] and aggregated **in trial order**, so results are
//! bit-identical at any thread count. Policy comparisons reuse the same
//! per-trial seeds for every policy (paired streams): regret differences are
//! never an artefact of different failure draws.

use std::sync::Arc;

use crate::engine::{run_cluster, ClusterConfig, ClusterOutcome};
use crate::error::{ensure_non_negative, ClusterError};
use crate::job::ClusterJob;
use crate::policy::{AdmissionContext, BaselinePolicy, ClusterPolicy};
use ckpt_adaptive::{optimal_static_plan, ChainSpec};
use ckpt_expectation::numeric::SampleStats;
use ckpt_failure::{
    ClusterFailureInjector, FailureDistribution, Pcg64, RandomSource, RepairModel, ShockConfig,
};
use ckpt_simulator::{effective_threads, scatter_trials};
use ckpt_telemetry::{MetricsRegistry, NoopSink};

/// Machine-repair model of a scenario — the clonable (per-trial) counterpart
/// of the injector's [`RepairModel`].
#[derive(Debug, Clone)]
pub enum ClusterRepair {
    /// Machines are available again at the failure instant.
    Immediate,
    /// Every repair takes a fixed interval.
    Fixed(f64),
    /// Repair durations are drawn from a law (fresh stream per trial).
    Random(Arc<dyn FailureDistribution + Send + Sync>),
}

impl ClusterRepair {
    fn to_model(&self) -> RepairModel {
        match self {
            ClusterRepair::Immediate => RepairModel::Immediate,
            ClusterRepair::Fixed(duration) => RepairModel::Fixed(*duration),
            ClusterRepair::Random(law) => RepairModel::Random(Box::new(Arc::clone(law))),
        }
    }
}

/// A reproducible cluster experiment: machines, failure model, cost knobs and
/// job mix.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    machines: usize,
    law: Arc<dyn FailureDistribution + Send + Sync>,
    planning_rate: f64,
    shocks: Option<ShockConfig>,
    repair: ClusterRepair,
    config: ClusterConfig,
    specs: Vec<ChainSpec>,
    trials: usize,
    seed: u64,
    threads: usize,
}

impl ClusterScenario {
    /// Builds a scenario with default knobs: no shocks, immediate repair,
    /// default [`ClusterConfig`], 1000 trials, seed `0x5EED`, auto thread
    /// count. Every job arrives at time 0.
    ///
    /// `planning_rate` is the failure rate the chain DP plans checkpoints
    /// for; `law` drives the per-machine failure processes.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] if the pool or job mix is empty or the
    /// planning rate is not strictly positive and finite.
    pub fn new(
        machines: usize,
        law: Arc<dyn FailureDistribution + Send + Sync>,
        planning_rate: f64,
        specs: Vec<ChainSpec>,
    ) -> Result<Self, ClusterError> {
        if machines == 0 {
            return Err(ClusterError::EmptyCluster);
        }
        if specs.is_empty() {
            return Err(ClusterError::NoJobs);
        }
        if !planning_rate.is_finite() || planning_rate <= 0.0 {
            return Err(ClusterError::InvalidParameter {
                name: "planning_rate",
                value: planning_rate,
            });
        }
        Ok(ClusterScenario {
            machines,
            law,
            planning_rate,
            shocks: None,
            repair: ClusterRepair::Immediate,
            config: ClusterConfig::default(),
            specs,
            trials: 1000,
            seed: 0x5EED,
            threads: 0,
        })
    }

    /// Adds a correlated-shock process (builder style).
    pub fn with_shocks(mut self, shocks: ShockConfig) -> Self {
        self.shocks = Some(shocks);
        self
    }

    /// Sets the machine-repair model (builder style).
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] if a fixed repair duration is negative.
    pub fn with_repair(mut self, repair: ClusterRepair) -> Result<Self, ClusterError> {
        if let ClusterRepair::Fixed(duration) = repair {
            ensure_non_negative("repair_duration", duration)?;
        }
        self.repair = repair;
        Ok(self)
    }

    /// Sets the cluster cost knobs (builder style).
    pub fn with_config(mut self, config: ClusterConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the trial count (builder style).
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Sets the root seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count; `0` = all available cores (builder
    /// style). Results are bit-identical at any setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The machine-pool size.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The number of Monte-Carlo trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The cluster cost knobs.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The planning failure rate handed to the chain DP.
    pub fn planning_rate(&self) -> f64 {
        self.planning_rate
    }

    /// Ranks jobs by total work, `0` = largest (ties broken by index).
    fn work_ranks(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.specs.len()).collect();
        order.sort_by(|&a, &b| {
            self.specs[b].total_work().total_cmp(&self.specs[a].total_work()).then(a.cmp(&b))
        });
        let mut ranks = vec![0usize; order.len()];
        for (rank, &job) in order.iter().enumerate() {
            ranks[job] = rank;
        }
        ranks
    }

    /// Materialises the job mix under `policy`'s admission decisions:
    /// consults [`ClusterPolicy::wants_replica`] per job and plans
    /// checkpoints with the chain DP — replicated jobs at
    /// `planning_rate × replicated_plan_rate_factor`.
    ///
    /// Admission decisions must be deterministic in the
    /// [`AdmissionContext`]: jobs are built once and shared by all trials.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Planning`] when the chain DP rejects a spec or
    /// rate.
    pub fn build_jobs<P: ClusterPolicy + ?Sized>(
        &self,
        policy: &mut P,
    ) -> Result<Vec<ClusterJob>, ClusterError> {
        let ranks = self.work_ranks();
        let mut jobs = Vec::with_capacity(self.specs.len());
        for (j, spec) in self.specs.iter().enumerate() {
            let ctx = AdmissionContext {
                job: j,
                total_work: spec.total_work(),
                work_rank: ranks[j],
                job_count: self.specs.len(),
                machine_count: self.machines,
            };
            let replicate = policy.wants_replica(&ctx);
            let rate = if replicate {
                self.planning_rate * policy.replicated_plan_rate_factor()
            } else {
                self.planning_rate
            };
            let plan = optimal_static_plan(spec, rate)
                .map_err(|e| ClusterError::Planning(e.to_string()))?
                .checkpoint_after()
                .to_vec();
            let mut job = ClusterJob::new(
                spec.tasks().to_vec(),
                spec.initial_recovery(),
                spec.downtime(),
                plan,
            )?;
            if replicate {
                job = job.with_replica();
            }
            jobs.push(job);
        }
        Ok(jobs)
    }

    /// Builds the failure injector for one trial — the same streams the
    /// Monte-Carlo runner drives, exposed so a single trial can be replayed
    /// in isolation (e.g. traced through [`run_cluster`] into a JSONL event
    /// dump).
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] when the injector rejects the pool or
    /// repair model.
    pub fn trial_injector(&self, trial: usize) -> Result<ClusterFailureInjector, ClusterError> {
        self.injector(trial)
    }

    /// Builds the failure injector for one trial. Trial `t` of a scenario is
    /// always driven by the same streams, whatever policy runs on top —
    /// policy comparisons are paired.
    fn injector(&self, trial: usize) -> Result<ClusterFailureInjector, ClusterError> {
        let mut rng = Pcg64::seed_from_u64(self.seed).derive(trial as u64);
        let trial_seed = rng.next_u64();
        let mut injector =
            ClusterFailureInjector::homogeneous(self.machines, Arc::clone(&self.law), trial_seed)
                .map_err(|e| ClusterError::Planning(e.to_string()))?;
        if let Some(shocks) = self.shocks {
            injector = injector.with_shocks(shocks);
        }
        injector = injector
            .with_repair(self.repair.to_model())
            .map_err(|e| ClusterError::Planning(e.to_string()))?;
        Ok(injector)
    }
}

/// Aggregated Monte-Carlo outcome of one policy on one scenario.
#[derive(Debug, Clone)]
pub struct ClusterMonteCarloOutcome {
    /// Trials aggregated.
    pub trials: usize,
    /// Cluster makespan (completion of the last job) across trials.
    pub makespan: SampleStats,
    /// Per-trial mean job makespan.
    pub job_makespan: SampleStats,
    /// Per-trial total ready-queue waiting time.
    pub waiting: SampleStats,
    /// Per-trial useful machine utilisation.
    pub utilisation: SampleStats,
    /// Mean failures absorbed per trial (all jobs).
    pub mean_failures: f64,
    /// Mean migrations per trial.
    pub mean_migrations: f64,
    /// Mean failovers per trial.
    pub mean_failovers: f64,
    /// Largest ready-queue depth observed in any trial.
    pub max_queue_depth: usize,
    /// Per-trial cluster makespans in trial order (for bitwise determinism
    /// checks and paired comparisons).
    pub samples: Vec<f64>,
    /// Per-trial mean job makespan, total waiting and utilisation, in trial
    /// order.
    job_makespans: Vec<f64>,
    waits: Vec<f64>,
    utilisations: Vec<f64>,
    /// Failures, migrations and failovers summed over every job of every
    /// trial.
    totals: [u64; 3],
}

impl ClusterMonteCarloOutcome {
    /// Records the run's telemetry into `metrics`: the counters
    /// `cluster_trials_total`, `cluster_failures_total`,
    /// `cluster_migrations_total` and `cluster_failovers_total`, one
    /// observation per trial (in trial order) into each of the histograms
    /// `cluster_makespan`, `cluster_job_makespan`, `cluster_waiting` and
    /// `cluster_utilisation`, and the gauge `cluster_max_queue_depth`.
    ///
    /// Histograms keep exact bucket counts, minimum and maximum and no
    /// floating-point sum, so the registry is the same at any thread count
    /// the outcome was computed with.
    pub fn record_into(&self, metrics: &mut MetricsRegistry) {
        let [failures, migrations, failovers] = self.totals;
        metrics.counter_add("cluster_trials_total", self.trials as u64);
        metrics.counter_add("cluster_failures_total", failures);
        metrics.counter_add("cluster_migrations_total", migrations);
        metrics.counter_add("cluster_failovers_total", failovers);
        for trial in 0..self.trials {
            metrics.observe("cluster_makespan", self.samples[trial]);
            metrics.observe("cluster_job_makespan", self.job_makespans[trial]);
            metrics.observe("cluster_waiting", self.waits[trial]);
            metrics.observe("cluster_utilisation", self.utilisations[trial]);
        }
        metrics.gauge_set("cluster_max_queue_depth", self.max_queue_depth as f64);
    }
}

/// Runs `scenario` under policies produced by `factory` (one fresh policy per
/// trial; one more instance decides admissions when building the job mix).
/// Trials run untraced; [`ClusterMonteCarloOutcome::record_into`] turns the
/// outcome into telemetry.
///
/// # Errors
///
/// Propagates the first [`ClusterError`] from job building or any trial.
pub fn run_cluster_monte_carlo<F>(
    scenario: &ClusterScenario,
    factory: F,
) -> Result<ClusterMonteCarloOutcome, ClusterError>
where
    F: Fn() -> Box<dyn ClusterPolicy> + Sync,
{
    let mut admission = factory();
    let jobs = scenario.build_jobs(&mut admission)?;
    drop(admission);

    let results: Vec<Result<ClusterOutcome, ClusterError>> =
        scatter_trials(scenario.trials(), effective_threads(scenario.threads), |trial| {
            let mut injector = scenario.injector(trial)?;
            let mut policy = factory();
            run_cluster(
                &jobs,
                scenario.machines,
                &mut injector,
                &mut policy,
                &scenario.config,
                &mut NoopSink,
            )
        });
    aggregate_trials(results)
}

/// Aggregates the trial outcomes in trial order.
fn aggregate_trials(
    results: Vec<Result<ClusterOutcome, ClusterError>>,
) -> Result<ClusterMonteCarloOutcome, ClusterError> {
    let mut makespans = Vec::with_capacity(results.len());
    let mut job_makespans = Vec::with_capacity(results.len());
    let mut waits = Vec::with_capacity(results.len());
    let mut utilisations = Vec::with_capacity(results.len());
    let mut totals = [0u64; 3];
    let mut max_queue_depth = 0usize;
    for result in results {
        let outcome = result?;
        makespans.push(outcome.makespan);
        let jobs_n = outcome.jobs.len() as f64;
        job_makespans.push(outcome.jobs.iter().map(|j| j.record.makespan).sum::<f64>() / jobs_n);
        waits.push(outcome.jobs.iter().map(|j| j.waiting).sum::<f64>());
        utilisations.push(outcome.utilisation);
        for job in &outcome.jobs {
            totals[0] += job.record.failures;
            totals[1] += job.migrations;
            totals[2] += job.failovers;
        }
        max_queue_depth = max_queue_depth.max(outcome.peak_queue_depth);
    }
    // Counts are exact in an `f64` far beyond any run's totals, so the means
    // are the ones an `f64` running sum would give.
    let n = makespans.len() as f64;
    let [failures, migrations, failovers] = totals.map(|total| total as f64);
    Ok(ClusterMonteCarloOutcome {
        trials: makespans.len(),
        makespan: SampleStats::from_values(&makespans),
        job_makespan: SampleStats::from_values(&job_makespans),
        waiting: SampleStats::from_values(&waits),
        utilisation: SampleStats::from_values(&utilisations),
        mean_failures: failures / n,
        mean_migrations: migrations / n,
        mean_failovers: failovers / n,
        max_queue_depth,
        samples: makespans,
        job_makespans,
        waits,
        utilisations,
        totals,
    })
}

/// One row of a policy comparison.
#[derive(Debug, Clone)]
pub struct ClusterComparisonEntry {
    /// Policy name.
    pub name: String,
    /// The policy's Monte-Carlo outcome.
    pub outcome: ClusterMonteCarloOutcome,
    /// Mean-cluster-makespan regret against the best policy in the
    /// comparison (`0` for the winner).
    pub regret: f64,
}

/// The outcome of [`compare_baselines`].
#[derive(Debug, Clone)]
pub struct ClusterComparison {
    /// One entry per compared policy, in input order.
    pub entries: Vec<ClusterComparisonEntry>,
    /// Index of the policy with the smallest mean cluster makespan.
    pub best: usize,
}

/// Runs every [`BaselinePolicy`] of `entries` on the **same** per-trial
/// failure streams and reports mean-makespan regret against the best — the
/// form the e13 experiment uses.
///
/// # Errors
///
/// Returns [`ClusterError::NoJobs`] if `entries` is empty, and propagates the
/// first [`ClusterError`] from any policy's run.
pub fn compare_baselines(
    scenario: &ClusterScenario,
    entries: &[(&str, BaselinePolicy)],
) -> Result<ClusterComparison, ClusterError> {
    if entries.is_empty() {
        return Err(ClusterError::NoJobs);
    }
    let mut rows = Vec::with_capacity(entries.len());
    for &(name, policy) in entries {
        let outcome =
            run_cluster_monte_carlo(scenario, move || Box::new(policy) as Box<dyn ClusterPolicy>)?;
        rows.push(ClusterComparisonEntry { name: name.to_string(), outcome, regret: 0.0 });
    }
    let best = rows
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.outcome.makespan.mean.total_cmp(&b.outcome.makespan.mean))
        .map(|(i, _)| i)
        .expect("entries checked non-empty");
    let best_mean = rows[best].outcome.makespan.mean;
    for row in &mut rows {
        row.regret = row.outcome.makespan.mean - best_mean;
    }
    Ok(ClusterComparison { entries: rows, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_failure::Exponential;

    fn spec(works: &[f64]) -> ChainSpec {
        let n = works.len();
        ChainSpec::new(works, &vec![8.0; n], &vec![4.0; n], 4.0, 1.0).unwrap()
    }

    fn scenario(machines: usize, trials: usize) -> ClusterScenario {
        let law: Arc<dyn FailureDistribution + Send + Sync> =
            Arc::new(Exponential::from_mtbf(600.0).unwrap());
        ClusterScenario::new(
            machines,
            law,
            1.0 / 600.0,
            vec![spec(&[60.0; 8]), spec(&[40.0; 6]), spec(&[20.0; 4])],
        )
        .unwrap()
        .with_trials(trials)
        .with_seed(11)
    }

    #[test]
    fn outcome_is_bitwise_identical_across_thread_counts() {
        let base = scenario(3, 24);
        let reference = run_cluster_monte_carlo(&base.clone().with_threads(1), || {
            Box::new(BaselinePolicy::CheckpointOnly)
        })
        .unwrap();
        for threads in [2usize, 3, 8] {
            let other = run_cluster_monte_carlo(&base.clone().with_threads(threads), || {
                Box::new(BaselinePolicy::CheckpointOnly)
            })
            .unwrap();
            assert_eq!(reference.samples, other.samples, "threads={threads}");
        }
    }

    #[test]
    fn build_jobs_honours_admission_and_rate_factor() {
        let sc = scenario(4, 4);
        let mut replicate_all =
            BaselinePolicy::Setlur { replicate_fraction: 1.0, rate_factor: 0.2 };
        let replicated = sc.build_jobs(&mut replicate_all).unwrap();
        assert!(replicated.iter().all(|j| j.replica_requested()));
        let mut none = BaselinePolicy::CheckpointOnly;
        let plain = sc.build_jobs(&mut none).unwrap();
        assert!(plain.iter().all(|j| !j.replica_requested()));
        // Sparser planning rate ⇒ no more checkpoints than the base plan.
        for (r, p) in replicated.iter().zip(&plain) {
            let rc = r.plan().iter().filter(|&&b| b).count();
            let pc = p.plan().iter().filter(|&&b| b).count();
            assert!(rc <= pc, "replicated plan should be no denser ({rc} > {pc})");
        }
    }

    #[test]
    fn comparison_is_paired_and_reports_regret() {
        let sc = scenario(3, 16);
        let cmp = compare_baselines(
            &sc,
            &[
                ("checkpoint-only", BaselinePolicy::CheckpointOnly),
                ("always-migrate", BaselinePolicy::AlwaysMigrate),
            ],
        )
        .unwrap();
        assert_eq!(cmp.entries.len(), 2);
        assert_eq!(cmp.entries[cmp.best].regret, 0.0);
        assert!(cmp.entries.iter().all(|e| e.regret >= 0.0));
        // Immediate repair and zero migration overhead: the two policies see
        // the same streams; migration can only shed queueing, which this
        // 3-machine 3-job mix does not have — outcomes must be identical.
        assert_eq!(cmp.entries[0].outcome.makespan.mean, cmp.entries[1].outcome.makespan.mean);
    }

    /// `record_into` gives the registry of recording every trial of the
    /// engine as it ends, in trial order, at any thread count.
    #[test]
    fn recorded_metrics_match_per_trial_recording_at_any_thread_count() {
        let base = scenario(3, 24);
        let factory = || Box::new(BaselinePolicy::AlwaysMigrate) as Box<dyn ClusterPolicy>;
        let jobs = base.build_jobs(factory().as_mut()).unwrap();
        let mut reference = MetricsRegistry::new();
        let mut peak = 0;
        for trial in 0..base.trials() {
            let mut injector = base.trial_injector(trial).unwrap();
            let (machines, config) = (base.machines(), base.config());
            let out =
                run_cluster(&jobs, machines, &mut injector, &mut factory(), config, &mut NoopSink)
                    .unwrap();
            let jobs_n = out.jobs.len() as f64;
            let total = |count: fn(&crate::JobRecord) -> u64| out.jobs.iter().map(count).sum();
            reference.counter_add("cluster_trials_total", 1);
            reference.counter_add("cluster_failures_total", total(|j| j.record.failures));
            reference.counter_add("cluster_migrations_total", total(|j| j.migrations));
            reference.counter_add("cluster_failovers_total", total(|j| j.failovers));
            reference.observe("cluster_makespan", out.makespan);
            let job_makespan = out.jobs.iter().map(|j| j.record.makespan).sum::<f64>() / jobs_n;
            reference.observe("cluster_job_makespan", job_makespan);
            reference.observe("cluster_waiting", out.jobs.iter().map(|j| j.waiting).sum::<f64>());
            reference.observe("cluster_utilisation", out.utilisation);
            peak = peak.max(out.peak_queue_depth);
        }
        reference.gauge_set("cluster_max_queue_depth", peak as f64);
        assert!(reference.counter("cluster_migrations_total") > 0);

        for threads in [1usize, 2, 3, 8] {
            let outcome =
                run_cluster_monte_carlo(&base.clone().with_threads(threads), factory).unwrap();
            let mut recorded = MetricsRegistry::new();
            outcome.record_into(&mut recorded);
            assert_eq!(recorded, reference, "threads={threads}");
            let migrations = recorded.counter("cluster_migrations_total") as f64;
            assert_eq!(migrations / 24.0, outcome.mean_migrations);
        }
    }

    #[test]
    fn scenario_validates() {
        let law: Arc<dyn FailureDistribution + Send + Sync> =
            Arc::new(Exponential::from_mtbf(100.0).unwrap());
        assert!(ClusterScenario::new(0, Arc::clone(&law), 0.01, vec![spec(&[1.0])]).is_err());
        assert!(ClusterScenario::new(1, Arc::clone(&law), 0.01, vec![]).is_err());
        assert!(ClusterScenario::new(1, Arc::clone(&law), -1.0, vec![spec(&[1.0])]).is_err());
        let sc = ClusterScenario::new(1, law, 0.01, vec![spec(&[1.0])]).unwrap();
        assert!(sc.with_repair(ClusterRepair::Fixed(-2.0)).is_err());
    }
}
