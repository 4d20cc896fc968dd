//! `simulate-engines`: Monte-Carlo trials through the library's
//! multi-worker runners (L2). Planning happens only in set-up.
//!
//! Five equally frequent call classes, each sized to a few milliseconds:
//! the fixed-schedule chain engine, the policy engine replaying the same
//! plan, the adaptive re-solving policy, the DAG engine with suffix
//! re-solves, and the cluster engine on a 6-machine pool with correlated
//! shocks. The fixed engine and the static replay share a workload so the
//! cost of the policy path is measured against the engine it must match.

use std::sync::Arc;
use std::time::Instant;

use ckpt_adaptive::{
    optimal_static_dag_plan, optimal_static_plan, AdaptiveResolve, ChainSpec, DagAdaptiveResolve,
    DagSpec, StaticPlan,
};
use ckpt_cluster::{
    run_cluster_monte_carlo, BaselinePolicy, ClusterConfig, ClusterPolicy, ClusterRepair,
    ClusterScenario,
};
use ckpt_core::cost_model::CheckpointCostModel;
use ckpt_core::order_search::OrderSearchConfig;
use ckpt_core::ProblemInstance;
use ckpt_dag::generators;
use ckpt_failure::{Exponential, FailureDistribution, ShockConfig};
use ckpt_simulator::{Segment, SimulationScenario};

use crate::measure::{ratio, Digest};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{LayerContext, Metric, Outcome, Size, Workload};

/// Plans assume this rate; the chain and DAG engines run at 10× it.
const PLANNING_RATE: f64 = 1.0 / 40_000.0;
const TRUE_RATE: f64 = 10.0 * PLANNING_RATE;
const CLASSES: usize = 5;
const FIXED: usize = 0;
const STATIC: usize = 1;
const ADAPTIVE: usize = 2;
const DAG: usize = 3;
const CLUSTER: usize = 4;
const SPAN_NAMES: [&str; CLASSES] = [
    "simulator.run",
    "simulator.run_policy",
    "adaptive.run_policy",
    "simulator.run_dag_policy",
    "cluster.run_monte_carlo",
];
/// e13's pool: 6 machines, natural MTBF 30 000 s, shocks every 900 s
/// striking each machine with p = 0.7 over a 150 s burst, 1 200 s repairs.
const MACHINES: usize = 6;
const NATURAL_MTBF: f64 = 30_000.0;
const SHOCK_RATE: f64 = 1.0 / 900.0;
const FAN_OUT: f64 = 0.7;

pub struct SimulateEngines {
    spec: ChainSpec,
    segments: Vec<Segment>,
    static_plan: StaticPlan,
    adaptive: AdaptiveResolve,
    dag_spec: DagSpec,
    dag_order: Vec<usize>,
    dag_policy: DagAdaptiveResolve,
    cluster: ClusterScenario,
    /// Trials per call, by class.
    trials: [usize; CLASSES],
    /// Monte-Carlo seed of each round of the cycle.
    round_seeds: Vec<u64>,
    workers: usize,
    digests: Vec<u64>,
    /// Traced-pass accumulators: trials run and the summed per-trial
    /// failures (fixed engine) and migrations (cluster), by class.
    traced_trials: [u64; CLASSES],
    fixed_failures: f64,
    cluster_migrations: f64,
}

struct Ran {
    digest: u64,
    trials: usize,
    /// Mean failures (fixed engine) or mean migrations (cluster) per trial.
    per_trial: f64,
}

fn chain_spec(rng: &mut Rng, tasks: usize) -> Result<ChainSpec, String> {
    let weights = rng.vec(tasks, 200.0, 800.0);
    let checkpoints = rng.vec(tasks, 20.0, 60.0);
    let recoveries = rng.vec(tasks, 30.0, 90.0);
    ChainSpec::new(&weights, &checkpoints, &recoveries, 30.0, 10.0).map_err(|e| e.to_string())
}

/// The fixed-schedule engine's view of a placement: one segment per
/// checkpoint, protected by the previous checkpoint's recovery cost.
fn segments_of(spec: &ChainSpec, flags: &[bool]) -> Result<Vec<Segment>, String> {
    let mut segments = Vec::new();
    let (mut start, mut recovery) = (0, spec.initial_recovery());
    for (j, &checkpoint) in flags.iter().enumerate() {
        if checkpoint {
            let task = &spec.tasks()[j];
            let work: f64 = spec.tasks()[start..=j].iter().map(|t| t.work()).sum();
            segments
                .push(Segment::new(work, task.checkpoint(), recovery).map_err(|e| e.to_string())?);
            recovery = task.recovery();
            start = j + 1;
        }
    }
    Ok(segments)
}

/// e12's workload: a 5-level layered DAG of 18 tasks with strongly
/// heterogeneous checkpoint costs.
fn dag_instance(rng: &mut Rng) -> ProblemInstance {
    let mut weights = Rng::new(rng.next_u64(), 1);
    let mut coins = Rng::new(rng.next_u64(), 2);
    let graph = generators::layered_random(
        &[3, 4, 4, 4, 3],
        |_, _| weights.range(200.0, 1_400.0),
        0.45,
        || coins.unit(),
    )
    .expect("non-empty layers");
    let n = graph.task_count();
    ProblemInstance::builder(graph)
        .checkpoint_costs(rng.vec(n, 0.0, 220.0))
        .recovery_costs(rng.vec(n, 0.0, 220.0))
        .platform_lambda(PLANNING_RATE)
        .build()
        .expect("valid generated DAG")
}

/// e13's cluster: four chain jobs of 8–12 tasks on the shocked pool.
fn cluster_scenario(rng: &mut Rng) -> Result<ClusterScenario, String> {
    let jobs = (0..4)
        .map(|_| {
            let tasks = 8 + rng.below(5) as usize;
            let works = rng.vec(tasks, 120.0, 240.0);
            let checkpoints = rng.vec(tasks, 10.0, 20.0);
            let recoveries = rng.vec(tasks, 15.0, 30.0);
            ChainSpec::new(&works, &checkpoints, &recoveries, 20.0, 5.0).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let law: Arc<dyn FailureDistribution + Send + Sync> =
        Arc::new(Exponential::from_mtbf(NATURAL_MTBF).map_err(|e| e.to_string())?);
    let config = ClusterConfig::default()
        .with_migration_overhead(150.0)
        .and_then(|c| c.with_failover_overhead(10.0))
        .and_then(|c| c.with_replication_checkpoint_factor(1.3))
        .map(|c| c.with_retry_budget(4))
        .and_then(|c| c.with_backoff(30.0, 240.0))
        .map_err(|e| e.to_string())?;
    let planning_rate = 1.0 / NATURAL_MTBF + SHOCK_RATE * FAN_OUT;
    ClusterScenario::new(MACHINES, law, planning_rate, jobs)
        .map_err(|e| e.to_string())?
        .with_shocks(ShockConfig::new(SHOCK_RATE, FAN_OUT, 150.0).map_err(|e| e.to_string())?)
        .with_repair(ClusterRepair::Fixed(1_200.0))
        .map(|s| s.with_config(config))
        .map_err(|e| e.to_string())
}

impl SimulateEngines {
    pub fn setup(seed: u64, size: Size, workers: usize) -> Result<Self, String> {
        let (trials, rounds) = match size {
            Size::Full => ([11_500, 4_500, 155, 450, 460], 4),
            Size::Tiny => ([400, 200, 20, 40, 40], 2),
        };
        let mut rng = Rng::new(seed, 0x51E0);
        let spec = chain_spec(&mut rng, 40)?;
        let placement = optimal_static_plan(&spec, PLANNING_RATE).map_err(|e| e.to_string())?;
        let segments = segments_of(&spec, &placement.checkpoint_after())?;
        let adaptive = AdaptiveResolve::new(&spec, PLANNING_RATE).map_err(|e| e.to_string())?;

        let dag_spec = DagSpec::new(dag_instance(&mut rng), CheckpointCostModel::PerLastTask)
            .map_err(|e| e.to_string())?;
        // e12's planner budget; the plan is identical at any thread count.
        let search =
            OrderSearchConfig { restarts: 6, steps: 512, threads: workers, ..Default::default() };
        let dag_plan = optimal_static_dag_plan(&dag_spec, PLANNING_RATE, &search)
            .map_err(|e| e.to_string())?;
        let dag_policy = DagAdaptiveResolve::new(&dag_spec, &dag_plan, PLANNING_RATE)
            .map_err(|e| e.to_string())?;
        let cluster = cluster_scenario(&mut rng)?.with_threads(workers);

        let mut workload = SimulateEngines {
            spec,
            segments,
            static_plan: StaticPlan::from_placement(&placement),
            adaptive,
            dag_spec,
            dag_order: dag_plan.order_indices(),
            dag_policy,
            cluster,
            trials,
            round_seeds: (0..rounds).map(|_| rng.next_u64()).collect(),
            workers,
            digests: Vec::new(),
            traced_trials: [0; CLASSES],
            fixed_failures: 0.0,
            cluster_migrations: 0.0,
        };
        for slot in 0..workload.cycle_len() {
            let ran =
                workload.run(slot % CLASSES, slot / CLASSES, workload.trials[slot % CLASSES])?;
            workload.digests.push(ran.digest);
        }
        Ok(workload)
    }

    fn scenario(&self, round: usize, trials: usize) -> SimulationScenario {
        SimulationScenario::exponential(TRUE_RATE)
            .with_downtime(self.spec.downtime())
            .with_trials(trials)
            .with_seed(self.round_seeds[round])
            .with_threads(self.workers)
    }

    fn run(&self, class: usize, round: usize, trials: usize) -> Result<Ran, String> {
        let mut d = Digest::new();
        let r0 = self.spec.initial_recovery();
        let per_trial = match class {
            FIXED => {
                let out = self
                    .scenario(round, trials)
                    .try_run(&self.segments)
                    .map_err(|e| e.to_string())?;
                d.values(&out.samples)?.value(out.failures.mean)?;
                out.failures.mean
            }
            STATIC | ADAPTIVE => {
                let scenario = self.scenario(round, trials);
                let out = if class == STATIC {
                    scenario.run_policy(self.spec.tasks(), r0, |_| self.static_plan.clone())
                } else {
                    scenario.run_policy(self.spec.tasks(), r0, |_| self.adaptive.clone())
                }
                .map_err(|e| e.to_string())?;
                d.values(&out.samples)?.value(out.failures.mean)?.value(out.checkpoints.mean)?;
                out.failures.mean
            }
            DAG => {
                let out = self
                    .scenario(round, trials)
                    .with_downtime(self.dag_spec.downtime())
                    .run_dag_policy(
                        self.dag_spec.tasks(),
                        &self.dag_order,
                        self.dag_spec.initial_recovery(),
                        |_| self.dag_policy.clone(),
                    )
                    .map_err(|e| e.to_string())?;
                d.values(&out.samples)?.value(out.failures.mean)?.value(out.checkpoints.mean)?;
                out.failures.mean
            }
            _ => {
                let scenario =
                    self.cluster.clone().with_trials(trials).with_seed(self.round_seeds[round]);
                let out = run_cluster_monte_carlo(&scenario, || {
                    Box::new(BaselinePolicy::AlwaysMigrate) as Box<dyn ClusterPolicy>
                })
                .map_err(|e| e.to_string())?;
                d.values(&out.samples)?.value(out.mean_failures)?.value(out.mean_migrations)?;
                out.mean_migrations
            }
        };
        Ok(Ran { digest: d.finish(), trials, per_trial })
    }
}

impl Workload for SimulateEngines {
    fn cycle_len(&self) -> usize {
        CLASSES * self.round_seeds.len()
    }

    fn nominal_calls_per_s(&self) -> f64 {
        350.0
    }

    fn unit_name(&self) -> &'static str {
        "trials"
    }

    fn call(&mut self, k: usize, trace: Option<(&Tracer, u64)>) -> Result<Outcome, String> {
        let slot = k % self.cycle_len();
        let (class, round) = (slot % CLASSES, slot / CLASSES);
        let started = Instant::now();
        let ran = {
            let _span = trace.map(|(tracer, call)| tracer.span(SPAN_NAMES[class], 0, call));
            self.run(class, round, self.trials[class])?
        };
        let latency = started.elapsed();
        if trace.is_some() {
            self.traced_trials[class] += ran.trials as u64;
            match class {
                FIXED => self.fixed_failures += ran.per_trial * ran.trials as f64,
                CLUSTER => self.cluster_migrations += ran.per_trial * ran.trials as f64,
                _ => {}
            }
        }
        Ok(Outcome { units: ran.trials as u64, digest: ran.digest, latency })
    }

    fn reference(&self, slot: usize) -> u64 {
        self.digests[slot]
    }

    /// The static replay through the policy engine must reproduce the fixed
    /// engine at the same seed: equal failure counts, makespans within
    /// 10⁻⁹ relative, trial by trial.
    fn oracles(&self) -> Vec<(usize, String)> {
        let mut bad = Vec::new();
        let trials = self.trials[STATIC];
        for round in 0..self.round_seeds.len() {
            let slot = CLASSES * round + STATIC;
            let fixed = self.scenario(round, trials).try_run(&self.segments);
            let replay = self.scenario(round, trials).run_policy(
                self.spec.tasks(),
                self.spec.initial_recovery(),
                |_| self.static_plan.clone(),
            );
            match (fixed, replay) {
                (Ok(fixed), Ok(replay)) => {
                    let close = fixed
                        .samples
                        .iter()
                        .zip(&replay.samples)
                        .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()));
                    if fixed.failures.mean != replay.failures.mean
                        || fixed.samples.len() != replay.samples.len()
                        || !close
                    {
                        bad.push((
                            slot,
                            format!("round {round}: static replay differs from the fixed engine"),
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => bad.push((slot, format!("round {round}: {e}"))),
            }
        }
        bad
    }

    fn begin_traced_pass(&mut self) {
        self.traced_trials = [0; CLASSES];
        self.fixed_failures = 0.0;
        self.cluster_migrations = 0.0;
    }

    fn layer_metrics(&self, ctx: &LayerContext) -> Vec<Metric> {
        let trial_ns = |class: usize| {
            ratio(ctx.layer(SPAN_NAMES[class]).total_ns as f64, self.traced_trials[class] as f64)
        };
        vec![
            Metric::new("simulator.fixed_trial_ns", trial_ns(FIXED), "ns"),
            Metric::new("simulator.policy_trial_ns", trial_ns(STATIC), "ns"),
            Metric::new("adaptive.trial_ns", trial_ns(ADAPTIVE), "ns"),
            Metric::new("simulator.dag_trial_ns", trial_ns(DAG), "ns"),
            Metric::new("cluster.trial_ns", trial_ns(CLUSTER), "ns"),
            Metric::new(
                "simulator.failures_per_trial",
                ratio(self.fixed_failures, self.traced_trials[FIXED] as f64),
                "count",
            ),
            Metric::new(
                "adaptive.replans",
                ctx.counters.adaptive.adaptive_resolve_replans as f64,
                "count",
            ),
            Metric::new("failure.shocks", ctx.counters.failure.shocks as f64, "count"),
            Metric::new(
                "cluster.migrations_per_trial",
                ratio(self.cluster_migrations, self.traced_trials[CLUSTER] as f64),
                "count",
            ),
        ]
    }
}
