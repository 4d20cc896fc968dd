//! Exact time accounting, with no epsilon.
//!
//! `TimeBreakdown` partitions a makespan into `useful + lost + downtime +
//! recovery`, and its doc says the partition is exact. Every duration and
//! failure time here is a multiple of 2⁻⁸ below 2²⁰, so every sum the
//! engines form is exact in `f64`, and the partition is asserted with `==`:
//!
//! * `simulate` on segments, `simulate_policy` and `run_policy` under
//!   `StaticPlan` and `PeriodicYoung`, `simulate_dag_policy` and
//!   `run_dag_policy` under `StaticPlan::from_plan` and `DagRelinearise`,
//!   and the one-machine cluster;
//! * on scripted streams that strike exactly at an attempt's end, inside a
//!   checkpoint, exactly at a downtime's end and inside a recovery, and on
//!   renewal streams whose gaps are rounded to the same grid;
//! * the Monte-Carlo drivers run 64 trials, so their means divide exactly
//!   too: `mean_breakdown.total() == makespan.mean`.
//!
//! Under a static plan the useful time is also exactly the plan's
//! failure-free makespan.

use ckpt_workflows::adaptive::{
    optimal_static_dag_plan, ChainSpec, DagRelinearise, DagSpec, PeriodicYoung, StaticPlan,
};
use ckpt_workflows::cluster::{
    run_cluster, BaselinePolicy, ClusterConfig, ClusterJob, MachineFailureSource,
};
use ckpt_workflows::core::cost_model::CheckpointCostModel;
use ckpt_workflows::core::order_search::OrderSearchConfig;
use ckpt_workflows::core::ProblemInstance;
use ckpt_workflows::dag::generators;
use ckpt_workflows::failure::{Pcg64, RandomSource};
use ckpt_workflows::simulator::stream::ScriptedStream;
use ckpt_workflows::simulator::{
    simulate, simulate_dag_policy, simulate_policy, ChainTask, ExecutionRecord, FailureStream,
    MonteCarloOutcome, Policy, Segment, SimulationScenario,
};
use ckpt_workflows::telemetry::NoopSink;

/// The grid every duration and failure time lies on.
const GRID: f64 = 1.0 / 256.0;
/// Monte-Carlo trials: a power of two, so means divide exactly.
const TRIALS: usize = 64;

/// A multiple of [`GRID`] in `[lo, hi)`.
fn dyadic(rng: &mut Pcg64, lo: f64, hi: f64) -> f64 {
    lo + (rng.next_f64() * (hi - lo) / GRID).floor() * GRID
}

/// A cost that is exactly zero one time in four.
fn cost(rng: &mut Pcg64, hi: f64) -> f64 {
    if rng.next_u64().is_multiple_of(4) {
        0.0
    } else {
        dyadic(rng, GRID, hi)
    }
}

/// A renewal failure process whose gaps are Exponential draws rounded up
/// to the grid.
struct DyadicStream {
    rng: Pcg64,
    mean: f64,
    next: f64,
}

impl DyadicStream {
    fn new(mean: f64, seed: u64) -> Self {
        let mut stream = DyadicStream { rng: Pcg64::seed_from_u64(seed), mean, next: 0.0 };
        stream.next = stream.gap();
        stream
    }

    fn gap(&mut self) -> f64 {
        let draw = -self.mean * (1.0 - self.rng.next_f64()).ln();
        (draw / GRID).ceil().max(1.0) * GRID
    }
}

impl FailureStream for DyadicStream {
    fn next_failure_after(&mut self, after: f64) -> Option<f64> {
        while self.next <= after {
            self.next += self.gap();
        }
        Some(self.next)
    }
}

/// One machine failing on a [`FailureStream`], repaired instantly.
struct OneMachine(Box<dyn FailureStream>);

impl MachineFailureSource for OneMachine {
    fn machine_count(&self) -> usize {
        1
    }

    fn next_failure_after(&mut self, _machine: usize, after: f64) -> f64 {
        self.0.next_failure_after(after).unwrap_or(f64::INFINITY)
    }

    fn begin_repair(&mut self, _machine: usize, at: f64) -> f64 {
        at
    }
}

/// A random chain on the grid: its tasks, `R₀`, `D` and a checkpoint plan.
struct Chain {
    spec: ChainSpec,
    plan: Vec<bool>,
}

impl Chain {
    fn new(seed: u64) -> Self {
        let mut rng = Pcg64::seed_from_u64(seed);
        let n = 2 + (rng.next_u64() % 11) as usize;
        let works: Vec<f64> = (0..n).map(|_| dyadic(&mut rng, 1.0, 4_096.0)).collect();
        // Nonzero mean checkpoint cost, so the Young period exists.
        let mut ckpts: Vec<f64> = (0..n).map(|_| cost(&mut rng, 256.0)).collect();
        ckpts[0] = dyadic(&mut rng, GRID, 256.0);
        let recs: Vec<f64> = (0..n).map(|_| cost(&mut rng, 256.0)).collect();
        let (r0, d) = (cost(&mut rng, 128.0), cost(&mut rng, 64.0));
        let spec = ChainSpec::new(&works, &ckpts, &recs, r0, d).unwrap();
        let plan = (0..n).map(|_| rng.next_u64().is_multiple_of(3)).collect();
        Chain { spec, plan }
    }

    fn tasks(&self) -> &[ChainTask] {
        self.spec.tasks()
    }

    /// The plan's attempts as `(first, last)` positions.
    fn attempts(&self) -> Vec<(usize, usize)> {
        let last = self.plan.len() - 1;
        let mut attempts = Vec::new();
        let mut start = 0;
        for (j, &flag) in self.plan.iter().enumerate() {
            if flag || j == last {
                attempts.push((start, j));
                start = j + 1;
            }
        }
        attempts
    }

    /// The plan as segments, each protected by the previous checkpoint's
    /// recovery.
    fn segments(&self) -> Vec<Segment> {
        let mut recovery = self.spec.initial_recovery();
        self.attempts()
            .into_iter()
            .map(|(first, last)| {
                let work = self.tasks()[first..=last].iter().map(ChainTask::work).sum();
                let segment =
                    Segment::new(work, self.tasks()[last].checkpoint(), recovery).unwrap();
                recovery = self.tasks()[last].recovery();
                segment
            })
            .collect()
    }

    fn failure_free_makespan(&self) -> f64 {
        self.segments().iter().map(Segment::attempt_duration).sum()
    }

    /// Strikes placed against the plan's timeline: exactly at the first
    /// attempt's end (no interruption), inside the second attempt's
    /// checkpoint (or its work when the checkpoint is free), exactly at the
    /// end of the downtime that follows, inside the recovery, exactly at the
    /// end of the next downtime, and once late in the run.
    fn script(&self) -> Vec<f64> {
        let segments = self.segments();
        let d = self.spec.downtime();
        let first_end = segments[0].attempt_duration();
        let mut times = vec![first_end];
        if let Some(second) = segments.get(1) {
            let (w, c) = (second.work(), second.checkpoint());
            let into = if c >= 2.0 * GRID { w + half(c) } else { half(w) };
            let strike = first_end + into;
            let recovery = second.recovery();
            let in_recovery = strike + d + half(recovery);
            times.extend([strike, strike + d, in_recovery, in_recovery + d]);
        }
        times.push(times[times.len() - 1] + half(self.failure_free_makespan()));
        times.dedup();
        times
    }

    fn mean_gap(&self, seed: u64) -> f64 {
        // λ·W between 0.5 and 4.
        let lambda_w = 0.5 + 3.5 * Pcg64::seed_from_u64(seed ^ 0x1A).next_f64();
        self.spec.total_work() / lambda_w
    }
}

/// Half of `x`, rounded down to the grid.
fn half(x: f64) -> f64 {
    (x / 2.0 / GRID).floor() * GRID
}

/// The exact partition of one run.
fn assert_exact(record: &ExecutionRecord, what: &str) {
    let b = record.breakdown;
    assert_eq!(record.makespan, b.total(), "{what}: {b:?}");
    assert!(record.makespan < 1_048_576.0, "{what}: the run left the 2²⁰ grid");
}

/// The exact partition of a Monte-Carlo outcome's means.
fn assert_exact_mean(outcome: &MonteCarloOutcome, what: &str) {
    assert_eq!(outcome.makespan.count, TRIALS);
    assert_eq!(outcome.mean_breakdown.total(), outcome.makespan.mean, "{what}");
}

/// The streams every single run is played against: the script and two
/// renewal streams.
fn streams(chain: &Chain, seed: u64) -> Vec<Box<dyn FailureStream>> {
    let mean = chain.mean_gap(seed);
    vec![
        Box::new(ScriptedStream::new(chain.script())),
        Box::new(DyadicStream::new(mean, seed)),
        Box::new(DyadicStream::new(mean, seed ^ 0xF00D)),
    ]
}

fn scenario<S: FailureStream + 'static>(
    downtime: f64,
    make_stream: impl Fn(usize, u64) -> S + Send + Sync + 'static,
) -> SimulationScenario {
    SimulationScenario::from_streams(make_stream)
        .with_downtime(downtime)
        .with_trials(TRIALS)
        .with_seed(0xE4AC7)
        .with_threads(2)
}

#[test]
fn chain_engines_partition_the_makespan_exactly() {
    let mut struck = 0;
    for seed in 0..48u64 {
        let chain = Chain::new(seed);
        let (r0, d) = (chain.spec.initial_recovery(), chain.spec.downtime());
        let young = PeriodicYoung::new(&chain.spec, 1.0 / chain.mean_gap(seed)).unwrap();
        let fixed = chain.segments();
        for (k, mut stream) in streams(&chain, seed).into_iter().enumerate() {
            let what = format!("seed {seed}, stream {k}");
            let record = simulate(&fixed, d, stream.as_mut()).unwrap();
            assert_exact(&record, &format!("simulate, {what}"));
            assert_eq!(record.breakdown.useful, chain.failure_free_makespan(), "{what}");
            struck += record.failures;
        }
        for (k, mut stream) in streams(&chain, seed).into_iter().enumerate() {
            let mut plan = StaticPlan::new(chain.plan.clone());
            let out =
                simulate_policy(chain.tasks(), r0, d, &mut plan, stream.as_mut(), &mut NoopSink)
                    .unwrap();
            assert_exact(&out.record, &format!("StaticPlan, seed {seed}, stream {k}"));
            assert_eq!(out.record.breakdown.useful, chain.failure_free_makespan());
        }
        for (k, mut stream) in streams(&chain, seed).into_iter().enumerate() {
            let out = simulate_policy(
                chain.tasks(),
                r0,
                d,
                &mut young.clone(),
                stream.as_mut(),
                &mut NoopSink,
            )
            .unwrap();
            assert_exact(&out.record, &format!("PeriodicYoung, seed {seed}, stream {k}"));
        }

        let mean = chain.mean_gap(seed);
        let renewal = scenario(d, move |_, trial_seed| DyadicStream::new(mean, trial_seed));
        let script = chain.script();
        let scripted = scenario(d, move |_, _| ScriptedStream::new(script.clone()));
        for scenario in [renewal, scripted] {
            assert_exact_mean(&scenario.try_run(&fixed).unwrap(), "try_run");
            let plan = StaticPlan::new(chain.plan.clone());
            let out = scenario.run_policy(chain.tasks(), r0, |_| plan.clone()).unwrap();
            assert_exact_mean(&out, "run_policy(StaticPlan)");
            let out = scenario.run_policy(chain.tasks(), r0, |_| young.clone()).unwrap();
            assert_exact_mean(&out, "run_policy(PeriodicYoung)");
        }
    }
    assert!(struck > 48, "the streams must strike: {struck} failures");
}

#[test]
fn one_machine_cluster_partitions_the_makespan_exactly() {
    for seed in 0..48u64 {
        let chain = Chain::new(seed);
        let (r0, d) = (chain.spec.initial_recovery(), chain.spec.downtime());
        let job = ClusterJob::new(chain.tasks().to_vec(), r0, d, chain.plan.clone()).unwrap();
        for (k, stream) in streams(&chain, seed).into_iter().enumerate() {
            let mut source = OneMachine(stream);
            let mut policy = BaselinePolicy::CheckpointOnly;
            let config = ClusterConfig::default();
            let out = run_cluster(
                std::slice::from_ref(&job),
                1,
                &mut source,
                &mut policy,
                &config,
                &mut NoopSink,
            )
            .unwrap();
            let rec = &out.jobs[0];
            assert_eq!(rec.waiting, 0.0);
            assert_exact(&rec.record, &format!("cluster, seed {seed}, stream {k}"));
            assert_eq!(rec.record.breakdown.useful, chain.failure_free_makespan());
        }
    }
}

/// A layered DAG on the grid, and its offline plan.
fn dag(seed: u64) -> (DagSpec, ckpt_workflows::adaptive::DagPlan, f64) {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut weights = rng.derive(1);
    let mut coins = rng.derive(2);
    let graph = generators::layered_random(
        &[2, 3, 3, 2],
        |_, _| dyadic(&mut weights, 1.0, 2_048.0),
        0.45,
        || coins.next_f64(),
    )
    .unwrap();
    let n = graph.task_count();
    let total: f64 = graph.task_ids().map(|t| graph.weight(t)).sum();
    let rate = (0.5 + 3.5 * rng.next_f64()) / total;
    let instance = ProblemInstance::builder(graph)
        .checkpoint_costs((0..n).map(|_| cost(&mut rng, 256.0)).collect())
        .recovery_costs((0..n).map(|_| cost(&mut rng, 256.0)).collect())
        .initial_recovery(cost(&mut rng, 128.0))
        .downtime(cost(&mut rng, 64.0))
        .platform_lambda(rate)
        .build()
        .unwrap();
    let spec = DagSpec::new(instance, CheckpointCostModel::PerLastTask).unwrap();
    let search = OrderSearchConfig { restarts: 1, steps: 32, threads: 1, ..Default::default() };
    // Planned at a tenth of the truth, so the re-linearising policy re-plans.
    let plan = optimal_static_dag_plan(&spec, rate / 10.0, &search).unwrap();
    (spec, plan, rate)
}

#[test]
fn dag_engine_partitions_the_makespan_exactly() {
    let mut reorders = 0;
    for seed in 0..12u64 {
        let (spec, plan, rate) = dag(seed);
        let order = plan.order_indices();
        let (r0, d) = (spec.initial_recovery(), spec.downtime());
        let relinearise = DagRelinearise::new(&spec, &plan, rate / 10.0).unwrap();
        let policies: [&(dyn Fn() -> Box<dyn Policy> + Sync); 2] =
            [&|| Box::new(StaticPlan::from_plan(&plan)), &|| {
                Box::new(relinearise.clone().with_prior_strength(0.1))
            }];
        for make_policy in policies {
            for k in 0..3u64 {
                let mut stream = DyadicStream::new(1.0 / rate, seed * 7 + k);
                let out = simulate_dag_policy(
                    spec.tasks(),
                    &order,
                    r0,
                    d,
                    &mut make_policy(),
                    &mut stream,
                    &mut NoopSink,
                )
                .unwrap();
                assert_exact(&out.record, &format!("DAG, seed {seed}, stream {k}"));
                reorders += out.reorders;
            }
            let scenario =
                scenario(d, move |_, trial_seed| DyadicStream::new(1.0 / rate, trial_seed));
            let out = scenario.run_dag_policy(spec.tasks(), &order, r0, |_| make_policy()).unwrap();
            assert_exact_mean(&out, &format!("run_dag_policy, seed {seed}"));
        }
    }
    assert!(reorders > 0, "the re-linearising policy must reorder");
}
