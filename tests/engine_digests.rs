//! Pinned-digest wall over the simulator's policy engines and Monte-Carlo
//! drivers.
//!
//! Every case runs a fixed corpus and folds into a [`DigestSink`] both the
//! sim-domain event stream of the execution and the bit patterns of
//! everything the run returns: execution records, sample statistics and raw
//! samples. The hex digests are pinned. Any change to the order of
//! failure-stream queries, to a floating-point operation, to the event
//! vocabulary or to the trial aggregation moves a digest.
//!
//! The corpus:
//! * e11's 40-task chain under the four adaptive chain policies;
//! * e12's 18-task layered DAG under the three DAG policies;
//! * a synthetic policy that reorders the suffix at every decision;
//! * scripted streams that strike exactly on a task boundary, exactly at
//!   the end of a downtime and inside recovery;
//! * the Monte-Carlo drivers (`try_run`, `run_policy`, `run_dag_policy`)
//!   on generated and on per-trial factory streams, at 1 and 3 workers;
//!   `try_run` has a digest of its own, pinned by the fixed-schedule loop
//!   the one engine replaced.

use ckpt_bench::testgen::random_layered_instance;
use ckpt_workflows::adaptive::{
    optimal_static_dag_plan, optimal_static_plan, AdaptiveResolve, ChainSpec, DagAdaptiveResolve,
    DagRelinearise, DagSpec, PeriodicYoung, RateLearning, StaticPlan,
};
use ckpt_workflows::core::cost_model::CheckpointCostModel;
use ckpt_workflows::core::order_search::OrderSearchConfig;
use ckpt_workflows::expectation::numeric::SampleStats;
use ckpt_workflows::failure::{Pcg64, RandomSource, TraceGenerator, TraceReplay, Weibull};
use ckpt_workflows::simulator::stream::{ExponentialStream, ScriptedStream, TraceStream};
use ckpt_workflows::simulator::{
    simulate_dag_policy, simulate_policy, ChainTask, Decision, DecisionContext, ExecutionRecord,
    FailureStream, Policy, Segment, SimulationScenario, TimeBreakdown,
};
use ckpt_workflows::telemetry::{DigestSink, NoopSink, TelemetrySink, TraceEvent};

/// e11's and e12's planning rate; executions run at ten times it.
const PLANNING_RATE: f64 = 1.0 / 40_000.0;
const TRUE_RATE: f64 = 10.0 * PLANNING_RATE;

/// e11's chain: 40 tasks, seed `0xE11`.
fn e11_chain() -> ChainSpec {
    let mut rng = Pcg64::seed_from_u64(0xE11);
    let weights: Vec<f64> = (0..40).map(|_| 200.0 + rng.next_f64() * 600.0).collect();
    let ckpt: Vec<f64> = (0..40).map(|_| 20.0 + rng.next_f64() * 40.0).collect();
    let rec: Vec<f64> = (0..40).map(|_| 30.0 + rng.next_f64() * 60.0).collect();
    ChainSpec::new(&weights, &ckpt, &rec, 30.0, 10.0).unwrap()
}

/// e12's DAG (18 tasks, seed `0xE12`) and its offline plan at the planning
/// rate, under a smaller search budget than e12's.
fn e12_dag() -> (DagSpec, ckpt_workflows::adaptive::DagPlan) {
    let instance = random_layered_instance(
        0xE12,
        &[3, 4, 4, 4, 3],
        0.45,
        200.0,
        1_400.0,
        220.0,
        PLANNING_RATE,
    );
    let spec = DagSpec::new(instance, CheckpointCostModel::PerLastTask).unwrap();
    let search = OrderSearchConfig { restarts: 2, steps: 64, threads: 1, ..Default::default() };
    let plan = optimal_static_dag_plan(&spec, PLANNING_RATE, &search).unwrap();
    (spec, plan)
}

/// Failure times placed against the failure-free timeline of `works`: one
/// exactly on the first task boundary (an attempt ending or starting there
/// does not see it), one inside task 3, one exactly at the end of the downtime that
/// follows it, one inside the recovery, one inside the restarted recovery
/// and one late in the run.
fn boundary_script(works: &[f64], downtime: f64, shift: f64) -> Vec<f64> {
    let boundary = works[0];
    let strike = works[..3].iter().sum::<f64>() + 0.5 * works[3] + shift;
    let in_recovery = strike + downtime + 5.0;
    let late = 0.6 * works.iter().sum::<f64>() + shift;
    vec![boundary, strike, strike + downtime, in_recovery, in_recovery + downtime + 1.0, late]
}

/// The streams every single-run case is played against.
fn streams(works: &[f64], downtime: f64) -> Vec<Box<dyn FailureStream>> {
    let mut out: Vec<Box<dyn FailureStream>> = (0..3u64)
        .map(|seed| Box::new(ExponentialStream::new(TRUE_RATE, 0xD1 + seed)) as _)
        .collect();
    out.push(Box::new(ScriptedStream::new(boundary_script(works, downtime, 0.0))));
    out
}

fn fold_record(
    digest: &mut DigestSink,
    record: &ExecutionRecord,
    checkpoints: u64,
    decisions: u64,
    reorders: u64,
    final_order: &[usize],
) {
    let b = &record.breakdown;
    digest.record(
        &TraceEvent::sim("record", record.makespan)
            .with("makespan", record.makespan.to_bits())
            .with("failures", record.failures)
            .with("useful", b.useful.to_bits())
            .with("lost", b.lost.to_bits())
            .with("downtime", b.downtime.to_bits())
            .with("recovery", b.recovery.to_bits())
            .with("checkpoints", checkpoints)
            .with("decisions", decisions)
            .with("reorders", reorders),
    );
    for (position, &task) in final_order.iter().enumerate() {
        digest.record(&TraceEvent::sim("order", 0.0).with("position", position).with("task", task));
    }
}

fn fold_stats(digest: &mut DigestSink, name: &'static str, stats: &SampleStats) {
    digest.record(
        &TraceEvent::sim(name, stats.mean)
            .with("count", stats.count)
            .with("mean", stats.mean.to_bits())
            .with("variance", stats.variance.to_bits())
            .with("std_dev", stats.std_dev.to_bits())
            .with("std_error", stats.std_error.to_bits())
            .with("ci95", stats.ci95_half_width.to_bits()),
    );
}

fn fold_outcome(
    digest: &mut DigestSink,
    makespan: &SampleStats,
    failures: &SampleStats,
    mean_breakdown: &TimeBreakdown,
    samples: &[f64],
    extra: &[(&'static str, &SampleStats)],
) {
    fold_stats(digest, "makespan", makespan);
    fold_stats(digest, "failures", failures);
    for &(name, stats) in extra {
        fold_stats(digest, name, stats);
    }
    let b = mean_breakdown;
    digest.record(
        &TraceEvent::sim("mean_breakdown", 0.0)
            .with("useful", b.useful.to_bits())
            .with("lost", b.lost.to_bits())
            .with("downtime", b.downtime.to_bits())
            .with("recovery", b.recovery.to_bits()),
    );
    for &sample in samples {
        digest.record(&TraceEvent::sim("sample", sample).with("bits", sample.to_bits()));
    }
}

/// One traced and one untraced chain run per stream, folded in order.
fn chain_digest<P: Policy>(spec: &ChainSpec, make_policy: impl Fn() -> P) -> String {
    let works: Vec<f64> = spec.tasks().iter().map(ChainTask::work).collect();
    let identity: Vec<usize> = (0..spec.len()).collect();
    let mut digest = DigestSink::new();
    let traced = streams(&works, spec.downtime());
    let plain = streams(&works, spec.downtime());
    for (mut traced, mut plain) in traced.into_iter().zip(plain) {
        let (r0, d) = (spec.initial_recovery(), spec.downtime());
        let out =
            simulate_policy(spec.tasks(), r0, d, &mut make_policy(), traced.as_mut(), &mut digest)
                .unwrap();
        fold_record(&mut digest, &out.record, out.checkpoints, out.decisions, 0, &identity);
        let out =
            simulate_policy(spec.tasks(), r0, d, &mut make_policy(), plain.as_mut(), &mut NoopSink)
                .unwrap();
        fold_record(&mut digest, &out.record, out.checkpoints, out.decisions, 0, &identity);
    }
    digest.hex()
}

/// One traced and one untraced DAG run per stream, folded in order.
fn dag_digest<P: Policy>(
    tasks: &[ChainTask],
    order: &[usize],
    initial_recovery: f64,
    downtime: f64,
    make_policy: impl Fn() -> P,
) -> String {
    let works: Vec<f64> = order.iter().map(|&t| tasks[t].work()).collect();
    let mut digest = DigestSink::new();
    let traced = streams(&works, downtime);
    let plain = streams(&works, downtime);
    for (mut traced, mut plain) in traced.into_iter().zip(plain) {
        let (r0, d) = (initial_recovery, downtime);
        let policy = &mut make_policy();
        let out =
            simulate_dag_policy(tasks, order, r0, d, policy, traced.as_mut(), &mut digest).unwrap();
        let final_order = out.final_order.as_deref().unwrap_or(order);
        fold_record(
            &mut digest,
            &out.record,
            out.checkpoints,
            out.decisions,
            out.reorders,
            final_order,
        );
        let policy = &mut make_policy();
        let out = simulate_dag_policy(tasks, order, r0, d, policy, plain.as_mut(), &mut NoopSink)
            .unwrap();
        let final_order = out.final_order.as_deref().unwrap_or(order);
        fold_record(
            &mut digest,
            &out.record,
            out.checkpoints,
            out.decisions,
            out.reorders,
            final_order,
        );
    }
    digest.hex()
}

/// Rotates the unexecuted suffix left by one at every decision and
/// alternates one- and two-task attempts.
#[derive(Clone, Default)]
struct RotateEveryBoundary {
    toggle: bool,
}

impl Policy for RotateEveryBoundary {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        self.toggle = !self.toggle;
        let mut suffix = ctx.suffix().to_vec();
        suffix.rotate_left(1);
        let through = if self.toggle { ctx.position } else { ctx.position + 1 };
        Decision { through: through.min(ctx.order.len() - 1), reorder_suffix: Some(suffix) }
    }
}

/// The fixed-engine view of a chain placement: one segment per checkpoint,
/// protected by the previous checkpoint's recovery.
fn segments_of(spec: &ChainSpec, flags: &[bool]) -> Vec<Segment> {
    let mut segments = Vec::new();
    let (mut start, mut recovery) = (0, spec.initial_recovery());
    for (j, &checkpoint) in flags.iter().enumerate() {
        if checkpoint {
            let task = &spec.tasks()[j];
            let work: f64 = spec.tasks()[start..=j].iter().map(|t| t.work()).sum();
            segments.push(Segment::new(work, task.checkpoint(), recovery).unwrap());
            recovery = task.recovery();
            start = j + 1;
        }
    }
    segments
}

fn scenario(threads: usize, trials: usize) -> SimulationScenario {
    SimulationScenario::exponential(TRUE_RATE)
        .with_downtime(10.0)
        .with_trials(trials)
        .with_seed(0xD16E57)
        .with_threads(threads)
}

/// A scenario on per-trial factory streams, configured like [`scenario`].
fn factory_scenario<S: FailureStream + 'static>(
    threads: usize,
    trials: usize,
    make_stream: impl Fn(usize, u64) -> S + Send + Sync + 'static,
) -> SimulationScenario {
    SimulationScenario::from_streams(make_stream)
        .with_downtime(10.0)
        .with_trials(trials)
        .with_seed(0xD16E57)
        .with_threads(threads)
}

fn weibull_scenario(threads: usize, trials: usize) -> SimulationScenario {
    SimulationScenario::platform(8, Weibull::with_mean(0.7, 8.0 / TRUE_RATE).unwrap())
        .with_downtime(10.0)
        .with_trials(trials)
        .with_seed(0xD16E58)
        .with_threads(threads)
}

/// A per-trial recorded trace derived from the trial's seed.
fn trace_stream(seed: u64, horizon: f64) -> TraceStream {
    let law = Weibull::with_mean(0.5, 4.0 / TRUE_RATE).unwrap();
    TraceStream::new(TraceReplay::new(TraceGenerator::new(4, seed).unwrap().generate(law, horizon)))
}

#[test]
fn chain_policies_digests() {
    let spec = e11_chain();
    let placement = optimal_static_plan(&spec, PLANNING_RATE).unwrap();
    let static_plan = StaticPlan::from_placement(&placement);
    let digests = [
        chain_digest(&spec, || static_plan.clone()),
        chain_digest(&spec, || PeriodicYoung::new(&spec, PLANNING_RATE).unwrap()),
        chain_digest(&spec, || AdaptiveResolve::new(&spec, PLANNING_RATE).unwrap()),
        chain_digest(&spec, || RateLearning::new(&spec, PLANNING_RATE).unwrap()),
    ];
    assert_eq!(
        digests,
        ["9127a0b14427f59f", "14df0e60f73ee753", "284f8313999ff95b", "9ee5ccf232ecc1f9"]
    );
}

#[test]
fn dag_policies_digests() {
    let (spec, plan) = e12_dag();
    let order = plan.order_indices();
    let (r0, d) = (spec.initial_recovery(), spec.downtime());
    let tasks = spec.tasks();
    let digests = [
        dag_digest(tasks, &order, r0, d, || StaticPlan::from_plan(&plan)),
        dag_digest(tasks, &order, r0, d, || {
            DagAdaptiveResolve::new(&spec, &plan, PLANNING_RATE).unwrap()
        }),
        dag_digest(tasks, &order, r0, d, || {
            DagRelinearise::new(&spec, &plan, PLANNING_RATE).unwrap()
        }),
    ];
    assert_eq!(digests, ["fae5675b4783c9ed", "960b090fc210838e", "b6ed3ec21d0152d2"]);
}

#[test]
fn reorder_every_boundary_digest() {
    let spec = e11_chain();
    let identity: Vec<usize> = (0..spec.len()).collect();
    let digest = dag_digest(
        spec.tasks(),
        &identity,
        spec.initial_recovery(),
        spec.downtime(),
        RotateEveryBoundary::default,
    );
    assert_eq!(digest, "e3f2e7419b6294b0");
}

/// `try_run` on generated and on per-trial scripted streams, pinned apart
/// from the policy drivers: replaying segments on the one §2 engine must
/// leave this digest where the fixed-schedule loop put it.
#[test]
fn try_run_digests() {
    let spec = e11_chain();
    let placement = optimal_static_plan(&spec, PLANNING_RATE).unwrap();
    let segments = segments_of(&spec, &placement.checkpoint_after());
    let works: Vec<f64> = spec.tasks().iter().map(ChainTask::work).collect();

    let mut hexes = Vec::new();
    for threads in [1usize, 3] {
        let mut digest = DigestSink::new();
        let scripted = {
            let works = works.clone();
            move |trial: usize, _seed: u64| {
                ScriptedStream::new(boundary_script(&works, 10.0, 7.0 * (trial % 5) as f64))
            }
        };
        for out in [
            scenario(threads, 300).try_run(&segments),
            weibull_scenario(threads, 200).try_run(&segments),
            factory_scenario(threads, 30, scripted).try_run(&segments),
        ] {
            let out = out.unwrap();
            fold_outcome(
                &mut digest,
                &out.makespan,
                &out.failures,
                &out.mean_breakdown,
                &out.samples,
                &[],
            );
        }
        assert!(digest.sim_events() > 0);
        hexes.push(digest.hex());
    }
    assert_eq!(hexes[0], hexes[1], "try_run outcomes differ between 1 and 3 workers");
    assert_eq!(hexes[0], "4e3ad6d0db7e8b6a");
}

#[test]
fn monte_carlo_digests() {
    let spec = e11_chain();
    let placement = optimal_static_plan(&spec, PLANNING_RATE).unwrap();
    let static_plan = StaticPlan::from_placement(&placement);
    let adaptive = AdaptiveResolve::new(&spec, PLANNING_RATE).unwrap();
    let (dag_spec, dag_plan) = e12_dag();
    let dag_order = dag_plan.order_indices();
    let resolve = DagAdaptiveResolve::new(&dag_spec, &dag_plan, PLANNING_RATE).unwrap();
    let relin = DagRelinearise::new(&dag_spec, &dag_plan, PLANNING_RATE).unwrap();
    let identity: Vec<usize> = (0..spec.len()).collect();
    let works: Vec<f64> = spec.tasks().iter().map(ChainTask::work).collect();
    let horizon = 64.0 * works.iter().sum::<f64>();

    let mut hexes = Vec::new();
    for threads in [1usize, 3] {
        let mut digest = DigestSink::new();

        // The chain policy engine on generated streams.
        for out in [
            scenario(threads, 120).run_policy(spec.tasks(), 30.0, |_| static_plan.clone()),
            scenario(threads, 60).run_policy(spec.tasks(), 30.0, |_| adaptive.clone()),
            weibull_scenario(threads, 60).run_policy(spec.tasks(), 30.0, |_| adaptive.clone()),
        ] {
            let out = out.unwrap();
            fold_outcome(
                &mut digest,
                &out.makespan,
                &out.failures,
                &out.mean_breakdown,
                &out.samples,
                &[("checkpoints", &out.checkpoints)],
            );
        }

        // The DAG policy engine on generated streams.
        let dag_r0 = dag_spec.initial_recovery();
        for out in [
            scenario(threads, 40)
                .run_dag_policy(dag_spec.tasks(), &dag_order, dag_r0, |_| resolve.clone()),
            scenario(threads, 24)
                .run_dag_policy(dag_spec.tasks(), &dag_order, dag_r0, |_| relin.clone()),
            scenario(threads, 40)
                .run_dag_policy(spec.tasks(), &identity, 30.0, |_| RotateEveryBoundary::default()),
        ] {
            let out = out.unwrap();
            fold_outcome(
                &mut digest,
                &out.makespan,
                &out.failures,
                &out.mean_breakdown,
                &out.samples,
                &[("checkpoints", &out.checkpoints), ("reorders", &out.reorders)],
            );
        }

        // Per-trial factory streams: scripted boundary strikes shifted by
        // the trial index, and recorded traces derived from the trial seed.
        let scripted = {
            let works = works.clone();
            move |trial: usize, _seed: u64| {
                ScriptedStream::new(boundary_script(&works, 10.0, 7.0 * (trial % 5) as f64))
            }
        };
        let traces = move |_trial: usize, seed: u64| trace_stream(seed, horizon);
        for out in [
            factory_scenario(threads, 30, scripted.clone())
                .run_policy(spec.tasks(), 30.0, |_| static_plan.clone()),
            factory_scenario(threads, 30, traces)
                .run_policy(spec.tasks(), 30.0, |_| adaptive.clone()),
        ] {
            let out = out.unwrap();
            fold_outcome(
                &mut digest,
                &out.makespan,
                &out.failures,
                &out.mean_breakdown,
                &out.samples,
                &[("checkpoints", &out.checkpoints)],
            );
        }
        for out in [
            factory_scenario(threads, 30, scripted.clone()).run_dag_policy(
                spec.tasks(),
                &identity,
                30.0,
                |_| RotateEveryBoundary::default(),
            ),
            factory_scenario(threads, 20, traces).run_dag_policy(
                dag_spec.tasks(),
                &dag_order,
                dag_r0,
                |_| resolve.clone(),
            ),
        ] {
            let out = out.unwrap();
            fold_outcome(
                &mut digest,
                &out.makespan,
                &out.failures,
                &out.mean_breakdown,
                &out.samples,
                &[("checkpoints", &out.checkpoints), ("reorders", &out.reorders)],
            );
        }
        assert!(digest.sim_events() > 0);
        hexes.push(digest.hex());
    }
    assert_eq!(hexes[0], hexes[1], "Monte-Carlo outcomes differ between 1 and 3 workers");
    assert_eq!(hexes[0], "945acec94bfbfb18");
}
