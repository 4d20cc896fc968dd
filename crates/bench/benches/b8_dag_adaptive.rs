//! B8 — the online DAG tier: policy-driven DAG execution overhead against
//! the chain policy engine, the re-linearising policies against the static
//! replay, and the cost of one suffix re-linearisation (subgraph extraction
//! + bounded-budget order search).

use ckpt_adaptive::{
    optimal_static_dag_plan, DagAdaptiveResolve, DagRelinearise, DagSpec, StaticPlan,
};
use ckpt_bench::random_layered_instance;
use ckpt_core::cost_model::CheckpointCostModel;
use ckpt_core::order_search::{search_from_starts, OrderSearchConfig};
use ckpt_core::ProblemInstance;
use ckpt_dag::subgraph::suffix_subgraph;
use ckpt_dag::TaskId;
use ckpt_simulator::SimulationScenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const PLANNING_RATE: f64 = 1.0 / 40_000.0;
const TRUE_RATE: f64 = 10.0 / 40_000.0;

fn spec(layers: &[usize]) -> DagSpec {
    let instance =
        random_layered_instance(0xB8, layers, 0.45, 200.0, 1_400.0, 220.0, PLANNING_RATE);
    DagSpec::new(instance, CheckpointCostModel::PerLastTask).unwrap()
}

fn search() -> OrderSearchConfig {
    OrderSearchConfig { restarts: 4, steps: 256, threads: 1, ..Default::default() }
}

/// Monte-Carlo throughput of the DAG policy engine: static replay vs the
/// two re-planning policies (posterior updates, suffix re-solves, and for
/// the re-lineariser a bounded order search per observed failure).
fn bench_dag_policy_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_policy_monte_carlo");
    group.sample_size(10);
    let spec = spec(&[3, 4, 4, 4, 3]);
    let plan = optimal_static_dag_plan(&spec, PLANNING_RATE, &search()).unwrap();
    let order = plan.order_indices();
    let trials = 200usize;
    let scenario = || {
        SimulationScenario::exponential(TRUE_RATE)
            .with_downtime(spec.downtime())
            .with_trials(trials)
            .with_seed(7)
            .with_threads(1)
    };

    let static_proto = StaticPlan::from_plan(&plan);
    group.bench_function(BenchmarkId::new("dag_static", trials), |b| {
        b.iter(|| {
            scenario()
                .run_dag_policy(black_box(spec.tasks()), &order, spec.initial_recovery(), |_| {
                    static_proto.clone()
                })
                .unwrap()
        })
    });

    let resolve_proto = DagAdaptiveResolve::new(&spec, &plan, PLANNING_RATE).unwrap();
    group.bench_function(BenchmarkId::new("dag_adaptive_resolve", trials), |b| {
        b.iter(|| {
            scenario()
                .run_dag_policy(black_box(spec.tasks()), &order, spec.initial_recovery(), |_| {
                    resolve_proto.clone()
                })
                .unwrap()
        })
    });

    let relin_proto = DagRelinearise::new(&spec, &plan, PLANNING_RATE).unwrap();
    group.bench_function(BenchmarkId::new("dag_relinearise", trials), |b| {
        b.iter(|| {
            scenario()
                .run_dag_policy(black_box(spec.tasks()), &order, spec.initial_recovery(), |_| {
                    relin_proto.clone()
                })
                .unwrap()
        })
    });
    group.finish();
}

/// The cost of one suffix re-linearisation at increasing DAG widths:
/// remaining-graph extraction plus the bounded-budget seeded order search
/// (what `DagRelinearise` pays per observed failure).
fn bench_suffix_relinearisation(c: &mut Criterion) {
    let mut group = c.benchmark_group("suffix_relinearisation");
    group.sample_size(10);
    for width in [4usize, 8, 16] {
        let spec = spec(&[width, width, width, width]);
        let plan = optimal_static_dag_plan(&spec, PLANNING_RATE, &search()).unwrap();
        let start = plan.order.len() / 3;
        let config = OrderSearchConfig { restarts: 2, steps: 48, threads: 1, ..Default::default() };
        group.bench_with_input(
            BenchmarkId::new("extract_and_search", spec.len()),
            &plan.order,
            |b, order| {
                b.iter(|| {
                    let sub = suffix_subgraph(spec.instance().graph(), black_box(order), start);
                    let inst = spec.instance();
                    let ckpt: Vec<f64> =
                        sub.tasks.iter().map(|&t| inst.checkpoint_cost(t)).collect();
                    let rec: Vec<f64> = sub.tasks.iter().map(|&t| inst.recovery_cost(t)).collect();
                    let mut builder = ProblemInstance::builder(sub.graph.clone());
                    builder
                        .checkpoint_costs(ckpt)
                        .recovery_costs(rec)
                        .initial_recovery(inst.initial_recovery())
                        .downtime(spec.downtime())
                        .platform_lambda(TRUE_RATE);
                    let sub_inst = builder.build().unwrap();
                    let starts: Vec<Vec<TaskId>> = vec![(0..sub.len()).map(TaskId).collect()];
                    search_from_starts(&sub_inst, spec.model(), &config, &starts).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dag_policy_monte_carlo, bench_suffix_relinearisation);
criterion_main!(benches);
