//! B9 — the cluster tier: event-driven multi-machine simulation throughput
//! (one Monte-Carlo batch per policy) and the correlated-shock injector's
//! query cost.

use std::sync::Arc;

use ckpt_adaptive::ChainSpec;
use ckpt_cluster::{
    run_cluster_monte_carlo, BaselinePolicy, ClusterConfig, ClusterPolicy, ClusterRepair,
    ClusterScenario,
};
use ckpt_failure::{
    ClusterFailureInjector, Exponential, FailureDistribution, Pcg64, RandomSource, ShockConfig,
};
use ckpt_telemetry::MetricsRegistry;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const MTBF: f64 = 4_000.0;
const TRIALS: usize = 100;

fn job_mix(jobs: usize) -> Vec<ChainSpec> {
    let mut rng = Pcg64::seed_from_u64(0xB9);
    (0..jobs)
        .map(|_| {
            let tasks = 6 + (rng.next_u64() % 5) as usize;
            let works: Vec<f64> = (0..tasks).map(|_| 100.0 + rng.next_f64() * 100.0).collect();
            ChainSpec::new(&works, &vec![12.0; tasks], &vec![18.0; tasks], 20.0, 5.0)
                .expect("valid chain")
        })
        .collect()
}

fn scenario(machines: usize, jobs: usize) -> ClusterScenario {
    let law: Arc<dyn FailureDistribution + Send + Sync> =
        Arc::new(Exponential::from_mtbf(MTBF).expect("valid MTBF"));
    ClusterScenario::new(machines, law, 1.0 / MTBF, job_mix(jobs))
        .expect("valid scenario")
        .with_shocks(ShockConfig::new(1.0 / 2_000.0, 0.5, 60.0).expect("valid shocks"))
        .with_repair(ClusterRepair::Fixed(500.0))
        .expect("valid repair")
        .with_config(
            ClusterConfig::default()
                .with_migration_overhead(60.0)
                .expect("valid overhead")
                .with_replication_checkpoint_factor(1.3)
                .expect("valid factor"),
        )
        .with_trials(TRIALS)
        .with_seed(0xB9)
        .with_threads(1)
}

/// One single-threaded Monte-Carlo batch per baseline policy: the per-trial
/// cost of the event loop, the episode simulation and the shock injector.
fn bench_cluster_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_monte_carlo");
    group.sample_size(10);
    let policies: [(&str, BaselinePolicy); 3] = [
        ("checkpoint_only", BaselinePolicy::CheckpointOnly),
        ("always_migrate", BaselinePolicy::AlwaysMigrate),
        ("replicate_top_2", BaselinePolicy::ReplicateTopK { k: 2 }),
    ];
    let sc = scenario(6, 8);
    for (name, policy) in policies {
        group.bench_function(BenchmarkId::new(name, TRIALS), |b| {
            b.iter(|| {
                run_cluster_monte_carlo(black_box(&sc), || {
                    Box::new(policy) as Box<dyn ClusterPolicy>
                })
                .expect("cluster run")
            })
        });
    }
    group.finish();
}

/// Pool-size scaling of the engine at a fixed jobs-per-machine load.
fn bench_cluster_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_scaling");
    group.sample_size(10);
    for machines in [2usize, 4, 8, 16] {
        let sc = scenario(machines, machines * 2).with_trials(25);
        group.bench_function(BenchmarkId::new("machines", machines), |b| {
            b.iter(|| {
                run_cluster_monte_carlo(black_box(&sc), || {
                    Box::new(BaselinePolicy::AlwaysMigrate) as Box<dyn ClusterPolicy>
                })
                .expect("cluster run")
            })
        });
    }
    group.finish();
}

/// Raw injector queries: the lazy shock materialisation on the hot path.
fn bench_injector_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_injector");
    let law = Exponential::from_mtbf(MTBF).expect("valid MTBF");
    for (name, width) in [("width_0", 0.0), ("width_600", 600.0)] {
        group.bench_function(BenchmarkId::new(name, 1000), |b| {
            b.iter(|| {
                let mut injector = ClusterFailureInjector::homogeneous(8, law, 0xB9)
                    .expect("valid pool")
                    .with_shocks(ShockConfig::new(1.0 / 500.0, 0.7, width).expect("valid shocks"));
                let mut total = 0.0;
                for q in 0..1000u64 {
                    let machine = (q % 8) as usize;
                    let t = injector.next_failure_after(machine, q as f64 * 10.0);
                    total += t;
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

/// Per-trial makespan spread of the reference policy batch, reported via
/// the outcome's recorded metrics: the `cluster_makespan` histogram's
/// quantile API gives the p50/p99 (simulated time, not wall time) without
/// re-sorting the sample vector.
fn report_makespan_tail(_c: &mut Criterion) {
    let sc = scenario(6, 8);
    let outcome = run_cluster_monte_carlo(black_box(&sc), || {
        Box::new(BaselinePolicy::AlwaysMigrate) as Box<dyn ClusterPolicy>
    })
    .expect("cluster run");
    let mut metrics = MetricsRegistry::new();
    outcome.record_into(&mut metrics);
    let makespans = metrics.histogram("cluster_makespan").expect("recorded histogram");
    let q = |p: f64| makespans.quantile(p).expect("non-empty makespan histogram");
    println!(
        "cluster_makespan_tail/trials={}: mean {:.0}, p50 {:.0}, p99 {:.0} (sim s)",
        outcome.trials,
        outcome.makespan.mean,
        q(0.50),
        q(0.99)
    );
}

criterion_group!(
    benches,
    bench_cluster_monte_carlo,
    bench_cluster_scaling,
    bench_injector_queries,
    report_makespan_tail
);
criterion_main!(benches);
