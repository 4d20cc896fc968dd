//! B7 — the online-policy subsystem: a static plan replayed by `StaticPlan`
//! against the same plan's segments through `try_run` (one engine, so the
//! gap is the policy layer), adaptive policies against the static replay,
//! and the suffix-only re-plan against a full Algorithm 1 solve.

use ckpt_adaptive::{optimal_static_plan, AdaptiveResolve, RateLearning, StaticPlan};
use ckpt_core::chain_dp::ResumableDp;
use ckpt_failure::{Pcg64, RandomSource};
use ckpt_simulator::SimulationScenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const PLANNING_RATE: f64 = 1.0 / 40_000.0;
const TRUE_RATE: f64 = 10.0 / 40_000.0;

fn spec(n: usize) -> ckpt_adaptive::ChainSpec {
    let mut rng = Pcg64::seed_from_u64(0xB7);
    let weights: Vec<f64> = (0..n).map(|_| 200.0 + rng.next_f64() * 600.0).collect();
    let ckpt: Vec<f64> = (0..n).map(|_| 20.0 + rng.next_f64() * 40.0).collect();
    let rec: Vec<f64> = (0..n).map(|_| 30.0 + rng.next_f64() * 60.0).collect();
    ckpt_adaptive::ChainSpec::new(&weights, &ckpt, &rec, 30.0, 10.0).unwrap()
}

/// Monte-Carlo throughput: `try_run` on the static plan's segments vs
/// `run_policy` replaying the same plan vs the adaptive policies (which pay
/// estimate updates and re-solves on top).
fn bench_policy_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_monte_carlo");
    group.sample_size(10);
    let spec = spec(40);
    let trials = 200usize;
    let scenario = || {
        SimulationScenario::exponential(TRUE_RATE)
            .with_downtime(spec.downtime())
            .with_trials(trials)
            .with_seed(7)
            .with_threads(1)
    };
    let placement = optimal_static_plan(&spec, PLANNING_RATE).unwrap();

    // The same plan as segments, through `try_run`.
    let flags = placement.checkpoint_after();
    let mut segments = Vec::new();
    let mut start = 0usize;
    let mut recovery = spec.initial_recovery();
    for (j, &ckpt) in flags.iter().enumerate() {
        if ckpt {
            let work: f64 = (start..=j).map(|p| spec.tasks()[p].work()).sum();
            segments.push(
                ckpt_simulator::Segment::new(work, spec.tasks()[j].checkpoint(), recovery).unwrap(),
            );
            recovery = spec.tasks()[j].recovery();
            start = j + 1;
        }
    }
    group.bench_function(BenchmarkId::new("fixed_engine", trials), |b| {
        b.iter(|| scenario().run(black_box(&segments)))
    });

    let static_proto = StaticPlan::from_placement(&placement);
    group.bench_function(BenchmarkId::new("policy_static", trials), |b| {
        b.iter(|| {
            scenario()
                .run_policy(black_box(spec.tasks()), spec.initial_recovery(), |_| {
                    static_proto.clone()
                })
                .unwrap()
        })
    });

    let adaptive_proto = AdaptiveResolve::new(&spec, PLANNING_RATE).unwrap();
    group.bench_function(BenchmarkId::new("policy_adaptive_resolve", trials), |b| {
        b.iter(|| {
            scenario()
                .run_policy(black_box(spec.tasks()), spec.initial_recovery(), |_| {
                    adaptive_proto.clone()
                })
                .unwrap()
        })
    });

    let learning_proto = RateLearning::new(&spec, PLANNING_RATE).unwrap();
    group.bench_function(BenchmarkId::new("policy_rate_learning", trials), |b| {
        b.iter(|| {
            scenario()
                .run_policy(black_box(spec.tasks()), spec.initial_recovery(), |_| {
                    learning_proto.clone()
                })
                .unwrap()
        })
    });
    group.finish();
}

/// Re-planning cost: a full Algorithm 1 solve of an n-position table vs the
/// suffix-only re-solve from the midpoint (what a mid-execution re-plan
/// actually pays).
fn bench_replan(c: &mut Criterion) {
    let mut group = c.benchmark_group("replan");
    group.sample_size(10);
    for n in [512usize, 4_096] {
        let spec = spec(n);
        let table = spec.sweep().table_for(TRUE_RATE).unwrap();
        group.bench_with_input(BenchmarkId::new("full_solve", n), &table, |b, table| {
            let mut dp = ResumableDp::new();
            b.iter(|| dp.solve(black_box(table)))
        });
        group.bench_with_input(BenchmarkId::new("suffix_from_mid", n), &table, |b, table| {
            let mut dp = ResumableDp::new();
            dp.solve(table);
            b.iter(|| dp.solve_suffix(black_box(table), n / 2))
        });
        group.bench_with_input(BenchmarkId::new("suffix_last_64", n), &table, |b, table| {
            let mut dp = ResumableDp::new();
            dp.solve(table);
            b.iter(|| dp.solve_suffix(black_box(table), n - 64))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_policy_monte_carlo, bench_replan);
criterion_main!(benches);
