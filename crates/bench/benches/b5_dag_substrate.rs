//! B5 — DAG-substrate operations: generation, topological sorting,
//! linearisation and transitive closure.
//!
//! The `dag_substrate_large` group runs the linear-time paths at scale:
//! chain builds at 10⁵ and 10⁶ tasks, a 10⁵-branch fork-join build, and the
//! heap-driven `topological_sort` and `HeaviestFirst` on 10⁵ independent
//! tasks. A quadratic path in any of them would take minutes per entry,
//! even in smoke mode.

use ckpt_dag::{generators, linearize, topo, traversal, LinearizationStrategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_dag(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_substrate");

    for &n in &[100usize, 1_000, 10_000] {
        group.bench_with_input(BenchmarkId::new("build_chain", n), &n, |b, &n| {
            b.iter(|| generators::uniform_chain(black_box(n), 1.0).unwrap())
        });
        let chain = generators::uniform_chain(n, 1.0).unwrap();
        group.bench_with_input(BenchmarkId::new("topological_sort_chain", n), &chain, |b, g| {
            b.iter(|| topo::topological_sort(black_box(g)))
        });
    }

    // A layered random DAG exercises linearisation and reachability.
    let mut state = 42u64;
    let coin = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let layered = generators::layered_random(&[50, 50, 50, 50], |_, _| 1.0, 0.1, coin).unwrap();
    group.bench_function("linearize_critical_path_200_tasks", |b| {
        b.iter(|| {
            linearize::linearize(black_box(&layered), LinearizationStrategy::CriticalPathFirst)
        })
    });
    group.bench_function("transitive_closure_200_tasks", |b| {
        b.iter(|| traversal::transitive_closure(black_box(&layered)))
    });
    group.finish();
}

fn bench_dag_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_substrate_large");
    group.sample_size(3);
    for &n in &[100_000usize, 1_000_000] {
        group.bench_with_input(BenchmarkId::new("build_chain", n), &n, |b, &n| {
            b.iter(|| generators::uniform_chain(black_box(n), 1.0).unwrap())
        });
    }
    let n = 100_000usize;
    let branch_weights = vec![1.0; n];
    group.bench_with_input(BenchmarkId::new("build_fork_join", n), &branch_weights, |b, w| {
        b.iter(|| generators::fork_join(n, black_box(w), 1.0, 1.0).unwrap())
    });
    // Distinct weights in a scrambled order, so the heavy-first heap works.
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i * 7_919 % n) as f64).collect();
    let independent = generators::independent(&weights).unwrap();
    group.bench_with_input(
        BenchmarkId::new("topological_sort_independent", n),
        &independent,
        |b, g| b.iter(|| topo::topological_sort(black_box(g))),
    );
    group.bench_with_input(
        BenchmarkId::new("linearize_heaviest_first_independent", n),
        &independent,
        |b, g| b.iter(|| linearize::linearize(black_box(g), LinearizationStrategy::HeaviestFirst)),
    );
    group.finish();
}

criterion_group!(benches, bench_dag, bench_dag_large);
criterion_main!(benches);
