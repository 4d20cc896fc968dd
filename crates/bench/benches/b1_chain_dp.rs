//! B1 — scaling of the Algorithm 1 chain DP: the production entries against
//! the `chain_dp::oracle` yardsticks.
//!
//! The headline comparison of the fast-path overhaul: the naive `O(n²)` DP
//! (`reference`, two `exp` calls per cell) against the precomputed-cost
//! pruned DP (`pruned`, `optimal_chain_schedule`), the global Li Chao
//! `O(n log n)` solver (`divide_conquer`), the production dispatch on a
//! prebuilt segment-cost table (`table_dispatch`,
//! `scalable_placement_on_table_with_scratch`: the pruned DP below 1 024
//! positions, the blocked kernel from there up) and the paper's memoised
//! recursion. The 4096-task configuration is the acceptance benchmark: the
//! pruned DP must beat the reference by ≥ 5×.
//!
//! The `chain_dp_large` group is the `n ≫ 10⁵` scaling acceptance of the
//! blocked kernel: only the envelope formulations run there (the quadratic
//! ones would take hours at `n = 10⁶`), on a λ chosen so the table stays
//! out of its saturated fallback (`λ·total work ≈ 10` at `n = 10⁵`, `≈ 105`
//! at `n = 10⁶`). `table_dispatch_dense` runs the kernel at
//! `λ·total work = 300`, where the optimum checkpoints every few tasks.
//! Every `table_dispatch` row, in both groups, hands each solve a fresh
//! `ChainDpScratch`; `table_dispatch_scratch_reuse` reuses one arena,
//! isolating the allocation and page-fault cost the arena removes.
//! `end_to_end` starts from the raw weights: graph build, instance, chain
//! detection, cost table and the blocked solve, the whole pipeline a 10⁶-task
//! plan pays.

use ckpt_bench::random_chain_instance;
use ckpt_core::chain_dp::{self, oracle, scalable_placement_on_table_with_scratch, ChainDpScratch};
use ckpt_core::evaluate::segment_cost_table;
use ckpt_core::ProblemInstance;
use ckpt_dag::{generators, properties};
use ckpt_expectation::segment_cost::SegmentCostTable;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The instance's segment-cost table along its chain order, built outside
/// the timed loop.
fn chain_table(instance: &ProblemInstance) -> SegmentCostTable {
    let order = properties::as_chain(instance.graph()).expect("a chain");
    segment_cost_table(instance, &order).expect("valid chain")
}

fn bench_chain_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_dp");
    group.sample_size(10);
    for &n in &[32usize, 128, 512, 1024, 4096] {
        let instance =
            random_chain_instance(7, n, 100.0, 2_000.0, 60.0, 90.0, 30.0, 1.0 / 10_000.0);
        group.bench_with_input(BenchmarkId::new("reference", n), &instance, |b, inst| {
            b.iter(|| oracle::optimal_chain_schedule_reference(black_box(inst)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("pruned", n), &instance, |b, inst| {
            b.iter(|| chain_dp::optimal_chain_schedule(black_box(inst)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("divide_conquer", n), &instance, |b, inst| {
            b.iter(|| oracle::optimal_chain_schedule_divide_conquer(black_box(inst)).unwrap())
        });
        let table = chain_table(&instance);
        group.bench_with_input(BenchmarkId::new("table_dispatch", n), &table, |b, table| {
            b.iter(|| {
                scalable_placement_on_table_with_scratch(
                    black_box(table),
                    &mut ChainDpScratch::new(),
                )
            })
        });
        if n <= 1024 {
            group.bench_with_input(BenchmarkId::new("memoized", n), &instance, |b, inst| {
                b.iter(|| oracle::optimal_chain_value_memoized(black_box(inst)).unwrap())
            });
        }
    }

    // A failure-heavy regime: many checkpoints in the optimum, so the pruning
    // bound truncates the inner loop aggressively.
    let frequent = random_chain_instance(11, 4096, 100.0, 2_000.0, 60.0, 90.0, 30.0, 1.0 / 1_000.0);
    group.bench_with_input(
        BenchmarkId::new("pruned_frequent_failures", 4096),
        &frequent,
        |b, inst| b.iter(|| chain_dp::optimal_chain_schedule(black_box(inst)).unwrap()),
    );
    group.bench_with_input(
        BenchmarkId::new("divide_conquer_frequent_failures", 4096),
        &frequent,
        |b, inst| {
            b.iter(|| oracle::optimal_chain_schedule_divide_conquer(black_box(inst)).unwrap())
        },
    );
    let table = chain_table(&frequent);
    group.bench_with_input(
        BenchmarkId::new("table_dispatch_frequent_failures", 4096),
        &table,
        |b, table| {
            b.iter(|| {
                scalable_placement_on_table_with_scratch(
                    black_box(table),
                    &mut ChainDpScratch::new(),
                )
            })
        },
    );
    group.finish();
}

fn bench_chain_dp_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_dp_large");
    group.sample_size(3);
    // λ = 1e-7 keeps λ·total work ≈ 10 (n = 10⁵) / 105 (n = 10⁶): far from
    // the table's saturated fallback, with a non-trivial optimum (the
    // optimal placement checkpoints every few dozen tasks).
    for &n in &[100_000usize, 1_000_000] {
        let instance = random_chain_instance(7, n, 100.0, 2_000.0, 60.0, 90.0, 30.0, 1e-7);
        group.bench_with_input(BenchmarkId::new("divide_conquer", n), &instance, |b, inst| {
            b.iter(|| oracle::optimal_chain_schedule_divide_conquer(black_box(inst)).unwrap())
        });
        let table = chain_table(&instance);
        group.bench_with_input(BenchmarkId::new("table_dispatch", n), &table, |b, table| {
            b.iter(|| {
                scalable_placement_on_table_with_scratch(
                    black_box(table),
                    &mut ChainDpScratch::new(),
                )
            })
        });
        // Caller-owned scratch arena: same kernel, no per-solve allocation
        // (and page-faulting) of the ~70 bytes per position the kernel
        // keeps in its arena.
        let mut scratch = ChainDpScratch::new();
        group.bench_with_input(
            BenchmarkId::new("table_dispatch_scratch_reuse", n),
            &table,
            |b, table| {
                b.iter(|| scalable_placement_on_table_with_scratch(black_box(table), &mut scratch))
            },
        );
        // The dense regime: same weights at λ·total work = 300, still below
        // the saturation switch (≈ 650), so the kernel runs where the
        // optimum checkpoints every few tasks.
        let dense = random_chain_instance(
            7,
            n,
            100.0,
            2_000.0,
            60.0,
            90.0,
            30.0,
            300.0 / instance.total_weight(),
        );
        let dense_table = chain_table(&dense);
        assert!(!dense_table.is_saturated());
        group.bench_with_input(
            BenchmarkId::new("table_dispatch_dense", n),
            &dense_table,
            |b, table| {
                b.iter(|| {
                    scalable_placement_on_table_with_scratch(
                        black_box(table),
                        &mut ChainDpScratch::new(),
                    )
                })
            },
        );
        let weights = instance.graph().weights().to_vec();
        group.bench_with_input(BenchmarkId::new("end_to_end", n), &weights, |b, weights| {
            b.iter(|| {
                let graph = generators::chain(black_box(weights)).unwrap();
                let instance = ProblemInstance::builder(graph)
                    .uniform_checkpoint_cost(60.0)
                    .uniform_recovery_cost(90.0)
                    .downtime(30.0)
                    .platform_lambda(1e-7)
                    .build()
                    .unwrap();
                scalable_placement_on_table_with_scratch(
                    &chain_table(&instance),
                    &mut ChainDpScratch::new(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chain_dp, bench_chain_dp_large);
criterion_main!(benches);
