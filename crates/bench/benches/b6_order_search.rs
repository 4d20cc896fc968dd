//! B6 — the linearisation-search subsystem: §6 live-set cost-table builds
//! (incremental `O(n + E)` sweep vs the recomputing reference), the order
//! search's per-trial cost table (a fresh `SegmentCostTable::new` vs the
//! in-place `refill` the search runs), and the order search itself against
//! the fixed-strategy baseline it dominates.
//!
//! The headline acceptance number (≥ 5× table-build speedup at 10⁴ tasks)
//! is produced by the `e10_order_search` binary, which runs each build once
//! at full size; this bench tracks the same comparison at sizes that stay
//! cheap under the smoke-test mode `cargo test` runs benches in.

use ckpt_bench::{random_layered_instance, wide_fork_join_instance};
use ckpt_core::cost_model::{CheckpointCostModel, LiveSetCostSweep};
use ckpt_core::dag_schedule;
use ckpt_core::order_search::{schedule_dag_search, OrderSearchConfig};
use ckpt_core::ProblemInstance;
use ckpt_dag::neighborhood::{is_valid_move, OrderMove};
use ckpt_dag::{linearize, LinearizationStrategy};
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_failure::{Pcg64, RandomSource};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_live_set_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("live_set_table");
    group.sample_size(10);
    for &branches in &[250usize, 1_000] {
        let inst = wide_fork_join_instance(7, branches, 100.0, 2_000.0, 80.0, 1e-6);
        let order = linearize::linearize(inst.graph(), LinearizationStrategy::IdOrder);
        let n = inst.task_count();
        for model in [CheckpointCostModel::LiveSetSum, CheckpointCostModel::LiveSetMax] {
            group.bench_with_input(
                BenchmarkId::new(format!("incremental_{model}"), n),
                &inst,
                |b, inst| {
                    b.iter(|| {
                        dag_schedule::model_cost_table(black_box(inst), &order, model).unwrap()
                    })
                },
            );
        }
        // The recomputing reference, O(n·degree) per position: only at the
        // small size (at 10⁴ tasks one build takes seconds — see e10).
        if branches <= 250 {
            group.bench_with_input(
                BenchmarkId::new("recomputed_live-set-sum", n),
                &inst,
                |b, inst| {
                    b.iter(|| {
                        dag_schedule::model_cost_table_reference(
                            black_box(inst),
                            &order,
                            CheckpointCostModel::LiveSetSum,
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    // The incremental sweep alone at the acceptance size.
    let wide = wide_fork_join_instance(7, 9_998, 100.0, 2_000.0, 80.0, 1e-6);
    let order = linearize::linearize(wide.graph(), LinearizationStrategy::IdOrder);
    group.bench_with_input(
        BenchmarkId::new("incremental_live-set-sum", 10_000),
        &wide,
        |b, inst| {
            b.iter(|| {
                dag_schedule::model_cost_table(
                    black_box(inst),
                    &order,
                    CheckpointCostModel::LiveSetSum,
                )
                .unwrap()
            })
        },
    );
    group.finish();
}

fn bench_order_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("order_search");
    group.sample_size(10);
    let inst =
        random_layered_instance(5, &[8, 8, 8, 8, 8], 0.3, 150.0, 1_200.0, 120.0, 1.0 / 4_000.0);
    let model = CheckpointCostModel::LiveSetSum;
    group.bench_with_input(BenchmarkId::new("best_of", 40), &inst, |b, inst| {
        b.iter(|| dag_schedule::schedule_dag_best_of(black_box(inst), model, 8).unwrap())
    });
    for (label, threads) in [("search_1thread", 1usize), ("search_all_cores", 0)] {
        let config = OrderSearchConfig { restarts: 8, steps: 256, threads, ..Default::default() };
        group.bench_with_input(BenchmarkId::new(label, 40), &inst, |b, inst| {
            b.iter(|| schedule_dag_search(black_box(inst), model, &config).unwrap())
        });
    }
    group.finish();
}

/// The table arguments of one search trial: weights, checkpoint costs and
/// protecting recoveries.
type TrialInputs = (Vec<f64>, Vec<f64>, Vec<f64>);

/// The table arguments of `trials` successive valid moves on a random order
/// of `instance`, half of them kept and half undone, as a search makes them
/// (windows of up to 12 positions, live-set-sum costs).
fn search_trials(instance: &ProblemInstance, trials: usize) -> Vec<TrialInputs> {
    let order = linearize::linearize(instance.graph(), LinearizationStrategy::Random(1));
    let n = order.len();
    let mut sweep = LiveSetCostSweep::new(instance.graph());
    let mut costed = sweep.cost_order(CheckpointCostModel::LiveSetSum, instance, order);
    let mut rng = Pcg64::seed_from_u64(7);
    let mut inputs = Vec::with_capacity(trials);
    while inputs.len() < trials {
        let i = (rng.next_u64() % (n as u64 - 1)) as usize;
        let j = (i + 1 + (rng.next_u64() % 11) as usize).min(n - 1);
        let mv = if rng.next_u64().is_multiple_of(2) {
            OrderMove::RotateLeft { i, j }
        } else {
            OrderMove::RotateRight { i, j }
        };
        if !is_valid_move(instance.graph(), costed.order(), &mv) {
            continue;
        }
        let before = costed.clone();
        let changed = sweep.apply_move(instance, &mut costed, &mv);
        inputs.push((
            costed.costs().weights().to_vec(),
            costed.costs().checkpoints().to_vec(),
            costed.costs().protecting_recoveries().to_vec(),
        ));
        if rng.next_u64().is_multiple_of(2) {
            costed.copy_range_from(&before, changed);
        }
    }
    inputs
}

/// One order-search trial's cost table on plan-mixed's 72-task search
/// shape (8 × 9 layered, λ = 10⁻⁴): built fresh, as the search did, or
/// refilled in place, as it does now. Each iteration runs 256 trials.
fn bench_trial_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("trial");
    group.sample_size(10);
    let inst = random_layered_instance(3, &[8; 9], 0.3, 200.0, 1_400.0, 120.0, 1e-4);
    let trials = search_trials(&inst, 256);
    let (lambda, downtime) = (inst.lambda(), inst.downtime());
    group.bench_with_input(BenchmarkId::new("fresh_table", 72), &trials, |b, trials| {
        b.iter(|| {
            for (weights, ckpt, rec) in trials {
                black_box(SegmentCostTable::new(lambda, downtime, weights, ckpt, rec).unwrap());
            }
        })
    });
    let (weights, ckpt, rec) = &trials[0];
    let mut table = SegmentCostTable::new(lambda, downtime, weights, ckpt, rec).unwrap();
    group.bench_with_input(BenchmarkId::new("refill", 72), &trials, |b, trials| {
        b.iter(|| {
            for (weights, ckpt, rec) in trials {
                table.refill(lambda, downtime, weights, ckpt, rec).unwrap();
                black_box(&table);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_live_set_table, bench_trial_table, bench_order_search);
criterion_main!(benches);
