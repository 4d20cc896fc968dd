//! The allocation walls of the order-costing path.
//!
//! * The order search's proposal loop allocates nothing: on a 72-task
//!   layered DAG (plan-mixed's 8 × 9 search shape), `schedule_dag_search`
//!   and `search_from_starts` make exactly as many heap allocations with 640
//!   move proposals per start as with 64, under all three cost models, so
//!   every allocation they make belongs to the set-up or the final
//!   evaluation.
//! * So does the heuristics' local search, which moves its orders through
//!   the same state: `independent_tasks_heuristic` makes as many
//!   allocations with one pass as with enough passes to improve further.
//! * The table builders allocate per call, not per task:
//!   `segment_cost_table`, `lambda_sweep_for_order`, `levelled_cost_table`
//!   and `model_cost_table` under every model make as many allocations on a
//!   10⁵-task order as on a 10³-task one.
//! * A `LambdaSweep`'s per-rate table allocates only its six rate-dependent
//!   vectors: it shares the sweep's three others.
//! * A blocked Algorithm 1 solve on a kept `ChainDpScratch` allocates only
//!   its result, at 10⁴ positions as at 10⁵: its orders are sorted in place.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread only (the searches run with `threads = 1`, on the test's own
//! thread), so the tests of this binary can run side by side. The binary
//! holds nothing else: the allocator serves every test in it. Implementing
//! `GlobalAlloc` takes the one `unsafe impl` of the workspace; the library
//! crates forbid unsafe code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ckpt_core::chain_dp::{scalable_placement_on_table_with_scratch, ChainDpScratch};
use ckpt_core::cost_model::CheckpointCostModel;
use ckpt_core::dag_schedule::model_cost_table;
use ckpt_core::evaluate::{lambda_sweep_for_order, levelled_cost_table, segment_cost_table};
use ckpt_core::heuristics::independent_tasks_heuristic;
use ckpt_core::order_search::{schedule_dag_search, search_from_starts, OrderSearchConfig};
use ckpt_core::ProblemInstance;
use ckpt_dag::{generators, linearize, LinearizationStrategy, TaskId};
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_expectation::storage::{StorageLevel, StorageLevels};
use ckpt_expectation::sweep::LambdaSweep;
use ckpt_failure::{Pcg64, RandomSource};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation on the
/// thread that asks for it.
struct CountingAllocator;

fn count() {
    ALLOCATIONS.with(|allocations| allocations.set(allocations.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The allocations `run` makes on this thread.
fn allocations_of(run: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

const MODELS: [CheckpointCostModel; 3] = [
    CheckpointCostModel::PerLastTask,
    CheckpointCostModel::LiveSetSum,
    CheckpointCostModel::LiveSetMax,
];

/// Plan-mixed's search shape: 8 × 9 layered, edge density 0.3.
fn plan_mixed_instance(seed: u64) -> ProblemInstance {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut weights = rng.derive(1);
    let mut coins = rng.derive(2);
    let graph = generators::layered_random(
        &[8; 9],
        |_, _| 200.0 + weights.next_f64() * 1_200.0,
        0.3,
        move || coins.next_f64(),
    )
    .unwrap();
    let n = graph.task_count();
    ProblemInstance::builder(graph)
        .checkpoint_costs((0..n).map(|_| 5.0 + rng.next_f64() * 55.0).collect())
        .recovery_costs((0..n).map(|_| 5.0 + rng.next_f64() * 115.0).collect())
        .platform_lambda(1e-4)
        .build()
        .unwrap()
}

fn config(steps: usize) -> OrderSearchConfig {
    OrderSearchConfig { restarts: 2, steps, threads: 1, seed: 0xA110C }
}

/// One search of each model first, so that any set-up done once per
/// process is not counted against the first measured search.
fn warm_up(instance: &ProblemInstance) {
    for model in MODELS {
        schedule_dag_search(instance, model, &config(8)).unwrap();
    }
}

#[test]
fn schedule_dag_search_allocates_nothing_per_proposal() {
    let instance = plan_mixed_instance(1);
    assert_eq!(instance.task_count(), 72);
    warm_up(&instance);
    for model in MODELS {
        let mut accepted = [0; 2];
        let counts = [64, 640].map(|steps| {
            allocations_of(|| {
                let found = schedule_dag_search(&instance, model, &config(steps)).unwrap();
                accepted[usize::from(steps == 640)] = found.accepted_moves;
            })
        });
        assert_eq!(counts[0], counts[1], "{model}: allocations at 64 and 640 steps");
        assert!(accepted[1] > accepted[0], "{model}: the longer search accepted no more moves");
    }
}

#[test]
fn search_from_starts_allocates_nothing_per_proposal() {
    let instance = plan_mixed_instance(2);
    let starts: Vec<_> = [LinearizationStrategy::IdOrder, LinearizationStrategy::Random(5)]
        .into_iter()
        .map(|strategy| linearize::linearize(instance.graph(), strategy))
        .collect();
    warm_up(&instance);
    for model in MODELS {
        let counts = [64, 640].map(|steps| {
            allocations_of(|| {
                search_from_starts(&instance, model, &config(steps), &starts).unwrap();
            })
        });
        assert_eq!(counts[0], counts[1], "{model}: allocations at 64 and 640 steps");
    }
}

/// Independent tasks with heterogeneous checkpoint costs, where the local
/// search keeps finding swaps and toggles pass after pass.
fn adversarial_independent_instance() -> ProblemInstance {
    let mut rng = Pcg64::seed_from_u64(1);
    let weights: Vec<f64> = (0..30).map(|_| 200.0 + rng.next_f64() * 1_000.0).collect();
    let graph = generators::independent(&weights).unwrap();
    ProblemInstance::builder(graph)
        .checkpoint_costs((0..30).map(|_| rng.next_f64() * 400.0).collect())
        .uniform_recovery_cost(50.0)
        .platform_lambda(1.0 / 1_500.0)
        .build()
        .unwrap()
}

#[test]
fn local_search_allocates_nothing_per_pass() {
    let instance = adversarial_independent_instance();
    independent_tasks_heuristic(&instance, 1).unwrap();
    let mut improvements = [0; 2];
    let counts = [1, 100].map(|passes| {
        allocations_of(|| {
            let found = independent_tasks_heuristic(&instance, passes).unwrap();
            improvements[usize::from(passes == 100)] = found.improvements;
        })
    });
    assert_eq!(counts[0], counts[1], "allocations at 1 and 100 passes");
    assert!(improvements[1] > improvements[0], "more passes improved no further");
}

/// A layered DAG of `layers` layers of 10 tasks (edge density 0.3), with
/// a non-zero `R₀`, and its id order.
fn layered_order(layers: usize) -> (ProblemInstance, Vec<TaskId>) {
    let mut rng = Pcg64::seed_from_u64(layers as u64);
    let mut coins = rng.derive(2);
    let graph = generators::layered_random(
        &vec![10; layers],
        |level, index| 100.0 + ((level * 7 + index * 13) % 29) as f64 * 30.0,
        0.3,
        move || coins.next_f64(),
    )
    .unwrap();
    let n = graph.task_count();
    let order = linearize::linearize(&graph, LinearizationStrategy::IdOrder);
    let instance = ProblemInstance::builder(graph)
        .checkpoint_costs((0..n).map(|_| 5.0 + rng.next_f64() * 55.0).collect())
        .recovery_costs((0..n).map(|_| 5.0 + rng.next_f64() * 115.0).collect())
        .initial_recovery(20.0)
        .platform_lambda(1e-7)
        .build()
        .unwrap();
    (instance, order)
}

/// The allocations of each table builder on `order`, by name.
fn builder_allocations(instance: &ProblemInstance, order: &[TaskId]) -> Vec<(String, u64)> {
    let levels = StorageLevels::two_level(
        StorageLevel::new(0.25, 0.25).unwrap().with_slots(8),
        StorageLevel::new(1.0, 1.0).unwrap(),
    )
    .unwrap();
    let mut counts = vec![
        (
            "segment_cost_table".to_string(),
            allocations_of(|| drop(segment_cost_table(instance, order).unwrap())),
        ),
        (
            "lambda_sweep_for_order".to_string(),
            allocations_of(|| drop(lambda_sweep_for_order(instance, order).unwrap())),
        ),
        (
            "levelled_cost_table".to_string(),
            allocations_of(|| drop(levelled_cost_table(instance, order, levels).unwrap())),
        ),
    ];
    for model in MODELS {
        let count = allocations_of(|| drop(model_cost_table(instance, order, model).unwrap()));
        counts.push((format!("model_cost_table {model}"), count));
    }
    counts
}

#[test]
fn table_builders_allocate_per_call_not_per_task() {
    let (small, large) = (layered_order(100), layered_order(10_000));
    assert_eq!((small.0.task_count(), large.0.task_count()), (1_000, 100_000));
    let small = builder_allocations(&small.0, &small.1);
    let large = builder_allocations(&large.0, &large.1);
    for ((name, at_small), (_, at_large)) in small.iter().zip(&large) {
        assert_eq!(at_small, at_large, "{name}: allocations at 10³ and 10⁵ tasks");
    }
}

/// The `LambdaSweep` of an `n`-position order with plan-large's weights
/// (100–2 000 s) and checkpoint and recovery costs that vary by position.
fn chain_sweep(n: usize) -> LambdaSweep {
    let mut rng = Pcg64::seed_from_u64(n as u64);
    let weights: Vec<f64> = (0..n).map(|_| 100.0 + rng.next_f64() * 1_900.0).collect();
    let checkpoints: Vec<f64> = (0..n).map(|_| 5.0 + rng.next_f64() * 55.0).collect();
    let recoveries: Vec<f64> = (0..n).map(|_| 5.0 + rng.next_f64() * 115.0).collect();
    LambdaSweep::new(30.0, &weights, &checkpoints, &recoveries).unwrap()
}

/// `sweep`'s table at `λ·W = 30`.
fn table_at_30(sweep: &LambdaSweep) -> SegmentCostTable {
    sweep.table_for(30.0 / sweep.total_work()).unwrap()
}

#[test]
fn per_rate_tables_allocate_only_their_rate_dependent_vectors() {
    let sweep = chain_sweep(100_000);
    // The coefficients, both prefix exponentials, the checkpoint
    // exponentials and both suffix minima.
    assert_eq!(allocations_of(|| drop(table_at_30(&sweep))), 6);
}

#[test]
fn blocked_solves_on_a_kept_scratch_allocate_only_their_result() {
    let tables = [10_000, 100_000].map(|n| table_at_30(&chain_sweep(n)));
    let mut scratch = ChainDpScratch::new();
    drop(scalable_placement_on_table_with_scratch(&tables[1], &mut scratch));
    let counts = tables.each_ref().map(|table| {
        allocations_of(|| drop(scalable_placement_on_table_with_scratch(table, &mut scratch)))
    });
    assert_eq!(counts, [1, 1], "allocations at 10⁴ and 10⁵ positions");
}
