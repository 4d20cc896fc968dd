//! Cross-crate property tests of the one path from an execution order to
//! its cost table.
//!
//! The §6 live-set cost models: the incremental `O(n + E)` sweep
//! ([`LiveSetCostSweep::cost_order`]) must match the recomputing reference
//! path position by position on random layered DAGs.
//!
//! The window updates are held to the same sweep: after a precedence-
//! preserving move, [`LiveSetCostSweep::apply_move`] must leave a
//! [`CostedOrder`] bit for bit what a fresh sweep of the new order gives,
//! under every model, and change nothing outside the range it reports.
//!
//! Every builder of one order's table gives one table, bit for bit:
//! `segment_cost_table`, `model_cost_table` at the per-last-task model, a
//! `LambdaSweep`'s table at the instance's rate and a single-level
//! `LevelledCostTable`'s, all equal to `SegmentCostTable::new` over the
//! paper's vectors transcribed from the instance; under the live-set
//! models, `order_costs` (the builders' entry) gives a fresh `cost_order`
//! sweep's vectors, and `model_cost_table` equals `SegmentCostTable::new`
//! over them.
//!
//! Migrated from `ckpt-core`'s `cost_model::sweep_properties` unit tests
//! when the random-instance generator moved to the shared
//! [`ckpt_bench::testgen`] module (a unit test inside `ckpt-core` cannot
//! consume `ckpt-bench` types without seeing two distinct compilations of
//! its own crate).

use ckpt_bench::testgen::random_layered_proptest_case as random_dag_case;
use ckpt_workflows::core::cost_model::{
    order_costs, CheckpointCostModel, CostedOrder, LiveSetCostSweep,
};
use ckpt_workflows::core::dag_schedule::model_cost_table;
use ckpt_workflows::core::evaluate::{
    lambda_sweep_for_order, levelled_cost_table, segment_cost_table,
};
use ckpt_workflows::core::ProblemInstance;
use ckpt_workflows::dag::neighborhood::{is_valid_move, OrderMove};
use ckpt_workflows::dag::{generators, linearize, LinearizationStrategy, TaskId};
use ckpt_workflows::expectation::segment_cost::SegmentCostTable;
use ckpt_workflows::expectation::storage::StorageLevels;
use ckpt_workflows::failure::{Pcg64, RandomSource};
use proptest::prelude::*;

const ALL_MODELS: [CheckpointCostModel; 3] = [
    CheckpointCostModel::PerLastTask,
    CheckpointCostModel::LiveSetSum,
    CheckpointCostModel::LiveSetMax,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_incremental_matches_recomputing_path(seed in any::<u64>()) {
        let (inst, order) = random_dag_case(seed);
        for model in ALL_MODELS {
            let costed = LiveSetCostSweep::new(inst.graph()).cost_order(model, &inst, order.clone());
            let (ckpt, rec) = (costed.costs().checkpoints(), costed.costs().recoveries());
            prop_assert_eq!(ckpt.len(), order.len());
            for pos in 0..order.len() {
                let c_ref = model.checkpoint_cost(&inst, &order, pos);
                let r_ref = model.recovery_cost(&inst, &order, pos);
                match model {
                    // Max and per-task never do arithmetic on the
                    // costs: bitwise equality is required.
                    CheckpointCostModel::PerLastTask
                    | CheckpointCostModel::LiveSetMax => {
                        prop_assert!(ckpt[pos] == c_ref, "{} ckpt at {}", model, pos);
                        prop_assert!(rec[pos] == r_ref, "{} rec at {}", model, pos);
                    }
                    // The running sum re-associates the additions, so
                    // it may differ from the fresh sum by rounding
                    // only.
                    CheckpointCostModel::LiveSetSum => {
                        prop_assert!((ckpt[pos] - c_ref).abs() <= 1e-12 * c_ref.abs().max(1.0),
                            "sum ckpt at {}: {} vs {}", pos, ckpt[pos], c_ref);
                        prop_assert!((rec[pos] - r_ref).abs() <= 1e-12 * r_ref.abs().max(1.0),
                            "sum rec at {}: {} vs {}", pos, rec[pos], r_ref);
                    }
                }
            }
        }
    }
}

/// A layered DAG of plan-mixed's search shape (`layers` of tasks, edge
/// density 0.3) with heterogeneous costs, and a random order of it.
fn plan_mixed_case(seed: u64, layers: &[usize]) -> (ProblemInstance, Vec<TaskId>) {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut weights = rng.derive(1);
    let mut coins = rng.derive(2);
    let graph = generators::layered_random(
        layers,
        |_, _| 200.0 + weights.next_f64() * 1_200.0,
        0.3,
        move || coins.next_f64(),
    )
    .unwrap();
    let n = graph.task_count();
    let order = linearize::linearize(&graph, LinearizationStrategy::Random(seed));
    let instance = ProblemInstance::builder(graph)
        .checkpoint_costs((0..n).map(|_| 5.0 + rng.next_f64() * 55.0).collect())
        .recovery_costs((0..n).map(|_| 5.0 + rng.next_f64() * 115.0).collect())
        .platform_lambda(1e-4)
        .build()
        .unwrap();
    (instance, order)
}

/// A swap or a rotation of a window of up to 12 positions.
fn random_move(rng: &mut Pcg64, n: usize) -> OrderMove {
    let i = (rng.next_u64() % (n as u64 - 1)) as usize;
    let j = (i + 1 + (rng.next_u64() % 11) as usize).min(n - 1);
    match rng.next_u64() % 3 {
        0 => OrderMove::SwapAdjacent { i },
        1 => OrderMove::RotateLeft { i, j },
        _ => OrderMove::RotateRight { i, j },
    }
}

/// Bit-for-bit equality: `Debug` prints every `f64` with the shortest
/// digits that round-trip it.
fn same_bits(a: &CostedOrder, b: &CostedOrder) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

/// Applies up to 80 random valid moves to `order` under `model`, checking
/// each update against fresh sweeps, and undoing half of them with
/// `copy_range_from`. Returns how many updates ran past their window.
fn walk_moves(
    instance: &ProblemInstance,
    order: &[TaskId],
    model: CheckpointCostModel,
    seed: u64,
) -> Result<usize, TestCaseError> {
    let n = order.len();
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut sweep = LiveSetCostSweep::new(instance.graph());
    let mut costed = sweep.cost_order(model, instance, order.to_vec());
    let mut drifted = 0;
    for step in 0..80 {
        let mv = random_move(&mut rng, n);
        if !is_valid_move(instance.graph(), costed.order(), &mv) {
            continue;
        }
        let before = costed.clone();
        let changed = sweep.apply_move(instance, &mut costed, &mv);
        let (lo, hi) = mv.window();
        prop_assert!(changed.start == lo && changed.end > hi && changed.end <= n);
        drifted += usize::from(changed.end > hi + 1);
        let fresh = sweep.cost_order(model, instance, costed.order().to_vec());
        prop_assert!(same_bits(&costed, &fresh), "{} step {}: {:?}", model, step, mv);
        for p in (0..lo).chain(changed.end..n) {
            prop_assert!(
                costed.costs().checkpoints()[p].to_bits()
                    == before.costs().checkpoints()[p].to_bits()
            );
            prop_assert!(
                costed.costs().recoveries()[p].to_bits()
                    == before.costs().recoveries()[p].to_bits()
            );
        }
        if rng.next_u64().is_multiple_of(2) {
            costed.copy_range_from(&before, changed);
            prop_assert!(same_bits(&costed, &before), "{} step {}: undo", model, step);
        }
    }
    Ok(drifted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every precedence-preserving window move, the in-place update
    /// equals a fresh sweep of the new order bit for bit (costs, live-set
    /// sizes, running sums, positions), under all three models, and
    /// nothing outside its reported range changed; copying the range back
    /// restores the old order exactly.
    #[test]
    fn prop_window_moves_match_fresh_sweeps(seed in any::<u64>()) {
        let (instance, order) = if seed.is_multiple_of(2) {
            random_dag_case(seed)
        } else {
            plan_mixed_case(seed, &[8; 9])
        };
        if order.len() >= 2 {
            for model in ALL_MODELS {
                walk_moves(&instance, &order, model, seed)?;
            }
        }
    }
}

/// The live-set sums do drift past the window on plan-mixed's shape: the
/// same terms, summed in another order, round differently. The update must
/// (and does) follow the drift to where the sums meet their old bits.
#[test]
fn live_set_sums_drift_past_the_window() {
    let (instance, order) = plan_mixed_case(7, &[8; 9]);
    let drifted: usize = (0..8)
        .map(|seed| walk_moves(&instance, &order, CheckpointCostModel::LiveSetSum, seed).unwrap())
        .sum();
    assert!(drifted > 0, "no update ran past its window");
}

/// A random layered DAG with heterogeneous costs, a non-zero `R₀` and
/// downtime, and a rate log-uniform in 10⁻⁶ … 10⁻¹ (saturated tables
/// included), with a random order of it.
fn table_case(seed: u64) -> (ProblemInstance, Vec<TaskId>) {
    let mut rng = Pcg64::seed_from_u64(seed);
    let layers: Vec<usize> =
        (0..2 + rng.next_u64() % 5).map(|_| 1 + (rng.next_u64() % 6) as usize).collect();
    let mut weights = rng.derive(1);
    let mut coins = rng.derive(2);
    let graph = generators::layered_random(
        &layers,
        |_, _| 50.0 + weights.next_f64() * 950.0,
        0.4,
        move || coins.next_f64(),
    )
    .unwrap();
    let n = graph.task_count();
    let order = linearize::linearize(&graph, LinearizationStrategy::Random(seed));
    let instance = ProblemInstance::builder(graph)
        .checkpoint_costs((0..n).map(|_| rng.next_f64() * 80.0).collect())
        .recovery_costs((0..n).map(|_| rng.next_f64() * 120.0).collect())
        .initial_recovery(5.0 + rng.next_f64() * 40.0)
        .downtime(rng.next_f64() * 30.0)
        .platform_lambda(1e-6 * 1e5f64.powf(rng.next_f64()))
        .build()
        .unwrap();
    (instance, order)
}

/// Bit-for-bit equality of two tables.
fn same_table(a: &SegmentCostTable, b: &SegmentCostTable) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every builder of one order's table returns the table of the paper's
    /// vectors, bit for bit (see the module docs).
    #[test]
    fn prop_every_builder_of_an_order_gives_one_table(seed in any::<u64>()) {
        let (instance, order) = table_case(seed);
        let (lambda, downtime) = (instance.lambda(), instance.downtime());
        let weights: Vec<f64> = order.iter().map(|&t| instance.weight(t)).collect();
        let checkpoints: Vec<f64> = order.iter().map(|&t| instance.checkpoint_cost(t)).collect();
        let recoveries: Vec<f64> = std::iter::once(instance.initial_recovery())
            .chain(order[..order.len() - 1].iter().map(|&t| instance.recovery_cost(t)))
            .collect();
        let paper = SegmentCostTable::new(lambda, downtime, &weights, &checkpoints, &recoveries)
            .unwrap();
        let built = [
            ("segment_cost_table", segment_cost_table(&instance, &order).unwrap()),
            (
                "model_cost_table",
                model_cost_table(&instance, &order, CheckpointCostModel::PerLastTask).unwrap(),
            ),
            (
                "lambda_sweep_for_order",
                lambda_sweep_for_order(&instance, &order).unwrap().table_for(lambda).unwrap(),
            ),
            (
                "levelled_cost_table",
                levelled_cost_table(&instance, &order, StorageLevels::single())
                    .unwrap()
                    .table(0)
                    .clone(),
            ),
        ];
        for (name, table) in &built {
            prop_assert!(same_table(table, &paper), "{} differs from the paper's table", name);
        }
        for model in [CheckpointCostModel::LiveSetSum, CheckpointCostModel::LiveSetMax] {
            let costed =
                LiveSetCostSweep::new(instance.graph()).cost_order(model, &instance, order.clone());
            let costs = order_costs(&instance, &order, model).unwrap();
            prop_assert!(
                costs == *costed.costs() && format!("{costs:?}") == format!("{:?}", costed.costs()),
                "{}: the builders' costs differ from the search's",
                model
            );
            let swept = SegmentCostTable::new(
                lambda,
                downtime,
                costed.costs().weights(),
                costed.costs().checkpoints(),
                costed.costs().protecting_recoveries(),
            )
            .unwrap();
            let table = model_cost_table(&instance, &order, model).unwrap();
            prop_assert!(same_table(&table, &swept), "{}", model);
        }
    }
}
