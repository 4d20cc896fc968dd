//! Scheduling arbitrary DAGs: linearise, then place checkpoints optimally
//! along the linearisation.
//!
//! Proposition 2 rules out an efficient exact algorithm for the joint problem
//! (order + checkpoints), even for independent tasks. The practical approach
//! this module implements — and the experiments evaluate — decomposes it:
//!
//! 1. pick a linearisation of the DAG with one of the
//!    [`LinearizationStrategy`] heuristics (§2's full-parallelism assumption
//!    makes any topological order feasible);
//! 2. materialise the order's per-position checkpoint and recovery costs
//!    under a [`CheckpointCostModel`] (the §6 general-cost extension), build
//!    **one** [`SegmentCostTable`] for the order from them, and place
//!    checkpoints optimally for that order with the Algorithm 1 recurrence
//!    run directly on the table
//!    ([`chain_dp::scalable_placement_on_table_with_scratch`](crate::chain_dp::scalable_placement_on_table_with_scratch)).
//!
//! The positional cost vectors are produced by **one incremental sweep** of
//! the order ([`LiveSetCostSweep::cost_order`]): the live set is maintained
//! as a delta structure
//! ([`LiveSetSweep`](ckpt_dag::traversal::LiveSetSweep)) instead of being
//! re-derived per position, so building the table costs `O(n + E)` per
//! linearisation — not the `O(n·degree)` per position of the reference
//! recomputing path (kept as [`model_cost_table_reference`] for
//! cross-checks). The DP's inner loop then runs exp-free on precomputed
//! costs with the table's monotone pruning bound, exactly like the chain
//! fast path. A table is built once per order, never per candidate segment:
//! [`schedule_dag_best_of`] builds one per strategy it tries, and
//! [`crate::order_search`] builds one per start and refills it in place
//! after each move ([`SegmentCostTable::refill`] redoes only the entries
//! whose inputs changed).
//!
//! For linear chains step 2 is exactly Algorithm 1 and the result is globally
//! optimal; for other DAGs the result is a heuristic whose quality experiment
//! E4 measures against brute force — and which
//! [`crate::order_search::schedule_dag_search`] improves on by searching the
//! order space beyond the fixed [`LinearizationStrategy`] handful.
//!
//! [`SegmentCostTable`]: ckpt_expectation::segment_cost::SegmentCostTable
//! [`SegmentCostTable::refill`]: ckpt_expectation::segment_cost::SegmentCostTable::refill
//! [`LiveSetCostSweep::cost_order`]: crate::cost_model::LiveSetCostSweep::cost_order

use ckpt_dag::{linearize, topo, LinearizationStrategy, TaskId};
use ckpt_expectation::segment_cost::SegmentCostTable;

use crate::chain_dp::{scalable_placement_on_table_with_scratch, ChainDpScratch};
use crate::cost_model::{order_costs, CheckpointCostModel};
use crate::error::ScheduleError;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;

/// The result of DAG scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct DagSolution {
    /// The schedule produced (order + checkpoint placement).
    pub schedule: Schedule,
    /// Its expected makespan **under the per-last-task cost model** (the
    /// model used by [`crate::evaluate::expected_makespan`]).
    pub expected_makespan: f64,
    /// Its expected makespan under the requested cost model (differs from
    /// `expected_makespan` only for the live-set models on non-chain DAGs).
    pub expected_makespan_under_model: f64,
    /// The linearisation strategy that was used.
    pub strategy: LinearizationStrategy,
}

/// Builds the [`SegmentCostTable`] of `order` with per-position checkpoint
/// and recovery costs drawn from `model` — the §6 generalisation of
/// [`crate::evaluate::segment_cost_table`] (which is this under
/// [`CheckpointCostModel::PerLastTask`]).
///
/// The positional cost vectors come from the model's single incremental
/// live-set sweep ([`LiveSetCostSweep::cost_order`], `O(n + E)` for the
/// whole order); the DP afterwards never re-derives a cost.
///
/// # Errors
///
/// * [`ScheduleError::EmptyInstance`] if `order` is empty;
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order;
/// * propagated validation errors (cannot occur for instances built through
///   [`ProblemInstance::builder`]).
///
/// [`LiveSetCostSweep::cost_order`]: crate::cost_model::LiveSetCostSweep::cost_order
pub fn model_cost_table(
    instance: &ProblemInstance,
    order: &[TaskId],
    model: CheckpointCostModel,
) -> Result<SegmentCostTable, ScheduleError> {
    order_costs(instance, order, model)?.table(instance)
}

/// The recomputing-path twin of [`model_cost_table`]: every position's costs
/// are re-derived from scratch with
/// [`CheckpointCostModel::checkpoint_cost`] /
/// [`CheckpointCostModel::recovery_cost`] (`O(n·degree)` per position under
/// the live-set models), and the protecting recoveries are shifted here, by
/// hand, so that nothing of the production sweep is shared.
///
/// Kept as the correctness reference the incremental sweep is cross-checked
/// against (tests here, property tests in [`crate::cost_model`]) and as the
/// baseline of the `b6_order_search` live-set bench; production code should
/// call [`model_cost_table`].
///
/// # Errors
///
/// Same as [`model_cost_table`].
pub fn model_cost_table_reference(
    instance: &ProblemInstance,
    order: &[TaskId],
    model: CheckpointCostModel,
) -> Result<SegmentCostTable, ScheduleError> {
    if order.is_empty() {
        return Err(ScheduleError::EmptyInstance);
    }
    if !topo::is_topological_order(instance.graph(), order) {
        return Err(ScheduleError::InvalidOrder);
    }
    let n = order.len();
    let weights: Vec<f64> = order.iter().map(|&t| instance.weight(t)).collect();
    let checkpoints: Vec<f64> = (0..n).map(|j| model.checkpoint_cost(instance, order, j)).collect();
    let recoveries: Vec<f64> = std::iter::once(instance.initial_recovery())
        .chain((1..n).map(|x| model.recovery_cost(instance, order, x - 1)))
        .collect();
    SegmentCostTable::new(
        instance.lambda(),
        instance.downtime(),
        &weights,
        &checkpoints,
        &recoveries,
    )
    .map_err(ScheduleError::from_expectation)
}

/// Places checkpoints optimally along a **fixed** order, generalising the
/// Algorithm 1 recurrence to an arbitrary [`CheckpointCostModel`]: one
/// [`SegmentCostTable`] is built for the order under the model
/// ([`model_cost_table`]) and the recurrence runs exp-free on it.
///
/// Returns the schedule and its expected makespan *under the given model*.
///
/// # Errors
///
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order;
/// * propagated validation errors.
pub fn optimal_checkpoints_for_order(
    instance: &ProblemInstance,
    order: Vec<TaskId>,
    model: CheckpointCostModel,
) -> Result<(Schedule, f64), ScheduleError> {
    let table = model_cost_table(instance, &order, model)?;
    let placement = scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new());
    let schedule = Schedule::new(instance, order, placement.checkpoint_after())?;
    Ok((schedule, placement.expected_makespan))
}

/// Schedules a DAG instance: linearises it with `strategy`, then places
/// checkpoints optimally for that order under `model`.
///
/// # Errors
///
/// Propagates validation errors; cannot fail for instances built through
/// [`ProblemInstance::builder`].
pub fn schedule_dag(
    instance: &ProblemInstance,
    strategy: LinearizationStrategy,
    model: CheckpointCostModel,
) -> Result<DagSolution, ScheduleError> {
    let order = linearize::linearize(instance.graph(), strategy);
    let (schedule, value_under_model) = optimal_checkpoints_for_order(instance, order, model)?;
    let expected_makespan = crate::evaluate::expected_makespan(instance, &schedule)?;
    Ok(DagSolution {
        schedule,
        expected_makespan,
        expected_makespan_under_model: value_under_model,
        strategy,
    })
}

/// Tries several linearisation strategies and keeps the best schedule (by
/// expected makespan under `model`).
///
/// `random_tries` additional random linearisations (seeds `0..random_tries`)
/// are explored on top of the deterministic strategies.
///
/// # Errors
///
/// Propagates validation errors.
pub fn schedule_dag_best_of(
    instance: &ProblemInstance,
    model: CheckpointCostModel,
    random_tries: u64,
) -> Result<DagSolution, ScheduleError> {
    let strategies = crate::order_search::default_start_strategies(random_tries);
    let mut best: Option<DagSolution> = None;
    for strategy in strategies {
        let candidate = schedule_dag(instance, strategy, model)?;
        let better = best.as_ref().is_none_or(|b| {
            candidate.expected_makespan_under_model < b.expected_makespan_under_model
        });
        if better {
            best = Some(candidate);
        }
    }
    Ok(best.expect("at least one strategy was tried"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;
    use crate::chain_dp;
    use ckpt_dag::generators;

    fn chain_instance() -> ProblemInstance {
        let graph = generators::chain(&[400.0, 100.0, 900.0, 250.0, 650.0]).unwrap();
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(60.0)
            .uniform_recovery_cost(60.0)
            .downtime(30.0)
            .platform_lambda(1.0 / 4_000.0)
            .build()
            .unwrap()
    }

    fn fork_join_instance() -> ProblemInstance {
        let graph = generators::fork_join(3, &[500.0, 300.0, 700.0], 100.0, 200.0).unwrap();
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(40.0)
            .uniform_recovery_cost(80.0)
            .downtime(10.0)
            .platform_lambda(1.0 / 3_000.0)
            .build()
            .unwrap()
    }

    #[test]
    fn reduces_to_chain_dp_on_chains() {
        let inst = chain_instance();
        let dag =
            schedule_dag(&inst, LinearizationStrategy::IdOrder, CheckpointCostModel::PerLastTask)
                .unwrap();
        let chain = chain_dp::optimal_chain_schedule(&inst).unwrap();
        assert!((dag.expected_makespan - chain.expected_makespan).abs() < 1e-9);
        assert_eq!(dag.schedule, chain.schedule);
        // Under any cost model the chain result is identical (§6 remark).
        for model in [CheckpointCostModel::LiveSetSum, CheckpointCostModel::LiveSetMax] {
            let general = schedule_dag(&inst, LinearizationStrategy::IdOrder, model).unwrap();
            assert!((general.expected_makespan - chain.expected_makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_order_is_rejected() {
        let inst = chain_instance();
        let bad: Vec<TaskId> = (0..5).rev().map(TaskId).collect();
        assert!(matches!(
            optimal_checkpoints_for_order(&inst, bad, CheckpointCostModel::PerLastTask),
            Err(ScheduleError::InvalidOrder)
        ));
    }

    #[test]
    fn checkpoint_placement_is_optimal_for_the_given_order() {
        let inst = fork_join_instance();
        let order = linearize::linearize(inst.graph(), LinearizationStrategy::IdOrder);
        let (schedule, _) =
            optimal_checkpoints_for_order(&inst, order.clone(), CheckpointCostModel::PerLastTask)
                .unwrap();
        let value = crate::evaluate::expected_makespan(&inst, &schedule).unwrap();
        let reference = brute_force::optimal_checkpoints_for_order(&inst, order).unwrap();
        assert!(
            (value - reference.expected_makespan).abs() / reference.expected_makespan < 1e-10,
            "dp-for-order {value} vs exhaustive {}",
            reference.expected_makespan
        );
    }

    #[test]
    fn best_of_is_no_worse_than_any_single_strategy() {
        let inst = fork_join_instance();
        let best = schedule_dag_best_of(&inst, CheckpointCostModel::PerLastTask, 4).unwrap();
        for strategy in [
            LinearizationStrategy::IdOrder,
            LinearizationStrategy::HeaviestFirst,
            LinearizationStrategy::LightestFirst,
            LinearizationStrategy::CriticalPathFirst,
        ] {
            let single = schedule_dag(&inst, strategy, CheckpointCostModel::PerLastTask).unwrap();
            assert!(
                best.expected_makespan_under_model <= single.expected_makespan_under_model + 1e-9
            );
        }
    }

    #[test]
    fn best_of_is_close_to_brute_force_on_small_dags() {
        let graph = generators::diamond([300.0, 500.0, 200.0, 400.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(50.0)
            .uniform_recovery_cost(50.0)
            .platform_lambda(1.0 / 2_000.0)
            .build()
            .unwrap();
        let heuristic = schedule_dag_best_of(&inst, CheckpointCostModel::PerLastTask, 8).unwrap();
        let brute = brute_force::optimal_schedule(&inst).unwrap();
        let gap = heuristic.expected_makespan / brute.expected_makespan;
        assert!(gap < 1.02, "gap {gap}");
    }

    #[test]
    fn live_set_models_cost_more_on_wide_dags() {
        // On a fork-join DAG the live set can contain several tasks, so the
        // sum model makes checkpoints at wide points more expensive and the
        // resulting expected makespan (under that model) is at least the
        // per-last-task one for the same strategy.
        let inst = fork_join_instance();
        let per_task =
            schedule_dag(&inst, LinearizationStrategy::IdOrder, CheckpointCostModel::PerLastTask)
                .unwrap();
        let live_sum =
            schedule_dag(&inst, LinearizationStrategy::IdOrder, CheckpointCostModel::LiveSetSum)
                .unwrap();
        assert!(
            live_sum.expected_makespan_under_model >= per_task.expected_makespan_under_model - 1e-9
        );
    }

    #[test]
    fn incremental_table_matches_recomputing_reference() {
        let inst = fork_join_instance();
        for strategy in [LinearizationStrategy::IdOrder, LinearizationStrategy::CriticalPathFirst] {
            let order = linearize::linearize(inst.graph(), strategy);
            for model in [
                CheckpointCostModel::PerLastTask,
                CheckpointCostModel::LiveSetSum,
                CheckpointCostModel::LiveSetMax,
            ] {
                let fast = model_cost_table(&inst, &order, model).unwrap();
                let reference = model_cost_table_reference(&inst, &order, model).unwrap();
                for x in 0..order.len() {
                    for j in x..order.len() {
                        let (a, b) = (fast.cost(x, j), reference.cost(x, j));
                        assert!(
                            (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                            "{model} cost({x},{j}): {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solution_reports_its_strategy() {
        let inst = chain_instance();
        let sol = schedule_dag(
            &inst,
            LinearizationStrategy::HeaviestFirst,
            CheckpointCostModel::PerLastTask,
        )
        .unwrap();
        assert_eq!(sol.strategy, LinearizationStrategy::HeaviestFirst);
    }
}
