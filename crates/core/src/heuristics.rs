//! Checkpoint-placement heuristics and baselines (paper §7 related work,
//! plus the independent-task heuristics motivated by Proposition 2).
//!
//! Since choosing an order and checkpoint positions for independent tasks is
//! strongly NP-complete (Proposition 2), practical schedulers need heuristics.
//! This module provides the baselines the experiments compare against:
//!
//! * fixed-order placements: checkpoint after every task, only at the end,
//!   every `k` tasks, or whenever the accumulated work exceeds a *period*
//!   (Young/Daly-style periodic checkpointing transplanted to task
//!   boundaries);
//! * the LPT order heuristic for independent tasks;
//! * a local-search improver that perturbs checkpoint decisions and adjacent
//!   task pairs.

use ckpt_dag::neighborhood::{is_valid_move, OrderMove};
use ckpt_dag::{linearize, LinearizationStrategy, TaskId};
use ckpt_expectation::approximations::young_period;
use ckpt_expectation::segment_cost::SegmentCostTable;

use crate::cost_model::CheckpointCostModel;
use crate::error::ScheduleError;
use crate::evaluate::{expected_makespan, lambda_sweep_for_order};
use crate::instance::ProblemInstance;
use crate::order_search::OrderState;
use crate::schedule::Schedule;

#[cfg(test)]
mod local_search_walls;

/// Checkpoint after every `k`-th task of `order` (and after the last task).
///
/// # Errors
///
/// * [`ScheduleError::NonPositiveParameter`] if `k == 0`;
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order.
pub fn checkpoint_every_k(
    instance: &ProblemInstance,
    order: Vec<TaskId>,
    k: usize,
) -> Result<Schedule, ScheduleError> {
    if k == 0 {
        return Err(ScheduleError::NonPositiveParameter { name: "k", value: 0.0 });
    }
    let n = order.len();
    let mut checkpoints = vec![false; n];
    for (pos, decision) in checkpoints.iter_mut().enumerate() {
        if (pos + 1).is_multiple_of(k) {
            *decision = true;
        }
    }
    if let Some(last) = checkpoints.last_mut() {
        *last = true;
    }
    Schedule::new(instance, order, checkpoints)
}

/// Periodic checkpointing at task granularity: walk `order` accumulating work
/// and checkpoint after the first task that pushes the accumulated work to
/// `period` or beyond.
///
/// # Errors
///
/// * [`ScheduleError::NonPositiveParameter`] if `period ≤ 0`;
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order.
fn checkpoint_by_period(
    instance: &ProblemInstance,
    order: Vec<TaskId>,
    period: f64,
) -> Result<Schedule, ScheduleError> {
    if !period.is_finite() || period <= 0.0 {
        return Err(ScheduleError::NonPositiveParameter { name: "period", value: period });
    }
    let weights: Vec<f64> = order.iter().map(|&t| instance.weight(t)).collect();
    let checkpoints = period_flags(&weights, period);
    Schedule::new(instance, order, checkpoints)
}

/// Periodic checkpointing using Young's first-order period `√(2·C̄/λ)`, where
/// `C̄` is the mean per-task checkpoint cost. This is the natural transplant of
/// divisible-load periodic checkpointing (paper §7) to the task model.
///
/// # Errors
///
/// Returns [`ScheduleError::NonPositiveParameter`] if the Young period is
/// undefined (e.g. all-zero checkpoint costs), and
/// [`ScheduleError::InvalidOrder`] if `order` is not a topological order.
pub fn young_periodic_schedule(
    instance: &ProblemInstance,
    order: Vec<TaskId>,
) -> Result<Schedule, ScheduleError> {
    let period = young_period_for(instance, instance.lambda())?;
    checkpoint_by_period(instance, order, period)
}

/// The Young period `√(2·C̄/λ)` of `instance`'s mean per-task checkpoint cost
/// at rate `lambda` — shared by [`young_periodic_schedule`] and
/// [`baseline_lambda_sweep`] so the two can never diverge on the definition.
fn young_period_for(instance: &ProblemInstance, lambda: f64) -> Result<f64, ScheduleError> {
    young_period_for_mean(mean_checkpoint_cost(instance), lambda)
}

/// The λ-independent half of [`young_period_for`], hoisted out of per-rate
/// loops.
fn mean_checkpoint_cost(instance: &ProblemInstance) -> f64 {
    instance.checkpoint_costs().iter().sum::<f64>() / instance.task_count() as f64
}

/// The λ-dependent half of [`young_period_for`].
fn young_period_for_mean(mean_c: f64, lambda: f64) -> Result<f64, ScheduleError> {
    young_period(mean_c, lambda).map_err(|_| ScheduleError::NonPositiveParameter {
        name: "mean checkpoint cost",
        value: mean_c,
    })
}

/// One row of [`baseline_lambda_sweep`]: the expected makespan of the three
/// standard fixed-order baselines at one failure rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineSweepPoint {
    /// The platform failure rate of this point.
    pub lambda: f64,
    /// Expected makespan of checkpointing after every task.
    pub everywhere: f64,
    /// Expected makespan of the single mandatory final checkpoint.
    pub final_only: f64,
    /// Expected makespan of Young-periodic placement (the period `√(2C̄/λ)`
    /// is recomputed at each rate, so the placement adapts with λ).
    pub young: f64,
}

/// Evaluates the checkpoint-everywhere, final-only and Young-periodic
/// baselines along `order` across a whole vector of failure rates, sharing
/// the order's λ-independent precomputation
/// (via [`LambdaSweep`](ckpt_expectation::sweep::LambdaSweep)) between the
/// rates — the batched baseline curves experiment E9 plots against the
/// re-optimised [`crate::analysis::lambda_sweep_with_threads`].
///
/// # Errors
///
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order;
/// * [`ScheduleError::NonPositiveParameter`] if a rate is not strictly
///   positive or the mean checkpoint cost is zero (the Young period is then
///   undefined).
pub fn baseline_lambda_sweep(
    instance: &ProblemInstance,
    order: &[TaskId],
    lambdas: &[f64],
) -> Result<Vec<BaselineSweepPoint>, ScheduleError> {
    let sweep = lambda_sweep_for_order(instance, order)?;
    let n = order.len();
    let everywhere = vec![true; n];
    let mut final_only = vec![false; n];
    final_only[n - 1] = true;
    let weights: Vec<f64> = order.iter().map(|&t| instance.weight(t)).collect();
    let mean_c = mean_checkpoint_cost(instance);
    lambdas
        .iter()
        .map(|&lambda| {
            let table = sweep.table_for(lambda).map_err(ScheduleError::from_expectation)?;
            let period = young_period_for_mean(mean_c, lambda)?;
            let young = table.total_cost(&period_flags(&weights, period));
            Ok(BaselineSweepPoint {
                lambda,
                everywhere: table.total_cost(&everywhere),
                final_only: table.total_cost(&final_only),
                young,
            })
        })
        .collect()
}

/// The checkpoint decisions of periodic placement at task granularity (the
/// walk of [`checkpoint_by_period`], on positional weights).
fn period_flags(weights: &[f64], period: f64) -> Vec<bool> {
    let mut flags = vec![false; weights.len()];
    let mut accumulated = 0.0;
    for (pos, &w) in weights.iter().enumerate() {
        accumulated += w;
        if accumulated >= period {
            flags[pos] = true;
            accumulated = 0.0;
        }
    }
    if let Some(last) = flags.last_mut() {
        *last = true;
    }
    flags
}

/// Longest-Processing-Time-first order for independent tasks.
///
/// # Errors
///
/// Returns [`ScheduleError::NotIndependent`] if the instance has dependences.
pub fn lpt_order(instance: &ProblemInstance) -> Result<Vec<TaskId>, ScheduleError> {
    if instance.graph().edge_count() != 0 {
        return Err(ScheduleError::NotIndependent);
    }
    Ok(linearize::linearize(instance.graph(), LinearizationStrategy::HeaviestFirst))
}

/// Result of the local-search improver.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSearchResult {
    /// The improved schedule.
    pub schedule: Schedule,
    /// Its expected makespan.
    pub expected_makespan: f64,
    /// Number of accepted improving moves.
    pub improvements: u64,
}

/// The makespan change from toggling the checkpoint decision at `pos`: only
/// the segments adjacent to `pos` are re-evaluated (three exp-free table
/// costs), not the whole schedule.
fn toggle_delta(table: &SegmentCostTable, checkpoints: &[bool], pos: usize) -> f64 {
    let start = checkpoints[..pos].iter().rposition(|&c| c).map_or(0, |q| q + 1);
    let next = pos
        + 1
        + checkpoints[pos + 1..]
            .iter()
            .position(|&c| c)
            .expect("the final checkpoint is mandatory");
    if checkpoints[pos] {
        // Removing the checkpoint merges the two segments around pos.
        -table.split_delta(start, pos, next)
    } else {
        // Adding one splits the segment containing pos.
        table.split_delta(start, pos, next)
    }
}

/// First-improvement local search over a schedule.
///
/// Two move families are explored repeatedly until a full pass yields no
/// improvement (or `max_passes` passes have been made):
///
/// 1. toggling the checkpoint decision at any non-final position — evaluated
///    incrementally through the committed order's [`SegmentCostTable`], so a
///    toggle costs three exp-free segment costs instead of a full
///    re-evaluation;
/// 2. swapping two adjacent tasks in the order, when the swap keeps the order
///    topologically valid. A swap moves the order through the order
///    search's [`OrderState`]: [`is_valid_move`] checks the pair, the
///    window update re-costs the two positions, and a trial table is
///    refilled ([`SegmentCostTable::refill`]) and exchanged with the
///    committed one when the swap is accepted.
///
/// The search is deterministic; it never degrades the starting schedule.
/// Once its two tables are built, a pass allocates nothing.
///
/// # Errors
///
/// Propagates evaluation errors (cannot occur for valid instances).
fn local_search(
    instance: &ProblemInstance,
    start: Schedule,
    max_passes: usize,
) -> Result<LocalSearchResult, ScheduleError> {
    let mut checkpoints: Vec<bool> = start.checkpoint_after().to_vec();
    let mut state =
        OrderState::new(instance, CheckpointCostModel::PerLastTask, start.order().to_vec());
    let mut table = state.table()?;
    let mut trial = state.table()?;
    let mut best_value = table.total_cost(&checkpoints);
    let mut improvements = 0u64;
    let n = checkpoints.len();

    for _ in 0..max_passes {
        let mut improved = false;

        // Move family 1: toggle checkpoint decisions (the final one is fixed).
        for pos in 0..n.saturating_sub(1) {
            let delta = toggle_delta(&table, &checkpoints, pos);
            if delta < -1e-12 {
                checkpoints[pos] = !checkpoints[pos];
                best_value += delta;
                improvements += 1;
                improved = true;
            }
        }

        // Move family 2: adjacent swaps that preserve precedence.
        for i in 0..n.saturating_sub(1) {
            let swap = OrderMove::SwapAdjacent { i };
            if !is_valid_move(instance.graph(), state.order(), &swap) {
                continue;
            }
            state.try_move(&swap, &mut trial)?;
            let value = trial.total_cost(&checkpoints);
            if value + 1e-12 < best_value {
                state.accept();
                std::mem::swap(&mut table, &mut trial);
                best_value = value;
                improvements += 1;
                improved = true;
            } else {
                state.reject();
            }
        }

        if !improved {
            break;
        }
    }

    let schedule = Schedule::new(instance, state.into_order(), checkpoints)?;
    // Report the exact analytical value of the final schedule rather than the
    // incrementally tracked one (they agree to ~1e-12 relative error).
    let expected_makespan = expected_makespan(instance, &schedule)?;
    Ok(LocalSearchResult { schedule, expected_makespan, improvements })
}

/// End-to-end heuristic for independent tasks (the Proposition 2 setting):
/// LPT order, Young-periodic checkpoint placement, then local search.
///
/// # Errors
///
/// Returns [`ScheduleError::NotIndependent`] if the instance has dependences.
pub fn independent_tasks_heuristic(
    instance: &ProblemInstance,
    local_search_passes: usize,
) -> Result<LocalSearchResult, ScheduleError> {
    let order = lpt_order(instance)?;
    let start = young_periodic_schedule(instance, order)
        .or_else(|_| Schedule::checkpoint_everywhere(instance, lpt_order(instance)?))?;
    local_search(instance, start, local_search_passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;
    use ckpt_dag::generators;

    fn independent_instance(weights: &[f64], c: f64, lambda: f64) -> ProblemInstance {
        let graph = generators::independent(weights).unwrap();
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(c)
            .uniform_recovery_cost(c)
            .platform_lambda(lambda)
            .build()
            .unwrap()
    }

    fn id_order(n: usize) -> Vec<TaskId> {
        (0..n).map(TaskId).collect()
    }

    #[test]
    fn every_k_places_expected_checkpoints() {
        let inst = independent_instance(&[10.0; 7], 1.0, 1e-3);
        let s = checkpoint_every_k(&inst, id_order(7), 3).unwrap();
        // Positions 2, 5 and the final 6.
        assert_eq!(s.checkpoint_after(), &[false, false, true, false, false, true, true]);
        assert!(checkpoint_every_k(&inst, id_order(7), 0).is_err());
    }

    #[test]
    fn every_one_is_checkpoint_everywhere() {
        let inst = independent_instance(&[10.0; 4], 1.0, 1e-3);
        let s = checkpoint_every_k(&inst, id_order(4), 1).unwrap();
        assert_eq!(s.checkpoint_count(), 4);
    }

    #[test]
    fn period_grouping_accumulates_work() {
        let inst = independent_instance(&[100.0, 100.0, 100.0, 100.0, 100.0], 1.0, 1e-3);
        // Period 250: checkpoint after the 3rd task (300 >= 250) and after the
        // last one.
        let s = checkpoint_by_period(&inst, id_order(5), 250.0).unwrap();
        assert_eq!(s.checkpoint_after(), &[false, false, true, false, true]);
        assert!(checkpoint_by_period(&inst, id_order(5), 0.0).is_err());
    }

    #[test]
    fn tiny_period_checkpoints_everywhere() {
        let inst = independent_instance(&[100.0; 3], 1.0, 1e-3);
        let s = checkpoint_by_period(&inst, id_order(3), 1.0).unwrap();
        assert_eq!(s.checkpoint_count(), 3);
    }

    #[test]
    fn young_periodic_schedule_is_valid_and_reasonable() {
        let inst = independent_instance(&[600.0; 20], 60.0, 1.0 / 10_000.0);
        let s = young_periodic_schedule(&inst, id_order(20)).unwrap();
        // Young period = sqrt(2*60*10000) ≈ 1095 s → groups of 2 tasks.
        assert!(
            s.checkpoint_count() >= 9 && s.checkpoint_count() <= 11,
            "{}",
            s.checkpoint_count()
        );
    }

    #[test]
    fn baseline_sweep_matches_per_rate_schedule_evaluation() {
        let inst = independent_instance(&[600.0; 12], 60.0, 1.0 / 10_000.0);
        let order = id_order(12);
        let lambdas = [1e-6, 1e-5, 1e-4, 1e-3];
        let rows = baseline_lambda_sweep(&inst, &order, &lambdas).unwrap();
        assert_eq!(rows.len(), lambdas.len());
        for row in &rows {
            let swept = inst.with_lambda(row.lambda).unwrap();
            let everywhere = Schedule::checkpoint_everywhere(&swept, order.clone()).unwrap();
            let final_only = Schedule::checkpoint_final_only(&swept, order.clone()).unwrap();
            let young = young_periodic_schedule(&swept, order.clone()).unwrap();
            let tol = 1e-9;
            assert!(
                (row.everywhere - expected_makespan(&swept, &everywhere).unwrap()).abs()
                    / row.everywhere
                    < tol
            );
            assert!(
                (row.final_only - expected_makespan(&swept, &final_only).unwrap()).abs()
                    / row.final_only
                    < tol
            );
            assert!(
                (row.young - expected_makespan(&swept, &young).unwrap()).abs() / row.young < tol,
                "young mismatch at λ {}",
                row.lambda
            );
        }
        // At high rates, adaptive-period Young beats the single checkpoint.
        assert!(rows.last().unwrap().young < rows.last().unwrap().final_only);
    }

    #[test]
    fn baseline_sweep_validates_inputs() {
        let inst = independent_instance(&[100.0; 3], 10.0, 1e-4);
        assert!(baseline_lambda_sweep(&inst, &id_order(3), &[0.0]).is_err());
        let zero_cost = independent_instance(&[100.0; 3], 0.0, 1e-4);
        assert!(baseline_lambda_sweep(&zero_cost, &id_order(3), &[1e-4]).is_err());
    }

    #[test]
    fn lpt_order_is_heaviest_first_and_needs_independence() {
        let inst = independent_instance(&[5.0, 9.0, 1.0, 7.0], 1.0, 1e-3);
        assert_eq!(lpt_order(&inst).unwrap(), vec![TaskId(1), TaskId(3), TaskId(0), TaskId(2)]);
        let chain_graph = generators::chain(&[1.0, 2.0]).unwrap();
        let chain_inst = ProblemInstance::builder(chain_graph)
            .uniform_checkpoint_cost(1.0)
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        assert!(matches!(lpt_order(&chain_inst), Err(ScheduleError::NotIndependent)));
    }

    #[test]
    fn local_search_never_degrades() {
        let inst = independent_instance(&[300.0, 80.0, 550.0, 120.0, 410.0], 40.0, 1.0 / 2_000.0);
        let start = Schedule::checkpoint_everywhere(&inst, id_order(5)).unwrap();
        let start_value = expected_makespan(&inst, &start).unwrap();
        let result = local_search(&inst, start, 50).unwrap();
        assert!(result.expected_makespan <= start_value + 1e-9);
        assert!(
            (expected_makespan(&inst, &result.schedule).unwrap() - result.expected_makespan).abs()
                < 1e-9
        );
    }

    #[test]
    fn local_search_with_zero_passes_returns_start() {
        let inst = independent_instance(&[10.0, 20.0], 1.0, 1e-3);
        let start = Schedule::checkpoint_everywhere(&inst, id_order(2)).unwrap();
        let value = expected_makespan(&inst, &start).unwrap();
        let result = local_search(&inst, start.clone(), 0).unwrap();
        assert_eq!(result.schedule, start);
        assert_eq!(result.improvements, 0);
        assert!((result.expected_makespan - value).abs() < 1e-12);
    }

    #[test]
    fn heuristic_is_close_to_brute_force_on_small_instances() {
        let inst =
            independent_instance(&[320.0, 75.0, 410.0, 150.0, 260.0, 90.0], 30.0, 1.0 / 1_500.0);
        let heuristic = independent_tasks_heuristic(&inst, 100).unwrap();
        let brute = brute_force::optimal_schedule(&inst).unwrap();
        let gap = heuristic.expected_makespan / brute.expected_makespan;
        assert!(gap < 1.02, "optimality gap {gap}");
        assert!(heuristic.expected_makespan >= brute.expected_makespan - 1e-9);
    }

    #[test]
    fn heuristic_rejects_dependent_tasks() {
        let chain_graph = generators::chain(&[1.0, 2.0, 3.0]).unwrap();
        let inst = ProblemInstance::builder(chain_graph)
            .uniform_checkpoint_cost(1.0)
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        assert!(matches!(
            independent_tasks_heuristic(&inst, 10),
            Err(ScheduleError::NotIndependent)
        ));
    }

    #[test]
    fn local_search_respects_dependences_when_swapping() {
        // On a chain, adjacent swaps are never valid, so the order must be
        // unchanged after local search.
        let graph = generators::chain(&[100.0, 200.0, 300.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(10.0)
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        let start = Schedule::checkpoint_everywhere(&inst, id_order(3)).unwrap();
        let result = local_search(&inst, start, 20).unwrap();
        assert_eq!(result.schedule.order(), &id_order(3)[..]);
    }
}
