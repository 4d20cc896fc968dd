//! Exhaustive-search baselines for small instances.
//!
//! Proposition 2 tells us the general problem (choose an order *and* the
//! checkpoint positions) is strongly NP-complete, so exhaustive search is the
//! only exact reference for non-chain instances. These solvers are used by the
//! test suite and by experiment E2/E4 to certify optimality of the chain DP
//! and to measure the optimality gap of the heuristics on small instances.
//!
//! The subset enumeration walks the `2^{n−1}` checkpoint subsets in **Gray
//! code** order: consecutive subsets differ in exactly one checkpoint
//! decision, and flipping the decision at position `p` only merges or splits
//! the two segments adjacent to `p`. With the per-order
//! [`SegmentCostTable`](ckpt_expectation::segment_cost::SegmentCostTable)
//! each step therefore costs `O(log n)` (a neighbour lookup plus three
//! exp-free segment costs) instead of re-evaluating the whole schedule in
//! `O(n)` with two `exp` calls per segment.

use std::collections::BTreeSet;

use ckpt_dag::{topo, TaskId};
use ckpt_expectation::storage::StorageLevels;

use crate::error::ScheduleError;
use crate::evaluate::{levelled_cost_table, segment_cost_table};
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;

/// An exhaustive-search result.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteForceSolution {
    /// The optimal schedule found.
    pub schedule: Schedule,
    /// Its expected makespan.
    pub expected_makespan: f64,
    /// How many (order, checkpoint-set) candidates were evaluated.
    pub candidates_evaluated: u64,
}

/// The largest task count accepted by [`optimal_schedule`].
///
/// `n!·2^{n−1}` candidates grow extremely fast; 9 tasks already means
/// 92 897 280 evaluations in the worst (independent) case.
const MAX_BRUTE_FORCE_TASKS: usize = 9;

/// The best checkpoint subset found by one Gray-code walk over an order.
#[derive(Debug, Clone)]
struct OrderScan {
    checkpoint_after: Vec<bool>,
    expected_makespan: f64,
    candidates: u64,
}

/// Walks all `2^{n−1}` checkpoint subsets of `order` in Gray-code order,
/// re-evaluating only the segments touched by each single-bit flip.
///
/// The running total accumulates exact per-flip deltas; whenever it signals a
/// new incumbent, the candidate is confirmed with a fresh `O(n)` sum so that
/// incremental floating-point drift can never crown a wrong winner.
fn scan_order_gray(
    instance: &ProblemInstance,
    order: &[TaskId],
) -> Result<OrderScan, ScheduleError> {
    let n = order.len();
    let table = segment_cost_table(instance, order)?;
    // Start of the walk: Gray code 0, i.e. only the mandatory final checkpoint.
    let mut checkpoints = vec![false; n];
    checkpoints[n - 1] = true;
    let mut positions: BTreeSet<usize> = BTreeSet::new();
    positions.insert(n - 1);
    let mut current = table.cost(0, n - 1);
    let mut best_value = current;
    let mut best_checkpoints = checkpoints.clone();
    let mut candidates = 1u64;

    for i in 1..(1u64 << (n - 1)) {
        // gray(i−1) and gray(i) differ exactly in bit `trailing_zeros(i)`.
        let p = i.trailing_zeros() as usize;
        let delta = if checkpoints[p] {
            // Removing the checkpoint at p merges its two segments.
            positions.remove(&p);
            checkpoints[p] = false;
            let start = positions.range(..p).next_back().map_or(0, |&q| q + 1);
            let next = *positions.range(p + 1..).next().expect("final checkpoint is mandatory");
            -table.split_delta(start, p, next)
        } else {
            // Adding a checkpoint at p splits the segment containing it.
            let start = positions.range(..p).next_back().map_or(0, |&q| q + 1);
            let next = *positions.range(p + 1..).next().expect("final checkpoint is mandatory");
            positions.insert(p);
            checkpoints[p] = true;
            table.split_delta(start, p, next)
        };
        current += delta;
        candidates += 1;
        if current < best_value {
            let exact = table.total_cost(&checkpoints);
            if exact < best_value {
                best_value = exact;
                best_checkpoints.copy_from_slice(&checkpoints);
            }
        }
    }
    Ok(OrderScan { checkpoint_after: best_checkpoints, expected_makespan: best_value, candidates })
}

/// Finds the optimal schedule by enumerating **all** topological orders and
/// **all** checkpoint subsets (the final checkpoint being mandatory), the
/// subsets via the incremental Gray-code walk.
///
/// # Errors
///
/// * [`ScheduleError::TooLargeForBruteForce`] if the instance has more than
///   9 tasks;
/// * [`ScheduleError::EmptyInstance`] if it has none.
pub fn optimal_schedule(instance: &ProblemInstance) -> Result<BruteForceSolution, ScheduleError> {
    let n = instance.task_count();
    if n == 0 {
        return Err(ScheduleError::EmptyInstance);
    }
    if n > MAX_BRUTE_FORCE_TASKS {
        return Err(ScheduleError::TooLargeForBruteForce {
            tasks: n,
            limit: MAX_BRUTE_FORCE_TASKS,
        });
    }
    let orders = topo::all_topological_orders(instance.graph());
    let mut best: Option<(Vec<TaskId>, OrderScan)> = None;
    let mut candidates = 0u64;
    for order in orders {
        let scan = scan_order_gray(instance, &order)?;
        candidates += scan.candidates;
        if best
            .as_ref()
            .is_none_or(|(_, incumbent)| scan.expected_makespan < incumbent.expected_makespan)
        {
            best = Some((order, scan));
        }
    }
    let (order, scan) = best.expect("n >= 1 so at least one candidate exists");
    let schedule = Schedule::new(instance, order, scan.checkpoint_after)?;
    Ok(BruteForceSolution {
        schedule,
        expected_makespan: scan.expected_makespan,
        candidates_evaluated: candidates,
    })
}

/// Finds the optimal checkpoint positions for a **fixed** execution order by
/// enumerating all `2^{n−1}` checkpoint subsets.
///
/// # Errors
///
/// * [`ScheduleError::TooLargeForBruteForce`] if the instance has more than
///   20 tasks (the subset enumeration alone stays tractable a bit longer than
///   the full order × subset search);
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order.
pub fn optimal_checkpoints_for_order(
    instance: &ProblemInstance,
    order: Vec<ckpt_dag::TaskId>,
) -> Result<BruteForceSolution, ScheduleError> {
    let n = instance.task_count();
    if n == 0 {
        return Err(ScheduleError::EmptyInstance);
    }
    const LIMIT: usize = 20;
    if n > LIMIT {
        return Err(ScheduleError::TooLargeForBruteForce { tasks: n, limit: LIMIT });
    }
    if !topo::is_topological_order(instance.graph(), &order) {
        return Err(ScheduleError::InvalidOrder);
    }
    let scan = scan_order_gray(instance, &order)?;
    let schedule = Schedule::new(instance, order, scan.checkpoint_after)?;
    Ok(BruteForceSolution {
        schedule,
        expected_makespan: scan.expected_makespan,
        candidates_evaluated: scan.candidates,
    })
}

/// An exhaustive levelled-search result: the best joint `(position, level)`
/// checkpoint assignment for a fixed execution order over a storage
/// hierarchy (see [`optimal_levelled_checkpoints_for_order`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelledBruteForceSolution {
    /// The optimal expected makespan found.
    pub expected_makespan: f64,
    /// Its checkpoints as `(position, level)` pairs in increasing position
    /// order, the final position being `n − 1`.
    pub checkpoints: Vec<(usize, usize)>,
    /// How many feasible (position-set, level-assignment) candidates were
    /// evaluated.
    pub candidates_evaluated: u64,
}

/// Finds the optimal `(position, level)` checkpoint assignment for a
/// **fixed** execution order by enumerating all `2^{n−1}` checkpoint subsets
/// **times** all `L^k` level assignments of each subset, skipping
/// assignments that overrun a bounded level's slots. The exact reference
/// the levelled chain DP
/// ([`crate::chain_dp::optimal_levelled_schedule`]) is certified against.
///
/// # Errors
///
/// * [`ScheduleError::TooLargeForBruteForce`] if the instance has more than
///   9 tasks (the position × level product grows as
///   `(2L)^n`);
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order;
/// * [`ScheduleError::EmptyInstance`] if the instance has no tasks.
pub fn optimal_levelled_checkpoints_for_order(
    instance: &ProblemInstance,
    order: &[TaskId],
    levels: &StorageLevels,
) -> Result<LevelledBruteForceSolution, ScheduleError> {
    let n = instance.task_count();
    if n == 0 {
        return Err(ScheduleError::EmptyInstance);
    }
    if n > MAX_BRUTE_FORCE_TASKS {
        return Err(ScheduleError::TooLargeForBruteForce {
            tasks: n,
            limit: MAX_BRUTE_FORCE_TASKS,
        });
    }
    let table = levelled_cost_table(instance, order, levels.clone())?;
    let level_count = levels.len() as u64;
    let bounded = levels.bounded();
    let mut best: Option<(f64, Vec<(usize, usize)>)> = None;
    let mut candidates = 0u64;
    let mut plan: Vec<(usize, usize)> = Vec::with_capacity(n);
    for mask in 0..(1u64 << (n - 1)) {
        let positions: Vec<usize> =
            (0..n - 1).filter(|&p| mask & (1 << p) != 0).chain(std::iter::once(n - 1)).collect();
        let assignments = level_count.pow(positions.len() as u32);
        for code in 0..assignments {
            plan.clear();
            let mut digits = code;
            for &pos in &positions {
                plan.push((pos, (digits % level_count) as usize));
                digits /= level_count;
            }
            if let Some((level, slots)) = bounded {
                if plan.iter().filter(|&&(_, l)| l == level).count() > slots {
                    continue;
                }
            }
            candidates += 1;
            let cost = table.total_cost(&plan);
            if best.as_ref().is_none_or(|(incumbent, _)| cost < *incumbent) {
                best = Some((cost, plan.clone()));
            }
        }
    }
    let (expected_makespan, checkpoints) = best.ok_or(ScheduleError::EmptyInstance)?;
    Ok(LevelledBruteForceSolution {
        expected_makespan,
        checkpoints,
        candidates_evaluated: candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_dp::optimal_chain_schedule;
    use crate::evaluate::expected_makespan;
    use ckpt_dag::{generators, TaskId};

    /// The pre-Gray-code formulation: every subset evaluated from scratch
    /// through the analytical evaluator. Kept as the oracle for the walk.
    fn direct_enumeration(instance: &ProblemInstance, order: &[TaskId]) -> f64 {
        let n = order.len();
        let mut best = f64::INFINITY;
        for mask in 0..(1u64 << (n - 1)) {
            let mut checkpoints = vec![false; n];
            checkpoints[n - 1] = true;
            for (pos, flag) in checkpoints.iter_mut().enumerate().take(n - 1) {
                *flag = mask & (1 << pos) != 0;
            }
            let schedule = Schedule::new(instance, order.to_vec(), checkpoints).unwrap();
            best = best.min(expected_makespan(instance, &schedule).unwrap());
        }
        best
    }

    fn independent_instance(weights: &[f64], c: f64, lambda: f64) -> ProblemInstance {
        let graph = generators::independent(weights).unwrap();
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(c)
            .uniform_recovery_cost(c)
            .platform_lambda(lambda)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_oversized_instances() {
        let inst = independent_instance(&[1.0; 10], 1.0, 1e-3);
        assert!(matches!(
            optimal_schedule(&inst),
            Err(ScheduleError::TooLargeForBruteForce { .. })
        ));
        let big = independent_instance(&[1.0; 21], 1.0, 1e-3);
        let order: Vec<TaskId> = (0..21).map(TaskId).collect();
        assert!(optimal_checkpoints_for_order(&big, order).is_err());
    }

    #[test]
    fn single_task_instance() {
        let inst = independent_instance(&[100.0], 5.0, 1e-3);
        let sol = optimal_schedule(&inst).unwrap();
        assert_eq!(sol.candidates_evaluated, 1);
        assert_eq!(sol.schedule.checkpoint_count(), 1);
    }

    #[test]
    fn candidate_count_is_factorial_times_subsets() {
        let inst = independent_instance(&[10.0, 20.0, 30.0], 2.0, 1e-2);
        let sol = optimal_schedule(&inst).unwrap();
        // 3! orders × 2^2 checkpoint subsets = 24.
        assert_eq!(sol.candidates_evaluated, 24);
    }

    #[test]
    fn brute_force_matches_chain_dp_on_chains() {
        let graph = generators::chain(&[300.0, 500.0, 200.0, 400.0, 100.0, 600.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .checkpoint_costs(vec![30.0, 10.0, 50.0, 20.0, 5.0, 40.0])
            .recovery_costs(vec![60.0, 20.0, 100.0, 40.0, 10.0, 80.0])
            .downtime(12.0)
            .platform_lambda(1.0 / 2_500.0)
            .build()
            .unwrap();
        let dp = optimal_chain_schedule(&inst).unwrap();
        let brute = optimal_schedule(&inst).unwrap();
        assert!(
            (dp.expected_makespan - brute.expected_makespan).abs() / brute.expected_makespan
                < 1e-10,
            "dp {} vs brute {}",
            dp.expected_makespan,
            brute.expected_makespan
        );
        // A chain has a single topological order, so the schedules coincide too.
        assert_eq!(dp.schedule, brute.schedule);
    }

    #[test]
    fn fixed_order_search_matches_full_search_for_symmetric_instances() {
        // For identical independent tasks every order is equivalent, so
        // optimising checkpoints over one order gives the global optimum.
        let inst = independent_instance(&[250.0; 6], 20.0, 1.0 / 1_000.0);
        let order: Vec<TaskId> = (0..6).map(TaskId).collect();
        let fixed = optimal_checkpoints_for_order(&inst, order).unwrap();
        let full = optimal_schedule(&inst).unwrap();
        assert!((fixed.expected_makespan - full.expected_makespan).abs() < 1e-9);
    }

    #[test]
    fn optimal_uses_grouping_when_checkpoints_are_expensive() {
        // Expensive checkpoints and moderate failure rate: the optimum groups
        // several tasks per checkpoint rather than checkpointing every task.
        let inst = independent_instance(&[100.0; 6], 400.0, 1.0 / 5_000.0);
        let sol = optimal_schedule(&inst).unwrap();
        assert!(sol.schedule.checkpoint_count() < 6);
    }

    #[test]
    fn optimal_checkpoints_everywhere_when_failures_frequent_and_checkpoints_free() {
        let inst = independent_instance(&[100.0; 5], 0.001, 1.0 / 80.0);
        let sol = optimal_schedule(&inst).unwrap();
        assert_eq!(sol.schedule.checkpoint_count(), 5);
    }

    #[test]
    fn gray_code_walk_matches_direct_enumeration() {
        // Heterogeneous chain so merges/splits touch genuinely different
        // costs, plus an independent instance exercising several orders.
        let graph = generators::chain(&[320.0, 75.0, 410.0, 150.0, 260.0, 90.0, 505.0]).unwrap();
        let chain = ProblemInstance::builder(graph)
            .checkpoint_costs(vec![30.0, 5.0, 60.0, 0.0, 45.0, 10.0, 25.0])
            .recovery_costs(vec![60.0, 10.0, 120.0, 5.0, 90.0, 20.0, 50.0])
            .initial_recovery(40.0)
            .downtime(8.0)
            .platform_lambda(1.0 / 1_800.0)
            .build()
            .unwrap();
        let order: Vec<TaskId> = (0..7).map(TaskId).collect();
        let fixed = optimal_checkpoints_for_order(&chain, order.clone()).unwrap();
        let direct = direct_enumeration(&chain, &order);
        assert!(
            (fixed.expected_makespan - direct).abs() / direct < 1e-10,
            "gray {} vs direct {direct}",
            fixed.expected_makespan
        );
        assert!(
            (expected_makespan(&chain, &fixed.schedule).unwrap() - fixed.expected_makespan).abs()
                / fixed.expected_makespan
                < 1e-10
        );

        let independent =
            independent_instance(&[250.0, 80.0, 400.0, 120.0, 310.0], 35.0, 1.0 / 2_000.0);
        let full = optimal_schedule(&independent).unwrap();
        let order: Vec<TaskId> = (0..5).map(TaskId).collect();
        // Identical tasks costs aside: the optimum over one order equals the
        // minimum of direct enumeration over all orders for this symmetric
        // cost structure; at minimum the reported value must evaluate back.
        let eval = expected_makespan(&independent, &full.schedule).unwrap();
        assert!((full.expected_makespan - eval).abs() / eval < 1e-10);
        assert!(full.expected_makespan <= direct_enumeration(&independent, &order) + 1e-9);
    }

    #[test]
    fn invalid_order_is_rejected() {
        let graph = generators::chain(&[1.0, 2.0, 3.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(1.0)
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        let bad_order = vec![TaskId(2), TaskId(1), TaskId(0)];
        assert!(matches!(
            optimal_checkpoints_for_order(&inst, bad_order),
            Err(ScheduleError::InvalidOrder)
        ));
    }
}
