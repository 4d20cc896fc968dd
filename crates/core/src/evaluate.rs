//! Analytical evaluation of schedules.
//!
//! Because the platform failure law is Exponential (memoryless), the expected
//! makespan of a schedule is simply the **sum of Proposition 1 over its
//! checkpoint-delimited segments** — this is exactly how the proof of
//! Proposition 2 and the recurrence of Algorithm 1 compose segment costs.

use ckpt_dag::TaskId;
use ckpt_expectation::exact::{expected_time, ExecutionParams};
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_expectation::storage::{LevelledCostTable, StorageLevels};
use ckpt_expectation::sweep::LambdaSweep;

use crate::cost_model::{order_costs, CheckpointCostModel};
use crate::error::ScheduleError;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;

/// The expected makespan of `schedule` on `instance`, computed analytically
/// with Proposition 1 applied to each segment.
///
/// # Errors
///
/// Returns an error if a segment has no work (cannot happen for schedules
/// produced by this crate) or if the instance parameters are invalid.
pub fn expected_makespan(
    instance: &ProblemInstance,
    schedule: &Schedule,
) -> Result<f64, ScheduleError> {
    let mut total = 0.0;
    for (_, work, checkpoint, recovery) in schedule.segment_costs(instance) {
        total += segment_expected_time(instance, work, checkpoint, recovery)?;
    }
    Ok(total)
}

/// The expected time of a single segment of `work` seconds followed by a
/// checkpoint of `checkpoint` seconds, protected by `recovery`.
///
/// # Errors
///
/// Returns [`ScheduleError::NonPositiveParameter`] if `work ≤ 0`.
fn segment_expected_time(
    instance: &ProblemInstance,
    work: f64,
    checkpoint: f64,
    recovery: f64,
) -> Result<f64, ScheduleError> {
    let params =
        ExecutionParams::new(work, checkpoint, instance.downtime(), recovery, instance.lambda())
            .map_err(|_| ScheduleError::NonPositiveParameter {
                name: "segment work",
                value: work,
            })?;
    Ok(expected_time(&params))
}

/// Builds a [`SegmentCostTable`] for `instance` along `order`: the
/// precomputed-cost API every solver that evaluates many segments of one
/// fixed order shares (the chain DP, exhaustive search, local search).
///
/// Position `x` of the table is protected by the initial recovery `R₀` when
/// `x = 0` and by the recovery cost of the task at position `x − 1`
/// otherwise, matching [`Schedule::segments`]. This is
/// [`model_cost_table`](crate::dag_schedule::model_cost_table) under the
/// paper's [`CheckpointCostModel::PerLastTask`].
///
/// # Errors
///
/// * [`ScheduleError::EmptyInstance`] if `order` is empty;
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order of
///   the instance graph;
/// * [`ScheduleError::NonPositiveParameter`] if the rate fails the order's
///   check ([`LambdaSweep::check_rate`]): on an instance the builder
///   accepted, only where an overflowing coefficient `e^{λR}(1/λ + D)`
///   meets a prefix step whose `λ·w` underflows to 0.
pub fn segment_cost_table(
    instance: &ProblemInstance,
    order: &[TaskId],
) -> Result<SegmentCostTable, ScheduleError> {
    crate::dag_schedule::model_cost_table(instance, order, CheckpointCostModel::PerLastTask)
}

/// Builds a [`LevelledCostTable`] for `instance` along `order`: one
/// [`SegmentCostTable`] per storage level, the per-position checkpoint and
/// protecting-recovery costs scaled by each level's write/read factors (the
/// initial recovery `R₀` excepted — it belongs to no level). The
/// hierarchical-storage analogue of [`segment_cost_table`], consumed by
/// [`crate::chain_dp::optimal_levelled_schedule`].
///
/// # Errors
///
/// Same as [`segment_cost_table`].
pub fn levelled_cost_table(
    instance: &ProblemInstance,
    order: &[TaskId],
    levels: StorageLevels,
) -> Result<LevelledCostTable, ScheduleError> {
    let costs = order_costs(instance, order, CheckpointCostModel::PerLastTask)?;
    LevelledCostTable::new(
        instance.lambda(),
        instance.downtime(),
        costs.weights(),
        costs.checkpoints(),
        costs.protecting_recoveries(),
        levels,
    )
    .map_err(ScheduleError::from_expectation)
}

/// Builds a [`LambdaSweep`] for `instance` along `order`: the λ-independent
/// half of [`segment_cost_table`], shared across every failure rate a sweep
/// evaluates (see [`crate::analysis::lambda_sweep_with_threads`]).
///
/// # Errors
///
/// Same as [`segment_cost_table`].
pub fn lambda_sweep_for_order(
    instance: &ProblemInstance,
    order: &[TaskId],
) -> Result<LambdaSweep, ScheduleError> {
    let costs = order_costs(instance, order, CheckpointCostModel::PerLastTask)?;
    LambdaSweep::new(
        instance.downtime(),
        costs.weights(),
        costs.checkpoints(),
        costs.protecting_recoveries(),
    )
    .map_err(ScheduleError::from_expectation)
}

/// The slowdown of a schedule: expected makespan divided by the total task
/// weight (the lower bound achievable with free, failure-proof execution).
///
/// # Errors
///
/// Propagates errors from [`expected_makespan`].
pub fn slowdown(instance: &ProblemInstance, schedule: &Schedule) -> Result<f64, ScheduleError> {
    Ok(expected_makespan(instance, schedule)? / instance.total_weight())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dag::{generators, TaskId};

    fn ids(ids: &[usize]) -> Vec<TaskId> {
        ids.iter().map(|&i| TaskId(i)).collect()
    }

    fn chain_instance(lambda: f64) -> ProblemInstance {
        let graph = generators::chain(&[100.0, 200.0, 300.0]).unwrap();
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(10.0)
            .uniform_recovery_cost(20.0)
            .initial_recovery(5.0)
            .downtime(2.0)
            .platform_lambda(lambda)
            .build()
            .unwrap()
    }

    #[test]
    fn expected_makespan_sums_segment_formulas() {
        let inst = chain_instance(1e-4);
        let schedule = Schedule::new(&inst, ids(&[0, 1, 2]), vec![true, false, true]).unwrap();
        // Two segments: (100, C=10, R=5) and (500, C=10, R=20).
        let manual = expected_time(&ExecutionParams::new(100.0, 10.0, 2.0, 5.0, 1e-4).unwrap())
            + expected_time(&ExecutionParams::new(500.0, 10.0, 2.0, 20.0, 1e-4).unwrap());
        let computed = expected_makespan(&inst, &schedule).unwrap();
        assert!((computed - manual).abs() < 1e-9);
    }

    #[test]
    fn near_zero_lambda_gives_failure_free_makespan() {
        let inst = chain_instance(1e-15);
        let schedule = Schedule::checkpoint_everywhere(&inst, ids(&[0, 1, 2])).unwrap();
        let e = expected_makespan(&inst, &schedule).unwrap();
        assert!((e - schedule.failure_free_makespan(&inst)).abs() < 1e-6);
    }

    #[test]
    fn more_failures_increase_expected_makespan() {
        let low = chain_instance(1e-6);
        let high = chain_instance(1e-3);
        let s_low = Schedule::checkpoint_everywhere(&low, ids(&[0, 1, 2])).unwrap();
        let s_high = Schedule::checkpoint_everywhere(&high, ids(&[0, 1, 2])).unwrap();
        assert!(
            expected_makespan(&high, &s_high).unwrap() > expected_makespan(&low, &s_low).unwrap()
        );
    }

    #[test]
    fn checkpointing_helps_when_failures_are_frequent() {
        // With a high failure rate, checkpointing after every task beats a
        // single final checkpoint.
        let inst = chain_instance(1.0 / 300.0);
        let all = Schedule::checkpoint_everywhere(&inst, ids(&[0, 1, 2])).unwrap();
        let last = Schedule::checkpoint_final_only(&inst, ids(&[0, 1, 2])).unwrap();
        assert!(expected_makespan(&inst, &all).unwrap() < expected_makespan(&inst, &last).unwrap());
    }

    #[test]
    fn checkpointing_hurts_when_failures_are_rare() {
        // With a negligible failure rate, every checkpoint is pure overhead.
        let inst = chain_instance(1e-9);
        let all = Schedule::checkpoint_everywhere(&inst, ids(&[0, 1, 2])).unwrap();
        let last = Schedule::checkpoint_final_only(&inst, ids(&[0, 1, 2])).unwrap();
        assert!(expected_makespan(&inst, &all).unwrap() > expected_makespan(&inst, &last).unwrap());
    }

    #[test]
    fn slowdown_is_at_least_one() {
        let inst = chain_instance(1e-4);
        let s = Schedule::checkpoint_final_only(&inst, ids(&[0, 1, 2])).unwrap();
        assert!(slowdown(&inst, &s).unwrap() >= 1.0);
    }

    #[test]
    fn segment_expected_time_rejects_zero_work() {
        let inst = chain_instance(1e-4);
        assert!(segment_expected_time(&inst, 0.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn analytical_value_matches_simulation() {
        // Cross-validation of the analytical evaluator against the
        // Monte-Carlo simulator (experiment E1 in miniature, at schedule level).
        let inst = chain_instance(1.0 / 2_000.0);
        let schedule = Schedule::new(&inst, ids(&[0, 1, 2]), vec![false, true, true]).unwrap();
        let analytical = expected_makespan(&inst, &schedule).unwrap();
        let segments = schedule.to_segments(&inst).unwrap();
        let outcome = ckpt_simulator::SimulationScenario::exponential(inst.lambda())
            .with_downtime(inst.downtime())
            .with_trials(20_000)
            .with_seed(17)
            .run(&segments);
        let rel = outcome.makespan.relative_error(analytical);
        assert!(rel < 0.02, "relative error {rel}");
    }
}
