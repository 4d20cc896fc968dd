//! Moldable tasks (paper §6, second extension).
//!
//! A *moldable* task can run on any number of processors; its execution time
//! follows one of the §3 workload models `W(p)`, its checkpoint/recovery cost
//! one of the overhead models `C(p)`, and the platform failure rate grows as
//! `λ(p) = p·λ_proc`. Choosing the processor allocation then becomes part of
//! the scheduling problem. This module implements the building block the paper
//! points to: for each task (or for a whole chain with a common allocation),
//! evaluate Proposition 1 under every candidate allocation and keep the best.

use ckpt_expectation::exact::{expected_time, ExecutionParams};
use ckpt_expectation::overhead::ScalingScenario;

use crate::error::{ensure_positive, ScheduleError};

/// A moldable task: a total sequential load that can be spread over `p`
/// processors according to the scenario's workload model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoldableTask {
    /// Total sequential work of the task (seconds on one processor).
    pub sequential_work: f64,
}

impl MoldableTask {
    /// Creates a moldable task with the given total sequential work.
    ///
    /// # Errors
    ///
    /// Returns an error if `sequential_work ≤ 0`.
    pub fn new(sequential_work: f64) -> Result<Self, ScheduleError> {
        Ok(MoldableTask { sequential_work: ensure_positive("sequential_work", sequential_work)? })
    }
}

/// The best allocation found for a task or a chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// Number of processors to use.
    pub processors: u32,
    /// Expected execution time (work + checkpoint, failures included) with
    /// that allocation.
    pub expected_time: f64,
}

/// Expected time (Proposition 1) of executing one moldable task followed by
/// its checkpoint on `p` processors under `scenario`.
///
/// # Errors
///
/// Returns an error if `p == 0` or the task parameters are invalid.
pub fn expected_time_on(
    task: MoldableTask,
    scenario: &ScalingScenario,
    p: u32,
) -> Result<f64, ScheduleError> {
    let params: ExecutionParams = scenario.instantiate(task.sequential_work, p).map_err(|_| {
        ScheduleError::NonPositiveParameter { name: "processors", value: f64::from(p) }
    })?;
    Ok(expected_time(&params))
}

/// Finds the allocation `p ∈ {1, …, p_max}` minimising the expected time of a
/// single moldable task (checkpointed after completion).
///
/// All processor counts are evaluated when `p_max ≤ 1024`; beyond that the
/// search restricts itself to powers of two plus `p_max` itself, which is the
/// standard moldable-task practice and keeps the sweep `O(log p_max)`.
///
/// # Errors
///
/// Returns an error if `p_max == 0`.
pub fn best_allocation(
    task: MoldableTask,
    scenario: &ScalingScenario,
    p_max: u32,
) -> Result<Allocation, ScheduleError> {
    if p_max == 0 {
        return Err(ScheduleError::NonPositiveParameter { name: "p_max", value: 0.0 });
    }
    let candidates: Vec<u32> = if p_max <= 1024 {
        (1..=p_max).collect()
    } else {
        let mut c: Vec<u32> = std::iter::successors(Some(1u32), |&p| p.checked_mul(2))
            .take_while(|&p| p <= p_max)
            .collect();
        if *c.last().unwrap() != p_max {
            c.push(p_max);
        }
        c
    };
    let mut best: Option<Allocation> = None;
    for p in candidates {
        let t = expected_time_on(task, scenario, p)?;
        let better = best.as_ref().is_none_or(|b| t < b.expected_time);
        if better {
            best = Some(Allocation { processors: p, expected_time: t });
        }
    }
    Ok(best.expect("at least one candidate allocation"))
}

/// The result of allocating a chain of moldable tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct MoldableChainPlan {
    /// The chosen per-task allocations, in chain order.
    pub allocations: Vec<Allocation>,
    /// Total expected makespan (sum of per-task expected times, each task
    /// being checkpointed — the fully-protected execution).
    pub expected_makespan: f64,
}

/// Allocates processors to each task of a chain of moldable tasks
/// independently (each task is checkpointed after completion, so per-task
/// optimisation is globally optimal for this policy).
///
/// # Errors
///
/// Returns an error if `tasks` is empty or `p_max == 0`.
pub fn plan_moldable_chain(
    tasks: &[MoldableTask],
    scenario: &ScalingScenario,
    p_max: u32,
) -> Result<MoldableChainPlan, ScheduleError> {
    if tasks.is_empty() {
        return Err(ScheduleError::EmptyInstance);
    }
    let mut allocations = Vec::with_capacity(tasks.len());
    let mut total = 0.0;
    for &task in tasks {
        let alloc = best_allocation(task, scenario, p_max)?;
        total += alloc.expected_time;
        allocations.push(alloc);
    }
    Ok(MoldableChainPlan { allocations, expected_makespan: total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_expectation::overhead::OverheadModel;
    use ckpt_expectation::workload::WorkloadModel;

    fn scenario(workload: WorkloadModel, overhead: OverheadModel) -> ScalingScenario {
        ScalingScenario {
            lambda_proc: 1.0 / (5.0 * 365.0 * 86_400.0), // five-year per-processor MTBF
            base_checkpoint: 600.0,
            base_recovery: 600.0,
            downtime: 60.0,
            workload,
            overhead,
        }
    }

    #[test]
    fn task_validation() {
        assert!(MoldableTask::new(10.0).is_ok());
        assert!(MoldableTask::new(0.0).is_err());
        assert!(MoldableTask::new(f64::NAN).is_err());
    }

    #[test]
    fn perfectly_parallel_proportional_overhead_wants_many_processors() {
        // With perfect scaling and proportional checkpoint cost, more
        // processors always help until failures dominate; for a moderate task
        // the best allocation should be the maximum allowed.
        let s = scenario(WorkloadModel::PerfectlyParallel, OverheadModel::Proportional);
        let task = MoldableTask::new(1e6).unwrap();
        let best = best_allocation(task, &s, 256).unwrap();
        assert_eq!(best.processors, 256);
    }

    #[test]
    fn amdahl_with_constant_overhead_saturates() {
        // A 10% sequential fraction and constant checkpoint overhead: beyond
        // some point more processors only add failures; the best allocation is
        // strictly below the maximum.
        let s = scenario(WorkloadModel::Amdahl { gamma: 0.1 }, OverheadModel::Constant);
        let task = MoldableTask::new(1e6).unwrap();
        let best = best_allocation(task, &s, 1024).unwrap();
        assert!(best.processors < 1024, "chose {}", best.processors);
        // And it beats both the sequential and the fully parallel extremes.
        let t1 = expected_time_on(task, &s, 1).unwrap();
        let tmax = expected_time_on(task, &s, 1024).unwrap();
        assert!(best.expected_time <= t1);
        assert!(best.expected_time <= tmax);
    }

    #[test]
    fn best_allocation_is_a_true_minimum_over_candidates() {
        let s = scenario(WorkloadModel::Amdahl { gamma: 0.02 }, OverheadModel::Constant);
        let task = MoldableTask::new(5e5).unwrap();
        let best = best_allocation(task, &s, 64).unwrap();
        for p in 1..=64u32 {
            assert!(best.expected_time <= expected_time_on(task, &s, p).unwrap() + 1e-9);
        }
    }

    #[test]
    fn large_p_max_uses_power_of_two_sweep() {
        let s = scenario(WorkloadModel::PerfectlyParallel, OverheadModel::Proportional);
        let task = MoldableTask::new(1e8).unwrap();
        let best = best_allocation(task, &s, 1 << 20).unwrap();
        assert!(best.processors.is_power_of_two() || best.processors == (1 << 20));
        assert!(best.processors > 1024);
    }

    #[test]
    fn p_max_zero_is_rejected() {
        let s = scenario(WorkloadModel::PerfectlyParallel, OverheadModel::Constant);
        let task = MoldableTask::new(100.0).unwrap();
        assert!(best_allocation(task, &s, 0).is_err());
    }

    #[test]
    fn chain_plan_sums_per_task_times() {
        let s = scenario(WorkloadModel::Amdahl { gamma: 0.05 }, OverheadModel::Proportional);
        let tasks = vec![
            MoldableTask::new(2e5).unwrap(),
            MoldableTask::new(8e5).unwrap(),
            MoldableTask::new(4e5).unwrap(),
        ];
        let plan = plan_moldable_chain(&tasks, &s, 128).unwrap();
        assert_eq!(plan.allocations.len(), 3);
        let sum: f64 = plan.allocations.iter().map(|a| a.expected_time).sum();
        assert!((plan.expected_makespan - sum).abs() < 1e-9);
        assert!(plan_moldable_chain(&[], &s, 128).is_err());
    }

    #[test]
    fn perfectly_parallel_work_gets_at_least_as_many_processors_as_amdahl() {
        // The sequential fraction of Amdahl's law caps the useful parallelism,
        // so for the same task and overhead the Amdahl allocation never
        // exceeds the perfectly-parallel one.
        let task = MoldableTask::new(1e6).unwrap();
        let parallel = best_allocation(
            task,
            &scenario(WorkloadModel::PerfectlyParallel, OverheadModel::Constant),
            512,
        )
        .unwrap();
        let amdahl = best_allocation(
            task,
            &scenario(WorkloadModel::Amdahl { gamma: 0.3 }, OverheadModel::Constant),
            512,
        )
        .unwrap();
        assert!(parallel.processors >= amdahl.processors);
    }
}
