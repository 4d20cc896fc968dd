//! Non-memoryless failure laws (paper §6, third extension).
//!
//! With Weibull or log-normal failures there is no closed-form analogue of
//! Proposition 1, so the expected makespan cannot be written down and the
//! chain DP does not apply directly. The paper points at two pragmatic
//! routes, both implemented here:
//!
//! * **exponential-equivalent planning**: replace the law by the Exponential
//!   law with the same platform MTBF and run Algorithm 1; this is what a
//!   scheduler unaware of the law's shape would do. The planner builds the
//!   chain's [`LambdaSweep`](ckpt_expectation::sweep::LambdaSweep) once,
//!   instantiates a [`SegmentCostTable`](ckpt_expectation::segment_cost::SegmentCostTable)
//!   at each surrogate rate and runs the Algorithm 1 recurrence directly on
//!   the table ([`chain_dp::scalable_placement_on_table_with_scratch`], one
//!   arena for the whole batch) — no surrogate
//!   instance is cloned and no Proposition-1 closed form is re-derived per
//!   candidate segment, so planning the same chain across several platform
//!   sizes ([`exponential_equivalent_schedules`]) shares all the
//!   λ-independent work;
//! * **work-before-failure greedy** (after Bouguerra, Trystram & Wagner): pick
//!   segment boundaries that maximise the expected amount of work completed
//!   before the next failure, a quantity that only needs the survival
//!   function of the law, not a full expectation.
//!
//! Because no analytical evaluation exists, candidate schedules are compared
//! by Monte-Carlo simulation against the non-memoryless platform; experiment
//! E7 reports those comparisons on Weibull, log-normal and synthetic-trace
//! platforms.

use ckpt_dag::properties;
use ckpt_failure::FailureDistribution;
use ckpt_simulator::{MonteCarloOutcome, SimulationScenario};

use crate::chain_dp;
use crate::error::ScheduleError;
use crate::evaluate::lambda_sweep_for_order;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;

/// The Exponential rate a scheduler unaware of `law`'s shape would plan
/// with: the inverse of the platform MTBF of `processors` superposed i.i.d.
/// copies of the law (`processors / mean`).
fn surrogate_lambda(law: &dyn FailureDistribution, processors: usize) -> f64 {
    processors.max(1) as f64 / law.mean()
}

/// Plans a chain schedule for a platform whose failures follow `law` by
/// pretending the law is Exponential with the same mean (the platform MTBF)
/// and running Algorithm 1 at that surrogate rate, directly on the chain's
/// segment-cost table.
///
/// # Errors
///
/// Returns [`ScheduleError::NotAChain`] if the instance is not a chain.
pub fn exponential_equivalent_schedule(
    instance: &ProblemInstance,
    law: &dyn FailureDistribution,
    processors: usize,
) -> Result<Schedule, ScheduleError> {
    let mut schedules = exponential_equivalent_schedules(instance, law, &[processors])?;
    Ok(schedules.pop().expect("one schedule per processor count"))
}

/// Plans the exponential-equivalent schedule of one chain for **several**
/// platform sizes at once: the λ-independent planning work (order
/// validation, work prefix sums, per-position costs) is done once and only
/// the per-rate table and DP are redone per processor count — the batched
/// planning loop experiments like E7 sweep.
///
/// # Errors
///
/// Returns [`ScheduleError::NotAChain`] if the instance is not a chain;
/// propagates validation errors for degenerate laws (e.g. a zero mean).
pub fn exponential_equivalent_schedules(
    instance: &ProblemInstance,
    law: &dyn FailureDistribution,
    processor_counts: &[usize],
) -> Result<Vec<Schedule>, ScheduleError> {
    let order = properties::as_chain(instance.graph()).ok_or(ScheduleError::NotAChain)?;
    let sweep = lambda_sweep_for_order(instance, &order)?;
    let mut scratch = chain_dp::ChainDpScratch::new();
    processor_counts
        .iter()
        .map(|&p| {
            let table = sweep
                .table_for(surrogate_lambda(law, p))
                .map_err(ScheduleError::from_expectation)?;
            let placement =
                chain_dp::scalable_placement_on_table_with_scratch(&table, &mut scratch);
            Schedule::new(instance, order.clone(), placement.checkpoint_after())
        })
        .collect()
}

/// Plans a chain schedule with the work-before-failure greedy rule: walk the
/// chain accumulating tasks into the current segment and close the segment
/// (checkpoint) as soon as adding the *next* task would decrease the expected
/// work completed before the next failure,
/// `g(W) = W · S(W + C_next)`, where `S` is the survival function of the
/// platform-level first-failure law (approximated by the law of the minimum of
/// `processors` fresh lifetimes).
///
/// # Errors
///
/// Returns [`ScheduleError::NotAChain`] if the instance is not a chain.
pub fn work_before_failure_schedule(
    instance: &ProblemInstance,
    law: &dyn FailureDistribution,
    processors: usize,
) -> Result<Schedule, ScheduleError> {
    let order = properties::as_chain(instance.graph()).ok_or(ScheduleError::NotAChain)?;
    let n = order.len();
    let p = processors.max(1) as f64;
    // Survival of the platform-level first failure: all p processors must
    // survive (fresh lifetimes), i.e. S_platform(x) = S(x)^p.
    let survival = |x: f64| law.survival(x).powf(p);

    let mut checkpoint_after = vec![false; n];
    let mut segment_work = 0.0f64;
    for (pos, &task) in order.iter().enumerate() {
        segment_work += instance.weight(task);
        if pos == n - 1 {
            checkpoint_after[pos] = true;
            break;
        }
        let next_task = order[pos + 1];
        let c_here = instance.checkpoint_cost(task);
        let c_next = instance.checkpoint_cost(next_task);
        // Expected work before the next failure if we close the segment now…
        let close_now = segment_work * survival(segment_work + c_here);
        // …versus if we extend it with the next task.
        let extended = segment_work + instance.weight(next_task);
        let extend = extended * survival(extended + c_next);
        if close_now >= extend {
            checkpoint_after[pos] = true;
            segment_work = 0.0;
        }
    }
    Schedule::new(instance, order, checkpoint_after)
}

/// Simulates `schedule` on a platform of `processors` processors whose
/// per-processor failures follow `law`, returning the Monte-Carlo outcome.
///
/// # Errors
///
/// Propagates segment-conversion errors (cannot occur for valid instances).
pub fn simulate_under_law<D>(
    instance: &ProblemInstance,
    schedule: &Schedule,
    law: D,
    processors: usize,
    trials: usize,
    seed: u64,
) -> Result<MonteCarloOutcome, ScheduleError>
where
    D: FailureDistribution + 'static,
{
    let segments = schedule.to_segments(instance).map_err(|_| ScheduleError::EmptyInstance)?;
    Ok(SimulationScenario::platform(processors, law)
        .with_downtime(instance.downtime())
        .with_trials(trials)
        .with_seed(seed)
        .run(&segments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dag::generators;
    use ckpt_failure::{Exponential, Weibull};

    fn chain_instance(n: usize, w: f64, c: f64, lambda: f64) -> ProblemInstance {
        let graph = generators::uniform_chain(n, w).unwrap();
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(c)
            .uniform_recovery_cost(c)
            .downtime(30.0)
            .platform_lambda(lambda)
            .build()
            .unwrap()
    }

    #[test]
    fn exponential_equivalent_matches_chain_dp_for_exponential_law() {
        // If the law really is Exponential, the "equivalent" schedule must be
        // exactly the Algorithm 1 optimum for the true platform rate.
        let p = 16;
        let proc_mtbf = 80_000.0;
        let lambda = p as f64 / proc_mtbf;
        let inst = chain_instance(12, 600.0, 60.0, lambda);
        let law = Exponential::from_mtbf(proc_mtbf).unwrap();
        let planned = exponential_equivalent_schedule(&inst, &law, p).unwrap();
        let optimal = chain_dp::optimal_chain_schedule(&inst).unwrap().schedule;
        assert_eq!(planned, optimal);
    }

    #[test]
    fn batched_planning_matches_single_processor_counts() {
        let inst = chain_instance(12, 600.0, 60.0, 1e-4);
        let law = Weibull::with_mean(0.7, 50_000.0).unwrap();
        let counts = [1usize, 8, 64, 512];
        let batch = exponential_equivalent_schedules(&inst, &law, &counts).unwrap();
        assert_eq!(batch.len(), counts.len());
        for (i, &p) in counts.iter().enumerate() {
            let single = exponential_equivalent_schedule(&inst, &law, p).unwrap();
            assert_eq!(batch[i], single);
        }
        // More processors → higher surrogate rate → no fewer checkpoints.
        assert!(batch.windows(2).all(|w| w[1].checkpoint_count() >= w[0].checkpoint_count()));
    }

    #[test]
    fn rejects_non_chain_instances() {
        let graph = generators::independent(&[1.0, 2.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(1.0)
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        let law = Weibull::new(0.7, 1000.0).unwrap();
        assert!(matches!(
            work_before_failure_schedule(&inst, &law, 4),
            Err(ScheduleError::NotAChain)
        ));
        assert!(matches!(
            exponential_equivalent_schedule(&inst, &law, 4),
            Err(ScheduleError::NotAChain)
        ));
    }

    #[test]
    fn greedy_checkpoints_more_when_failures_are_imminent() {
        let inst = chain_instance(10, 500.0, 20.0, 1e-4);
        // Short-mean Weibull (failures likely soon): many checkpoints.
        let risky = Weibull::with_mean(0.7, 2_000.0).unwrap();
        let sched_risky = work_before_failure_schedule(&inst, &risky, 4).unwrap();
        // Long-mean Weibull: few checkpoints.
        let safe = Weibull::with_mean(0.7, 2_000_000.0).unwrap();
        let sched_safe = work_before_failure_schedule(&inst, &safe, 4).unwrap();
        assert!(sched_risky.checkpoint_count() > sched_safe.checkpoint_count());
        assert_eq!(sched_safe.checkpoint_count(), 1);
    }

    #[test]
    fn greedy_always_emits_a_valid_schedule() {
        let inst = chain_instance(7, 350.0, 45.0, 1e-4);
        for &shape in &[0.5, 0.7, 1.0, 1.5] {
            let law = Weibull::with_mean(shape, 10_000.0).unwrap();
            let schedule = work_before_failure_schedule(&inst, &law, 8).unwrap();
            assert_eq!(schedule.len(), 7);
            assert!(schedule.checkpoint_after().last().copied().unwrap());
        }
    }

    #[test]
    fn simulate_under_law_produces_consistent_outcome() {
        let inst = chain_instance(5, 400.0, 40.0, 1e-4);
        let schedule =
            Schedule::checkpoint_everywhere(&inst, properties::as_chain(inst.graph()).unwrap())
                .unwrap();
        let law = Weibull::with_mean(0.7, 20_000.0).unwrap();
        let outcome = simulate_under_law(&inst, &schedule, law, 8, 2_000, 42).unwrap();
        assert!(outcome.makespan.mean >= schedule.failure_free_makespan(&inst));
        assert!((outcome.mean_breakdown.total() - outcome.makespan.mean).abs() < 1e-6);
    }

    #[test]
    fn planning_with_the_right_shape_does_not_hurt_under_weibull() {
        // Replay both the exponential-equivalent schedule and the greedy
        // schedule under the true Weibull platform: the greedy one should not
        // be dramatically worse (sanity bound), and both should complete.
        let p = 8;
        let proc_mtbf = 30_000.0;
        let lambda = p as f64 / proc_mtbf;
        let inst = chain_instance(10, 900.0, 90.0, lambda);
        let law = Weibull::with_mean(0.7, proc_mtbf).unwrap();
        let exp_equiv = exponential_equivalent_schedule(&inst, &law, p).unwrap();
        let greedy = work_before_failure_schedule(&inst, &law, p).unwrap();
        let sim_exp =
            simulate_under_law(&inst, &exp_equiv, law, p, 3_000, 7).unwrap().makespan.mean;
        let sim_greedy =
            simulate_under_law(&inst, &greedy, law, p, 3_000, 7).unwrap().makespan.mean;
        assert!(sim_exp > 0.0 && sim_greedy > 0.0);
        assert!(sim_greedy < sim_exp * 1.5, "greedy {sim_greedy} vs exp-equivalent {sim_exp}");
    }
}
