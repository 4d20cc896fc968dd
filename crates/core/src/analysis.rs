//! Sensitivity analysis on top of the chain DP.
//!
//! Once Algorithm 1 gives the optimal placement for one failure rate, the
//! natural operational question is: *how does the optimal policy change as
//! the platform degrades?* This module answers it:
//!
//! * [`lambda_sweep_with_threads`] re-solves the chain DP across a λ grid
//!   and reports the optimal checkpoint count and expected makespan at each
//!   point. The sweep is batched through
//!   [`LambdaSweep`](ckpt_expectation::sweep::LambdaSweep): the chain's
//!   order validation, prefix sums and cost vectors are materialised once
//!   and only the per-rate exponentials and the DP itself are redone per
//!   grid point — no surrogate instance is cloned per rate. Each grid
//!   point's table+DP is independent of every other point, so the points are
//!   spread across worker threads in the Monte-Carlo engine's deterministic
//!   contiguous-chunk pattern (one [`ChainDpScratch`] and one cost-table
//!   buffer per worker, kept across calls; results collected in grid
//!   order): the sweep is **bit-identical at any thread count**;
//! * [`schedule_lambda_sweep`] evaluates one **fixed** schedule across a λ
//!   vector through the same shared precomputation (the sensitivity curve of
//!   a deployed policy, as opposed to the re-optimised curve above) — an
//!   `O(segments)` closed form per rate.

use ckpt_dag::properties;
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_expectation::sweep::log_lambda_grid;

use crate::chain_dp::{scalable_placement_on_table_with_scratch, ChainDpScratch};
use crate::error::ScheduleError;
use crate::evaluate::lambda_sweep_for_order;
use crate::instance::ProblemInstance;
use crate::parallel::ScratchPool;
use crate::schedule::Schedule;

/// What a [`lambda_sweep_with_threads`] worker keeps between calls: its DP
/// arena and its last cost table, whose buffers the next table reuses.
#[derive(Default)]
struct SweepArena {
    dp: ChainDpScratch,
    table: Option<SegmentCostTable>,
}

/// The workers' arenas, kept between calls so repeated sweeps reuse buffers
/// already grown and faulted in.
static SWEEP_ARENAS: ScratchPool<SweepArena> = ScratchPool::new();

/// One row of a λ sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaSweepPoint {
    /// The platform failure rate of this point.
    pub lambda: f64,
    /// The optimal number of checkpoints at that rate.
    pub checkpoints: usize,
    /// The optimal expected makespan at that rate.
    pub expected_makespan: f64,
    /// The slowdown with respect to the total work.
    pub slowdown: f64,
}

/// Re-solves the chain DP on a logarithmic grid of `points` failure rates
/// between `lambda_min` and `lambda_max` (inclusive), batching the
/// λ-independent work through one
/// [`LambdaSweep`](ckpt_expectation::sweep::LambdaSweep), on `threads`
/// workers (`0` = one per available core). Grid points are independent (one
/// table + one DP each), so they are spread across workers in contiguous
/// chunks — each worker reuses one [`ChainDpScratch`] and one cost-table
/// buffer across its chunk, and keeps them for later calls (at most one set
/// per core) — and collected in grid order: the result is **bit-identical
/// for every thread count**.
///
/// # Errors
///
/// * [`ScheduleError::NotAChain`] if the instance is not a chain;
/// * [`ScheduleError::NonPositiveParameter`] for an invalid λ range, fewer
///   than two points, or a grid rate that fails the shared Proposition-1
///   rate check.
pub fn lambda_sweep_with_threads(
    instance: &ProblemInstance,
    lambda_min: f64,
    lambda_max: f64,
    points: usize,
    threads: usize,
) -> Result<Vec<LambdaSweepPoint>, ScheduleError> {
    let grid =
        log_lambda_grid(lambda_min, lambda_max, points).map_err(ScheduleError::from_expectation)?;
    let order = properties::as_chain(instance.graph()).ok_or(ScheduleError::NotAChain)?;
    let sweep = lambda_sweep_for_order(instance, &order)?;
    let total_work = instance.total_weight();

    // Each worker reuses one arena across its whole chunk, and the arenas
    // outlive the call: the per-rate tables and solves reuse the same
    // table / Li Chao / envelope / DP buffers instead of reallocating them.
    SWEEP_ARENAS
        .chunked_map_with(&grid, threads, SweepArena::default, |arena, _, &lambda| {
            let table = match arena.table.take() {
                Some(mut table) => sweep.table_into(lambda, &mut table).map(|()| table),
                None => sweep.table_for(lambda),
            }
            .map_err(ScheduleError::from_expectation)?;
            let table = arena.table.insert(table);
            let placement = scalable_placement_on_table_with_scratch(table, &mut arena.dp);
            Ok(LambdaSweepPoint {
                lambda,
                checkpoints: placement.checkpoint_count(),
                expected_makespan: placement.expected_makespan,
                slowdown: placement.expected_makespan / total_work,
            })
        })
        .into_iter()
        .collect()
}

/// Evaluates one **fixed** schedule across the failure rates of `lambdas`,
/// returning its expected makespan at each rate — the degradation curve of a
/// policy that is *not* re-optimised as the platform degrades, the comparison
/// baseline for [`lambda_sweep_with_threads`]' re-optimised curve. Each rate
/// costs one `O(segments)` closed-form pass
/// ([`LambdaSweep::total_costs`](ckpt_expectation::sweep::LambdaSweep::total_costs)).
///
/// # Errors
///
/// * [`ScheduleError::InvalidOrder`] if `schedule`'s order does not fit
///   `instance`;
/// * [`ScheduleError::NonPositiveParameter`] for a rate that fails the
///   shared Proposition-1 rate check.
pub fn schedule_lambda_sweep(
    instance: &ProblemInstance,
    schedule: &Schedule,
    lambdas: &[f64],
) -> Result<Vec<f64>, ScheduleError> {
    lambda_sweep_for_order(instance, schedule.order())?
        .total_costs(schedule.checkpoint_after(), lambdas)
        .map_err(ScheduleError::from_expectation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_dp::optimal_chain_schedule;
    use ckpt_dag::generators;

    fn chain_instance(lambda: f64) -> ProblemInstance {
        let graph = generators::uniform_chain(12, 500.0).unwrap();
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(50.0)
            .uniform_recovery_cost(75.0)
            .downtime(20.0)
            .platform_lambda(lambda)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_is_monotone_in_checkpoints_and_makespan() {
        let inst = chain_instance(1e-4);
        let sweep = lambda_sweep_with_threads(&inst, 1e-7, 1e-2, 12, 0).unwrap();
        assert_eq!(sweep.len(), 12);
        // Expected makespan grows with λ.
        assert!(sweep.windows(2).all(|w| w[1].expected_makespan >= w[0].expected_makespan - 1e-9));
        // Checkpoint count is non-decreasing in λ for uniform chains.
        assert!(sweep.windows(2).all(|w| w[1].checkpoints >= w[0].checkpoints));
        // Extremes: almost no checkpoints at 1e-7, every task checkpointed at 1e-2.
        assert_eq!(sweep.first().unwrap().checkpoints, 1);
        assert_eq!(sweep.last().unwrap().checkpoints, 12);
        assert!(sweep.iter().all(|p| p.slowdown >= 1.0));
    }

    #[test]
    fn batched_sweep_matches_per_rate_resolves() {
        let inst = chain_instance(1e-4);
        let sweep = lambda_sweep_with_threads(&inst, 1e-6, 1e-3, 7, 0).unwrap();
        for point in &sweep {
            let solo = optimal_chain_schedule(&inst.with_lambda(point.lambda).unwrap()).unwrap();
            let gap =
                (point.expected_makespan - solo.expected_makespan).abs() / solo.expected_makespan;
            assert!(gap < 1e-12, "λ {}: gap {gap}", point.lambda);
            assert_eq!(point.checkpoints, solo.schedule.checkpoint_count());
        }
    }

    #[test]
    fn fixed_schedule_sweep_is_dominated_by_reoptimised_sweep() {
        let inst = chain_instance(1e-4);
        let solution = optimal_chain_schedule(&inst).unwrap();
        let lambdas = [1e-6, 1e-5, 1e-4, 1e-3];
        let fixed = schedule_lambda_sweep(&inst, &solution.schedule, &lambdas).unwrap();
        for (i, &lambda) in lambdas.iter().enumerate() {
            let reopt = optimal_chain_schedule(&inst.with_lambda(lambda).unwrap()).unwrap();
            assert!(fixed[i] >= reopt.expected_makespan - 1e-9, "λ {lambda}");
        }
        // At the rate it was optimised for, the fixed schedule is optimal.
        let gap = (fixed[2] - solution.expected_makespan).abs() / solution.expected_makespan;
        assert!(gap < 1e-12, "gap {gap}");
    }

    #[test]
    fn parallel_sweep_is_bit_identical_at_any_thread_count() {
        // 25 points, deliberately not a multiple of any worker count, so
        // the chunked collection is exercised with ragged tails.
        let inst = chain_instance(1e-4);
        let single = lambda_sweep_with_threads(&inst, 1e-7, 1e-2, 25, 1).unwrap();
        for threads in [2usize, 3, 8, 64] {
            let multi = lambda_sweep_with_threads(&inst, 1e-7, 1e-2, 25, threads).unwrap();
            assert_eq!(single, multi, "sweep differs at {threads} threads");
        }
        let auto = lambda_sweep_with_threads(&inst, 1e-7, 1e-2, 25, 0).unwrap();
        assert_eq!(single, auto, "default sweep differs from single-threaded");
    }

    #[test]
    fn kept_arenas_match_fresh_solves_across_chains_and_thread_counts() {
        // Blocked-kernel sizes, alternated so every kept arena arrives
        // holding a differently sized solve.
        let chains: Vec<ProblemInstance> = [3_000usize, 1_500]
            .iter()
            .map(|&n| {
                let weights: Vec<f64> = (0..n).map(|i| 100.0 + (i * 37 % 401) as f64).collect();
                ProblemInstance::builder(generators::chain(&weights).unwrap())
                    .uniform_checkpoint_cost(20.0)
                    .uniform_recovery_cost(30.0)
                    .downtime(5.0)
                    .platform_lambda(1e-6)
                    .build()
                    .unwrap()
            })
            .collect();
        let fresh: Vec<Vec<LambdaSweepPoint>> = chains
            .iter()
            .map(|inst| {
                let order = properties::as_chain(inst.graph()).unwrap();
                let sweep = lambda_sweep_for_order(inst, &order).unwrap();
                log_lambda_grid(3.0 / inst.total_weight(), 300.0 / inst.total_weight(), 3)
                    .unwrap()
                    .into_iter()
                    .map(|lambda| {
                        let table = sweep.table_for(lambda).unwrap();
                        let placement = scalable_placement_on_table_with_scratch(
                            &table,
                            &mut ChainDpScratch::new(),
                        );
                        LambdaSweepPoint {
                            lambda,
                            checkpoints: placement.checkpoint_count(),
                            expected_makespan: placement.expected_makespan,
                            slowdown: placement.expected_makespan / inst.total_weight(),
                        }
                    })
                    .collect()
            })
            .collect();
        for threads in [1usize, 2, 3, 0] {
            for k in [0usize, 1, 0, 1] {
                let inst = &chains[k];
                let total = inst.total_weight();
                let kept = lambda_sweep_with_threads(inst, 3.0 / total, 300.0 / total, 3, threads)
                    .unwrap();
                assert_eq!(kept, fresh[k], "chain {k} at {threads} threads");
            }
        }
    }

    #[test]
    fn schedule_sweep_rejects_an_invalid_rate_anywhere() {
        let inst = chain_instance(1e-4);
        let solution = optimal_chain_schedule(&inst).unwrap();
        let lambdas: Vec<f64> = (0..40).map(|i| 1e-7 * 1.4f64.powi(i)).collect();
        assert_eq!(schedule_lambda_sweep(&inst, &solution.schedule, &lambdas).unwrap().len(), 40);
        // An invalid rate anywhere in the vector surfaces as an error.
        let mut bad = lambdas.clone();
        bad[17] = -1.0;
        assert!(schedule_lambda_sweep(&inst, &solution.schedule, &bad).is_err());
    }

    #[test]
    fn sweep_validates_inputs() {
        let inst = chain_instance(1e-4);
        assert!(lambda_sweep_with_threads(&inst, 0.0, 1.0, 5, 0).is_err());
        assert!(lambda_sweep_with_threads(&inst, 1e-3, 1e-4, 5, 0).is_err());
        assert!(lambda_sweep_with_threads(&inst, 1e-5, 1e-3, 1, 0).is_err());
    }
}
