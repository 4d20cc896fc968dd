//! Hostile inputs at the Algorithm 1 boundary: failure rates, downtimes,
//! checkpoint and recovery costs and task weights drawn from the edges of
//! `f64` — NaN, ±∞, 0, −1, the smallest subnormal, 10⁻³⁰⁰, 10³⁰⁰,
//! `f64::MAX` — mixed with ordinary values, plus chains whose `λ·W` sits
//! near 650 (where the segment-cost tables switch to their saturated mode)
//! and near 709 (where `e^{λW}` leaves the `f64` range).
//!
//! Property: every public entry of the chain solver family either returns a
//! typed error or a makespan that is not NaN, and none panics; and whenever
//! both succeed, the single-level levelled plan is bitwise Algorithm 1's.
//! The planner service meets the same inputs: a request either fails to
//! build with a typed error or is served a makespan that is not NaN, under
//! exact and grid rate bucketing alike.

use ckpt_workflows::core::analysis::lambda_sweep_with_threads;
use ckpt_workflows::core::chain_dp::{
    self, oracle, scalable_placement_on_table_with_scratch, ChainDpScratch, ResumableDp,
};
use ckpt_workflows::core::{evaluate, ProblemInstance, Schedule};
use ckpt_workflows::dag::{generators, properties};
use ckpt_workflows::expectation::storage::{StorageLevel, StorageLevels};
use ckpt_workflows::failure::{Pcg64, RandomSource};
use ckpt_workflows::service::{PlanInstance, PlanRequest, Planner, RateBucketing};
use proptest::prelude::*;

/// The hostile value at `index`, `ordinary` standing in at index 7; any
/// index past the table is ordinary too, to keep valid instances common.
fn pick(index: usize, ordinary: f64) -> f64 {
    let hostile =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0, 5e-324, 1e-300, ordinary, 1e300];
    match index {
        i if i < hostile.len() => hostile[i],
        9 => f64::MAX,
        _ => ordinary,
    }
}

fn not_nan(entry: &str, value: f64) -> Result<(), TestCaseError> {
    prop_assert!(!value.is_nan(), "{} returned a NaN makespan", entry);
    Ok(())
}

fn two_level(slots: usize) -> StorageLevels {
    StorageLevels::two_level(
        StorageLevel::new(0.25, 0.2).unwrap().with_slots(slots),
        StorageLevel::new(1.0, 1.0).unwrap(),
    )
    .unwrap()
}

/// Runs every entry on `instance` and checks the property. On `large`
/// chains the quadratic-only entries (the levelled DP and two oracles) are
/// left to the small-chain property.
fn check_entries(instance: &ProblemInstance, large: bool) -> Result<(), TestCaseError> {
    let order = properties::as_chain(instance.graph()).unwrap();
    let n = order.len();

    let flat = chain_dp::optimal_chain_schedule(instance);
    if let Ok(flat) = &flat {
        not_nan("optimal_chain_schedule", flat.expected_makespan)?;
    }
    if !large {
        let single = chain_dp::optimal_levelled_schedule(instance, &StorageLevels::single());
        if let Ok(single) = &single {
            not_nan("optimal_levelled_schedule(single)", single.expected_makespan)?;
        }
        if let (Ok(flat), Ok(single)) = (&flat, &single) {
            prop_assert_eq!(single.expected_makespan.to_bits(), flat.expected_makespan.to_bits());
            prop_assert_eq!(&single.schedule, &flat.schedule);
        }
        for slots in [0usize, 1] {
            if let Ok(two) = chain_dp::optimal_levelled_schedule(instance, &two_level(slots)) {
                not_nan("optimal_levelled_schedule(two levels)", two.expected_makespan)?;
            }
        }
        if let Ok(reference) = oracle::optimal_chain_schedule_reference(instance) {
            not_nan("optimal_chain_schedule_reference", reference.expected_makespan)?;
        }
        if let Ok(value) = oracle::optimal_chain_value_memoized(instance) {
            not_nan("optimal_chain_value_memoized", value)?;
        }
    }

    if let Ok(table) = evaluate::segment_cost_table(instance, &order) {
        let placement =
            scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new());
        not_nan("scalable_placement_on_table_with_scratch", placement.expected_makespan)?;
        for from in [0, n / 2, n] {
            not_nan("ResumableDp::solve_suffix", ResumableDp::new().solve_suffix(&table, from))?;
        }
    }
    let lambda = instance.lambda();
    for (lo, hi) in [(lambda, lambda * 1e3), (lambda * 1e-3, lambda)] {
        if let Ok(points) = lambda_sweep_with_threads(instance, lo, hi, 3, 1) {
            for point in points {
                not_nan("lambda_sweep_with_threads", point.expected_makespan)?;
            }
        }
    }

    if let Ok(dc) = oracle::optimal_chain_schedule_divide_conquer(instance) {
        not_nan("optimal_chain_schedule_divide_conquer", dc.expected_makespan)?;
    }

    let mut schedules = vec![
        Schedule::checkpoint_everywhere(instance, order.clone()).unwrap(),
        Schedule::checkpoint_final_only(instance, order).unwrap(),
    ];
    if let Ok(flat) = flat {
        schedules.push(flat.schedule);
    }
    for schedule in &schedules {
        if let Ok(value) = evaluate::expected_makespan(instance, schedule) {
            not_nan("evaluate::expected_makespan", value)?;
        }
    }
    Ok(())
}

/// Serves the chain of `weights` with hostile scalars at `lambda`, a full
/// plan and a re-plan, through an exact planner and through a grid whose
/// first rate is too small for any order (`1/λ` overflows).
fn check_service(weights: &[f64], picks: [usize; 4], lambda: f64) -> Result<(), TestCaseError> {
    let n = weights.len();
    let Ok(chain) = PlanInstance::new(
        pick(picks[1], 30.0),
        weights,
        &vec![pick(picks[2], 60.0); n],
        &vec![pick(picks[3], 20.0); n],
    ) else {
        return Ok(());
    };
    let mut requests: Vec<PlanRequest> =
        PlanRequest::plan(0, chain.clone(), lambda).ok().into_iter().collect();
    if n > 1 {
        requests.extend(PlanRequest::replan(1, chain, lambda, n / 2).ok());
    }
    let grid = RateBucketing::grid(vec![1e-310, 1e-4, 1e300]).unwrap();
    for bucketing in [RateBucketing::Exact, grid] {
        for response in Planner::new(bucketing).with_threads(1).serve_batch(&requests) {
            not_nan("Planner::serve_batch", response.expected_makespan)?;
        }
    }
    Ok(())
}

/// Draws `n` task weights: hostile values mixed with ordinary ones that
/// span five decades, so some are small enough for `λ·w` to underflow at
/// the tiniest rates.
fn hostile_weights(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Pcg64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let ordinary = 10f64.powf(rng.next_range(-2.0, 3.0));
            pick(rng.next_bounded(16) as usize, ordinary)
        })
        .collect()
}

/// Builds the chain of `weights` with hostile scalars, the rate set by
/// `regime`: 0 = the drawn rate, 1 and 2 = `λ·W` within 10⁻³ of 650 and of
/// 709. `None` when the graph or the builder rejects the inputs (a typed
/// error, which the property allows).
fn instance(
    weights: &[f64],
    picks: [usize; 4],
    regime: usize,
    nudge: f64,
) -> Option<ProblemInstance> {
    let graph = generators::chain(weights).ok()?;
    let lambda = match regime {
        0 => pick(picks[0], 1e-3),
        r => (if r == 1 { 650.0 } else { 709.0 } + nudge) / weights.iter().sum::<f64>(),
    };
    ProblemInstance::builder(graph)
        .downtime(pick(picks[1], 30.0))
        .uniform_checkpoint_cost(pick(picks[2], 60.0))
        .uniform_recovery_cost(pick(picks[3], 20.0))
        .initial_recovery(pick(picks[3], 20.0))
        .platform_lambda(lambda)
        .build()
        .ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn prop_hostile_inputs_give_typed_errors_or_numbers(
        seed in any::<u64>(),
        n in 1usize..5,
        lambda_pick in 0usize..14,
        downtime_pick in 0usize..14,
        checkpoint_pick in 0usize..14,
        recovery_pick in 0usize..14,
        regime in 0usize..3,
        nudge in -1e-3f64..1e-3,
    ) {
        let weights = hostile_weights(seed, n);
        let picks = [lambda_pick, downtime_pick, checkpoint_pick, recovery_pick];
        if let Some(inst) = instance(&weights, picks, regime, nudge) {
            check_entries(&inst, false)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_hostile_inputs_at_blocked_scale(
        weight_pick in 5usize..8,
        lambda_pick in 5usize..8,
        downtime_pick in 3usize..10,
        checkpoint_pick in 3usize..10,
        recovery_pick in 3usize..10,
        regime in 0usize..2,
    ) {
        // 1 100 positions on tables that are not saturated: the table
        // dispatch runs the blocked kernel, fed overflowing coefficients and
        // vanishing exponents. Saturated tables run the pruned DP, which the
        // small-chain property covers without the quadratic price.
        let weights = vec![pick(weight_pick, 150.0); 1_100];
        let picks = [lambda_pick, downtime_pick, checkpoint_pick, recovery_pick];
        if let Some(inst) = instance(&weights, picks, regime, 0.0) {
            let order = properties::as_chain(inst.graph()).unwrap();
            if evaluate::segment_cost_table(&inst, &order).is_ok_and(|t| !t.is_saturated()) {
                check_entries(&inst, true)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn prop_hostile_inputs_at_the_planner_service(
        seed in any::<u64>(),
        n in 1usize..5,
        lambda_pick in 0usize..14,
        downtime_pick in 0usize..14,
        checkpoint_pick in 0usize..14,
        recovery_pick in 0usize..14,
    ) {
        let weights = hostile_weights(seed, n);
        let picks = [lambda_pick, downtime_pick, checkpoint_pick, recovery_pick];
        check_service(&weights, picks, pick(lambda_pick, 1e-3))?;
    }
}
