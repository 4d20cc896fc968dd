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
//!
//! The simulator meets the same values: `ChainTask::new` and `Segment::new`
//! reject exactly the invalid ones (NaN, ±∞, negative, and zero work), the
//! downtime and the initial recovery are rejected by every entry that takes
//! them, and the valid extremes (subnormal, 10⁻³⁰⁰, 10³⁰⁰, `f64::MAX`) run
//! to a makespan that is not NaN. A policy whose decision names a `through`
//! outside `position..n`, or a suffix reorder that is not a permutation,
//! gets a typed error from the single-run and the Monte-Carlo entries alike.
//!
//! The order search's in-place table refill meets them too: a table
//! refilled with NaN, ±∞, zero, negative and subnormal weights, negative
//! and infinite costs, a negative downtime, rates that fail the rate check,
//! and rates on either side of the `λ·(W + max C) = 650` saturation edge
//! returns exactly `SegmentCostTable::new`'s error (the same variant and
//! value) or becomes bit for bit `new`'s table; a failed refill leaves the
//! table as it was, so the next one is again bit for bit `new`'s.
//!
//! Longer chains reach the pruned DP's work-conservation cut-off (rows past
//! 32 product-form candidates) and the levelled DP's suffix bound with
//! overflowing (+∞) coefficients, weights absorbed by the prefix sums,
//! `λ·W` at the 650 edge and recoveries near `709/λ`: every entry returns
//! a typed error or a finite or +∞ value, never a NaN, and never panics.

use ckpt_workflows::core::analysis::lambda_sweep_with_threads;
use ckpt_workflows::core::chain_dp::{
    self, oracle, scalable_placement_on_table_with_scratch, ChainDpScratch, ResumableDp,
};
use ckpt_workflows::core::{evaluate, ProblemInstance, Schedule};
use ckpt_workflows::dag::{generators, properties};
use ckpt_workflows::expectation::segment_cost::SegmentCostTable;
use ckpt_workflows::expectation::storage::{StorageLevel, StorageLevels};
use ckpt_workflows::expectation::ExpectationError;
use ckpt_workflows::failure::{Pcg64, RandomSource};
use ckpt_workflows::service::{PlanInstance, PlanRequest, Planner, RateBucketing};
use ckpt_workflows::simulator::stream::ScriptedStream;
use ckpt_workflows::simulator::{
    simulate, simulate_dag_policy, simulate_policy, ChainTask, Decision, DecisionContext, Policy,
    Segment, SimulationError, SimulationScenario,
};
use ckpt_workflows::telemetry::NoopSink;
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

/// A finite or +∞ makespan: never NaN, never negative.
fn finite_or_infinite(entry: &str, value: f64) -> Result<(), TestCaseError> {
    prop_assert!(value >= 0.0, "{} returned {}", entry, value);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn prop_hostile_inputs_reach_the_suffix_bound(
        seed in any::<u64>(),
        n in 40usize..160,
        regime in 0usize..4,
        nudge in -1e-3f64..1e-3,
        downtime_pick in 3usize..12,
        checkpoint_pick in 3usize..12,
        slots in 0usize..3,
    ) {
        // Ordinary weights over three decades; regime 1 puts a 10¹⁸ weight
        // first, so the ordinary ones after it vanish from the prefix sums.
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut weights: Vec<f64> =
            (0..n).map(|_| 10f64.powf(rng.next_range(0.0, 3.0))).collect();
        if regime == 1 {
            weights[0] = 1e18;
        }
        let total: f64 = weights.iter().sum();
        // 0: rows run long (λ·W = 3); 1: absorbed weights at λ·W = 3;
        // 2: λ·W at the table's 650 switch; 3: recoveries near 709/λ, so
        // every coefficient but the first overflows to +∞.
        let lambda = (match regime {
            2 => 650.0 + nudge,
            _ => 3.0,
        }) / total;
        let recovery = if regime == 3 { (709.0 + nudge) / lambda } else { 20.0 };
        let Ok(graph) = generators::chain(&weights) else {
            return Ok(());
        };
        let Ok(instance) = ProblemInstance::builder(graph)
            .downtime(pick(downtime_pick, 30.0))
            .uniform_checkpoint_cost(pick(checkpoint_pick, 60.0))
            .uniform_recovery_cost(recovery)
            .initial_recovery(20.0)
            .platform_lambda(lambda)
            .build()
        else {
            return Ok(());
        };
        if let Ok(flat) = chain_dp::optimal_chain_schedule(&instance) {
            finite_or_infinite("optimal_chain_schedule", flat.expected_makespan)?;
        }
        for levels in [StorageLevels::single(), two_level(slots)] {
            if let Ok(levelled) = chain_dp::optimal_levelled_schedule(&instance, &levels) {
                finite_or_infinite("optimal_levelled_schedule", levelled.expected_makespan)?;
            }
        }
        let order = properties::as_chain(instance.graph()).unwrap();
        let Ok(table) = evaluate::segment_cost_table(&instance, &order) else {
            return Ok(());
        };
        let mut dp = ResumableDp::new();
        finite_or_infinite("ResumableDp::solve", dp.solve(&table))?;
        finite_or_infinite("ResumableDp::solve_suffix", dp.solve_suffix(&table, n / 3))?;
        dp.solve(&table);
        // The order search's case: a window reordered, so the prefix sums
        // past it differ in their last bits.
        let mut reordered = weights.clone();
        reordered[1..n / 2].reverse();
        let checkpoints = vec![pick(checkpoint_pick, 60.0); n];
        let mut recoveries = vec![recovery; n];
        recoveries[0] = 20.0;
        if let Ok(trial) = SegmentCostTable::new(
            lambda,
            pick(downtime_pick, 30.0),
            &reordered,
            &checkpoints,
            &recoveries,
        ) {
            finite_or_infinite("ResumableDp::try_prefix", dp.try_prefix(&trial, n / 2))?;
        }
        let placement = scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new());
        finite_or_infinite("scalable_placement_on_table_with_scratch", placement.expected_makespan)?;
    }
}

/// `Debug` prints every `f64` with the shortest digits that round-trip it
/// (and NaN as `NaN`), so equal prints mean the same variant, the same name
/// and the same value bits (NaN payloads aside), which `==` cannot say of a
/// NaN.
fn same_print(a: &impl std::fmt::Debug, b: &impl std::fmt::Debug) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The arguments of one refill.
struct RefillInputs {
    lambda: f64,
    downtime: f64,
    weights: Vec<f64>,
    checkpoints: Vec<f64>,
    recoveries: Vec<f64>,
}

impl RefillInputs {
    fn ordinary(rng: &mut Pcg64, n: usize) -> Self {
        RefillInputs {
            lambda: 1e-4,
            downtime: 30.0,
            weights: (0..n).map(|_| rng.next_range(100.0, 2_000.0)).collect(),
            checkpoints: (0..n).map(|_| rng.next_range(0.0, 200.0)).collect(),
            recoveries: (0..n).map(|_| rng.next_range(0.0, 200.0)).collect(),
        }
    }

    /// The rate that puts `λ·(W + max C)` at `650 + nudge`.
    fn at_the_saturation_edge(&mut self, nudge: f64) {
        let total: f64 = self.weights.iter().sum();
        let max_ckpt = self.checkpoints.iter().fold(0.0f64, |m, &c| m.max(c));
        self.lambda = (650.0 + nudge) / (total + max_ckpt);
    }

    fn new_table(&self) -> Result<SegmentCostTable, ExpectationError> {
        SegmentCostTable::new(
            self.lambda,
            self.downtime,
            &self.weights,
            &self.checkpoints,
            &self.recoveries,
        )
    }

    fn refill(&self, table: &mut SegmentCostTable) -> Result<(), ExpectationError> {
        table.refill(self.lambda, self.downtime, &self.weights, &self.checkpoints, &self.recoveries)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One table refilled through a walk of hostile and ordinary inputs:
    /// each refill fails with `new`'s error, leaving the table unchanged,
    /// or yields `new`'s table bit for bit. Ordinary steps permute a window
    /// of the last inputs, so they refill by diffing against whatever the
    /// failed refills before them left.
    #[test]
    fn prop_hostile_inputs_reach_the_refill(seed in any::<u64>(), n in 1usize..24) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut inputs = RefillInputs::ordinary(&mut rng, n);
        let mut table = inputs.new_table().unwrap();
        for step in 0..32 {
            let mut trial = RefillInputs::ordinary(&mut rng, n);
            trial.weights.clone_from(&inputs.weights);
            trial.checkpoints.clone_from(&inputs.checkpoints);
            trial.recoveries.clone_from(&inputs.recoveries);
            if n > 1 {
                let lo = rng.next_bounded(n as u64 - 1) as usize;
                trial.weights[lo..].rotate_left(1);
                trial.checkpoints[lo..].rotate_right(1);
            }
            match rng.next_bounded(6) {
                0 => {
                    trial.lambda = pick(rng.next_bounded(12) as usize, 1e-4);
                    trial.downtime = pick(rng.next_bounded(12) as usize, 30.0);
                }
                1 => trial.weights = hostile_weights(rng.next_u64(), n),
                2 => {
                    let at = rng.next_bounded(n as u64) as usize;
                    trial.checkpoints[at] = pick(rng.next_bounded(12) as usize, 60.0);
                    let at = rng.next_bounded(n as u64) as usize;
                    trial.recoveries[at] = pick(rng.next_bounded(12) as usize, 20.0);
                }
                // Either side of the saturation edge, alternately.
                3 | 4 => trial.at_the_saturation_edge(if step % 2 == 0 { 1e-3 } else { -1e-3 }),
                // A weight the prefix sums absorb next to a recovery whose
                // coefficient overflows: the rate check's ∞·0 guard.
                _ => {
                    trial.weights[0] = 1e300;
                    trial.recoveries[n - 1] = 1e300;
                    trial.lambda = if rng.next_bounded(2) == 0 { 1e-3 } else { 1e-300 };
                }
            }
            let before = format!("{table:?}");
            match (trial.new_table(), trial.refill(&mut table)) {
                (Ok(fresh), Ok(())) => {
                    prop_assert!(same_print(&table, &fresh), "step {}: tables differ", step);
                    prop_assert!(table == fresh);
                    inputs = trial;
                }
                (Err(expected), Err(got)) => {
                    prop_assert!(same_print(&got, &expected), "step {}: {:?} vs {:?}", step, got, expected);
                    prop_assert!(format!("{table:?}") == before, "step {}: a failed refill wrote", step);
                }
                (fresh, refilled) => {
                    prop_assert!(false, "step {}: new {:?}, refill {:?}", step, fresh.err(), refilled);
                }
            }
        }
    }
}

/// Whether `value` is a valid non-negative duration (finite, ≥ 0).
fn non_negative(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

/// A short script: a few failures, then none, so every run ends whatever
/// the durations (a run of `f64::MAX` work is struck until the script runs
/// out, then completes at +∞).
fn short_script() -> ScriptedStream {
    ScriptedStream::new(vec![50.0, 50.5, 120.0, 1e6])
}

/// Checkpoint after every task.
struct EveryTask;
impl Policy for EveryTask {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        Decision::keep_order(ctx.position)
    }
}

/// `Ok` only when the inputs are `valid`, and then a makespan that is not
/// NaN; otherwise a parameter error.
fn typed(
    entry: &str,
    valid: bool,
    result: Result<f64, SimulationError>,
) -> Result<(), TestCaseError> {
    match result {
        Ok(makespan) => {
            prop_assert!(valid, "{} accepted invalid inputs", entry);
            not_nan(entry, makespan)
        }
        Err(SimulationError::NegativeParameter { .. }) => {
            prop_assert!(!valid, "{} rejected valid inputs", entry);
            Ok(())
        }
        Err(other) => Err(TestCaseError(format!("{entry}: unexpected error {other}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn prop_hostile_inputs_at_the_simulator(
        n in 1usize..5,
        work_pick in 0usize..14,
        checkpoint_pick in 0usize..14,
        recovery_pick in 0usize..14,
        downtime_pick in 0usize..14,
        initial_pick in 0usize..14,
    ) {
        let (w, c, r) =
            (pick(work_pick, 100.0), pick(checkpoint_pick, 10.0), pick(recovery_pick, 20.0));
        let (d, r0) = (pick(downtime_pick, 5.0), pick(initial_pick, 15.0));
        let valid = w.is_finite() && w > 0.0 && non_negative(c) && non_negative(r);
        let task = ChainTask::new(w, c, r);
        let segment = Segment::new(w, c, r);
        prop_assert_eq!(task.is_ok(), valid);
        prop_assert_eq!(segment.is_ok(), valid);
        if let (Ok(task), Ok(segment)) = (task, segment) {
            let (tasks, segments) = (vec![task; n], vec![segment; n]);
            let scenario = SimulationScenario::from_streams(|_, _| short_script())
                .with_downtime(d)
                .with_trials(4)
                .with_threads(1);
            let run_policy = |p: &mut dyn Policy| {
                simulate_policy(&tasks, r0, d, p, &mut short_script(), &mut NoopSink)
            };
            typed(
                "simulate",
                non_negative(d),
                simulate(&segments, d, &mut short_script()).map(|r| r.makespan),
            )?;
            typed(
                "try_run",
                non_negative(d),
                scenario.try_run(&segments).map(|o| o.makespan.mean),
            )?;
            let both = non_negative(d) && non_negative(r0);
            typed("simulate_policy", both, run_policy(&mut EveryTask).map(|r| r.record.makespan))?;
            typed(
                "run_policy",
                both,
                scenario.run_policy(&tasks, r0, |_| EveryTask).map(|o| o.makespan.mean),
            )?;
        }
    }
}

/// A policy that answers `valid_before` decisions validly (one task per
/// attempt), then returns one hostile decision: a `through` of the given
/// kind and, optionally, a suffix of the given kind.
struct HostileDecision {
    valid_before: usize,
    through_kind: usize,
    reorder_kind: usize,
}

impl Policy for HostileDecision {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        if self.valid_before > 0 {
            self.valid_before -= 1;
            return Decision::keep_order(ctx.position);
        }
        let n = ctx.order.len();
        let through = match self.through_kind {
            0 => ctx.position.wrapping_sub(1),
            1 => n,
            2 => usize::MAX,
            _ => ctx.position,
        };
        let suffix = ctx.suffix();
        let reorder_suffix = match self.reorder_kind {
            0 => None,
            1 => Some(suffix[1..].to_vec()),
            2 => Some(vec![suffix[0]; suffix.len().max(2)]),
            3 => Some(suffix.iter().map(|_| usize::MAX).collect()),
            4 => Some(suffix.iter().chain(&[n]).copied().collect()),
            _ => Some(suffix.iter().rev().copied().collect()),
        };
        Decision { through, reorder_suffix }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn prop_hostile_decisions_give_typed_errors(
        seed in any::<u64>(),
        n in 1usize..7,
        valid_before in 0usize..8,
        through_kind in 0usize..4,
        reorder_kind in 0usize..6,
    ) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let tasks: Vec<ChainTask> = (0..n)
            .map(|_| ChainTask::new(10.0 + 90.0 * rng.next_f64(), 5.0, 8.0).unwrap())
            .collect();
        let order: Vec<usize> = (0..n).rev().collect();
        let policy =
            || HostileDecision { valid_before, through_kind, reorder_kind };
        let single = simulate_dag_policy(
            &tasks,
            &order,
            3.0,
            2.0,
            &mut policy(),
            &mut short_script(),
            &mut NoopSink,
        );
        let monte_carlo = SimulationScenario::from_streams(|_, _| short_script())
            .with_downtime(2.0)
            .with_trials(3)
            .with_threads(1)
            .run_dag_policy(&tasks, &order, 3.0, |_| policy());
        // The hostile decision is reached once the valid ones have not yet
        // finished the run: each commits one position, failures aside.
        let bad_reorder = (1..=4).contains(&reorder_kind);
        let bad_through = through_kind < 3;
        for result in [single.map(|r| r.record.makespan), monte_carlo.map(|o| o.makespan.mean)] {
            match result {
                Ok(makespan) => {
                    prop_assert!(!bad_reorder && !bad_through || valid_before >= n);
                    not_nan("engine", makespan)?;
                }
                Err(SimulationError::InvalidTaskOrder) => prop_assert!(bad_reorder),
                Err(SimulationError::InvalidDecision { position, through, tasks }) => {
                    prop_assert!(!bad_reorder && bad_through);
                    prop_assert!(through < position || through >= tasks);
                }
                Err(other) => prop_assert!(false, "unexpected error {}", other),
            }
        }
    }
}
