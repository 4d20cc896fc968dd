//! Cross-solver differential property test: the online re-planning
//! primitive [`ResumableDp::solve_suffix`] against the full table-level
//! solvers on **blocked-scale** tables.
//!
//! The unit-level suffix-solve proptests stop below the
//! `scalable_placement_on_table_with_scratch` dispatch threshold (1024
//! positions), where the blocked divide-and-conquer kernel takes over.
//! These tests build tables with n > 1024 positions:
//!
//! * a full [`ResumableDp::solve`] must agree with the table dispatch
//!   (which runs the blocked kernel at this size) to 1e-10 relative;
//! * a fresh `solve_suffix(table, from)` at a random suffix start must be
//!   **bitwise** equal to the matching positions of the full pruned solve
//!   (same recurrence, same span);
//! * re-solving the suffix as a standalone sub-table (sliced positional
//!   vectors — the protecting-recovery convention makes the slice exactly
//!   the suffix problem) through the table dispatch must agree
//!   to 1e-10 relative, including sub-tables that are themselves above the
//!   blocked dispatch threshold.

use ckpt_workflows::core::chain_dp::{
    scalable_placement_on_table_with_scratch, ChainDpScratch, ResumableDp, TablePlacement,
};
use ckpt_workflows::expectation::segment_cost::SegmentCostTable;
use ckpt_workflows::failure::{Pcg64, RandomSource};
use proptest::prelude::*;

/// The production table dispatch with a fresh scratch arena.
fn dispatch(table: &SegmentCostTable) -> TablePlacement {
    scalable_placement_on_table_with_scratch(table, &mut ChainDpScratch::new())
}

/// A deterministic heterogeneous positional-cost table of `n` positions.
fn random_table(seed: u64, n: usize, lambda: f64) -> SegmentCostTable {
    let mut rng = Pcg64::seed_from_u64(seed);
    let weights: Vec<f64> = (0..n).map(|_| 50.0 + rng.next_f64() * 1_950.0).collect();
    let ckpt: Vec<f64> = (0..n).map(|_| rng.next_f64() * 250.0).collect();
    let rec: Vec<f64> = (0..n).map(|_| rng.next_f64() * 400.0).collect();
    SegmentCostTable::new(lambda, 30.0, &weights, &ckpt, &rec).unwrap()
}

/// The sliced sub-table of positions `from..n`: under the
/// protecting-recovery convention the slice IS the standalone suffix
/// problem (position `from`'s protecting recovery becomes the sub `R₀`).
fn suffix_table(seed: u64, n: usize, lambda: f64, from: usize) -> SegmentCostTable {
    let mut rng = Pcg64::seed_from_u64(seed);
    let weights: Vec<f64> = (0..n).map(|_| 50.0 + rng.next_f64() * 1_950.0).collect();
    let ckpt: Vec<f64> = (0..n).map(|_| rng.next_f64() * 250.0).collect();
    let rec: Vec<f64> = (0..n).map(|_| rng.next_f64() * 400.0).collect();
    SegmentCostTable::new(lambda, 30.0, &weights[from..], &ckpt[from..], &rec[from..]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_suffix_solver_agrees_with_blocked_scale_full_solvers(
        seed in any::<u64>(),
        extra in 0usize..400,
        from_frac in 0.0f64..0.95,
        lambda_exp in -5.0f64..-3.6,
    ) {
        // n > 1024 so the table dispatch runs the blocked
        // divide-and-conquer kernel.
        let n = 1_100 + extra;
        let lambda = 10f64.powf(lambda_exp);
        let table = random_table(seed, n, lambda);

        // Full solves: blocked dispatch vs the pruned recurrence.
        let blocked = dispatch(&table);
        let mut dp = ResumableDp::new();
        let pruned_value = dp.solve(&table);
        let gap = (blocked.expected_makespan - pruned_value).abs() / pruned_value;
        prop_assert!(gap < 1e-10, "full solve: blocked {} vs pruned {}", blocked.expected_makespan, pruned_value);

        // Random suffix start: a fresh suffix-only solve must be bitwise
        // the matching positions of the full pruned solve.
        let from = ((n as f64 * from_frac) as usize).min(n - 1);
        let mut fresh = ResumableDp::new();
        let suffix_value = fresh.solve_suffix(&table, from);
        prop_assert!(suffix_value == dp.suffix_value(from),
            "suffix value at {}: {} vs full {}", from, suffix_value, dp.suffix_value(from));
        for x in from..n {
            prop_assert!(fresh.suffix_value(x) == dp.suffix_value(x),
                "value[{}] differs", x);
            prop_assert!(fresh.choice_at(x) == dp.choice_at(x),
                "choice[{}] differs", x);
        }

        // The standalone sub-table of the suffix, solved through the
        // scalable dispatch, agrees with the suffix solve.
        let sub = suffix_table(seed, n, lambda, from);
        let sub_solved = dispatch(&sub);
        let gap = (sub_solved.expected_makespan - suffix_value).abs() / suffix_value.max(1.0);
        prop_assert!(gap < 1e-10,
            "sub-table at {}: {} vs suffix {}", from, sub_solved.expected_makespan, suffix_value);
    }
}

/// A deterministic case whose suffix itself crosses the 1024-position
/// dispatch threshold, so the sub-table comparison exercises the blocked
/// solver on both sides.
#[test]
fn suffix_above_dispatch_threshold_agrees_with_blocked_sub_table() {
    let (seed, n, lambda, from) = (0xD1FF_u64, 2_000usize, 1e-4, 17usize);
    let table = random_table(seed, n, lambda);
    let mut dp = ResumableDp::new();
    let suffix_value = dp.solve_suffix(&table, from);
    let sub = suffix_table(seed, n, lambda, from);
    assert!(sub.len() > 1024, "sub-table must cross the blocked dispatch threshold");
    let sub_solved = dispatch(&sub);
    let gap = (sub_solved.expected_makespan - suffix_value).abs() / suffix_value;
    assert!(gap < 1e-10, "blocked sub {} vs suffix {}", sub_solved.expected_makespan, suffix_value);
    // The placements agree position for position (offset by `from`).
    let mut fresh = ResumableDp::new();
    fresh.solve(&sub);
    let sub_positions = fresh.placement().checkpoint_positions;
    let mut walked = Vec::new();
    let mut x = from;
    while x < n {
        let j = dp.choice_at(x);
        walked.push(j - from);
        x = j + 1;
    }
    assert_eq!(walked, sub_positions, "suffix placement differs from the sub-table solve");
}
