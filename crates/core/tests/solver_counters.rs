//! The process-wide solver counters, read exactly. This binary holds a
//! single test, so no other solve runs while it reads them (the crate's
//! unit tests share one process and solve side by side).

use ckpt_core::chain_dp::ResumableDp;
use ckpt_core::solver_stats;
use ckpt_expectation::segment_cost::SegmentCostTable;

#[test]
fn prefix_trials_reach_the_counters_once_when_their_state_is_dropped() {
    let weights: Vec<f64> = (0..40).map(|k| 100.0 + (k % 7) as f64 * 50.0).collect();
    let table = SegmentCostTable::new(1e-4, 30.0, &weights, &[60.0; 40], &[15.0; 40]).unwrap();
    let before = solver_stats::snapshot();
    let mut dp = ResumableDp::new();
    dp.solve(&table);
    let solved = solver_stats::snapshot().since(&before);
    assert_eq!((solved.full_solves, solved.dp_positions), (1, 40));

    for first_unchanged in [10, 25, 40] {
        dp.try_prefix(&table, first_unchanged);
    }
    let copy = dp.clone();
    assert_eq!(solver_stats::snapshot().since(&before), solved, "a trial was flushed early");
    drop(copy);
    assert_eq!(solver_stats::snapshot().since(&before), solved, "a clone flushed trials");

    drop(dp);
    let flushed = solver_stats::snapshot().since(&before);
    assert_eq!(flushed.prefix_trials, 3);
    assert_eq!(flushed.suffix_reused_positions, 30 + 15);
    assert_eq!(flushed.dp_positions, 40 + 10 + 25 + 40);
    assert!(flushed.dp_candidates > solved.dp_candidates);
    assert_eq!(flushed.full_solves, 1);
}
