//! Waste analysis: where does the expected time beyond the useful work go?
//!
//! The resilience literature the paper builds on (Young, Daly, Bougeret et
//! al.) reasons in terms of **waste**: the fraction of the platform time that
//! does not contribute useful work. For a periodic execution with period `W`
//! (work per checkpoint), checkpoint cost `C`, downtime `D`, recovery `R` and
//! Exponential failures of rate `λ`, the expected waste decomposes into a
//! failure-free part (the checkpoints themselves) and a failure-induced part
//! (lost work, downtime, recovery). This module provides that decomposition,
//! the classical first-order optimal waste `√(2λC)`, and helpers used by
//! experiment E6 to discuss the scaling scenarios.

use crate::error::{ensure_non_negative, ensure_positive, ExpectationError};
use crate::exact::{expected_time, ExecutionParams};

/// A waste decomposition for a periodic execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WasteBreakdown {
    /// Total waste: `1 − (useful work) / (expected total time)` ∈ [0, 1).
    pub total: f64,
    /// Waste attributable to checkpointing alone (failure-free execution).
    pub checkpoint: f64,
    /// Waste attributable to failures (lost work, downtime, recovery).
    pub failure_induced: f64,
}

/// Computes the waste of executing work in chunks of `period` seconds, each
/// followed by a checkpoint, under Proposition 1 semantics.
///
/// The decomposition uses the standard two-step argument:
/// `1 − waste_total = (1 − waste_ckpt)(1 − waste_fail)` with
/// `waste_ckpt = C/(W+C)`.
///
/// # Errors
///
/// Returns an error if any parameter is invalid (`period ≤ 0`,
/// `checkpoint < 0`, `downtime < 0`, `recovery < 0`, `lambda ≤ 0`).
pub fn waste_breakdown(
    period: f64,
    checkpoint: f64,
    downtime: f64,
    recovery: f64,
    lambda: f64,
) -> Result<WasteBreakdown, ExpectationError> {
    let period = ensure_positive("period", period)?;
    let checkpoint = ensure_non_negative("checkpoint", checkpoint)?;
    ensure_non_negative("downtime", downtime)?;
    ensure_non_negative("recovery", recovery)?;
    ensure_positive("lambda", lambda)?;

    let params = ExecutionParams::new(period, checkpoint, downtime, recovery, lambda)?;
    let expected = expected_time(&params);
    let total = 1.0 - period / expected;
    let ckpt = checkpoint / (period + checkpoint);
    // (1 - total) = (1 - ckpt)(1 - fail)  =>  fail = 1 - (1 - total)/(1 - ckpt)
    let failure_induced = 1.0 - (1.0 - total) / (1.0 - ckpt);
    Ok(WasteBreakdown { total, checkpoint: ckpt, failure_induced })
}

/// The classical first-order optimal waste for a divisible job:
/// `waste* ≈ √(2λC)` (achieved at the Young period), valid when `λC ≪ 1`.
///
/// # Errors
///
/// Returns an error if `checkpoint ≤ 0` or `lambda ≤ 0`.
pub fn first_order_optimal_waste(checkpoint: f64, lambda: f64) -> Result<f64, ExpectationError> {
    let c = ensure_positive("checkpoint", checkpoint)?;
    let l = ensure_positive("lambda", lambda)?;
    Ok((2.0 * l * c).sqrt())
}

/// The smallest platform MTBF (`1/λ`) for which the total waste at the
/// optimal period stays below `target_waste`. Found by bisection on `λ`;
/// useful for sizing exercises ("how reliable must the platform be for 10%
/// waste with 10-minute checkpoints?").
///
/// # Errors
///
/// Returns an error if `checkpoint ≤ 0` or `target_waste` is not in `(0, 1)`.
pub fn mtbf_for_target_waste(
    checkpoint: f64,
    downtime: f64,
    recovery: f64,
    target_waste: f64,
) -> Result<f64, ExpectationError> {
    let c = ensure_positive("checkpoint", checkpoint)?;
    ensure_non_negative("downtime", downtime)?;
    ensure_non_negative("recovery", recovery)?;
    if !(0.0..1.0).contains(&target_waste) || target_waste == 0.0 {
        return Err(ExpectationError::FractionOutOfRange {
            name: "target_waste",
            value: target_waste,
        });
    }
    let waste_at = |lambda: f64| -> f64 {
        let opt = crate::optimal_period::optimal_period(c, downtime, recovery, lambda)
            .expect("parameters validated above");
        waste_breakdown(opt.period, c, downtime, recovery, lambda)
            .expect("parameters validated above")
            .total
    };
    // Waste is increasing in λ; bracket it.
    let mut lo = 1e-12f64; // extremely reliable
    let mut hi = 1.0f64; // one failure per second
    for _ in 0..200 {
        let mid = (lo * hi).sqrt(); // geometric bisection over decades
        if waste_at(mid) < target_waste {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(1.0 / ((lo * hi).sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approximations::young_period;

    #[test]
    fn breakdown_parts_compose_multiplicatively() {
        let wb = waste_breakdown(3_600.0, 300.0, 30.0, 300.0, 1e-5).unwrap();
        let recomposed = 1.0 - (1.0 - wb.checkpoint) * (1.0 - wb.failure_induced);
        assert!((wb.total - recomposed).abs() < 1e-12);
        assert!(wb.total > 0.0 && wb.total < 1.0);
        assert!(wb.checkpoint > 0.0 && wb.failure_induced > 0.0);
    }

    #[test]
    fn waste_vanishes_without_checkpoints_and_failures() {
        let wb = waste_breakdown(1_000.0, 0.0, 0.0, 0.0, 1e-15).unwrap();
        assert!(wb.total < 1e-9);
        assert_eq!(wb.checkpoint, 0.0);
    }

    #[test]
    fn waste_grows_with_failure_rate_and_checkpoint_cost() {
        let base = waste_breakdown(3_600.0, 300.0, 0.0, 300.0, 1e-6).unwrap();
        let more_failures = waste_breakdown(3_600.0, 300.0, 0.0, 300.0, 1e-4).unwrap();
        let bigger_ckpt = waste_breakdown(3_600.0, 900.0, 0.0, 300.0, 1e-6).unwrap();
        assert!(more_failures.total > base.total);
        assert!(bigger_ckpt.total > base.total);
    }

    #[test]
    fn first_order_waste_matches_full_model_at_young_period_for_rare_failures() {
        let lambda = 1e-7;
        let c = 120.0;
        let approx = first_order_optimal_waste(c, lambda).unwrap();
        let young = young_period(c, lambda).unwrap();
        let full = waste_breakdown(young, c, 0.0, 0.0, lambda).unwrap().total;
        assert!((approx - full).abs() / full < 0.05, "approx {approx}, full {full}");
        assert!(first_order_optimal_waste(0.0, 1.0).is_err());
    }

    #[test]
    fn mtbf_for_target_waste_is_consistent() {
        let c = 600.0;
        let mtbf = mtbf_for_target_waste(c, 60.0, 600.0, 0.10).unwrap();
        assert!(mtbf > 0.0);
        // At that MTBF the optimal-period waste is indeed about 10%.
        let lambda = 1.0 / mtbf;
        let opt = crate::optimal_period::optimal_period(c, 60.0, 600.0, lambda).unwrap();
        let waste = waste_breakdown(opt.period, c, 60.0, 600.0, lambda).unwrap().total;
        assert!((waste - 0.10).abs() < 0.01, "waste {waste}");
        // Tighter targets require more reliable platforms.
        let stricter = mtbf_for_target_waste(c, 60.0, 600.0, 0.05).unwrap();
        assert!(stricter > mtbf);
    }

    #[test]
    fn mtbf_for_target_waste_validates_inputs() {
        assert!(mtbf_for_target_waste(0.0, 0.0, 0.0, 0.1).is_err());
        assert!(mtbf_for_target_waste(10.0, 0.0, 0.0, 0.0).is_err());
        assert!(mtbf_for_target_waste(10.0, 0.0, 0.0, 1.5).is_err());
    }

    #[test]
    fn breakdown_validates_inputs() {
        assert!(waste_breakdown(0.0, 1.0, 0.0, 0.0, 1.0).is_err());
        assert!(waste_breakdown(1.0, -1.0, 0.0, 0.0, 1.0).is_err());
        assert!(waste_breakdown(1.0, 1.0, 0.0, 0.0, 0.0).is_err());
    }
}
