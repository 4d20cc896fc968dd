//! Optimal divisible-load checkpoint period under Exponential failures.
//!
//! The related work the paper builds on (§7) studies *divisible* jobs that can
//! be cut into arbitrary chunks, each followed by a checkpoint. For
//! Exponential failures the optimal policy is periodic (equal chunks); this
//! module computes the optimal chunk size exactly (by minimising the
//! Proposition 1 cost per unit of work), so that the experiments can compare
//! the paper's *task-level* checkpoint placement against the divisible-load
//! ideal and against the Young/Daly approximate periods.

use crate::approximations::young_period;
use crate::error::{ensure_non_negative, ensure_positive, ExpectationError};
use crate::exact::{expected_time, ExecutionParams};
use crate::numeric::golden_section_min;

/// The outcome of a period optimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalPeriod {
    /// The optimal chunk duration (seconds of work between checkpoints).
    pub period: f64,
    /// The expected cost per unit of work at that period
    /// (`E[T(period, …)] / period`, dimensionless, ≥ 1).
    pub cost_per_work_unit: f64,
}

/// Computes the exact optimal checkpoint period for a divisible job by
/// minimising `E[T(W, C, D, R, λ)] / W` over `W`.
///
/// The function is strictly convex in `W` (product of the convex
/// `(e^{λ(W+C)} − 1)/W` with positive constants), so golden-section search on
/// a bracketed interval converges to the global optimum.
///
/// # Errors
///
/// Returns an error if `checkpoint ≤ 0`, `lambda ≤ 0`, or `downtime`/`recovery`
/// are negative.
pub fn optimal_period(
    checkpoint: f64,
    downtime: f64,
    recovery: f64,
    lambda: f64,
) -> Result<OptimalPeriod, ExpectationError> {
    let c = ensure_positive("checkpoint", checkpoint)?;
    let d = ensure_non_negative("downtime", downtime)?;
    let r = ensure_non_negative("recovery", recovery)?;
    let l = ensure_positive("lambda", lambda)?;

    let cost = |w: f64| {
        let params = ExecutionParams::new(w, c, d, r, l).expect("validated above");
        expected_time(&params) / w
    };

    // Bracket: the optimum is of the order of the Young period; search a wide
    // window around it.
    let young = young_period(c, l).expect("validated above");
    let lo = (young / 100.0).max(1e-9);
    let hi = (young * 100.0).max(10.0 / l);
    let (period, cost_per_work_unit) = golden_section_min(cost, lo, hi, 1e-9 * hi);
    Ok(OptimalPeriod { period, cost_per_work_unit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approximations::{daly_period, periodic_divisible_makespan};

    #[test]
    fn optimal_period_is_interior_minimum() {
        let opt = optimal_period(120.0, 0.0, 60.0, 1.0 / 86_400.0).unwrap();
        assert!(opt.period > 0.0);
        assert!(opt.cost_per_work_unit > 1.0);
        // Perturbing the period in either direction must not reduce the cost.
        let cost = |w: f64| {
            let p = ExecutionParams::new(w, 120.0, 0.0, 60.0, 1.0 / 86_400.0).unwrap();
            expected_time(&p) / w
        };
        assert!(cost(opt.period * 1.05) >= opt.cost_per_work_unit - 1e-12);
        assert!(cost(opt.period * 0.95) >= opt.cost_per_work_unit - 1e-12);
    }

    #[test]
    fn optimal_period_close_to_young_when_failures_rare() {
        // For very small λC the first-order approximation is excellent.
        let lambda = 1.0 / (365.0 * 86_400.0);
        let opt = optimal_period(60.0, 0.0, 0.0, lambda).unwrap();
        let young = young_period(60.0, lambda).unwrap();
        assert!((opt.period - young).abs() / young < 0.05, "opt {}, young {young}", opt.period);
    }

    #[test]
    fn optimal_period_shrinks_with_failure_rate() {
        let low = optimal_period(120.0, 0.0, 60.0, 1e-6).unwrap();
        let high = optimal_period(120.0, 0.0, 60.0, 1e-4).unwrap();
        assert!(high.period < low.period);
    }

    #[test]
    fn optimal_period_grows_with_checkpoint_cost() {
        let cheap = optimal_period(10.0, 0.0, 60.0, 1e-5).unwrap();
        let pricey = optimal_period(1000.0, 0.0, 60.0, 1e-5).unwrap();
        assert!(pricey.period > cheap.period);
    }

    #[test]
    fn optimal_beats_or_ties_young_and_daly() {
        // Compare the continuous per-unit cost: the exact optimiser must be at
        // least as good as the Young and Daly periods. (The discrete makespan
        // comparison can swing by a fraction of a chunk because of the
        // remainder chunk, so we also check it with a 1% slack.)
        for &lambda in &[1e-6, 1e-5, 1e-4] {
            let opt = optimal_period(300.0, 30.0, 300.0, lambda).unwrap();
            let cost = |w: f64| {
                let p = ExecutionParams::new(w, 300.0, 30.0, 300.0, lambda).unwrap();
                expected_time(&p) / w
            };
            let young = young_period(300.0, lambda).unwrap();
            let daly = daly_period(300.0, lambda).unwrap();
            assert!(opt.cost_per_work_unit <= cost(young) * (1.0 + 1e-9));
            assert!(opt.cost_per_work_unit <= cost(daly) * (1.0 + 1e-9));

            let makespan = |period| {
                periodic_divisible_makespan(1_000_000.0, period, 300.0, 30.0, 300.0, lambda)
                    .unwrap()
            };
            assert!(makespan(opt.period) <= makespan(young) * 1.01);
            assert!(makespan(opt.period) <= makespan(daly) * 1.01);
        }
    }

    #[test]
    fn validation_errors_propagate() {
        assert!(optimal_period(0.0, 0.0, 0.0, 1.0).is_err());
        assert!(optimal_period(1.0, -1.0, 0.0, 1.0).is_err());
    }
}
