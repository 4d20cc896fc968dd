//! Classical approximations and the inaccurate comparator formula.
//!
//! The paper's §3 positions Proposition 1 against the related work:
//!
//! * **Young (1974)** gives the first-order optimal checkpoint *period* for a
//!   divisible job, `T_Young = √(2C/λ)`;
//! * **Daly (2004)** refines it to a higher-order estimate and also gives
//!   first/second-order approximations of the expected execution time;
//! * **Bouguerra et al. (2010)** give a formula for the expected time that the
//!   paper shows to be inaccurate because it charges a recovery *before the
//!   first attempt* as well.
//!
//! All three are implemented here as baselines for experiment E1.

use crate::error::{ensure_non_negative, ensure_positive, ExpectationError};
use crate::exact::ExecutionParams;

/// Young's first-order optimal checkpoint period `√(2C/λ)` for a divisible
/// job with checkpoint cost `C` under Exponential failures of rate `λ`.
///
/// # Errors
///
/// Returns an error if `checkpoint ≤ 0` or `lambda ≤ 0`.
pub fn young_period(checkpoint: f64, lambda: f64) -> Result<f64, ExpectationError> {
    let c = ensure_positive("checkpoint", checkpoint)?;
    let l = ensure_positive("lambda", lambda)?;
    Ok((2.0 * c / l).sqrt())
}

/// Daly's higher-order optimal checkpoint period.
///
/// For `C < 2M` (with `M = 1/λ` the platform MTBF):
///
/// ```text
/// T_Daly = √(2CM) · [1 + (1/3)·√(C/(2M)) + (1/9)·(C/(2M))] − C
/// ```
///
/// and `T_Daly = M` otherwise (Daly 2004, Equation 37).
///
/// # Errors
///
/// Returns an error if `checkpoint ≤ 0` or `lambda ≤ 0`.
pub fn daly_period(checkpoint: f64, lambda: f64) -> Result<f64, ExpectationError> {
    let c = ensure_positive("checkpoint", checkpoint)?;
    let l = ensure_positive("lambda", lambda)?;
    let m = 1.0 / l;
    if c < 2.0 * m {
        let ratio = c / (2.0 * m);
        Ok((2.0 * c * m).sqrt() * (1.0 + ratio.sqrt() / 3.0 + ratio / 9.0) - c)
    } else {
        Ok(m)
    }
}

/// First-order (small `λ(W+C)`) approximation of the expected execution time:
///
/// ```text
/// E[T] ≈ (W + C) · (1 + λ·(W+C)/2) + λ·(W+C)·(D + R)
/// ```
///
/// i.e. the failure-free time plus, for the expected `λ(W+C)` failures, half an
/// attempt of lost work and one downtime + recovery each. Accurate when
/// failures are rare within one attempt; experiment E1 quantifies the error
/// against Proposition 1.
pub fn first_order_expected_time(params: &ExecutionParams) -> f64 {
    let attempt = params.attempt_duration();
    let expected_failures = params.lambda() * attempt;
    attempt * (1.0 + expected_failures / 2.0)
        + expected_failures * (params.downtime() + params.recovery())
}

/// The Bouguerra et al. (2010) formula, as characterised by the paper:
/// a recovery is (incorrectly) charged before *every* attempt, including the
/// first, which amounts to treating the attempt duration as `R + W + C`:
///
/// ```text
/// E_Bouguerra[T] = (1/λ + D) · (e^{λ(R+W+C)} − 1)
/// ```
///
/// The paper's Proposition 1 shows the correct value is
/// `e^{λR} (1/λ + D)(e^{λ(W+C)} − 1)`, which is strictly smaller whenever
/// `R > 0`. Exposed as a baseline so experiment E1 can exhibit the bias.
pub fn bouguerra_expected_time(params: &ExecutionParams) -> f64 {
    let lambda = params.lambda();
    (1.0 / lambda + params.downtime())
        * (lambda * (params.recovery() + params.attempt_duration())).exp_m1()
}

/// Expected makespan of a divisible job of total work `w_total` checkpointed
/// every `period` seconds (the classical periodic-checkpointing estimate used
/// with Young/Daly periods), evaluated with the exact Proposition 1 formula
/// applied to each of the `ceil(w_total / period)` chunks.
///
/// # Errors
///
/// Returns an error if any parameter is invalid (`w_total ≤ 0`, `period ≤ 0`,
/// `checkpoint < 0`, `downtime < 0`, `recovery < 0`, `lambda ≤ 0`).
pub fn periodic_divisible_makespan(
    w_total: f64,
    period: f64,
    checkpoint: f64,
    downtime: f64,
    recovery: f64,
    lambda: f64,
) -> Result<f64, ExpectationError> {
    let w_total = ensure_positive("w_total", w_total)?;
    let period = ensure_positive("period", period)?;
    ensure_non_negative("checkpoint", checkpoint)?;
    ensure_non_negative("downtime", downtime)?;
    ensure_non_negative("recovery", recovery)?;
    ensure_positive("lambda", lambda)?;
    let full_chunks = (w_total / period).floor() as u64;
    let remainder = w_total - full_chunks as f64 * period;
    let mut total = 0.0;
    if full_chunks > 0 {
        let chunk = ExecutionParams::new(period, checkpoint, downtime, recovery, lambda)?;
        total += full_chunks as f64 * crate::exact::expected_time(&chunk);
    }
    if remainder > 1e-12 {
        let last = ExecutionParams::new(remainder, checkpoint, downtime, recovery, lambda)?;
        total += crate::exact::expected_time(&last);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::expected_time;

    fn params(w: f64, c: f64, d: f64, r: f64, lambda: f64) -> ExecutionParams {
        ExecutionParams::new(w, c, d, r, lambda).unwrap()
    }

    #[test]
    fn young_period_formula() {
        let t = young_period(600.0, 1.0 / 86_400.0).unwrap();
        assert!((t - (2.0 * 600.0 * 86_400.0f64).sqrt()).abs() < 1e-9);
        assert!(young_period(0.0, 1.0).is_err());
        assert!(young_period(1.0, 0.0).is_err());
    }

    #[test]
    fn daly_period_close_to_young_for_small_checkpoint() {
        let lambda = 1.0 / 86_400.0;
        let young = young_period(60.0, lambda).unwrap();
        let daly = daly_period(60.0, lambda).unwrap();
        // Daly subtracts C and adds higher-order terms; stays within ~10%.
        assert!((daly - young).abs() / young < 0.1, "young {young}, daly {daly}");
    }

    #[test]
    fn daly_period_saturates_at_mtbf_for_huge_checkpoint() {
        let lambda = 1.0 / 100.0;
        let daly = daly_period(1000.0, lambda).unwrap();
        assert_eq!(daly, 100.0);
    }

    #[test]
    fn first_order_matches_exact_for_rare_failures() {
        let p = params(3600.0, 300.0, 60.0, 300.0, 1.0 / (30.0 * 86_400.0));
        let exact = expected_time(&p);
        let approx = first_order_expected_time(&p);
        assert!((exact - approx).abs() / exact < 0.01, "exact {exact}, approx {approx}");
    }

    #[test]
    fn first_order_underestimates_for_frequent_failures() {
        let p = params(3600.0, 300.0, 60.0, 300.0, 1.0 / 3600.0);
        let exact = expected_time(&p);
        let approx = first_order_expected_time(&p);
        assert!(approx < exact);
    }

    #[test]
    fn bouguerra_overestimates_whenever_recovery_is_positive() {
        let p = params(3600.0, 300.0, 60.0, 300.0, 1.0 / 86_400.0);
        let exact = expected_time(&p);
        let boug = bouguerra_expected_time(&p);
        assert!(boug > exact);
        // The bias is (1/λ + D)(e^{λR} − 1).
        let bias = (1.0 / p.lambda() + p.downtime()) * (p.lambda() * p.recovery()).exp_m1();
        assert!((boug - exact - bias).abs() < 1e-6);
    }

    #[test]
    fn bouguerra_matches_exact_when_recovery_is_zero() {
        let p = params(3600.0, 300.0, 60.0, 0.0, 1.0 / 86_400.0);
        assert!((bouguerra_expected_time(&p) - expected_time(&p)).abs() < 1e-9);
    }

    #[test]
    fn periodic_makespan_splits_into_chunks() {
        // 10 000 s of work, period 2 500 s -> 4 equal chunks.
        let lambda = 1e-5;
        let per_chunk = expected_time(&params(2500.0, 60.0, 0.0, 30.0, lambda));
        let total = periodic_divisible_makespan(10_000.0, 2500.0, 60.0, 0.0, 30.0, lambda).unwrap();
        assert!((total - 4.0 * per_chunk).abs() < 1e-9);
    }

    #[test]
    fn periodic_makespan_handles_remainder_chunk() {
        let lambda = 1e-5;
        let total = periodic_divisible_makespan(10_500.0, 2500.0, 60.0, 0.0, 30.0, lambda).unwrap();
        let four = 4.0 * expected_time(&params(2500.0, 60.0, 0.0, 30.0, lambda));
        let last = expected_time(&params(500.0, 60.0, 0.0, 30.0, lambda));
        assert!((total - (four + last)).abs() < 1e-9);
    }

    #[test]
    fn periodic_makespan_validates_inputs() {
        assert!(periodic_divisible_makespan(0.0, 1.0, 1.0, 0.0, 0.0, 1.0).is_err());
        assert!(periodic_divisible_makespan(1.0, 0.0, 1.0, 0.0, 0.0, 1.0).is_err());
        assert!(periodic_divisible_makespan(1.0, 1.0, -1.0, 0.0, 0.0, 1.0).is_err());
        assert!(periodic_divisible_makespan(1.0, 1.0, 1.0, 0.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn young_period_is_near_optimal_for_divisible_jobs() {
        // Sanity check: the Young period should be close to the best period
        // found by brute-force sweep for a divisible job.
        let lambda: f64 = 1.0 / 86_400.0;
        let c = 120.0;
        let w_total = 1_000_000.0;
        let young = young_period(c, lambda).unwrap();
        let makespan_at = |period: f64| {
            periodic_divisible_makespan(w_total, period, c, 0.0, 60.0, lambda).unwrap()
        };
        let m_young = makespan_at(young);
        // Sweep a wide range of periods; none should beat Young by more than 2%.
        let mut best = f64::INFINITY;
        let mut period = young / 10.0;
        while period < young * 10.0 {
            best = best.min(makespan_at(period));
            period *= 1.05;
        }
        assert!(m_young <= best * 1.02, "young {m_young}, best {best}");
    }
}
