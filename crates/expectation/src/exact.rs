//! Proposition 1: the exact expected time to execute a work followed by its
//! checkpoint under Exponential failures.
//!
//! The paper proves (recursively, §3) that
//!
//! ```text
//! E[T(W, C, D, R, λ)] = e^{λR} (1/λ + D) (e^{λ(W+C)} − 1)        (Equation 6)
//! ```
//!
//! with the intermediate quantities
//!
//! ```text
//! E[T_lost] = 1/λ − (W+C)/(e^{λ(W+C)} − 1)                        (Equation 4)
//! E[T_rec]  = D·e^{λR} + (e^{λR} − 1)/λ                           (Equation 5)
//! ```
//!
//! This module implements all three, plus the recursion of Equation 3 as an
//! independent cross-check (`expected_time_via_recursion`), and a
//! numerically-careful variant for very small `λ(W+C)` products.

use crate::error::{ensure_non_negative, ensure_positive, ExpectationError};
use crate::segment_cost::OrderBounds;

/// Parameters of one "work + checkpoint" attempt (Proposition 1).
///
/// All times are in seconds; `lambda` is the *platform* failure rate
/// (`λ = p·λ_proc` in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionParams {
    work: f64,
    checkpoint: f64,
    downtime: f64,
    recovery: f64,
    lambda: f64,
}

impl ExecutionParams {
    /// Creates a parameter set for Proposition 1.
    ///
    /// * `work` — duration `W` of the work to execute (must be > 0);
    /// * `checkpoint` — checkpoint cost `C` (≥ 0; 0 models "no checkpoint"
    ///   segments used when composing schedules);
    /// * `downtime` — downtime `D` (≥ 0, failures cannot strike during it);
    /// * `recovery` — recovery cost `R` (≥ 0, failures can strike during it);
    /// * `lambda` — platform failure rate `λ` (> 0).
    ///
    /// # Errors
    ///
    /// Returns an [`ExpectationError`] if any argument violates the above,
    /// or if the rate fails [`check_rate`] or lets an overflowing
    /// coefficient `e^{λR}(1/λ + D)` meet a `λ·W` that underflows to 0:
    /// exactly the rates a one-position
    /// [`SegmentCostTable`](crate::segment_cost::SegmentCostTable) rejects.
    pub fn new(
        work: f64,
        checkpoint: f64,
        downtime: f64,
        recovery: f64,
        lambda: f64,
    ) -> Result<Self, ExpectationError> {
        let work = ensure_positive("work", work)?;
        let checkpoint = ensure_non_negative("checkpoint", checkpoint)?;
        let downtime = ensure_non_negative("downtime", downtime)?;
        let recovery = ensure_non_negative("recovery", recovery)?;
        // One segment is a one-position order: the same check, on the same
        // bounds, as a one-position segment-cost table.
        let segment = OrderBounds {
            downtime,
            total_work: work,
            max_ckpt: checkpoint,
            max_recovery: recovery,
            min_step: work,
        };
        let lambda = segment.check_rate(lambda)?;
        Ok(ExecutionParams { work, checkpoint, downtime, recovery, lambda })
    }

    /// The work duration `W`.
    pub fn work(&self) -> f64 {
        self.work
    }

    /// The checkpoint cost `C`.
    pub fn checkpoint(&self) -> f64 {
        self.checkpoint
    }

    /// The downtime `D`.
    pub fn downtime(&self) -> f64 {
        self.downtime
    }

    /// The recovery cost `R`.
    pub fn recovery(&self) -> f64 {
        self.recovery
    }

    /// The platform failure rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The failure-free duration `W + C` of one attempt.
    pub fn attempt_duration(&self) -> f64 {
        self.work + self.checkpoint
    }
}

/// The order-independent half of the rate check every constructor that
/// takes a failure rate shares ([`ExecutionParams::new`], the segment-cost
/// tables and `ckpt-core`'s instance builder): `lambda` passes iff it is
/// strictly positive and `1/λ` is finite (below `λ ≈ 5.6·10⁻³⁰⁹` every
/// Proposition 1 coefficient `e^{λR}(1/λ + D)` is +∞ while `λ·W` underflows
/// to 0: ∞·0 = NaN), and `total_work` is finite (prefix sums past
/// `f64::MAX` turn segment works into ∞ − ∞). `O(1)`.
///
/// Where an execution order is known, its tables add one order-dependent
/// condition on top: an overflowing coefficient must never meet a prefix
/// step whose `λ·w` underflows to 0 (see
/// [`LambdaSweep::check_rate`](crate::sweep::LambdaSweep::check_rate)). An
/// infinite expected time is still a number: data whose optimum is +∞
/// passes both.
///
/// # Errors
///
/// [`ExpectationError::NonPositiveParameter`] or
/// [`ExpectationError::NonFiniteParameter`] naming the violated bound.
pub fn check_rate(lambda: f64, total_work: f64) -> Result<f64, ExpectationError> {
    let lambda = ensure_positive("lambda", lambda)?;
    let scale = 1.0 / lambda;
    if !scale.is_finite() {
        return Err(ExpectationError::NonFiniteParameter { name: "1/lambda", value: scale });
    }
    if !total_work.is_finite() {
        return Err(ExpectationError::NonFiniteParameter { name: "total work", value: total_work });
    }
    Ok(lambda)
}

/// Proposition 1 (Equation 6): the expected time to successfully execute `W`
/// seconds of work followed by a checkpoint of `C` seconds.
///
/// Uses `exp_m1` so that the result stays accurate when `λ(W+C)` is tiny
/// (e.g. a one-minute task on a platform with a ten-year MTBF).
pub fn expected_time(params: &ExecutionParams) -> f64 {
    let lambda = params.lambda;
    (lambda * params.recovery).exp()
        * (1.0 / lambda + params.downtime)
        * (lambda * params.attempt_duration()).exp_m1()
}

/// Equation 4: the expected time lost to an attempt that fails, i.e.
/// `E[T_lost] = 1/λ − (W+C)/(e^{λ(W+C)} − 1)`,
/// the expectation of the failure time conditioned on striking within the
/// attempt of duration `W + C`.
pub fn expected_lost(params: &ExecutionParams) -> f64 {
    let lambda = params.lambda;
    let attempt = params.attempt_duration();
    1.0 / lambda - attempt / (lambda * attempt).exp_m1()
}

/// Equation 5: the expected time to perform downtime and recovery, accounting
/// for failures striking during the recovery itself:
/// `E[T_rec] = D·e^{λR} + (e^{λR} − 1)/λ`.
pub fn expected_recovery(params: &ExecutionParams) -> f64 {
    let lambda = params.lambda;
    params.downtime * (lambda * params.recovery).exp()
        + (lambda * params.recovery).exp_m1() / lambda
}

/// Equation 3 assembled from its parts — an independent way of computing the
/// Proposition 1 value, used to cross-check the closed form:
/// `E[T] = W + C + (e^{λ(W+C)} − 1)(E[T_lost] + E[T_rec])`.
pub fn expected_time_via_recursion(params: &ExecutionParams) -> f64 {
    let lambda = params.lambda;
    let attempt = params.attempt_duration();
    attempt + (lambda * attempt).exp_m1() * (expected_lost(params) + expected_recovery(params))
}

/// The expected number of failures incurred before the attempt finally
/// succeeds: `e^{λ(W+C)} − 1` failures on average for the work/checkpoint
/// phase alone (each failed attempt also restarts recovery, whose own failures
/// are accounted for inside `E[T_rec]`).
pub fn expected_failure_count(params: &ExecutionParams) -> f64 {
    (params.lambda * params.attempt_duration()).exp_m1()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params(w: f64, c: f64, d: f64, r: f64, lambda: f64) -> ExecutionParams {
        ExecutionParams::new(w, c, d, r, lambda).unwrap()
    }

    #[test]
    fn construction_validates_arguments() {
        assert!(ExecutionParams::new(1.0, 0.0, 0.0, 0.0, 1.0).is_ok());
        assert!(ExecutionParams::new(0.0, 1.0, 0.0, 0.0, 1.0).is_err());
        assert!(ExecutionParams::new(1.0, -1.0, 0.0, 0.0, 1.0).is_err());
        assert!(ExecutionParams::new(1.0, 0.0, -1.0, 0.0, 1.0).is_err());
        assert!(ExecutionParams::new(1.0, 0.0, 0.0, -1.0, 1.0).is_err());
        assert!(ExecutionParams::new(1.0, 0.0, 0.0, 0.0, 0.0).is_err());
        assert!(ExecutionParams::new(f64::NAN, 0.0, 0.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn rates_whose_closed_form_is_not_a_number_are_rejected() {
        // 1/λ overflows while λ·W underflows: the closed form would be ∞·0.
        assert!(ExecutionParams::new(0.1, 0.0, 0.0, 0.0, 5e-324).is_err());
        assert!(ExecutionParams::new(0.1, 0.0, 0.0, 0.0, 1e-300).is_ok());
        // An overflowing coefficient is fine while the exponent is positive…
        let huge = params(0.1, 0.0, 0.0, 1e300, 1e-3);
        assert_eq!(expected_time(&huge), f64::INFINITY);
        // …but not once λ·W underflows to 0.
        assert!(ExecutionParams::new(5e-324, 0.0, 0.0, 1e300, 1e-3).is_err());
        assert!(check_rate(1e-3, f64::INFINITY).is_err());
        assert!(check_rate(5e-324, 1.0).is_err());
        assert_eq!(check_rate(1e-3, 1.0), Ok(1e-3));
        // A segment accepts exactly what its one-position table accepts.
        let edges = [0.0, 5e-324, 1e-300, 0.1, 1e300, f64::MAX];
        for k in 0..edges.len().pow(5) {
            let [w, c, d, r, lambda]: [f64; 5] =
                std::array::from_fn(|i| edges[k / edges.len().pow(i as u32) % edges.len()]);
            let table = crate::segment_cost::SegmentCostTable::new(lambda, d, &[w], &[c], &[r]);
            assert_eq!(
                ExecutionParams::new(w, c, d, r, lambda).is_ok(),
                table.is_ok(),
                "W={w} C={c} D={d} R={r} λ={lambda}"
            );
        }
    }

    #[test]
    fn accessors_roundtrip() {
        let p = params(10.0, 2.0, 3.0, 4.0, 0.5);
        assert_eq!(p.work(), 10.0);
        assert_eq!(p.checkpoint(), 2.0);
        assert_eq!(p.downtime(), 3.0);
        assert_eq!(p.recovery(), 4.0);
        assert_eq!(p.lambda(), 0.5);
        assert_eq!(p.attempt_duration(), 12.0);
    }

    #[test]
    fn closed_form_matches_recursion_assembly() {
        // Equation 6 must equal Equation 3 assembled from Equations 4 and 5.
        for &(w, c, d, r, l) in &[
            (100.0, 10.0, 0.0, 10.0, 0.001),
            (3600.0, 600.0, 60.0, 300.0, 1.0 / 86_400.0),
            (10.0, 1.0, 5.0, 2.0, 0.05),
            (1.0, 0.0, 0.0, 0.0, 1.0),
        ] {
            let p = params(w, c, d, r, l);
            let closed = expected_time(&p);
            let recursive = expected_time_via_recursion(&p);
            assert!(
                (closed - recursive).abs() / closed < 1e-12,
                "mismatch for {p:?}: {closed} vs {recursive}"
            );
        }
    }

    #[test]
    fn reduces_to_failure_free_time_when_lambda_vanishes() {
        // As λ → 0, E[T] → W + C.
        let p = params(3600.0, 120.0, 60.0, 60.0, 1e-12);
        let e = expected_time(&p);
        assert!((e - 3720.0).abs() < 1e-3, "E = {e}");
    }

    #[test]
    fn no_checkpoint_no_recovery_special_case() {
        // With C = R = D = 0 the formula is (e^{λW} − 1)/λ, the classical
        // expected completion time of a restartable job.
        let p = params(100.0, 0.0, 0.0, 0.0, 0.01);
        let expected = ((0.01f64 * 100.0).exp() - 1.0) / 0.01;
        assert!((expected_time(&p) - expected).abs() < 1e-9);
    }

    #[test]
    fn expectation_grows_with_each_parameter() {
        let base = params(100.0, 10.0, 5.0, 10.0, 0.01);
        let e = expected_time(&base);
        assert!(expected_time(&params(200.0, 10.0, 5.0, 10.0, 0.01)) > e);
        assert!(expected_time(&params(100.0, 20.0, 5.0, 10.0, 0.01)) > e);
        assert!(expected_time(&params(100.0, 10.0, 9.0, 10.0, 0.01)) > e);
        assert!(expected_time(&params(100.0, 10.0, 5.0, 20.0, 0.01)) > e);
        assert!(expected_time(&params(100.0, 10.0, 5.0, 10.0, 0.02)) > e);
    }

    #[test]
    fn expected_lost_is_below_attempt_duration_and_below_mtbf() {
        let p = params(500.0, 50.0, 0.0, 10.0, 0.002);
        let lost = expected_lost(&p);
        assert!(lost > 0.0);
        assert!(lost < p.attempt_duration());
        assert!(lost < 1.0 / p.lambda());
    }

    #[test]
    fn expected_lost_tends_to_half_attempt_for_small_lambda() {
        // For λ(W+C) → 0 the conditional failure time tends to (W+C)/2.
        let p = params(1000.0, 0.0, 0.0, 0.0, 1e-9);
        let lost = expected_lost(&p);
        assert!((lost - 500.0).abs() < 0.01, "lost = {lost}");
    }

    #[test]
    fn expected_recovery_matches_paper_equation_5() {
        let p = params(1.0, 0.0, 30.0, 120.0, 0.001);
        let expected = 30.0 * (0.001f64 * 120.0).exp() + ((0.001f64 * 120.0).exp() - 1.0) / 0.001;
        assert!((expected_recovery(&p) - expected).abs() < 1e-9);
    }

    #[test]
    fn expected_recovery_is_zero_without_downtime_and_recovery() {
        let p = params(1.0, 0.0, 0.0, 0.0, 0.5);
        assert_eq!(expected_recovery(&p), 0.0);
    }

    #[test]
    fn success_probability_and_failure_count_are_consistent() {
        let p = params(100.0, 10.0, 0.0, 0.0, 0.01);
        // Each attempt succeeds with probability e^{−λ(W+C)}.
        let ps = (-p.lambda() * p.attempt_duration()).exp();
        let failures = expected_failure_count(&p);
        // E[#failures] = (1 - p)/p for a geometric number of failed attempts.
        assert!((failures - (1.0 - ps) / ps).abs() < 1e-9);
    }

    #[test]
    fn np_reduction_parameters_give_expected_value() {
        // The 3-PARTITION reduction of Proposition 2 chooses λ = 1/(2T) and
        // C = (ln 2 − 1/2)/λ so that e^{λ(T+C)} = 2. Check the identity.
        let t = 750.0;
        let lambda = 1.0 / (2.0 * t);
        let c = (std::f64::consts::LN_2 - 0.5) / lambda;
        let p = params(t, c, 0.0, c, lambda);
        let factor = (lambda * (t + c)).exp();
        assert!((factor - 2.0).abs() < 1e-12);
        // And the per-subset expected time is e^{λC}(e^{λ(T+C)} − 1)/λ.
        let expected = (lambda * c).exp() / lambda * (factor - 1.0);
        assert!((expected_time(&p) - expected).abs() / expected < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_closed_form_equals_recursion(
            w in 1.0f64..1e4,
            c in 0.0f64..1e3,
            d in 0.0f64..1e3,
            r in 0.0f64..1e3,
            lambda in 1e-8f64..1e-4,
        ) {
            let p = params(w, c, d, r, lambda);
            let closed = expected_time(&p);
            let recursive = expected_time_via_recursion(&p);
            prop_assert!((closed - recursive).abs() <= 1e-9 * closed.abs().max(1.0));
        }

        #[test]
        fn prop_expectation_exceeds_failure_free_time(
            w in 1.0f64..1e5,
            c in 0.0f64..1e4,
            d in 0.0f64..1e3,
            r in 0.0f64..1e4,
            lambda in 1e-8f64..1e-2,
        ) {
            let p = params(w, c, d, r, lambda);
            prop_assert!(expected_time(&p) >= p.attempt_duration());
        }

        #[test]
        fn prop_monotone_in_work(
            w in 1.0f64..1e4,
            extra in 1.0f64..1e4,
            c in 0.0f64..1e3,
            lambda in 1e-7f64..1e-2,
        ) {
            let p1 = params(w, c, 0.0, 0.0, lambda);
            let p2 = params(w + extra, c, 0.0, 0.0, lambda);
            prop_assert!(expected_time(&p2) > expected_time(&p1));
        }
    }
}
