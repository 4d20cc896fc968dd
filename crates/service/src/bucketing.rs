//! Rate quantisation: turning a continuum of client λ estimates into a
//! small set of cache buckets.
//!
//! Failure-rate estimates arrive with at best one significant digit of
//! confidence (they come from MTBF telemetry), so serving the *exact*
//! optimum for a nearby canonical rate is statistically indistinguishable
//! from serving the optimum of the noisy estimate — and it turns the plan
//! cache's key space from `f64` bit patterns into a few dozen buckets. The
//! quantisation is honest: the response carries both the requested and the
//! effective rate, and the served plan is the bit-exact optimum *for the
//! effective rate* (the differential suites verify it against a cold solve
//! at that rate).

use ckpt_expectation::sweep::{log_lambda_grid, nearest_rate_bucket};
use ckpt_expectation::ExpectationError;

use crate::error::ServiceError;

/// The planner's rate-quantisation policy.
#[derive(Debug, Clone, PartialEq)]
pub enum RateBucketing {
    /// No quantisation: every distinct `f64` rate is its own bucket
    /// (keyed by bit pattern) and the effective rate is the requested one.
    Exact,
    /// Quantise onto a fixed ascending grid of rates: a request's bucket is
    /// the grid rate nearest in **log space**
    /// ([`nearest_rate_bucket`]); rates outside the grid clamp to its end
    /// buckets. Build one with [`RateBucketing::log_grid`] or
    /// [`RateBucketing::grid`].
    ///
    /// The planner never serves a grid rate that fails the request's order
    /// ([`LambdaSweep::check_rate`](ckpt_expectation::sweep::LambdaSweep::check_rate):
    /// on degenerate orders, whose overflowing coefficients meet vanishing
    /// exponents at some rates). Such a request is planned at its own rate,
    /// as under [`Exact`](RateBucketing::Exact), and its response's
    /// `effective_lambda` says so.
    Grid(Vec<f64>),
}

impl RateBucketing {
    /// A logarithmic grid of `points` rates spanning
    /// `[lambda_min, lambda_max]` — the common sensitivity-sweep layout
    /// ([`log_lambda_grid`]).
    ///
    /// # Errors
    ///
    /// Forwards [`log_lambda_grid`]'s validation
    /// (positive finite bounds, `lambda_min < lambda_max`, `points ≥ 2`).
    pub fn log_grid(
        lambda_min: f64,
        lambda_max: f64,
        points: usize,
    ) -> Result<Self, ExpectationError> {
        Ok(RateBucketing::Grid(log_lambda_grid(lambda_min, lambda_max, points)?))
    }

    /// An explicit grid. Must be non-empty, strictly increasing and
    /// strictly positive (finite).
    ///
    /// # Errors
    ///
    /// [`ServiceError::EmptyGrid`] or [`ServiceError::UnsortedGrid`].
    pub fn grid(rates: Vec<f64>) -> Result<Self, ServiceError> {
        if rates.is_empty() {
            return Err(ServiceError::EmptyGrid);
        }
        let mut previous = 0.0;
        for (index, &rate) in rates.iter().enumerate() {
            if !rate.is_finite() || rate <= previous {
                return Err(ServiceError::UnsortedGrid { index });
            }
            previous = rate;
        }
        Ok(RateBucketing::Grid(rates))
    }

    /// Quantises a (validated, strictly positive finite) rate: the bucket's
    /// cache key and the effective rate the plan will be exactly optimal
    /// for.
    pub fn bucket(&self, lambda: f64) -> (u64, f64) {
        match self {
            RateBucketing::Exact => (lambda.to_bits(), lambda),
            RateBucketing::Grid(rates) => {
                let index = nearest_rate_bucket(rates, lambda);
                (index as u64, rates[index])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_by_bit_pattern() {
        let (key, eff) = RateBucketing::Exact.bucket(1e-4);
        assert_eq!(key, 1e-4f64.to_bits());
        assert_eq!(eff, 1e-4);
    }

    #[test]
    fn grid_quantises_and_clamps() {
        let bucketing = RateBucketing::grid(vec![1e-5, 1e-4, 1e-3]).expect("valid grid");
        assert_eq!(bucketing.bucket(1e-4), (1, 1e-4));
        // Log-space midpoint rounds to the nearer decade either side.
        assert_eq!(bucketing.bucket(2e-5), (0, 1e-5));
        assert_eq!(bucketing.bucket(5e-4), (2, 1e-3));
        // Out-of-range rates clamp to the end buckets.
        assert_eq!(bucketing.bucket(1e-9), (0, 1e-5));
        assert_eq!(bucketing.bucket(1.0), (2, 1e-3));
    }

    #[test]
    fn grid_validation() {
        assert_eq!(RateBucketing::grid(vec![]), Err(ServiceError::EmptyGrid));
        assert_eq!(
            RateBucketing::grid(vec![1e-4, 1e-4]),
            Err(ServiceError::UnsortedGrid { index: 1 })
        );
        assert_eq!(
            RateBucketing::grid(vec![0.0, 1e-4]),
            Err(ServiceError::UnsortedGrid { index: 0 })
        );
        assert!(RateBucketing::log_grid(1e-6, 1e-3, 13).is_ok());
        assert!(RateBucketing::log_grid(1e-3, 1e-6, 13).is_err());
    }
}
