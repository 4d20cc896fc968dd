//! The Exponential failure law — the paper's main model (§2, "Poisson process").

use crate::distribution::{DistributionKind, FailureDistribution};
use crate::error::{ensure_positive, FailureModelError};
use crate::rng::RandomSource;

/// Exponential distribution with rate `λ` (failures per second).
///
/// This is the law assumed by the paper's main results: per-processor failures
/// arrive with rate `λ_proc` and the platform-level process is Exponential
/// with `λ = p·λ_proc` (§2). Its memorylessness is what makes the closed-form
/// formula of Proposition 1 possible.
///
/// # Example
///
/// ```rust
/// use ckpt_failure::{Exponential, FailureDistribution};
///
/// let exp = Exponential::new(1.0 / 3600.0)?; // one failure per hour on average
/// assert!((exp.mean() - 3600.0).abs() < 1e-9);
/// assert!((exp.cdf(0.0)).abs() < 1e-12);
/// # Ok::<(), ckpt_failure::FailureModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an Exponential law with the given rate `λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError::NonPositiveParameter`] if `rate ≤ 0` or is
    /// not finite.
    pub fn new(rate: f64) -> Result<Self, FailureModelError> {
        Ok(Exponential { rate: ensure_positive("rate", rate)? })
    }

    /// Creates an Exponential law from its mean time between failures.
    ///
    /// # Errors
    ///
    /// Returns an error if `mtbf ≤ 0` or is not finite.
    pub fn from_mtbf(mtbf: f64) -> Result<Self, FailureModelError> {
        let mtbf = ensure_positive("mtbf", mtbf)?;
        Exponential::new(1.0 / mtbf)
    }

    /// The rate `λ` of the law.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl FailureDistribution for Exponential {
    fn kind(&self) -> DistributionKind {
        DistributionKind::Exponential
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> f64 {
        // Inverse transform: -ln(1 - U)/λ, using an open-interval uniform so
        // the logarithm is always finite.
        let u = rng.next_open_f64();
        -u.ln() / self.rate
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.rate * x).exp()
        }
    }

    fn hazard(&self, _x: f64) -> f64 {
        self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1), got {p}");
        -(-p).ln_1p() / self.rate
    }

    fn conditional_survival(&self, _elapsed: f64, x: f64) -> f64 {
        // Memorylessness.
        self.survival(x)
    }

    fn sample_remaining(&self, _elapsed: f64, rng: &mut dyn RandomSource) -> f64 {
        self.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg64;
    use proptest::prelude::*;

    #[test]
    fn construction_validates_rate() {
        assert!(Exponential::new(1.0).is_ok());
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn mtbf_roundtrip() {
        let exp = Exponential::from_mtbf(500.0).unwrap();
        assert!((exp.mean() - 500.0).abs() < 1e-9);
        assert!((exp.rate() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn cdf_pdf_survival_consistency() {
        let exp = Exponential::new(0.3).unwrap();
        assert_eq!(exp.cdf(-1.0), 0.0);
        assert_eq!(exp.pdf(-1.0), 0.0);
        assert_eq!(exp.survival(-1.0), 1.0);
        assert!((exp.cdf(0.0)).abs() < 1e-12);
        for &x in &[0.1, 1.0, 5.0, 20.0] {
            assert!((exp.cdf(x) + exp.survival(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hazard_is_constant() {
        let exp = Exponential::new(0.7).unwrap();
        for &x in &[0.0, 1.0, 10.0, 100.0] {
            assert!((exp.hazard(x) - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let exp = Exponential::new(2.0).unwrap();
        for &p in &[0.01, 0.25, 0.5, 0.9, 0.999] {
            let x = exp.quantile(p);
            assert!((exp.cdf(x) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn median_is_ln2_over_rate() {
        let exp = Exponential::new(0.5).unwrap();
        let median = exp.quantile(0.5);
        assert!((median - std::f64::consts::LN_2 / 0.5).abs() < 1e-10);
    }

    #[test]
    fn sample_mean_converges_to_mtbf() {
        let exp = Exponential::from_mtbf(100.0).unwrap();
        let mut rng = Pcg64::seed_from_u64(42);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 1.5, "sample mean = {mean}");
    }

    #[test]
    fn sample_remaining_ignores_elapsed_time() {
        let exp = Exponential::new(0.01).unwrap();
        let mut rng_a = Pcg64::seed_from_u64(7);
        let mut rng_b = Pcg64::seed_from_u64(7);
        let fresh = exp.sample_remaining(0.0, &mut rng_a);
        let conditioned = exp.sample_remaining(1234.5, &mut rng_b);
        assert!((fresh - conditioned).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_samples_are_non_negative(seed in any::<u64>(), rate in 1e-6f64..1e3) {
            let exp = Exponential::new(rate).unwrap();
            let mut rng = Pcg64::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(exp.sample(&mut rng) >= 0.0);
            }
        }

        #[test]
        fn prop_cdf_is_monotone(rate in 1e-6f64..1e3, a in 0.0f64..1e4, b in 0.0f64..1e4) {
            let exp = Exponential::new(rate).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(exp.cdf(lo) <= exp.cdf(hi) + 1e-12);
        }

        #[test]
        fn prop_quantile_cdf_roundtrip(rate in 1e-4f64..1e2, p in 1e-6f64..0.999_999) {
            let exp = Exponential::new(rate).unwrap();
            let x = exp.quantile(p);
            prop_assert!((exp.cdf(x) - p).abs() < 1e-8);
        }
    }
}
