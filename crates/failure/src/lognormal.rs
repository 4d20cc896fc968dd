//! The log-normal failure law — the second non-memoryless law cited by the
//! paper's §6 extension (Heien et al. SC'11 fit log-normal inter-arrival
//! times to production failure logs).

use crate::distribution::{DistributionKind, FailureDistribution};
use crate::error::{ensure_positive, FailureModelError};
use crate::math::{std_normal_cdf, std_normal_quantile};
use crate::rng::RandomSource;

/// Log-normal distribution: `ln X ~ Normal(μ, σ²)`.
///
/// # Example
///
/// ```rust
/// use ckpt_failure::{LogNormal, FailureDistribution};
///
/// // Median of e^8 ≈ 2981 s, moderate dispersion.
/// let ln = LogNormal::new(8.0, 0.5)?;
/// assert!((ln.cdf(ln.quantile(0.3)) - 0.3).abs() < 1e-6);
/// # Ok::<(), ckpt_failure::FailureModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal law with location `μ` (any finite value) and
    /// scale `σ > 0` of the underlying normal.
    ///
    /// # Errors
    ///
    /// Returns an error if `σ ≤ 0`, or if either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, FailureModelError> {
        if !mu.is_finite() {
            return Err(FailureModelError::NonFiniteParameter { name: "mu", value: mu });
        }
        Ok(LogNormal { mu, sigma: ensure_positive("sigma", sigma)? })
    }

    /// Creates a log-normal law with the given **mean** and `σ`.
    ///
    /// Solves `mean = exp(μ + σ²/2)` for `μ`, which is the natural way to
    /// compare against an Exponential law with the same MTBF.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean ≤ 0` or `σ ≤ 0`.
    pub fn with_mean(mean: f64, sigma: f64) -> Result<Self, FailureModelError> {
        let mean = ensure_positive("mean", mean)?;
        let sigma = ensure_positive("sigma", sigma)?;
        LogNormal::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }

    /// The median `e^μ`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl FailureDistribution for LogNormal {
    fn kind(&self) -> DistributionKind {
        DistributionKind::LogNormal
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> f64 {
        // Box–Muller on two open-interval uniforms, then exponentiate.
        let u1 = rng.next_open_f64();
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1), got {p}");
        (self.mu + self.sigma * std_normal_quantile(p)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg64;
    use proptest::prelude::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(LogNormal::new(0.0, 1.0).is_ok());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn with_mean_hits_requested_mean() {
        let ln = LogNormal::with_mean(1000.0, 0.8).unwrap();
        assert!((ln.mean() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn median_is_exp_mu() {
        let ln = LogNormal::new(3.0, 0.5).unwrap();
        assert!((ln.median() - 3.0f64.exp()).abs() < 1e-9);
        assert!((ln.quantile(0.5) - ln.median()).abs() / ln.median() < 1e-6);
    }

    #[test]
    fn cdf_is_zero_at_and_below_zero() {
        let ln = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(ln.cdf(0.0), 0.0);
        assert_eq!(ln.cdf(-5.0), 0.0);
        assert_eq!(ln.pdf(-5.0), 0.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let ln = LogNormal::new(5.0, 1.2).unwrap();
        for &p in &[0.05, 0.2, 0.5, 0.8, 0.95] {
            assert!((ln.cdf(ln.quantile(p)) - p).abs() < 1e-5);
        }
    }

    #[test]
    fn sample_mean_converges() {
        let ln = LogNormal::with_mean(500.0, 0.6).unwrap();
        let mut rng = Pcg64::seed_from_u64(99);
        let n = 300_000;
        let mean: f64 = (0..n).map(|_| ln.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 500.0).abs() < 6.0, "sample mean = {mean}");
    }

    #[test]
    fn sample_median_converges() {
        let ln = LogNormal::new(6.0, 1.0).unwrap();
        let mut rng = Pcg64::seed_from_u64(123);
        let n = 100_000;
        let mut xs: Vec<f64> = (0..n).map(|_| ln.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        let expected = ln.median();
        assert!((median - expected).abs() / expected < 0.03, "median {median} vs {expected}");
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(mu in -2.0f64..10.0, sigma in 0.1f64..2.5, a in 0.0f64..1e5, b in 0.0f64..1e5) {
            let ln = LogNormal::new(mu, sigma).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(ln.cdf(lo) <= ln.cdf(hi) + 1e-12);
        }

        #[test]
        fn prop_samples_positive(seed in any::<u64>(), mu in -2.0f64..8.0, sigma in 0.1f64..2.0) {
            let ln = LogNormal::new(mu, sigma).unwrap();
            let mut rng = Pcg64::seed_from_u64(seed);
            for _ in 0..16 {
                prop_assert!(ln.sample(&mut rng) > 0.0);
            }
        }
    }
}
