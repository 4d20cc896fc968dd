//! The Weibull failure law — used by the §6 extension to non-memoryless
//! failures, and the law most commonly fitted to real HPC failure logs
//! (Schroeder & Gibson, Heien et al., cited by the paper).

use crate::distribution::{DistributionKind, FailureDistribution};
use crate::error::{ensure_positive, FailureModelError};
use crate::math::gamma;
use crate::rng::RandomSource;

/// Weibull distribution with shape `k` and scale `η` (both > 0).
///
/// * `k < 1`: decreasing hazard rate ("infant mortality"), the regime observed
///   in production failure logs (typically `k ∈ [0.5, 0.8]`);
/// * `k = 1`: reduces exactly to `Exponential(1/η)`;
/// * `k > 1`: increasing hazard rate (ageing).
///
/// # Example
///
/// ```rust
/// use ckpt_failure::{Weibull, FailureDistribution, DistributionKind};
///
/// let w = Weibull::new(0.7, 10_000.0)?;
/// assert_eq!(w.kind(), DistributionKind::Weibull);
/// // Decreasing hazard: early failures are more likely than late ones.
/// assert!(w.hazard(10.0) > w.hazard(10_000.0));
/// # Ok::<(), ckpt_failure::FailureModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull law with shape `k > 0` and scale `η > 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is non-positive or not finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self, FailureModelError> {
        Ok(Weibull {
            shape: ensure_positive("shape", shape)?,
            scale: ensure_positive("scale", scale)?,
        })
    }

    /// Creates a Weibull law with shape `k` whose **mean** equals `mean`.
    ///
    /// This is the conventional way of comparing against an Exponential law
    /// with the same MTBF: the scale is set to `mean / Γ(1 + 1/k)`.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is non-positive or not finite.
    pub fn with_mean(shape: f64, mean: f64) -> Result<Self, FailureModelError> {
        let shape = ensure_positive("shape", shape)?;
        let mean = ensure_positive("mean", mean)?;
        let scale = mean / gamma(1.0 + 1.0 / shape);
        Weibull::new(shape, scale)
    }

    /// The scale parameter `η`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl FailureDistribution for Weibull {
    fn kind(&self) -> DistributionKind {
        DistributionKind::Weibull
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> f64 {
        // Inverse transform: η · (−ln U)^{1/k}.
        let u = rng.next_open_f64();
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // The density at zero is finite only for k >= 1.
            return if self.shape > 1.0 {
                0.0
            } else if (self.shape - 1.0).abs() < f64::EPSILON {
                1.0 / self.scale
            } else {
                f64::INFINITY
            };
        }
        let z = x / self.scale;
        (self.shape / self.scale) * z.powf(self.shape - 1.0) * (-z.powf(self.shape)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.scale).powf(self.shape)).exp_m1()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1), got {p}");
        self.scale * (-(-p).ln_1p()).powf(1.0 / self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential::Exponential;
    use crate::rng::Pcg64;
    use proptest::prelude::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(Weibull::new(0.7, 100.0).is_ok());
        assert!(Weibull::new(0.0, 100.0).is_err());
        assert!(Weibull::new(0.7, 0.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn shape_one_matches_exponential() {
        let w = Weibull::new(1.0, 100.0).unwrap();
        let e = Exponential::new(0.01).unwrap();
        for &x in &[0.0, 1.0, 50.0, 200.0, 1000.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-12, "cdf mismatch at {x}");
            assert!((w.survival(x) - e.survival(x)).abs() < 1e-12);
        }
        assert!((w.mean() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn with_mean_hits_requested_mean() {
        for &k in &[0.5, 0.7, 1.0, 1.5, 3.0] {
            let w = Weibull::with_mean(k, 5000.0).unwrap();
            assert!((w.mean() - 5000.0).abs() < 1e-6, "k={k}, mean={}", w.mean());
        }
    }

    #[test]
    fn hazard_decreases_for_shape_below_one() {
        let w = Weibull::new(0.6, 1000.0).unwrap();
        let h1 = w.hazard(10.0);
        let h2 = w.hazard(100.0);
        let h3 = w.hazard(1000.0);
        assert!(h1 > h2 && h2 > h3);
    }

    #[test]
    fn hazard_increases_for_shape_above_one() {
        let w = Weibull::new(2.0, 1000.0).unwrap();
        assert!(w.hazard(10.0) < w.hazard(100.0));
        assert!(w.hazard(100.0) < w.hazard(1000.0));
    }

    #[test]
    fn quantile_inverts_cdf() {
        let w = Weibull::new(0.7, 500.0).unwrap();
        for &p in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let x = w.quantile(p);
            assert!((w.cdf(x) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_mean_converges() {
        let w = Weibull::with_mean(0.7, 200.0).unwrap();
        let mut rng = Pcg64::seed_from_u64(2024);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| w.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 200.0).abs() < 4.0, "sample mean = {mean}");
    }

    #[test]
    fn conditional_survival_is_not_memoryless_for_low_shape() {
        let w = Weibull::new(0.5, 1000.0).unwrap();
        // After surviving a long time, the remaining life gets *longer*
        // (decreasing hazard): conditional survival exceeds unconditional.
        let unconditional = w.survival(100.0);
        let conditional = w.conditional_survival(5000.0, 100.0);
        assert!(conditional > unconditional);
    }

    #[test]
    fn sample_remaining_is_consistent_with_conditional_survival() {
        let w = Weibull::new(0.7, 1000.0).unwrap();
        let mut rng = Pcg64::seed_from_u64(5);
        let elapsed = 2000.0;
        let n = 50_000;
        let threshold = 500.0;
        let survived = (0..n).filter(|_| w.sample_remaining(elapsed, &mut rng) > threshold).count()
            as f64
            / n as f64;
        let expected = w.conditional_survival(elapsed, threshold);
        assert!((survived - expected).abs() < 0.01, "empirical {survived} vs {expected}");
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(k in 0.3f64..4.0, scale in 1.0f64..1e5, a in 0.0f64..1e5, b in 0.0f64..1e5) {
            let w = Weibull::new(k, scale).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(w.cdf(lo) <= w.cdf(hi) + 1e-12);
        }

        #[test]
        fn prop_samples_non_negative(seed in any::<u64>(), k in 0.3f64..4.0, scale in 1.0f64..1e4) {
            let w = Weibull::new(k, scale).unwrap();
            let mut rng = Pcg64::seed_from_u64(seed);
            for _ in 0..16 {
                prop_assert!(w.sample(&mut rng) >= 0.0);
            }
        }

        #[test]
        fn prop_quantile_roundtrip(k in 0.3f64..4.0, scale in 1.0f64..1e4, p in 1e-4f64..0.9999) {
            let w = Weibull::new(k, scale).unwrap();
            prop_assert!((w.cdf(w.quantile(p)) - p).abs() < 1e-7);
        }
    }
}
