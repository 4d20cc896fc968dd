//! A composition helper: [`Shifted`] models a minimum inter-failure
//! separation (e.g. the time to detect the previous failure).

use crate::distribution::{DistributionKind, FailureDistribution};
use crate::error::{ensure_non_negative, FailureModelError};
use crate::rng::RandomSource;

/// A distribution shifted right by a constant offset: `X' = X + shift`.
#[derive(Debug)]
pub struct Shifted<D> {
    inner: D,
    shift: f64,
}

impl<D: FailureDistribution> Shifted<D> {
    /// Wraps `inner`, adding `shift ≥ 0` to every sample.
    ///
    /// # Errors
    ///
    /// Returns an error if `shift` is negative or not finite.
    pub fn new(inner: D, shift: f64) -> Result<Self, FailureModelError> {
        Ok(Shifted { inner, shift: ensure_non_negative("shift", shift)? })
    }

    /// The shift added to every sample.
    pub fn shift(&self) -> f64 {
        self.shift
    }
}

impl<D: FailureDistribution> FailureDistribution for Shifted<D> {
    fn kind(&self) -> DistributionKind {
        DistributionKind::Other
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> f64 {
        self.inner.sample(rng) + self.shift
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < self.shift {
            0.0
        } else {
            self.inner.pdf(x - self.shift)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.shift {
            0.0
        } else {
            self.inner.cdf(x - self.shift)
        }
    }

    fn mean(&self) -> f64 {
        self.inner.mean() + self.shift
    }

    fn quantile(&self, p: f64) -> f64 {
        self.inner.quantile(p) + self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential::Exponential;
    use crate::rng::Pcg64;

    #[test]
    fn shifted_moves_support() {
        let exp = Exponential::new(0.01).unwrap();
        let sh = Shifted::new(exp, 50.0).unwrap();
        assert_eq!(sh.cdf(25.0), 0.0);
        assert_eq!(sh.pdf(25.0), 0.0);
        assert!((sh.mean() - 150.0).abs() < 1e-9);
        assert!(sh.quantile(0.5) >= 50.0);
    }

    #[test]
    fn shifted_samples_respect_minimum() {
        let exp = Exponential::new(0.1).unwrap();
        let sh = Shifted::new(exp, 10.0).unwrap();
        let mut rng = Pcg64::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(sh.sample(&mut rng) >= 10.0);
        }
    }

    #[test]
    fn shifted_rejects_negative_shift() {
        let exp = Exponential::new(0.1).unwrap();
        assert!(Shifted::new(exp, -1.0).is_err());
    }
}
