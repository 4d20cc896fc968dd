//! The [`FailureDistribution`] trait shared by all inter-arrival laws.

use crate::rng::RandomSource;

/// Identifies the family of a failure distribution.
///
/// Useful for dispatching analytical shortcuts: the scheduler can only use the
/// closed-form Proposition 1 formula when the platform law is
/// [`DistributionKind::Exponential`]; for every other family it must fall back
/// to heuristics and simulation (paper §6, third extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionKind {
    /// Memoryless Exponential law (the paper's main model).
    Exponential,
    /// Weibull law (typical for real HPC failure logs, shape < 1).
    Weibull,
    /// Log-normal law.
    LogNormal,
    /// A shifted or composed law with no standard name.
    Other,
}

impl std::fmt::Display for DistributionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DistributionKind::Exponential => "exponential",
            DistributionKind::Weibull => "weibull",
            DistributionKind::LogNormal => "log-normal",
            DistributionKind::Other => "other",
        };
        f.write_str(name)
    }
}

/// A probability distribution over failure inter-arrival times (in seconds).
///
/// All implementations are continuous distributions on `[0, ∞)`. The trait is
/// object-safe: the simulator stores platforms as `Box<dyn FailureDistribution>`.
///
/// # Contract
///
/// * `cdf` is non-decreasing, `cdf(0) = 0` (or the left limit thereof) and
///   `cdf(x) → 1` as `x → ∞`;
/// * `survival(x) = 1 − cdf(x)`;
/// * `sample` draws by inverse-transform from the provided [`RandomSource`],
///   so equal seeds yield equal samples;
/// * `hazard(x) = pdf(x) / survival(x)` wherever the survival is positive.
pub trait FailureDistribution: std::fmt::Debug + Send + Sync {
    /// The family this distribution belongs to.
    fn kind(&self) -> DistributionKind;

    /// Draws one inter-arrival time.
    fn sample(&self, rng: &mut dyn RandomSource) -> f64;

    /// Probability density function at `x ≥ 0`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Survival function `P(X > x) = 1 − cdf(x)`.
    fn survival(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).max(0.0)
    }

    /// Hazard (failure) rate `pdf(x) / survival(x)`.
    ///
    /// Returns `f64::INFINITY` where the survival function is zero.
    fn hazard(&self, x: f64) -> f64 {
        let s = self.survival(x);
        if s <= 0.0 {
            f64::INFINITY
        } else {
            self.pdf(x) / s
        }
    }

    /// Mean of the distribution (the MTBF when the law describes failures).
    fn mean(&self) -> f64;

    /// Quantile function: the smallest `x` such that `cdf(x) ≥ p`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `p` is outside `(0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Conditional survival `P(X > t + x | X > t)`.
    ///
    /// For the Exponential law this equals `survival(x)` (memorylessness);
    /// for Weibull/log-normal it depends on the elapsed time `t`, which is the
    /// whole difficulty of §6's third extension.
    fn conditional_survival(&self, elapsed: f64, x: f64) -> f64 {
        let s_t = self.survival(elapsed);
        if s_t <= 0.0 {
            0.0
        } else {
            self.survival(elapsed + x) / s_t
        }
    }

    /// Draws a remaining inter-arrival time conditioned on `elapsed` time
    /// having already passed without a failure.
    ///
    /// Default implementation inverts the conditional CDF with a uniform
    /// variate; exponential overrides this with plain `sample` (memoryless).
    fn sample_remaining(&self, elapsed: f64, rng: &mut dyn RandomSource) -> f64 {
        let u = rng.next_open_f64();
        // Solve survival(elapsed + x) / survival(elapsed) = 1 - u for x via the quantile.
        let s_t = self.survival(elapsed);
        if s_t <= 0.0 {
            return 0.0;
        }
        let target_cdf = 1.0 - s_t * (1.0 - u);
        let p = target_cdf.clamp(f64::MIN_POSITIVE, 1.0 - 1e-15);
        (self.quantile(p) - elapsed).max(0.0)
    }
}

/// Forwarding impl so shared laws (`Arc<dyn FailureDistribution + Send + Sync>`)
/// can be used wherever an owned law is expected — e.g. cloning one law into
/// every machine of a [`ClusterFailureInjector`](crate::ClusterFailureInjector)
/// across Monte-Carlo trials without re-boxing.
///
/// Every method forwards to the inner law, including the ones with default
/// bodies: a law that overrides a default (the Exponential's memoryless
/// `sample_remaining`, say) must behave identically through the `Arc`.
impl FailureDistribution for std::sync::Arc<dyn FailureDistribution + Send + Sync> {
    fn kind(&self) -> DistributionKind {
        (**self).kind()
    }

    fn sample(&self, rng: &mut dyn RandomSource) -> f64 {
        (**self).sample(rng)
    }

    fn pdf(&self, x: f64) -> f64 {
        (**self).pdf(x)
    }

    fn cdf(&self, x: f64) -> f64 {
        (**self).cdf(x)
    }

    fn survival(&self, x: f64) -> f64 {
        (**self).survival(x)
    }

    fn hazard(&self, x: f64) -> f64 {
        (**self).hazard(x)
    }

    fn mean(&self) -> f64 {
        (**self).mean()
    }

    fn quantile(&self, p: f64) -> f64 {
        (**self).quantile(p)
    }

    fn conditional_survival(&self, elapsed: f64, x: f64) -> f64 {
        (**self).conditional_survival(elapsed, x)
    }

    fn sample_remaining(&self, elapsed: f64, rng: &mut dyn RandomSource) -> f64 {
        (**self).sample_remaining(elapsed, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential::Exponential;
    use crate::rng::Pcg64;

    #[test]
    fn kind_display_names() {
        assert_eq!(DistributionKind::Exponential.to_string(), "exponential");
        assert_eq!(DistributionKind::Weibull.to_string(), "weibull");
        assert_eq!(DistributionKind::LogNormal.to_string(), "log-normal");
        assert_eq!(DistributionKind::Other.to_string(), "other");
    }

    #[test]
    fn trait_is_object_safe() {
        let exp = Exponential::new(0.5).unwrap();
        let boxed: Box<dyn FailureDistribution> = Box::new(exp);
        let mut rng = Pcg64::seed_from_u64(1);
        assert!(boxed.sample(&mut rng) >= 0.0);
        assert_eq!(boxed.kind(), DistributionKind::Exponential);
    }

    #[test]
    fn default_survival_complements_cdf() {
        let exp = Exponential::new(2.0).unwrap();
        for &x in &[0.0, 0.1, 1.0, 3.0] {
            let total = exp.cdf(x) + exp.survival(x);
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn default_hazard_is_pdf_over_survival() {
        let exp = Exponential::new(0.25).unwrap();
        for &x in &[0.0, 0.5, 2.0] {
            let expected = exp.pdf(x) / exp.survival(x);
            assert!((exp.hazard(x) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn conditional_survival_of_exponential_is_memoryless() {
        let exp = Exponential::new(0.1).unwrap();
        for &t in &[0.0, 1.0, 10.0] {
            for &x in &[0.5, 2.0] {
                let cond = exp.conditional_survival(t, x);
                assert!((cond - exp.survival(x)).abs() < 1e-10);
            }
        }
    }
}
