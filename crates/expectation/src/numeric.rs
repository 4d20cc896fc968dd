//! The golden-section search behind the optimal-period computation
//! ([`crate::optimal_period`]) and the sample statistics the Monte-Carlo
//! drivers report.

/// Minimises a unimodal function on `[lo, hi]` by golden-section search.
///
/// Returns `(argmin, min)`. The search stops when the bracket is narrower than
/// `tol` or after 200 iterations.
///
/// # Panics
///
/// Panics if `lo >= hi`, if either bound is not finite, or if `tol <= 0`.
pub fn golden_section_min<F>(mut f: F, lo: f64, hi: f64, tol: f64) -> (f64, f64)
where
    F: FnMut(f64) -> f64,
{
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo < hi, "lo must be < hi");
    assert!(tol > 0.0, "tolerance must be positive");
    let inv_phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    let mut iterations = 0;
    while (b - a) > tol && iterations < 200 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
        iterations += 1;
    }
    let x = 0.5 * (a + b);
    (x, f(x))
}

/// Summary statistics of a sample: mean, variance (unbiased), standard
/// deviation, standard error, and a normal-approximation 95% confidence
/// half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Half-width of the 95% confidence interval for the mean (normal
    /// approximation, `1.96 × std_error`).
    pub ci95_half_width: f64,
}

impl SampleStats {
    /// Computes statistics from a slice of observations.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = variance.sqrt();
        let std_error = std_dev / (n as f64).sqrt();
        SampleStats {
            count: n,
            mean,
            variance,
            std_dev,
            std_error,
            ci95_half_width: 1.96 * std_error,
        }
    }

    /// Relative difference `|mean − reference| / reference`.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is zero.
    pub fn relative_error(&self, reference: f64) -> f64 {
        assert!(reference != 0.0, "reference must be non-zero");
        (self.mean - reference).abs() / reference.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let (x, v) = golden_section_min(|x| (x - 3.0) * (x - 3.0) + 1.0, -10.0, 10.0, 1e-9);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn golden_section_handles_boundary_minimum() {
        let (x, _) = golden_section_min(|x| x, 0.0, 5.0, 1e-9);
        assert!(x < 1e-6);
    }

    #[test]
    #[should_panic(expected = "lo must be < hi")]
    fn golden_section_rejects_bad_bracket() {
        let _ = golden_section_min(|x| x, 1.0, 0.0, 1e-9);
    }

    #[test]
    fn sample_stats_of_constant_sample() {
        let stats = SampleStats::from_values(&[5.0; 10]);
        assert_eq!(stats.count, 10);
        assert_eq!(stats.mean, 5.0);
        assert_eq!(stats.variance, 0.0);
        assert_eq!(stats.ci95_half_width, 0.0);
        assert_eq!(stats.relative_error(5.0), 0.0);
    }

    #[test]
    fn sample_stats_of_known_sample() {
        let stats = SampleStats::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(stats.mean, 3.0);
        assert!((stats.variance - 2.5).abs() < 1e-12);
        assert!((stats.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
        assert!((stats.relative_error(2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn sample_stats_rejects_empty() {
        let _ = SampleStats::from_values(&[]);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let stats = SampleStats::from_values(&[7.5]);
        assert_eq!(stats.count, 1);
        assert_eq!(stats.variance, 0.0);
    }
}
