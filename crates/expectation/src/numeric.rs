//! Small, dependency-free numerical utilities.
//!
//! These back the optimal-period computation ([`crate::optimal_period`]) and
//! the convexity checks used in tests of the NP-completeness reduction (the
//! proof of Proposition 2 relies on the strict convexity of
//! `g(m) = m(e^{λ(nT/m + C)} − 1)`).

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

/// Finds a root of `f` on `[lo, hi]` by bisection, assuming `f(lo)` and
/// `f(hi)` have opposite signs.
///
/// Returns `None` if the signs do not bracket a root.
///
/// # Panics
///
/// Panics if `lo >= hi` or either bound is not finite.
pub fn bisect_root<F>(mut f: F, lo: f64, hi: f64, tol: f64) -> Option<f64>
where
    F: FnMut(f64) -> f64,
{
    assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
    assert!(lo < hi, "lo must be < hi");
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let fb = f(b);
    if fa == 0.0 {
        return Some(a);
    }
    if fb == 0.0 {
        return Some(b);
    }
    if fa.signum() == fb.signum() {
        return None;
    }
    for _ in 0..200 {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        if fm == 0.0 || (b - a) < tol {
            return Some(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Some(0.5 * (a + b))
}

/// Central-difference numerical derivative of `f` at `x` with step `h`.
pub fn derivative<F>(mut f: F, x: f64, h: f64) -> f64
where
    F: FnMut(f64) -> f64,
{
    (f(x + h) - f(x - h)) / (2.0 * h)
}

/// Checks that `f` is (discretely) convex on `[lo, hi]`: for `samples`
/// equally spaced points, every midpoint value must not exceed the average of
/// its neighbours (up to `tol`).
pub fn is_convex_on<F>(mut f: F, lo: f64, hi: f64, samples: usize, tol: f64) -> bool
where
    F: FnMut(f64) -> f64,
{
    assert!(samples >= 3, "need at least three samples");
    let step = (hi - lo) / (samples - 1) as f64;
    let values: Vec<f64> = (0..samples).map(|i| f(lo + step * i as f64)).collect();
    values.windows(3).all(|w| w[1] <= 0.5 * (w[0] + w[2]) + tol)
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

    /// Whether `reference` lies within the 95% confidence interval of the mean.
    pub fn ci95_contains(&self, reference: f64) -> bool {
        (self.mean - reference).abs() <= self.ci95_half_width
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
    fn bisect_finds_sqrt_two() {
        let root = bisect_root(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn bisect_returns_none_without_sign_change() {
        assert!(bisect_root(|x| x * x + 1.0, -1.0, 1.0, 1e-9).is_none());
    }

    #[test]
    fn bisect_returns_endpoint_roots() {
        assert_eq!(bisect_root(|x| x, 0.0, 1.0, 1e-9), Some(0.0));
    }

    #[test]
    fn derivative_of_square_is_two_x() {
        let d = derivative(|x| x * x, 3.0, 1e-6);
        assert!((d - 6.0).abs() < 1e-5);
    }

    #[test]
    fn convexity_check() {
        assert!(is_convex_on(|x| x * x, -5.0, 5.0, 101, 1e-12));
        assert!(is_convex_on(|x| x.exp(), 0.0, 3.0, 101, 1e-12));
        assert!(!is_convex_on(|x| -x * x, -5.0, 5.0, 101, 1e-12));
        assert!(!is_convex_on(|x| x.sin(), 0.0, 6.0, 101, 1e-12));
    }

    #[test]
    fn sample_stats_of_constant_sample() {
        let stats = SampleStats::from_values(&[5.0; 10]);
        assert_eq!(stats.count, 10);
        assert_eq!(stats.mean, 5.0);
        assert_eq!(stats.variance, 0.0);
        assert_eq!(stats.ci95_half_width, 0.0);
        assert!(stats.ci95_contains(5.0));
        assert!(!stats.ci95_contains(5.1));
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
