//! Special functions used by the failure distributions.
//!
//! Self-contained implementations of the gamma function (Lanczos
//! approximation), the error function family and the standard normal CDF and
//! quantile (Acklam's algorithm). These are the only special functions needed
//! by the Weibull and log-normal models; accuracies are well below the
//! statistical noise of any Monte-Carlo experiment in this workspace
//! (relative error ≲ 1e-9 over the ranges used).

/// Lanczos coefficients (g = 7, n = 9) for the gamma function.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEFFS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// # Panics
///
/// Panics if `x` is not strictly positive or not finite.
fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite() && x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = LANCZOS_COEFFS[0];
        for (i, &c) in LANCZOS_COEFFS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + LANCZOS_G + 0.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// The gamma function `Γ(x)` for `x > 0`.
///
/// # Panics
///
/// Panics if `x` is not strictly positive or not finite.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// The error function `erf(x)`.
///
/// Uses the Abramowitz & Stegun 7.1.26-style rational approximation refined
/// with one step through `erfc` for large arguments; absolute error is below
/// 1.5e-7 which is sufficient for the log-normal CDF used in experiments.
fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    if x < 0.0 {
        return -erf(-x);
    }
    // Abramowitz & Stegun formula 7.1.26.
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    1.0 - poly * (-x * x).exp()
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile function `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Peter Acklam's rational approximation with a single Halley refinement
/// step, giving roughly 1e-9 relative accuracy.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0, 1), got {p}");

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One step of Halley's method against the accurate CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Numerically stable `e^x - 1`.
///
/// Thin wrapper over [`f64::exp_m1`] named for symmetry with the formulas in
/// the paper where `e^{λ(W+C)} − 1` appears repeatedly.
pub fn exp_m1(x: f64) -> f64 {
    x.exp_m1()
}

/// Numerically stable `ln(1 + x)`.
pub fn ln_1p(x: f64) -> f64 {
    x.ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn gamma_of_integers_is_factorial() {
        assert_close(gamma(1.0), 1.0, 1e-10);
        assert_close(gamma(2.0), 1.0, 1e-10);
        assert_close(gamma(3.0), 2.0, 1e-10);
        assert_close(gamma(4.0), 6.0, 1e-10);
        assert_close(gamma(5.0), 24.0, 1e-10);
        assert_close(gamma(10.0), 362_880.0, 1e-9);
    }

    #[test]
    fn gamma_of_half_is_sqrt_pi() {
        assert_close(gamma(0.5), std::f64::consts::PI.sqrt(), 1e-9);
        assert_close(gamma(1.5), 0.5 * std::f64::consts::PI.sqrt(), 1e-9);
    }

    #[test]
    fn ln_gamma_matches_gamma() {
        for &x in &[0.3, 0.7, 1.2, 2.5, 5.5, 11.25] {
            assert_close(ln_gamma(x).exp(), gamma(x), 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_non_positive() {
        ln_gamma(0.0);
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-12);
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 2e-6);
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 2e-6);
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 2e-6);
    }

    #[test]
    fn erfc_is_complement() {
        for &x in &[-2.0, -0.5, 0.0, 0.3, 1.7] {
            assert_close(erf(x) + erfc(x), 1.0, 1e-12);
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.0] {
            assert_close(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, 1e-9);
        }
        assert_close(std_normal_cdf(0.0), 0.5, 1e-12);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = std_normal_quantile(p);
            assert_close(std_normal_cdf(x), p, 5e-6);
        }
    }

    #[test]
    fn normal_quantile_known_values() {
        assert_close(std_normal_quantile(0.5), 0.0, 1e-9);
        assert_close(std_normal_quantile(0.975), 1.959_963_984_540_054, 1e-4);
        assert_close(std_normal_quantile(0.025), -1.959_963_984_540_054, 1e-4);
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0, 1)")]
    fn normal_quantile_rejects_zero() {
        std_normal_quantile(0.0);
    }

    #[test]
    fn exp_m1_is_stable_for_tiny_arguments() {
        let x = 1e-15;
        assert!(exp_m1(x) > 0.0);
        assert_close(exp_m1(x), x, 1e-9);
    }
}
