//! Workload scaling models `W(p)` (paper §3, "Workload model").
//!
//! Given a total sequential load `W_total`, the paper lists three ways the
//! parallel execution time of a task depends on the number of processors `p`:
//!
//! 1. perfectly parallel jobs: `W(p) = W_total / p`;
//! 2. generic parallel jobs (Amdahl's law): `W(p) = (1 − γ)·W_total/p + γ·W_total`;
//! 3. numerical kernels: `W(p) = W_total/p + γ·W_total^{2/3}/√p`, where `γ` is
//!    the communication-to-computation ratio of the platform.
//!
//! These models drive experiment E6 (how the optimal checkpoint strategy
//! changes as the platform grows) and the moldable-task extension of §6.

use crate::error::{ensure_fraction, ensure_non_negative, ensure_positive, ExpectationError};

/// How a task's execution time scales with the processor count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WorkloadModel {
    /// `W(p) = W_total / p`: embarrassingly parallel work.
    #[default]
    PerfectlyParallel,
    /// `W(p) = (1 − γ)·W_total/p + γ·W_total`: Amdahl's law with sequential
    /// fraction `γ ∈ [0, 1]`.
    Amdahl {
        /// The inherently sequential fraction of the work.
        gamma: f64,
    },
    /// `W(p) = W_total/p + γ·W_total^{2/3}/√p`: dense numerical kernels
    /// (matrix product, LU/QR) on a 2-D processor grid, with `γ ≥ 0` the
    /// communication-to-computation ratio.
    NumericalKernel {
        /// Communication-to-computation ratio of the platform.
        gamma: f64,
    },
}

impl WorkloadModel {
    /// Builds an Amdahl model, validating `γ ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error if `gamma` is outside `[0, 1]`.
    pub fn amdahl(gamma: f64) -> Result<Self, ExpectationError> {
        Ok(WorkloadModel::Amdahl { gamma: ensure_fraction("gamma", gamma)? })
    }

    /// Builds a numerical-kernel model, validating `γ ≥ 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if `gamma` is negative or not finite.
    pub fn numerical_kernel(gamma: f64) -> Result<Self, ExpectationError> {
        Ok(WorkloadModel::NumericalKernel { gamma: ensure_non_negative("gamma", gamma)? })
    }

    /// The parallel execution time `W(p)` of a task whose total sequential
    /// load is `w_total`, on `p` processors.
    ///
    /// # Errors
    ///
    /// Returns an error if `w_total ≤ 0` or `p == 0`.
    pub fn time(&self, w_total: f64, p: u32) -> Result<f64, ExpectationError> {
        let w_total = ensure_positive("w_total", w_total)?;
        if p == 0 {
            return Err(ExpectationError::ZeroProcessors);
        }
        let pf = f64::from(p);
        Ok(match self {
            WorkloadModel::PerfectlyParallel => w_total / pf,
            WorkloadModel::Amdahl { gamma } => (1.0 - gamma) * w_total / pf + gamma * w_total,
            WorkloadModel::NumericalKernel { gamma } => {
                w_total / pf + gamma * w_total.powf(2.0 / 3.0) / pf.sqrt()
            }
        })
    }
}

impl std::fmt::Display for WorkloadModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadModel::PerfectlyParallel => write!(f, "perfectly-parallel"),
            WorkloadModel::Amdahl { gamma } => write!(f, "amdahl(gamma={gamma})"),
            WorkloadModel::NumericalKernel { gamma } => {
                write!(f, "numerical-kernel(gamma={gamma})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfectly_parallel_divides_by_p() {
        let m = WorkloadModel::PerfectlyParallel;
        assert_eq!(m.time(1000.0, 1).unwrap(), 1000.0);
        assert_eq!(m.time(1000.0, 10).unwrap(), 100.0);
    }

    #[test]
    fn amdahl_saturates_at_sequential_fraction() {
        let m = WorkloadModel::amdahl(0.1).unwrap();
        let t1 = m.time(1000.0, 1).unwrap();
        assert!((t1 - 1000.0).abs() < 1e-9);
        let t_huge = m.time(1000.0, 1_000_000).unwrap();
        assert!((t_huge - 100.0).abs() < 1.0);
        // Speed-up bounded by 1/γ.
        assert!(t1 / t_huge < 10.0 + 1e-6);
    }

    #[test]
    fn amdahl_zero_gamma_is_perfectly_parallel() {
        let a = WorkloadModel::amdahl(0.0).unwrap();
        let p = WorkloadModel::PerfectlyParallel;
        for &procs in &[1u32, 4, 64, 1024] {
            assert!((a.time(500.0, procs).unwrap() - p.time(500.0, procs).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn amdahl_validates_gamma() {
        assert!(WorkloadModel::amdahl(-0.1).is_err());
        assert!(WorkloadModel::amdahl(1.1).is_err());
        assert!(WorkloadModel::amdahl(1.0).is_ok());
    }

    #[test]
    fn numerical_kernel_adds_communication_term() {
        let m = WorkloadModel::numerical_kernel(0.1).unwrap();
        let pure = WorkloadModel::PerfectlyParallel;
        for &procs in &[1u32, 16, 256] {
            assert!(m.time(1e6, procs).unwrap() > pure.time(1e6, procs).unwrap());
        }
        assert!(WorkloadModel::numerical_kernel(-1.0).is_err());
    }

    #[test]
    fn numerical_kernel_zero_gamma_is_perfectly_parallel() {
        let m = WorkloadModel::numerical_kernel(0.0).unwrap();
        assert!((m.time(8000.0, 4).unwrap() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn time_validates_inputs() {
        let m = WorkloadModel::PerfectlyParallel;
        assert!(m.time(0.0, 4).is_err());
        assert!(matches!(m.time(10.0, 0), Err(ExpectationError::ZeroProcessors)));
    }

    #[test]
    fn display_names() {
        assert_eq!(WorkloadModel::PerfectlyParallel.to_string(), "perfectly-parallel");
        assert_eq!(WorkloadModel::amdahl(0.25).unwrap().to_string(), "amdahl(gamma=0.25)");
        assert!(WorkloadModel::numerical_kernel(0.5)
            .unwrap()
            .to_string()
            .contains("numerical-kernel"));
        assert_eq!(WorkloadModel::default(), WorkloadModel::PerfectlyParallel);
    }

    proptest! {
        #[test]
        fn prop_time_decreases_with_more_processors(
            w in 1.0f64..1e9,
            gamma in 0.0f64..1.0,
            p in 1u32..4096,
        ) {
            let m = WorkloadModel::amdahl(gamma).unwrap();
            let t1 = m.time(w, p).unwrap();
            let t2 = m.time(w, p * 2).unwrap();
            prop_assert!(t2 <= t1 + 1e-9);
        }

        #[test]
        fn prop_efficiency_at_most_one(
            w in 1.0f64..1e9,
            gamma in 0.0f64..1.0,
            p in 1u32..4096,
        ) {
            let m = WorkloadModel::amdahl(gamma).unwrap();
            let speedup = m.time(w, 1).unwrap() / m.time(w, p).unwrap();
            prop_assert!(speedup / f64::from(p) <= 1.0 + 1e-9);
        }
    }
}
