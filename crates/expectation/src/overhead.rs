//! Checkpoint-overhead scaling models `C(p)` (paper §3, "Checkpoint overhead").
//!
//! Assuming the application's memory footprint is `V` bytes spread evenly over
//! the processors, the paper distinguishes two regimes:
//!
//! * **proportional overhead**: `C(p) = R(p) = α·V/p` — the per-processor
//!   network link is the I/O bottleneck, so more processors checkpoint faster;
//! * **constant overhead**: `C(p) = R(p) = α·V` — the bandwidth of the
//!   resilient storage system is the bottleneck, so the cost does not shrink.
//!
//! Experiment E6 sweeps both against the workload models of
//! [`crate::workload`].

use crate::error::{ensure_positive, ExpectationError};

/// How checkpoint (and recovery) cost scales with the processor count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverheadModel {
    /// `C(p) = C_base / p`: per-processor link is the bottleneck.
    Proportional,
    /// `C(p) = C_base`: shared stable storage is the bottleneck.
    #[default]
    Constant,
}

impl OverheadModel {
    /// The checkpoint (or recovery) cost on `p` processors, given the
    /// single-processor cost `base_cost = α·V`.
    ///
    /// # Errors
    ///
    /// Returns an error if `base_cost ≤ 0` or `p == 0`.
    pub fn cost(&self, base_cost: f64, p: u32) -> Result<f64, ExpectationError> {
        let base = ensure_positive("base_cost", base_cost)?;
        if p == 0 {
            return Err(ExpectationError::ZeroProcessors);
        }
        Ok(match self {
            OverheadModel::Proportional => base / f64::from(p),
            OverheadModel::Constant => base,
        })
    }
}

impl std::fmt::Display for OverheadModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverheadModel::Proportional => write!(f, "proportional"),
            OverheadModel::Constant => write!(f, "constant"),
        }
    }
}

/// A platform-scaling scenario combining the §3 knobs: processor count,
/// per-processor failure rate, workload model and overhead model.
///
/// This is the input of experiment E6 and of the moldable-task extension: for
/// a given `p` it produces the effective `(W(p), C(p), R(p), λ(p))` tuple to
/// feed into Proposition 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingScenario {
    /// Per-processor Exponential failure rate `λ_proc`.
    pub lambda_proc: f64,
    /// Single-processor checkpoint cost `α·V`.
    pub base_checkpoint: f64,
    /// Single-processor recovery cost.
    pub base_recovery: f64,
    /// Downtime `D` (independent of `p` in the paper's baseline model).
    pub downtime: f64,
    /// Workload scaling model.
    pub workload: crate::workload::WorkloadModel,
    /// Checkpoint-overhead scaling model.
    pub overhead: OverheadModel,
}

impl ScalingScenario {
    /// The effective parameters on `p` processors for a task with total
    /// sequential load `w_total`: `(W(p), C(p), D, R(p), λ(p))`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid `w_total` or `p == 0`.
    pub fn instantiate(
        &self,
        w_total: f64,
        p: u32,
    ) -> Result<crate::exact::ExecutionParams, ExpectationError> {
        let work = self.workload.time(w_total, p)?;
        let checkpoint = self.overhead.cost(self.base_checkpoint, p)?;
        let recovery = self.overhead.cost(self.base_recovery, p)?;
        let lambda = self.lambda_proc * f64::from(p);
        crate::exact::ExecutionParams::new(work, checkpoint, self.downtime, recovery, lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::expected_time;
    use crate::workload::WorkloadModel;

    #[test]
    fn proportional_divides_constant_does_not() {
        assert_eq!(OverheadModel::Proportional.cost(600.0, 10).unwrap(), 60.0);
        assert_eq!(OverheadModel::Constant.cost(600.0, 10).unwrap(), 600.0);
    }

    #[test]
    fn cost_validates_inputs() {
        assert!(OverheadModel::Constant.cost(0.0, 1).is_err());
        assert!(OverheadModel::Constant.cost(-1.0, 1).is_err());
        assert!(matches!(
            OverheadModel::Constant.cost(1.0, 0),
            Err(ExpectationError::ZeroProcessors)
        ));
    }

    #[test]
    fn display_and_default() {
        assert_eq!(OverheadModel::Proportional.to_string(), "proportional");
        assert_eq!(OverheadModel::Constant.to_string(), "constant");
        assert_eq!(OverheadModel::default(), OverheadModel::Constant);
    }

    fn scenario(overhead: OverheadModel) -> ScalingScenario {
        ScalingScenario {
            lambda_proc: 1.0 / (10.0 * 365.0 * 86_400.0), // ten-year per-processor MTBF
            base_checkpoint: 600.0,
            base_recovery: 600.0,
            downtime: 60.0,
            workload: WorkloadModel::PerfectlyParallel,
            overhead,
        }
    }

    #[test]
    fn scenario_instantiation_scales_parameters() {
        let s = scenario(OverheadModel::Proportional);
        let params = s.instantiate(1e7, 100).unwrap();
        assert!((params.work() - 1e5).abs() < 1e-6);
        assert!((params.checkpoint() - 6.0).abs() < 1e-9);
        assert!((params.recovery() - 6.0).abs() < 1e-9);
        assert!((params.lambda() - 100.0 * s.lambda_proc).abs() < 1e-18);
    }

    #[test]
    fn constant_overhead_hurts_more_at_scale() {
        // At large p, the expected time with constant overhead exceeds the
        // one with proportional overhead (same everything else).
        let w_total = 1e8;
        let p = 4096;
        let prop = scenario(OverheadModel::Proportional).instantiate(w_total, p).unwrap();
        let cons = scenario(OverheadModel::Constant).instantiate(w_total, p).unwrap();
        assert!(expected_time(&cons) > expected_time(&prop));
    }

    #[test]
    fn more_processors_reduce_time_until_failures_dominate() {
        // For perfectly parallel work and proportional overhead, going from 1
        // to 64 processors reduces the expected time of a fixed total load.
        let s = scenario(OverheadModel::Proportional);
        let w_total = 1e7;
        let t1 = expected_time(&s.instantiate(w_total, 1).unwrap());
        let t64 = expected_time(&s.instantiate(w_total, 64).unwrap());
        assert!(t64 < t1);
    }

    #[test]
    fn scenario_rejects_zero_processors() {
        let s = scenario(OverheadModel::Constant);
        assert!(s.instantiate(1e6, 0).is_err());
    }
}
