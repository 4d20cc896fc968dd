//! Analytical layer: closed-form expectations, classical approximations,
//! workload and checkpoint-overhead scaling models.
//!
//! The centrepiece is [`exact::expected_time`], the paper's **Proposition 1**:
//!
//! ```text
//! E[T(W, C, D, R, λ)] = e^{λR} (1/λ + D) (e^{λ(W+C)} − 1)
//! ```
//!
//! the exact expected time needed to execute `W` seconds of work followed by a
//! checkpoint of `C` seconds on a platform whose failures follow an
//! Exponential law of rate `λ`, with downtime `D` and recovery `R` after each
//! failure (failures can strike during recovery but not during downtime).
//!
//! Around it, this crate provides:
//!
//! * the intermediate quantities of the proof, `E[T_lost]` (Equation 4) and
//!   `E[T_rec]` (Equation 5), exposed for testing and teaching;
//! * the first-order (Young) and higher-order (Daly) period approximations and
//!   the Bouguerra et al. comparator formula that §3 calls inaccurate
//!   ([`approximations`]);
//! * the optimal divisible-load checkpoint period under Exponential failures
//!   ([`optimal_period`]), the related-work baseline the paper contrasts with
//!   its non-divisible task model, found by golden-section search
//!   ([`numeric`], which also holds the Monte-Carlo sample statistics);
//! * the §3 scaling scenarios: workload models `W(p)` ([`workload`]) and
//!   checkpoint-overhead models `C(p)` ([`overhead`]).
//!
//! For solvers that evaluate Proposition 1 over many segments of one fixed
//! execution order, [`segment_cost::SegmentCostTable`] precomputes the
//! exponentials once and answers each segment-cost query with a handful of
//! multiplies instead of two `exp` calls; for experiments that re-evaluate
//! the same order across a whole vector of failure rates,
//! [`sweep::LambdaSweep`] shares the λ-independent part of that
//! precomputation (validation, work prefix sums) between the rates.
//!
//! # Example
//!
//! ```rust
//! use ckpt_expectation::exact::{expected_time, ExecutionParams};
//!
//! let params = ExecutionParams::new(3600.0, 60.0, 0.0, 60.0, 1.0 / 86_400.0)?;
//! let e = expected_time(&params);
//! // Slightly more than the failure-free time W + C.
//! assert!(e > 3660.0 && e < 3800.0);
//! # Ok::<(), ckpt_expectation::ExpectationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approximations;
pub mod error;
pub mod exact;
pub mod numeric;
pub mod optimal_period;
pub mod overhead;
pub mod segment_cost;
pub mod storage;
pub mod sweep;
pub mod workload;

pub use error::ExpectationError;
pub use exact::{expected_lost, expected_recovery, expected_time, ExecutionParams};
pub use overhead::OverheadModel;
pub use storage::{LevelledCostTable, StorageLevel, StorageLevels};
pub use workload::WorkloadModel;
