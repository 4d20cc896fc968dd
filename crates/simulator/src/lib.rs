//! Discrete-event Monte-Carlo simulator for checkpointed workflow execution
//! under stochastic failures.
//!
//! The simulator realises the execution model of the paper's §2 exactly:
//!
//! * the workflow is executed as a sequence of **attempts**, each one atomic
//!   block of some tasks' work followed by a checkpoint after the last one;
//! * when a failure strikes during an attempt or a recovery, the platform
//!   first incurs a **downtime** `D` (during which failures cannot strike),
//!   then a **recovery** of the last checkpointed state (during which
//!   failures *can* strike), and then re-executes the interrupted attempt
//!   from its beginning;
//! * the first attempt recovers to the initial state with its own recovery
//!   cost `R₀` (re-reading inputs).
//!
//! Failures are supplied by a [`FailureStream`]: a platform-level Exponential
//! stream (the paper's model), the superposition of per-processor streams of
//! any law from `ckpt-failure`, or a recorded synthetic trace.
//!
//! There is one engine ([`policy`]). Whenever an attempt is about to start —
//! at the start, after a durable checkpoint, after a completed recovery — a
//! [`Policy`] names the attempt's last position (and may re-order the
//! remaining tasks), and the engine runs it with one failure-stream query.
//! [`policy::simulate_dag_policy`] executes tasks in an order,
//! [`policy::simulate_policy`] runs a chain's identity order, and
//! [`simulate`] replays a **fixed** schedule's segments as tasks with a
//! checkpoint after every one. The policy entries emit their sim-domain
//! events live into a `ckpt-telemetry` sink.
//! [`SimulationScenario`]'s `try_run`, `run_policy` and `run_dag_policy`
//! are the matching Monte-Carlo drivers, one driver underneath
//! (bit-identical at any thread count). The concrete adaptive policies live
//! in the `ckpt-adaptive` crate.
//!
//! The headline use is experiment E1: simulating a single segment and checking
//! the sample mean against the closed form of Proposition 1.
//!
//! # Example
//!
//! ```rust
//! use ckpt_simulator::{Segment, SimulationScenario};
//! use ckpt_expectation::exact::{expected_time, ExecutionParams};
//!
//! let lambda = 1.0 / 10_000.0;
//! let segment = Segment::new(3_600.0, 120.0, 60.0)?;
//! let scenario = SimulationScenario::exponential(lambda)
//!     .with_downtime(30.0)
//!     .with_trials(2_000)
//!     .with_seed(7);
//! let outcome = scenario.run(&[segment]);
//!
//! let params = ExecutionParams::new(3_600.0, 120.0, 30.0, 60.0, lambda)?;
//! let exact = expected_time(&params);
//! // The Monte-Carlo mean is within a few percent of Proposition 1.
//! assert!((outcome.makespan.mean - exact).abs() / exact < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod levelled;
pub mod montecarlo;
pub mod policy;
pub mod rollback;
pub mod segment;
pub mod stream;

pub use engine::{simulate, ExecutionRecord, TimeBreakdown};
pub use error::SimulationError;
pub use levelled::levelled_segments;
pub use montecarlo::{
    effective_threads, scatter_trials, scatter_trials_with, MonteCarloOutcome, SimulationScenario,
};
pub use policy::{
    next_checkpoint, simulate_dag_policy, simulate_policy, ChainTask, Decision, DecisionContext,
    Policy, PolicyExecutionRecord,
};
pub use segment::Segment;
pub use stream::{ExponentialStream, FailureStream, PlatformStream, TraceStream};
