//! Failure-model substrate for checkpoint scheduling of computational workflows.
//!
//! This crate provides everything the scheduler and the simulator need to talk
//! about *when processors fail*:
//!
//! * a small, fully deterministic pseudo-random number generator
//!   ([`rng::Pcg64`]) so that the whole library is reproducible and does not
//!   depend on external RNG crates;
//! * the [`FailureDistribution`] trait together with the three inter-arrival
//!   laws discussed in the paper and its extensions: [`Exponential`]
//!   (the paper's main model), [`Weibull`] and [`LogNormal`]
//!   (the §6 extension to non-memoryless failures), plus a composition helper
//!   ([`Shifted`]);
//! * the superposition of `p` independent per-processor failure processes into
//!   a single platform-level process ([`platform::PlatformFailureProcess`]),
//!   which for Exponential laws collapses to `Exp(p·λ_proc)` exactly as §2 of
//!   the paper states;
//! * synthetic failure traces ([`trace::FailureTrace`]) that can be recorded,
//!   replayed and generated — our substitute for the production failure logs
//!   (Failure Trace Archive) cited by the paper for the general-distribution
//!   extension.
//!
//! # Example
//!
//! ```rust
//! use ckpt_failure::{Exponential, FailureDistribution, rng::Pcg64};
//!
//! // Platform MTBF of 10 hours expressed in seconds.
//! let exp = Exponential::from_mtbf(36_000.0).unwrap();
//! let mut rng = Pcg64::seed_from_u64(42);
//! let inter_arrival = exp.sample(&mut rng);
//! assert!(inter_arrival > 0.0);
//! assert!((exp.mean() - 36_000.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod distribution;
pub mod error;
pub mod exponential;
pub mod fitting;
pub mod lognormal;
pub mod math;
pub mod platform;
pub mod rng;
mod shifted;
pub mod stats;
pub mod trace;
pub mod weibull;

pub use cluster::{ClusterFailureInjector, RepairModel, ShockConfig};
pub use distribution::{DistributionKind, FailureDistribution};
pub use error::FailureModelError;
pub use exponential::Exponential;
pub use lognormal::LogNormal;
pub use platform::{PlatformFailure, PlatformFailureProcess, ProcessorId};
pub use rng::{Pcg64, RandomSource};
pub use shifted::Shifted;
pub use trace::{FailureEvent, FailureTrace, TraceGenerator, TraceReplay};
pub use weibull::Weibull;
