//! Fault-injected multi-machine cluster tier for checkpointed workflows.
//!
//! The chain and DAG tiers answer *when to checkpoint* on one machine; this
//! crate lifts the §2 execution model to a **pool of machines** under
//! correlated failures and asks *where to keep running*. A deterministic
//! event-driven engine ([`run_cluster`]) executes many chain jobs over a
//! machine pool whose failures come from a [`MachineFailureSource`] — in
//! production the correlated-shock
//! [`ClusterFailureInjector`](ckpt_failure::ClusterFailureInjector). On every
//! machine failure a [`ClusterPolicy`] chooses between restarting in place,
//! migrating the checkpoint, or failing over to a warm replica; when every
//! machine is down, jobs queue gracefully and finish after repairs.
//!
//! There is one entry per runner. [`run_cluster`] records every engine
//! transition into the telemetry sink it is handed (pass
//! [`NoopSink`](ckpt_telemetry::NoopSink) to run untraced), and
//! [`run_cluster_monte_carlo`] scatters trials across threads, bitwise
//! identical at any thread count;
//! [`ClusterMonteCarloOutcome::record_into`] turns its outcome into
//! counters, histograms and a gauge.
//!
//! The engine shares its §2 inner loop with the single-machine chain engine
//! (the simulator's `rollback` helpers), so a degenerate one-machine cluster
//! reproduces [`simulate_policy`](ckpt_simulator::simulate_policy)
//! **bitwise** — the cluster tier provably generalises the validated chain
//! tier rather than re-implementing it.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ckpt_adaptive::ChainSpec;
//! use ckpt_cluster::{
//!     compare_baselines, BaselinePolicy, ClusterScenario,
//! };
//! use ckpt_failure::{Exponential, FailureDistribution, ShockConfig};
//!
//! let law: Arc<dyn FailureDistribution + Send + Sync> =
//!     Arc::new(Exponential::from_mtbf(500.0).unwrap());
//! let job = ChainSpec::new(&[50.0; 6], &[8.0; 6], &[4.0; 6], 4.0, 1.0).unwrap();
//! let scenario = ClusterScenario::new(3, law, 1.0 / 500.0, vec![job.clone(), job])
//!     .unwrap()
//!     .with_shocks(ShockConfig::new(1.0 / 2000.0, 1.0, 5.0).unwrap())
//!     .with_trials(64)
//!     .with_seed(7);
//! let comparison = compare_baselines(
//!     &scenario,
//!     &[
//!         ("checkpoint-only", BaselinePolicy::CheckpointOnly),
//!         ("replicate-top-1", BaselinePolicy::ReplicateTopK { k: 1 }),
//!     ],
//! )
//! .unwrap();
//! assert_eq!(comparison.entries[comparison.best].regret, 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod error;
mod job;
mod montecarlo;
mod policy;
mod source;

pub use engine::{run_cluster, ClusterConfig, ClusterOutcome};
pub use error::ClusterError;
pub use job::{ClusterJob, JobRecord};
pub use montecarlo::{
    compare_baselines, run_cluster_monte_carlo, ClusterComparison, ClusterComparisonEntry,
    ClusterMonteCarloOutcome, ClusterRepair, ClusterScenario,
};
pub use policy::{AdmissionContext, BaselinePolicy, ClusterPolicy, FailureAction, FailureContext};
pub use source::{ExponentialMachineSource, MachineFailureSource};
