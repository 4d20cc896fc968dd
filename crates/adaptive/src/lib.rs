//! Online checkpoint policies: observe failures, re-plan mid-execution.
//!
//! The source paper computes checkpoint schedules **once, offline**, from a
//! perfectly known Exponential failure rate. This crate closes the loop for
//! the realistic regime where the planning rate is wrong or the failure law
//! is not Exponential at all:
//!
//! * a [`ChainSpec`] carries one linear chain in both the simulator's and
//!   the planner's representation, so a policy can instantiate the chain's
//!   exp-free cost table at **any** rate estimate in `O(n)`;
//! * four [`policies`] implement the simulator's one
//!   [`Policy`](ckpt_simulator::Policy) trait — [`StaticPlan`] (replay the
//!   offline optimum), [`PeriodicYoung`] (the §7 baseline),
//!   [`AdaptiveResolve`] (Bayesian rate update + suffix-only Algorithm 1
//!   re-solve after every failure) and [`RateLearning`] (running MLE from
//!   inter-failure times, re-plan on drift);
//! * the [`harness`] Monte-Carlo-compares all of them under misspecified
//!   truths (wrong rate, Weibull platform, trace replay) against the
//!   clairvoyant offline optimum, deterministically at any thread count;
//! * the [`dag`] module is the **DAG execution tier**: the same trait over
//!   linearised DAGs, where a policy may also **re-linearise the remaining
//!   graph** after a failure ([`DagRelinearise`]: suffix-subgraph
//!   extraction + bounded-budget seeded order search). Its regret harness
//!   ([`compare_dag_policies`]) reports the same [`PolicyResult`] rows
//!   through the same truth runner, with [`StaticPlan::from_plan`] as the
//!   clairvoyant replay.
//!
//! # Example
//!
//! A platform failing 8× more often than the plan assumed: the adaptive
//! policy observes the failures, revises its rate estimate and re-solves
//! the remaining chain, beating the stale static plan.
//!
//! ```
//! use ckpt_adaptive::harness::{compare_policies, EvaluationConfig, TruthModel};
//! use ckpt_adaptive::ChainSpec;
//!
//! let spec = ChainSpec::new(
//!     &[600.0; 24],  // task weights
//!     &[45.0; 24],   // checkpoint costs
//!     &[70.0; 24],   // recovery costs
//!     30.0,          // initial recovery R0
//!     15.0,          // downtime D
//! )?;
//! let planning_rate = 1.0 / 40_000.0;
//! let truth = TruthModel::Exponential { lambda: 8.0 / 40_000.0 };
//! let config = EvaluationConfig { trials: 300, seed: 42, threads: 1 };
//! let cmp = compare_policies(&spec, planning_rate, &truth, &config)?;
//! assert!(
//!     cmp.row("adaptive-resolve").mean_makespan < cmp.row("static-plan").mean_makespan
//! );
//! # Ok::<(), ckpt_adaptive::AdaptiveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chain;
pub mod dag;
pub mod error;
pub mod harness;
pub mod policies;
pub mod stats;

pub use chain::ChainSpec;
pub use dag::{
    compare_dag_policies, optimal_static_dag_plan, DagAdaptiveResolve, DagPlan,
    DagPolicyComparison, DagRelinearise, DagSpec,
};
pub use error::AdaptiveError;
pub use harness::{compare_policies, EvaluationConfig, PolicyComparison, PolicyResult, TruthModel};
pub use policies::{optimal_static_plan, AdaptiveResolve, PeriodicYoung, RateLearning, StaticPlan};

/// The positions of the checkpoints a traced run committed, read off its
/// `segment_completed` events.
#[cfg(test)]
pub(crate) fn checkpoint_positions(sink: &ckpt_telemetry::RingBufferSink) -> Vec<usize> {
    sink.events()
        .filter(|e| e.name() == "segment_completed")
        .map(|e| match e.fields()[0].1 {
            ckpt_telemetry::FieldValue::U64(position) => position as usize,
            ref other => panic!("expected the segment field, got {other:?}"),
        })
        .collect()
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ckpt_failure::{Pcg64, RandomSource};
    use ckpt_simulator::simulate_policy;
    use ckpt_simulator::stream::NoFailureStream;
    use ckpt_telemetry::{NoopSink, RingBufferSink};
    use proptest::prelude::*;

    /// A deterministic pseudo-random heterogeneous chain spec.
    fn random_spec(seed: u64, n: usize) -> ChainSpec {
        let mut rng = Pcg64::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n).map(|_| 50.0 + rng.next_f64() * 1_500.0).collect();
        let ckpt: Vec<f64> = (0..n).map(|_| rng.next_f64() * 200.0).collect();
        let rec: Vec<f64> = (0..n).map(|_| rng.next_f64() * 200.0).collect();
        ChainSpec::new(&weights, &ckpt, &rec, rng.next_f64() * 60.0, rng.next_f64() * 30.0).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The satellite acceptance property: with **no observed failures**,
        /// `AdaptiveResolve` never re-plans and reproduces the offline DP
        /// optimum exactly — same checkpoint positions, same makespan, on
        /// any chain and at any planning rate.
        #[test]
        fn prop_adaptive_resolve_without_failures_is_the_dp_plan(
            seed in any::<u64>(),
            n in 1usize..40,
            rate_exp in -7.0f64..-2.5,
        ) {
            let spec = random_spec(seed, n);
            let rate = 10f64.powf(rate_exp);
            let placement = optimal_static_plan(&spec, rate).unwrap();

            let mut policy = AdaptiveResolve::new(&spec, rate).unwrap();
            let mut sink = RingBufferSink::new(4_096);
            let outcome = simulate_policy(
                spec.tasks(),
                spec.initial_recovery(),
                spec.downtime(),
                &mut policy,
                &mut NoFailureStream,
                &mut sink,
            )
            .unwrap();
            prop_assert_eq!(&checkpoint_positions(&sink), &placement.checkpoint_positions);
            prop_assert_eq!(policy.replans(), 0);

            // Bitwise the same execution as replaying the DP plan statically.
            let mut static_policy = StaticPlan::from_placement(&placement);
            let static_run = simulate_policy(
                spec.tasks(),
                spec.initial_recovery(),
                spec.downtime(),
                &mut static_policy,
                &mut NoFailureStream,
                &mut NoopSink,
            )
            .unwrap();
            prop_assert_eq!(outcome.record, static_run.record);
        }

        /// Policy-driven Monte-Carlo outcomes are bit-identical across
        /// 1/2/3/8 worker threads for every policy (the other satellite
        /// acceptance property).
        #[test]
        fn prop_policy_monte_carlo_is_thread_count_invariant(
            seed in any::<u64>(),
            n in 2usize..24,
        ) {
            let spec = random_spec(seed, n);
            let planning = 1.0 / 10_000.0;
            let truth = TruthModel::Exponential { lambda: 1.0 / 2_500.0 };
            let base = EvaluationConfig { trials: 64, seed, threads: 1 };
            let single = compare_policies(&spec, planning, &truth, &base).unwrap();
            for threads in [2usize, 3, 8] {
                let config = EvaluationConfig { threads, ..base };
                let multi = compare_policies(&spec, planning, &truth, &config).unwrap();
                prop_assert_eq!(&single, &multi);
            }
        }
    }
}
