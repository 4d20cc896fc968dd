//! Differential tests backing the online DAG tier:
//!
//! 1. with **no failures**, `DagRelinearise` never re-plans and replays the
//!    offline `schedule_dag_search` plan **bitwise** (same order, same
//!    checkpoint positions, same execution record);
//! 2. `StaticPlan::from_plan` through the policy-driven DAG engine reproduces
//!    `simulate` of the plan's segments seed for seed and **bit for bit**
//!    (same failure streams ⇒ same failure counts, makespans and time
//!    breakdowns);
//! 3. the DAG policy Monte-Carlo comparison is **bit-identical at any
//!    thread count** (1 vs 2/3/8) on random layered DAGs, at full size.

use ckpt_bench::testgen::random_layered_instance;
use ckpt_workflows::adaptive::{
    compare_dag_policies, optimal_static_dag_plan, DagPlan, DagRelinearise, DagSpec,
    EvaluationConfig, StaticPlan, TruthModel,
};
use ckpt_workflows::core::cost_model::CheckpointCostModel;
use ckpt_workflows::core::order_search::{schedule_dag_search, OrderSearchConfig};
use ckpt_workflows::core::Schedule;
use ckpt_workflows::dag::TaskId;
use ckpt_workflows::simulator::stream::{ExponentialStream, NoFailureStream};
use ckpt_workflows::simulator::{simulate, simulate_dag_policy};
use ckpt_workflows::telemetry::{FieldValue, NoopSink, RingBufferSink};
use proptest::prelude::*;

/// A heterogeneous layered DAG spec under the per-last-task model (the
/// model whose planning objective equals the execution costs, so plan
/// values are directly comparable to simulated makespans).
fn layered_spec(seed: u64) -> DagSpec {
    let instance =
        random_layered_instance(seed, &[2, 4, 3, 4, 2], 0.4, 150.0, 1_000.0, 150.0, 1e-4);
    DagSpec::new(instance, CheckpointCostModel::PerLastTask).unwrap()
}

fn quick_search() -> OrderSearchConfig {
    OrderSearchConfig { restarts: 2, steps: 64, threads: 1, ..Default::default() }
}

fn plan_at(spec: &DagSpec, rate: f64) -> DagPlan {
    optimal_static_dag_plan(spec, rate, &quick_search()).unwrap()
}

/// The positions of the checkpoints a traced run committed, read off its
/// `segment_completed` events.
fn checkpoint_positions(sink: &RingBufferSink) -> Vec<usize> {
    sink.events()
        .filter(|e| e.name() == "segment_completed")
        .map(|e| match e.fields()[0].1 {
            FieldValue::U64(position) => position as usize,
            ref other => panic!("expected the segment field, got {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite property 1: a failure-free `DagRelinearise` run IS the
    /// offline `schedule_dag_search` plan, bitwise.
    #[test]
    fn prop_no_failure_relinearise_equals_offline_search_plan(
        seed in any::<u64>(),
        rate_exp in -5.5f64..-3.5,
    ) {
        let spec = layered_spec(seed);
        let rate = 10f64.powf(rate_exp);
        let plan = plan_at(&spec, rate);

        // The plan really is the offline search result (same pipeline).
        let offline = schedule_dag_search(
            &spec.instance().with_lambda(rate).unwrap(),
            spec.model(),
            &quick_search(),
        )
        .unwrap();
        prop_assert_eq!(offline.solution.schedule.order(), &plan.order[..]);
        prop_assert_eq!(offline.solution.schedule.checkpoint_after(), &plan.checkpoint_after[..]);

        // Policy run on a failure-free stream.
        let mut policy = DagRelinearise::new(&spec, &plan, rate).unwrap();
        let mut sink = RingBufferSink::new(1_024);
        let outcome = simulate_dag_policy(
            spec.tasks(),
            &plan.order_indices(),
            spec.initial_recovery(),
            spec.downtime(),
            &mut policy,
            &mut NoFailureStream,
            &mut sink,
        )
        .unwrap();
        prop_assert_eq!(policy.replans(), 0);
        prop_assert_eq!(policy.reorders(), 0);
        prop_assert_eq!(outcome.reorders, 0);
        prop_assert_eq!(&outcome.final_order, &None);

        // Checkpoint positions taken == the plan's, bitwise.
        let taken = checkpoint_positions(&sink);
        let planned: Vec<usize> = plan
            .checkpoint_after
            .iter()
            .enumerate()
            .filter_map(|(p, &c)| c.then_some(p))
            .collect();
        prop_assert_eq!(&taken, &planned);

        // And the record equals replaying the plan statically, bitwise.
        let mut static_policy = StaticPlan::from_plan(&plan);
        let reference = simulate_dag_policy(
            spec.tasks(),
            &plan.order_indices(),
            spec.initial_recovery(),
            spec.downtime(),
            &mut static_policy,
            &mut NoFailureStream,
            &mut NoopSink,
        )
        .unwrap();
        prop_assert_eq!(outcome.record, reference.record);
    }

    /// Satellite property 2: `StaticPlan::from_plan` replay through the DAG
    /// policy engine reproduces `simulate` of the same plan's segments seed
    /// for seed, bit for bit.
    #[test]
    fn prop_static_replay_matches_fixed_schedule_engine(
        seed in any::<u64>(),
        stream_seed in any::<u64>(),
    ) {
        let spec = layered_spec(seed);
        let rate = 1.0 / 2_500.0;
        let plan = plan_at(&spec, rate);

        // The fixed-schedule view of the same plan.
        let order_ids: Vec<TaskId> = plan.order.clone();
        let schedule =
            Schedule::new(spec.instance(), order_ids, plan.checkpoint_after.clone()).unwrap();
        let segments = schedule.to_segments(spec.instance()).unwrap();

        for offset in 0..4u64 {
            let s = stream_seed.wrapping_add(offset);
            let mut fixed_stream = ExponentialStream::new(rate, s);
            let fixed = simulate(&segments, spec.downtime(), &mut fixed_stream).unwrap();

            let mut policy_stream = ExponentialStream::new(rate, s);
            let mut policy = StaticPlan::from_plan(&plan);
            let online = simulate_dag_policy(
                spec.tasks(),
                &plan.order_indices(),
                spec.initial_recovery(),
                spec.downtime(),
                &mut policy,
                &mut policy_stream,
                &mut NoopSink,
            )
            .unwrap();

            // Bit for bit: both engines run one attempt per segment, its
            // work summed left to right.
            prop_assert_eq!(fixed.failures, online.record.failures);
            prop_assert!(
                fixed.makespan.to_bits() == online.record.makespan.to_bits(),
                "seed {}: fixed {} vs online {}", s, fixed.makespan, online.record.makespan
            );
            let (f, o) = (fixed.breakdown, online.record.breakdown);
            for (a, b) in [
                (f.useful, o.useful),
                (f.lost, o.lost),
                (f.downtime, o.downtime),
                (f.recovery, o.recovery),
            ] {
                prop_assert!(a.to_bits() == b.to_bits(), "seed {}: {} vs {}", s, a, b);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite property 3: the DAG policy comparison (all four rows,
    /// re-linearisation included) is bit-identical at 1 vs 2/3/8 worker
    /// threads — 48 Monte-Carlo trials per policy and thread count, with
    /// order searches inside.
    #[test]
    fn prop_dag_comparison_is_thread_count_invariant(seed in any::<u64>()) {
        let spec = layered_spec(seed);
        let planning = 1.0 / 20_000.0;
        let truth = TruthModel::Exponential { lambda: 1.0 / 4_000.0 };
        let search = quick_search();
        let base = EvaluationConfig { trials: 48, seed, threads: 1 };
        let single = compare_dag_policies(&spec, planning, &truth, &base, &search).unwrap();
        for threads in [2usize, 3, 8] {
            let config = EvaluationConfig { threads, ..base };
            let multi = compare_dag_policies(&spec, planning, &truth, &config, &search).unwrap();
            prop_assert_eq!(&single, &multi);
        }
    }
}
