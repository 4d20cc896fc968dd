//! Seed-for-seed differential test: a single-machine cluster degenerates to
//! the chain engine **bitwise**.
//!
//! The cluster engine shares the simulator's `rollback` helpers with
//! `simulate_policy`, so a one-machine pool over an
//! [`ExponentialMachineSource`] (the exact per-trial stream the chain
//! Monte-Carlo driver builds) running a checkpoint-only, non-replicated job
//! must produce identical floating-point results — makespan, breakdown,
//! failure times and counters — to `simulate_policy` replaying the same
//! static plan over the same stream. Not approximately: `assert_eq!` on
//! every field, across many seeds and plan shapes.

use ckpt_adaptive::StaticPlan;
use ckpt_cluster::{
    run_cluster, BaselinePolicy, ClusterConfig, ClusterJob, ExponentialMachineSource,
};
use ckpt_simulator::{simulate_policy, ChainTask, ExponentialStream};
use ckpt_telemetry::NoopSink;

fn chain(works: &[f64], ckpt: f64, rec: f64) -> Vec<ChainTask> {
    works.iter().map(|&w| ChainTask::new(w, ckpt, rec).unwrap()).collect()
}

fn assert_degenerate(
    tasks: &[ChainTask],
    initial_recovery: f64,
    downtime: f64,
    plan: &[bool],
    lambda: f64,
    seed: u64,
) {
    let mut reference_stream = ExponentialStream::new(lambda, seed);
    let mut reference_policy = StaticPlan::new(plan.to_vec());
    let expected = simulate_policy(
        tasks,
        initial_recovery,
        downtime,
        &mut reference_policy,
        &mut reference_stream,
        &mut NoopSink,
    )
    .unwrap();

    let job = ClusterJob::new(tasks.to_vec(), initial_recovery, downtime, plan.to_vec()).unwrap();
    let mut source = ExponentialMachineSource::new(lambda, &[seed]);
    let mut policy = BaselinePolicy::CheckpointOnly;
    let config = ClusterConfig::default();
    let out = run_cluster(&[job], 1, &mut source, &mut policy, &config, &mut NoopSink).unwrap();
    let actual = &out.jobs[0];

    // Bitwise, not approximate: the two engines must have performed the
    // exact same float operations in the exact same order.
    assert_eq!(actual.record, expected.record, "seed {seed}");
    assert_eq!(actual.checkpoints, expected.checkpoints, "seed {seed}");
    assert_eq!(actual.decisions, expected.decisions, "seed {seed}");
    assert_eq!(actual.waiting, 0.0, "seed {seed}");
    assert_eq!(actual.migrations, 0, "seed {seed}");
    assert_eq!(actual.failovers, 0, "seed {seed}");
    assert_eq!(actual.completed_at, expected.record.makespan, "seed {seed}");
    assert_eq!(out.makespan, expected.record.makespan, "seed {seed}");
}

#[test]
fn single_machine_cluster_matches_chain_engine_bitwise() {
    let tasks = chain(&[120.0, 80.0, 200.0, 40.0, 160.0], 12.0, 6.0);
    let plan = [true, false, true, false, true];
    for seed in 0..200 {
        assert_degenerate(&tasks, 6.0, 2.5, &plan, 1.0 / 300.0, seed);
    }
}

#[test]
fn degeneracy_holds_across_plan_shapes_and_rates() {
    let cases: &[(&[f64], &[bool], f64)] = &[
        // Checkpoint everywhere, failure-heavy.
        (&[50.0, 50.0, 50.0], &[true, true, true], 1.0 / 60.0),
        // Checkpoint nowhere (the engine still forces the final one).
        (&[90.0, 30.0, 140.0], &[false, false, false], 1.0 / 150.0),
        // Single task.
        (&[400.0], &[true], 1.0 / 500.0),
        // Long sparse chain, rare failures.
        (&[25.0; 12], &[false; 12], 1.0 / 5000.0),
    ];
    for &(works, plan, lambda) in cases {
        let tasks = chain(works, 8.0, 4.0);
        for seed in 0..50 {
            assert_degenerate(&tasks, 4.0, 1.0, plan, lambda, 1000 + seed);
        }
    }
}

#[test]
fn zero_cost_checkpoints_preserve_stream_alignment() {
    // Zero-cost checkpoints skip the stream query entirely in the chain
    // engine; the cluster engine must skip it identically or every later
    // draw would diverge.
    let tasks = chain(&[70.0, 110.0, 90.0], 0.0, 0.0);
    for seed in 0..50 {
        assert_degenerate(&tasks, 0.0, 3.0, &[true, true, true], 1.0 / 120.0, 5000 + seed);
    }
}
