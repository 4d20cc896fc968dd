//! Cluster Monte-Carlo walls at full trial counts: claims that need enough
//! trials to be stable. The whole file takes well under a second in a debug
//! build, so every wall runs in tier-1 as well as in CI's release passes.

use std::sync::Arc;

use ckpt_adaptive::ChainSpec;
use ckpt_cluster::{
    compare_baselines, run_cluster_monte_carlo, BaselinePolicy, ClusterConfig, ClusterPolicy,
    ClusterRepair, ClusterScenario,
};
use ckpt_failure::{Exponential, FailureDistribution, LogNormal, ShockConfig};

fn law(mtbf: f64) -> Arc<dyn FailureDistribution + Send + Sync> {
    Arc::new(Exponential::from_mtbf(mtbf).expect("valid MTBF"))
}

fn job_mix() -> Vec<ChainSpec> {
    vec![
        ChainSpec::new(&[180.0; 9], &[14.0; 9], &[22.0; 9], 20.0, 5.0).expect("valid chain"),
        ChainSpec::new(&[140.0; 8], &[12.0; 8], &[18.0; 8], 20.0, 5.0).expect("valid chain"),
        ChainSpec::new(&[120.0; 6], &[10.0; 6], &[16.0; 6], 20.0, 5.0).expect("valid chain"),
        ChainSpec::new(&[90.0; 5], &[10.0; 5], &[15.0; 5], 20.0, 5.0).expect("valid chain"),
    ]
}

fn config() -> ClusterConfig {
    ClusterConfig::default()
        .with_migration_overhead(120.0)
        .expect("valid overhead")
        .with_failover_overhead(10.0)
        .expect("valid overhead")
        .with_replication_checkpoint_factor(1.3)
        .expect("valid factor")
}

#[test]
fn mobility_beats_waiting_out_long_repairs() {
    // Long repairs and partial shocks: policies that can leave a broken
    // machine must strictly beat checkpoint-only on mean makespan.
    let scenario = ClusterScenario::new(6, law(20_000.0), 1.0 / 1_500.0, job_mix())
        .expect("valid scenario")
        .with_shocks(ShockConfig::new(1.0 / 1_000.0, 0.6, 100.0).expect("valid shocks"))
        .with_repair(ClusterRepair::Fixed(1_000.0))
        .expect("valid repair")
        .with_config(config())
        .with_trials(500)
        .with_seed(0xC1);
    let cmp = compare_baselines(
        &scenario,
        &[
            ("checkpoint-only", BaselinePolicy::CheckpointOnly),
            ("always-migrate", BaselinePolicy::AlwaysMigrate),
            ("replicate-top-2", BaselinePolicy::ReplicateTopK { k: 2 }),
        ],
    )
    .expect("cluster runs");
    let stay = cmp.entries[0].outcome.makespan.mean;
    let migrate = cmp.entries[1].outcome.makespan.mean;
    let replicate = cmp.entries[2].outcome.makespan.mean;
    assert!(migrate < stay, "always-migrate {migrate} must beat checkpoint-only {stay}");
    assert!(replicate < stay, "replicate-top-2 {replicate} must beat checkpoint-only {stay}");
}

/// Every shock strikes every machine at the same instant, and repairs are
/// drawn from a heavy-tailed law: the harshest degradation regime the
/// injector can express. Jobs must still complete every trial.
#[test]
fn full_pool_outages_queue_without_errors_under_random_repair() {
    let trials = 400;
    let repair_law: Arc<dyn FailureDistribution + Send + Sync> =
        Arc::new(LogNormal::with_mean(700.0, 1.2).expect("valid law"));
    let scenario = ClusterScenario::new(3, law(25_000.0), 1.0 / 1_200.0, job_mix())
        .expect("valid scenario")
        .with_shocks(ShockConfig::new(1.0 / 900.0, 1.0, 0.0).expect("valid shocks"))
        .with_repair(ClusterRepair::Random(repair_law))
        .expect("valid repair")
        .with_config(config())
        .with_trials(trials)
        .with_seed(0xC2);
    let outcome = run_cluster_monte_carlo(&scenario, || {
        Box::new(BaselinePolicy::AlwaysMigrate) as Box<dyn ClusterPolicy>
    })
    .expect("full-pool outages must queue jobs, not error");
    assert_eq!(outcome.trials, trials);
    assert!(outcome.waiting.mean > 0.0, "whole-pool outages must produce queue waiting");
    assert!(outcome.max_queue_depth > 1, "whole-pool outages must stack the ready queue");
}

/// Four policies on the same streams, at 1 thread and at 2, 3 and 8: every
/// policy's per-trial samples are bitwise equal.
#[test]
fn comparison_is_bitwise_deterministic_across_thread_counts() {
    let base = ClusterScenario::new(5, law(10_000.0), 1.0 / 1_200.0, job_mix())
        .expect("valid scenario")
        .with_shocks(ShockConfig::new(1.0 / 1_100.0, 0.7, 250.0).expect("valid shocks"))
        .with_repair(ClusterRepair::Fixed(800.0))
        .expect("valid repair")
        .with_config(config())
        .with_trials(300)
        .with_seed(0xC3);
    let entries = [
        ("checkpoint-only", BaselinePolicy::CheckpointOnly),
        ("always-migrate", BaselinePolicy::AlwaysMigrate),
        ("replicate-top-2", BaselinePolicy::ReplicateTopK { k: 2 }),
        ("setlur", BaselinePolicy::Setlur { replicate_fraction: 0.5, rate_factor: 0.6 }),
    ];
    let reference =
        compare_baselines(&base.clone().with_threads(1), &entries).expect("cluster runs");
    for threads in [2usize, 3, 8] {
        let other =
            compare_baselines(&base.clone().with_threads(threads), &entries).expect("cluster runs");
        for (a, b) in reference.entries.iter().zip(&other.entries) {
            assert_eq!(
                a.outcome.samples, b.outcome.samples,
                "policy {} differs at {threads} threads",
                a.name
            );
        }
    }
}
