//! The process-wide adaptive counters, read exactly. This binary holds a
//! single test, so nothing else re-plans while it runs, and `snapshot()`
//! can be pinned to the exact increments of each counter (the crate's unit
//! tests share one process with re-planning tests and check only fixed
//! snapshots exactly).

use ckpt_adaptive::stats::{
    self, AdaptiveStatsSnapshot, ADAPTIVE_RESOLVE_REPLANS, DAG_RELINEARISATIONS,
    RATE_LEARNING_REPLANS,
};
use ckpt_telemetry::MetricsRegistry;

#[test]
fn snapshot_reads_each_counter_into_its_own_field() {
    stats::reset();
    assert_eq!(stats::snapshot(), AdaptiveStatsSnapshot::default());

    ADAPTIVE_RESOLVE_REPLANS.add(2);
    RATE_LEARNING_REPLANS.add(3);
    DAG_RELINEARISATIONS.add(5);
    let before = stats::snapshot();
    assert_eq!(
        before,
        AdaptiveStatsSnapshot {
            adaptive_resolve_replans: 2,
            rate_learning_replans: 3,
            dag_relinearisations: 5,
        }
    );

    DAG_RELINEARISATIONS.add(1);
    let delta = stats::snapshot().since(&before);
    assert_eq!(
        delta,
        AdaptiveStatsSnapshot {
            adaptive_resolve_replans: 0,
            rate_learning_replans: 0,
            dag_relinearisations: 1,
        }
    );

    let mut metrics = MetricsRegistry::new();
    before.record_into(&mut metrics);
    assert_eq!(metrics.counter("policy_adaptive_resolve_replans_total"), 2);
    assert_eq!(metrics.counter("policy_rate_learning_replans_total"), 3);
    assert_eq!(metrics.counter("policy_dag_relinearisations_total"), 5);

    stats::reset();
    assert_eq!(stats::snapshot(), AdaptiveStatsSnapshot::default());
}
