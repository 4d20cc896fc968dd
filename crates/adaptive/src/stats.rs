//! Process-wide adaptive-policy counters (telemetry).
//!
//! The online policies already track their own per-instance `replans()`
//! counts; these [`StaticCounter`]s aggregate the same signals across
//! **every** policy instance in the process, so a Monte-Carlo sweep or the
//! planner service can report how much mid-run re-planning actually
//! happened without threading a registry through every policy
//! constructor. Counters are relaxed atomics: recording never perturbs
//! policy decisions, and snapshot deltas around a deterministic run are
//! themselves deterministic (single-threaded) or exact totals
//! (multi-threaded).

use ckpt_telemetry::{MetricsRegistry, StaticCounter};

/// Suffix re-solves performed by [`AdaptiveResolve`](crate::AdaptiveResolve)
/// (Bayesian posterior moved the rate estimate).
pub static ADAPTIVE_RESOLVE_REPLANS: StaticCounter = StaticCounter::new();

/// Suffix re-solves performed by [`RateLearning`](crate::RateLearning)
/// (MLE drifted past the threshold).
pub static RATE_LEARNING_REPLANS: StaticCounter = StaticCounter::new();

/// DAG re-linearisations performed by
/// [`DagRelinearise`](crate::DagRelinearise) after a failure.
pub static DAG_RELINEARISATIONS: StaticCounter = StaticCounter::new();

/// A point-in-time copy of the adaptive counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStatsSnapshot {
    /// [`ADAPTIVE_RESOLVE_REPLANS`] at snapshot time.
    pub adaptive_resolve_replans: u64,
    /// [`RATE_LEARNING_REPLANS`] at snapshot time.
    pub rate_learning_replans: u64,
    /// [`DAG_RELINEARISATIONS`] at snapshot time.
    pub dag_relinearisations: u64,
}

impl AdaptiveStatsSnapshot {
    /// The counter increments between `earlier` and `self` (saturating).
    pub fn since(&self, earlier: &AdaptiveStatsSnapshot) -> AdaptiveStatsSnapshot {
        AdaptiveStatsSnapshot {
            adaptive_resolve_replans: self
                .adaptive_resolve_replans
                .saturating_sub(earlier.adaptive_resolve_replans),
            rate_learning_replans: self
                .rate_learning_replans
                .saturating_sub(earlier.rate_learning_replans),
            dag_relinearisations: self
                .dag_relinearisations
                .saturating_sub(earlier.dag_relinearisations),
        }
    }

    /// Adds the snapshot to `metrics` under the `policy_*_total` names.
    pub fn record_into(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add("policy_adaptive_resolve_replans_total", self.adaptive_resolve_replans);
        metrics.counter_add("policy_rate_learning_replans_total", self.rate_learning_replans);
        metrics.counter_add("policy_dag_relinearisations_total", self.dag_relinearisations);
    }
}

/// Reads all adaptive counters at once.
pub fn snapshot() -> AdaptiveStatsSnapshot {
    AdaptiveStatsSnapshot {
        adaptive_resolve_replans: ADAPTIVE_RESOLVE_REPLANS.get(),
        rate_learning_replans: RATE_LEARNING_REPLANS.get(),
        dag_relinearisations: DAG_RELINEARISATIONS.get(),
    }
}

/// Resets all adaptive counters to zero (test isolation).
pub fn reset() {
    ADAPTIVE_RESOLVE_REPLANS.reset();
    RATE_LEARNING_REPLANS.reset();
    DAG_RELINEARISATIONS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_and_registry_export() {
        // The counters are process-wide and the crate's other tests re-plan
        // concurrently, so exact deltas are checked on fixed snapshots and
        // the live counters only for their own increments
        // (`tests/stats_counters.rs` reads them exactly, in a process of its
        // own).
        let before = AdaptiveStatsSnapshot {
            adaptive_resolve_replans: 5,
            rate_learning_replans: 7,
            dag_relinearisations: 3,
        };
        let after = AdaptiveStatsSnapshot {
            adaptive_resolve_replans: 7,
            rate_learning_replans: 8,
            ..before
        };
        let delta = after.since(&before);
        assert_eq!(delta.adaptive_resolve_replans, 2);
        assert_eq!(delta.rate_learning_replans, 1);
        assert_eq!(delta.dag_relinearisations, 0);
        assert_eq!(before.since(&after), AdaptiveStatsSnapshot::default(), "deltas saturate");
        let mut metrics = MetricsRegistry::new();
        delta.record_into(&mut metrics);
        assert_eq!(metrics.counter("policy_adaptive_resolve_replans_total"), 2);
        assert_eq!(metrics.counter("policy_rate_learning_replans_total"), 1);

        let live = snapshot();
        ADAPTIVE_RESOLVE_REPLANS.add(2);
        RATE_LEARNING_REPLANS.add(1);
        let grown = snapshot().since(&live);
        assert!(grown.adaptive_resolve_replans >= 2 && grown.rate_learning_replans >= 1);
    }
}
