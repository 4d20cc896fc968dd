//! Cluster jobs: a checkpointed chain plus its static plan.

use crate::error::{ensure_non_negative, ClusterError};
use ckpt_simulator::{ChainTask, ExecutionRecord};

/// One job submitted to the cluster: a task chain (the §2 model), the static
/// checkpoint plan it executes under, and cluster-level metadata.
///
/// The plan is a `checkpoint_after` flag per task, exactly as produced by the
/// chain DP's `TablePlacement::checkpoint_after`; each attempt runs through
/// the next flagged task, and the last task is checkpointed regardless of
/// its flag (the model's mandatory final checkpoint) —
/// [`next_checkpoint`](ckpt_simulator::next_checkpoint), the rule
/// `StaticPlan` replays by.
#[derive(Debug, Clone)]
pub struct ClusterJob {
    tasks: Vec<ChainTask>,
    initial_recovery: f64,
    downtime: f64,
    plan: Vec<bool>,
    replica_requested: bool,
}

impl ClusterJob {
    /// Builds a job arriving at time 0 with no replica.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] if the chain is empty, the plan length does
    /// not match the chain, or a cost parameter is negative.
    pub fn new(
        tasks: Vec<ChainTask>,
        initial_recovery: f64,
        downtime: f64,
        plan: Vec<bool>,
    ) -> Result<Self, ClusterError> {
        if tasks.is_empty() {
            return Err(ClusterError::NoJobs);
        }
        if plan.len() != tasks.len() {
            return Err(ClusterError::PlanLengthMismatch {
                job: 0,
                plan: plan.len(),
                tasks: tasks.len(),
            });
        }
        Ok(ClusterJob {
            tasks,
            initial_recovery: ensure_non_negative("initial_recovery", initial_recovery)?,
            downtime: ensure_non_negative("downtime", downtime)?,
            plan,
            replica_requested: false,
        })
    }

    /// Requests a warm replica for this job (builder style): at dispatch the
    /// engine reserves a second machine as a failover target when one is
    /// idle.
    pub fn with_replica(mut self) -> Self {
        self.replica_requested = true;
        self
    }

    /// The task chain.
    pub fn tasks(&self) -> &[ChainTask] {
        &self.tasks
    }

    /// The recovery cost `R₀` of restoring the initial state.
    pub fn initial_recovery(&self) -> f64 {
        self.initial_recovery
    }

    /// The failure-free downtime `D` paid after every failure.
    pub fn downtime(&self) -> f64 {
        self.downtime
    }

    /// The static checkpoint plan (`checkpoint_after` flag per task).
    pub fn plan(&self) -> &[bool] {
        &self.plan
    }

    /// Whether the job asked for a warm replica.
    pub fn replica_requested(&self) -> bool {
        self.replica_requested
    }

    /// Total work of the chain (the job-size metric `replicate-top-k` ranks
    /// by).
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.work()).sum()
    }
}

/// The outcome of one job's execution on the cluster.
///
/// Every job arrives at time 0, so `record.makespan` is its completion time;
/// it decomposes as
/// `useful + lost + downtime + recovery + waiting`: the four
/// [`TimeBreakdown`](ckpt_simulator::TimeBreakdown) buckets cover the time
/// the job *held a machine* (migration, failover and repair waits are booked
/// as downtime), while `waiting` is the time it sat in the ready queue with
/// no machine to run on — the graceful-degradation cost.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Makespan, failure count and machine-time breakdown.
    pub record: ExecutionRecord,
    /// Checkpoints taken, the mandatory final one included.
    pub checkpoints: u64,
    /// Plan consultations (one per attempt, re-executions included) —
    /// mirrors the chain engine's counter.
    pub decisions: u64,
    /// Time spent in the ready queue (the wait for a first machine,
    /// migration re-admission, retry backoff).
    pub waiting: f64,
    /// Migrations performed (checkpoint restored on a different machine).
    pub migrations: u64,
    /// Failovers to the warm replica.
    pub failovers: u64,
    /// Absolute completion time.
    pub completed_at: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> ChainTask {
        ChainTask::new(100.0, 10.0, 5.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(ClusterJob::new(vec![], 0.0, 0.0, vec![]), Err(ClusterError::NoJobs)));
        assert!(matches!(
            ClusterJob::new(vec![task()], 0.0, 0.0, vec![true, false]),
            Err(ClusterError::PlanLengthMismatch { .. })
        ));
        assert!(ClusterJob::new(vec![task()], -1.0, 0.0, vec![true]).is_err());
        assert!(ClusterJob::new(vec![task()], 0.0, -1.0, vec![true]).is_err());
    }

    #[test]
    fn builders_set_metadata() {
        let job = ClusterJob::new(vec![task(), task()], 5.0, 3.0, vec![false, true])
            .unwrap()
            .with_replica();
        assert!(job.replica_requested());
        assert_eq!(job.total_work(), 200.0);
        assert_eq!(job.plan(), &[false, true]);
    }
}
