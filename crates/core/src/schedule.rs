//! Schedules: an execution order plus checkpoint decisions (the solution
//! space of the paper's §2 problem statement).

use std::ops::Range;

use ckpt_dag::{topo, TaskId};
use ckpt_simulator::Segment;

use crate::error::ScheduleError;
use crate::instance::ProblemInstance;

/// A solution to the scheduling problem: the order in which the tasks are
/// executed (a topological order of the instance graph) and, for each
/// position, whether a checkpoint is taken after the task at that position.
///
/// Following the paper's model (Algorithm 1 and the Proposition 2 reduction),
/// a checkpoint is **always** taken after the last executed task: the final
/// `true` is enforced by [`Schedule::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    order: Vec<TaskId>,
    checkpoint_after: Vec<bool>,
}

/// One maximal run of tasks between two consecutive checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleSegment {
    /// Positions (indices into the order) covered by this segment.
    pub positions: std::ops::Range<usize>,
    /// The tasks executed in this segment, in execution order.
    pub tasks: Vec<TaskId>,
    /// Total work of the segment.
    pub work: f64,
    /// Checkpoint cost paid at the end of the segment.
    pub checkpoint: f64,
    /// Recovery cost protecting the segment (recovery of the previous
    /// checkpoint, or the initial recovery `R₀` for the first segment).
    pub recovery: f64,
}

impl Schedule {
    /// Creates a schedule from an execution order and per-position checkpoint
    /// decisions, validating both against `instance`.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order
    ///   of the instance graph;
    /// * [`ScheduleError::CheckpointVectorLength`] if `checkpoint_after` does
    ///   not have one entry per task;
    /// * [`ScheduleError::MissingFinalCheckpoint`] if the last entry is
    ///   `false`.
    pub fn new(
        instance: &ProblemInstance,
        order: Vec<TaskId>,
        checkpoint_after: Vec<bool>,
    ) -> Result<Self, ScheduleError> {
        if !topo::is_topological_order(instance.graph(), &order) {
            return Err(ScheduleError::InvalidOrder);
        }
        if checkpoint_after.len() != order.len() {
            return Err(ScheduleError::CheckpointVectorLength {
                expected: order.len(),
                actual: checkpoint_after.len(),
            });
        }
        if checkpoint_after.last() != Some(&true) {
            return Err(ScheduleError::MissingFinalCheckpoint);
        }
        Ok(Schedule { order, checkpoint_after })
    }

    /// A schedule that checkpoints after **every** task, in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidOrder`] if `order` is not a valid
    /// topological order.
    pub fn checkpoint_everywhere(
        instance: &ProblemInstance,
        order: Vec<TaskId>,
    ) -> Result<Self, ScheduleError> {
        let n = order.len();
        Schedule::new(instance, order, vec![true; n])
    }

    /// A schedule that only takes the mandatory final checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidOrder`] if `order` is not a valid
    /// topological order.
    pub fn checkpoint_final_only(
        instance: &ProblemInstance,
        order: Vec<TaskId>,
    ) -> Result<Self, ScheduleError> {
        let n = order.len();
        let mut checkpoints = vec![false; n];
        if let Some(last) = checkpoints.last_mut() {
            *last = true;
        }
        Schedule::new(instance, order, checkpoints)
    }

    /// The execution order.
    pub fn order(&self) -> &[TaskId] {
        &self.order
    }

    /// The checkpoint decision at each position of the order.
    pub fn checkpoint_after(&self) -> &[bool] {
        &self.checkpoint_after
    }

    /// The number of checkpoints taken (including the mandatory final one).
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoint_after.iter().filter(|&&c| c).count()
    }

    /// The number of tasks in the schedule.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the schedule covers no tasks (never true for validated
    /// schedules, kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Splits the schedule into its checkpoint-delimited segments.
    ///
    /// Segment `k` starts right after the `k`-th checkpoint (or at the start
    /// of the execution for `k = 0`), carries the summed weight of its tasks,
    /// the checkpoint cost of its last task and the recovery cost of the task
    /// whose checkpoint protects it (`R₀` for the first segment).
    pub fn segments(&self, instance: &ProblemInstance) -> Vec<ScheduleSegment> {
        self.segment_costs(instance)
            .map(|(positions, work, checkpoint, recovery)| ScheduleSegment {
                tasks: self.order[positions.clone()].to_vec(),
                positions,
                work,
                checkpoint,
                recovery,
            })
            .collect()
    }

    /// [`segments`](Schedule::segments) without the task lists, allocating
    /// nothing: each segment's positions, work, checkpoint cost and
    /// protecting recovery, in that order.
    pub(crate) fn segment_costs<'s>(
        &'s self,
        instance: &'s ProblemInstance,
    ) -> impl Iterator<Item = (Range<usize>, f64, f64, f64)> + 's {
        let (mut start, mut recovery) = (0usize, instance.initial_recovery());
        let ends = self.order.iter().enumerate().filter(|&(pos, _)| self.checkpoint_after[pos]);
        ends.map(move |(pos, &task)| {
            let positions = start..pos + 1;
            let work = self.order[positions.clone()].iter().map(|&t| instance.weight(t)).sum();
            let segment = (positions, work, instance.checkpoint_cost(task), recovery);
            recovery = instance.recovery_cost(task);
            start = pos + 1;
            segment
        })
    }

    /// Converts the schedule into simulator [`Segment`]s, ready to be fed to
    /// `ckpt-simulator`.
    ///
    /// # Errors
    ///
    /// Propagates segment-validation errors (cannot occur for instances built
    /// through [`ProblemInstance::builder`], whose weights are positive).
    pub fn to_segments(
        &self,
        instance: &ProblemInstance,
    ) -> Result<Vec<Segment>, ckpt_simulator::SimulationError> {
        self.segments(instance)
            .into_iter()
            .map(|s| Segment::new(s.work, s.checkpoint, s.recovery))
            .collect()
    }

    /// The failure-free makespan of the schedule: all work plus the cost of
    /// every checkpoint taken.
    pub fn failure_free_makespan(&self, instance: &ProblemInstance) -> f64 {
        self.segments(instance).iter().map(|s| s.work + s.checkpoint).sum()
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (pos, task) in self.order.iter().enumerate() {
            if pos > 0 {
                write!(f, " ")?;
            }
            write!(f, "{task}")?;
            if self.checkpoint_after[pos] {
                write!(f, "|CKPT")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dag::generators;

    fn instance() -> ProblemInstance {
        let graph = generators::chain(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        ProblemInstance::builder(graph)
            .checkpoint_costs(vec![1.0, 2.0, 3.0, 4.0])
            .recovery_costs(vec![5.0, 6.0, 7.0, 8.0])
            .initial_recovery(9.0)
            .downtime(0.5)
            .platform_lambda(1e-3)
            .build()
            .unwrap()
    }

    fn ids(ids: &[usize]) -> Vec<TaskId> {
        ids.iter().map(|&i| TaskId(i)).collect()
    }

    #[test]
    fn construction_validates_order_and_checkpoints() {
        let inst = instance();
        // Wrong order (not topological for the chain).
        assert!(matches!(
            Schedule::new(&inst, ids(&[1, 0, 2, 3]), vec![true; 4]),
            Err(ScheduleError::InvalidOrder)
        ));
        // Wrong checkpoint length.
        assert!(matches!(
            Schedule::new(&inst, ids(&[0, 1, 2, 3]), vec![true; 3]),
            Err(ScheduleError::CheckpointVectorLength { .. })
        ));
        // Missing final checkpoint.
        assert!(matches!(
            Schedule::new(&inst, ids(&[0, 1, 2, 3]), vec![true, false, false, false]),
            Err(ScheduleError::MissingFinalCheckpoint)
        ));
        // Valid.
        let s = Schedule::new(&inst, ids(&[0, 1, 2, 3]), vec![false, true, false, true]).unwrap();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.checkpoint_count(), 2);
    }

    #[test]
    fn convenience_constructors() {
        let inst = instance();
        let all = Schedule::checkpoint_everywhere(&inst, ids(&[0, 1, 2, 3])).unwrap();
        assert_eq!(all.checkpoint_count(), 4);
        let last = Schedule::checkpoint_final_only(&inst, ids(&[0, 1, 2, 3])).unwrap();
        assert_eq!(last.checkpoint_count(), 1);
    }

    #[test]
    fn segments_carry_correct_costs() {
        let inst = instance();
        // Checkpoints after T1 (pos 1) and T3 (pos 3).
        let s = Schedule::new(&inst, ids(&[0, 1, 2, 3]), vec![false, true, false, true]).unwrap();
        let segs = s.segments(&inst);
        assert_eq!(segs.len(), 2);
        // Segment 0: tasks 0 and 1, work 30, checkpoint cost of task 1 (2.0),
        // recovery is the initial recovery (9.0).
        assert_eq!(segs[0].tasks, ids(&[0, 1]));
        assert_eq!(segs[0].work, 30.0);
        assert_eq!(segs[0].checkpoint, 2.0);
        assert_eq!(segs[0].recovery, 9.0);
        assert_eq!(segs[0].positions, 0..2);
        // Segment 1: tasks 2 and 3, work 70, checkpoint cost of task 3 (4.0),
        // recovery of task 1's checkpoint (6.0).
        assert_eq!(segs[1].tasks, ids(&[2, 3]));
        assert_eq!(segs[1].work, 70.0);
        assert_eq!(segs[1].checkpoint, 4.0);
        assert_eq!(segs[1].recovery, 6.0);
    }

    #[test]
    fn to_segments_matches_segments() {
        let inst = instance();
        let s = Schedule::new(&inst, ids(&[0, 1, 2, 3]), vec![true, false, false, true]).unwrap();
        let sim = s.to_segments(&inst).unwrap();
        let own = s.segments(&inst);
        assert_eq!(sim.len(), own.len());
        for (a, b) in sim.iter().zip(own.iter()) {
            assert_eq!(a.work(), b.work);
            assert_eq!(a.checkpoint(), b.checkpoint);
            assert_eq!(a.recovery(), b.recovery);
        }
    }

    #[test]
    fn failure_free_makespan_counts_work_and_checkpoints() {
        let inst = instance();
        let all = Schedule::checkpoint_everywhere(&inst, ids(&[0, 1, 2, 3])).unwrap();
        assert_eq!(all.failure_free_makespan(&inst), 100.0 + 1.0 + 2.0 + 3.0 + 4.0);
        let last = Schedule::checkpoint_final_only(&inst, ids(&[0, 1, 2, 3])).unwrap();
        assert_eq!(last.failure_free_makespan(&inst), 100.0 + 4.0);
    }

    #[test]
    fn independent_tasks_allow_any_order() {
        let graph = generators::independent(&[1.0, 2.0, 3.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(1.0)
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        let s = Schedule::checkpoint_everywhere(&inst, ids(&[2, 0, 1])).unwrap();
        assert_eq!(s.order(), &ids(&[2, 0, 1])[..]);
        assert_eq!(s.checkpoint_after(), &[true, true, true]);
    }

    #[test]
    fn display_shows_checkpoints() {
        let inst = instance();
        let s = Schedule::new(&inst, ids(&[0, 1, 2, 3]), vec![false, true, false, true]).unwrap();
        let text = s.to_string();
        assert!(text.contains("T1|CKPT"));
        assert!(text.contains("T3|CKPT"));
        assert!(!text.contains("T0|CKPT"));
    }
}
