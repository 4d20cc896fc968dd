//! The Proposition 2 reduction: strong NP-completeness via 3-PARTITION.
//!
//! Proposition 2 reduces 3-PARTITION to the independent-task scheduling
//! problem: given `3n` integers `a_1 … a_{3n}` summing to `n·T` with
//! `T/4 < a_i < T/2`, build `3n` independent tasks of weight `w_i = a_i`,
//! set `λ = 1/(2T)`, `C = R = (ln 2 − ½)/λ`, `D = 0`, and ask whether a
//! schedule of expected makespan at most
//! `K = n·(e^{λC}/λ)·(e^{λ(T+C)} − 1)` exists. The proof shows the bound is
//! reached **exactly** when the tasks can be grouped into `n` checkpointed
//! batches of total weight `T` each — i.e. exactly when the 3-PARTITION
//! instance is a YES instance.
//!
//! This module builds the reduction, verifies candidate schedules, extracts
//! partitions back from schedules, and provides a small exact 3-PARTITION
//! solver so that experiment E5 can generate certified YES and NO instances.

use ckpt_dag::{generators, TaskId};

use crate::error::ScheduleError;
use crate::evaluate::expected_makespan;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;

/// A 3-PARTITION instance: `3n` positive integers that sum to `n·target`,
/// with every value strictly between `target/4` and `target/2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreePartitionInstance {
    values: Vec<u64>,
    target: u64,
}

/// The scheduling instance produced by the Proposition 2 reduction, together
/// with the decision bound `K`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// The independent-task scheduling instance.
    pub instance: ProblemInstance,
    /// The decision bound `K` on the expected makespan.
    pub bound: f64,
    /// The common checkpoint/recovery cost `C` chosen by the reduction.
    pub checkpoint_cost: f64,
    /// The failure rate `λ = 1/(2T)` chosen by the reduction.
    pub lambda: f64,
}

impl ThreePartitionInstance {
    /// Creates an instance, validating the 3-PARTITION constraints.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidThreePartition`] if the value count is
    /// not a positive multiple of 3, the values do not sum to `n·target`, or
    /// some value lies outside `(target/4, target/2)`.
    pub fn new(values: Vec<u64>, target: u64) -> Result<Self, ScheduleError> {
        if values.is_empty() || !values.len().is_multiple_of(3) {
            return Err(ScheduleError::InvalidThreePartition {
                reason: "the number of values must be a positive multiple of 3",
            });
        }
        let n = (values.len() / 3) as u64;
        let sum: u64 = values.iter().sum();
        if sum != n * target {
            return Err(ScheduleError::InvalidThreePartition {
                reason: "values must sum to n times the target",
            });
        }
        if values.iter().any(|&v| 4 * v <= target || 2 * v >= target) {
            return Err(ScheduleError::InvalidThreePartition {
                reason: "every value must lie strictly between target/4 and target/2",
            });
        }
        Ok(ThreePartitionInstance { values, target })
    }

    /// The values `a_1 … a_{3n}`.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The per-subset target `T`.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// The number of subsets `n` a solution must form.
    pub fn subset_count(&self) -> usize {
        self.values.len() / 3
    }

    /// Generates a certified YES instance with `n` subsets, built by sampling
    /// `n` triples that each sum to `target`, then shuffling them together.
    ///
    /// `target` must be a multiple of 4 and at least 8 so that valid triples
    /// exist around `target/3`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidThreePartition`] if `n == 0` or `target`
    /// is too small or not a multiple of 4.
    pub fn generate_yes(n: usize, target: u64, seed: u64) -> Result<Self, ScheduleError> {
        if n == 0 || target < 8 || !target.is_multiple_of(4) {
            return Err(ScheduleError::InvalidThreePartition {
                reason: "need n >= 1 and a target that is a multiple of 4 and at least 8",
            });
        }
        // Each triple is (t/4 + 1 + x, t/4 + 1 + y, rest) with small jitter,
        // kept inside the open interval (t/4, t/2).
        let quarter = target / 4;
        let half = target / 2;
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound.max(1)
        };
        let mut values = Vec::with_capacity(3 * n);
        for _ in 0..n {
            // Choose a and b near target/3 so that c = target - a - b also
            // stays inside (quarter, half).
            loop {
                let span = (half - quarter - 2).max(1);
                let a = quarter + 1 + next(span);
                let b = quarter + 1 + next(span);
                if a + b >= target {
                    continue;
                }
                let c = target - a - b;
                if c > quarter && c < half {
                    values.push(a);
                    values.push(b);
                    values.push(c);
                    break;
                }
            }
        }
        // Shuffle deterministically so triples are not adjacent.
        for i in (1..values.len()).rev() {
            let j = (next(i as u64 + 1)) as usize;
            values.swap(i, j);
        }
        ThreePartitionInstance::new(values, target)
    }

    /// Exhaustively decides the instance, returning a partition (as lists of
    /// value indices, `n` groups of 3) if one exists.
    ///
    /// Intended for the small instances of experiment E5 (`n ≤ 4`, i.e. at
    /// most 12 values).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::TooLargeForBruteForce`] for more than 12
    /// values.
    pub fn solve_exact(&self) -> Result<Option<Vec<Vec<usize>>>, ScheduleError> {
        if self.values.len() > 12 {
            return Err(ScheduleError::TooLargeForBruteForce {
                tasks: self.values.len(),
                limit: 12,
            });
        }
        let mut used = vec![false; self.values.len()];
        let mut groups = Vec::new();
        if self.backtrack(&mut used, &mut groups) {
            Ok(Some(groups))
        } else {
            Ok(None)
        }
    }

    fn backtrack(&self, used: &mut Vec<bool>, groups: &mut Vec<Vec<usize>>) -> bool {
        let first = match used.iter().position(|&u| !u) {
            None => return true,
            Some(i) => i,
        };
        used[first] = true;
        for j in first + 1..self.values.len() {
            if used[j] {
                continue;
            }
            used[j] = true;
            for k in j + 1..self.values.len() {
                if used[k] {
                    continue;
                }
                if self.values[first] + self.values[j] + self.values[k] == self.target {
                    used[k] = true;
                    groups.push(vec![first, j, k]);
                    if self.backtrack(used, groups) {
                        return true;
                    }
                    groups.pop();
                    used[k] = false;
                }
            }
            used[j] = false;
        }
        used[first] = false;
        false
    }

    /// Builds the Proposition 2 reduction: the scheduling instance and the
    /// decision bound `K`.
    ///
    /// # Errors
    ///
    /// Propagates instance-construction errors (cannot occur for valid
    /// 3-PARTITION instances).
    pub fn reduce(&self) -> Result<Reduction, ScheduleError> {
        let t = self.target as f64;
        let lambda = 1.0 / (2.0 * t);
        let c = (std::f64::consts::LN_2 - 0.5) / lambda;
        let weights: Vec<f64> = self.values.iter().map(|&v| v as f64).collect();
        let graph = generators::independent(&weights).map_err(|_| ScheduleError::EmptyInstance)?;
        // All checkpoint *and* recovery costs equal C, including the recovery
        // of the initial state: this way every segment of total work W costs
        // exactly e^{λC}(e^{λ(W+C)} − 1)/λ, the quantity the proof of
        // Proposition 2 manipulates.
        let instance = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(c)
            .uniform_recovery_cost(c)
            .downtime(0.0)
            .initial_recovery(c)
            .platform_lambda(lambda)
            .build()?;
        let n = self.subset_count() as f64;
        let bound = n * (lambda * c).exp() / lambda * ((lambda * (t + c)).exp() - 1.0);
        Ok(Reduction { instance, bound, checkpoint_cost: c, lambda })
    }

    /// Builds the canonical schedule associated with a partition: each group's
    /// three tasks are executed consecutively and a checkpoint is taken after
    /// the third one. Its expected makespan equals the bound `K` exactly
    /// (this is the "⇒" direction of the Proposition 2 proof).
    ///
    /// # Errors
    ///
    /// Propagates schedule-validation errors; returns
    /// [`ScheduleError::InvalidThreePartition`] if `partition` does not cover
    /// every value exactly once or a group does not sum to the target.
    pub fn schedule_from_partition(
        &self,
        reduction: &Reduction,
        partition: &[Vec<usize>],
    ) -> Result<Schedule, ScheduleError> {
        let mut seen = vec![false; self.values.len()];
        for group in partition {
            let sum: u64 = group.iter().map(|&i| self.values[i]).sum();
            if sum != self.target {
                return Err(ScheduleError::InvalidThreePartition {
                    reason: "a group does not sum to the target",
                });
            }
            for &i in group {
                if seen[i] {
                    return Err(ScheduleError::InvalidThreePartition {
                        reason: "a value is used twice",
                    });
                }
                seen[i] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(ScheduleError::InvalidThreePartition {
                reason: "the partition does not cover every value",
            });
        }
        let mut order = Vec::with_capacity(self.values.len());
        let mut checkpoints = Vec::with_capacity(self.values.len());
        for group in partition {
            for (pos, &i) in group.iter().enumerate() {
                order.push(TaskId(i));
                checkpoints.push(pos == group.len() - 1);
            }
        }
        Schedule::new(&reduction.instance, order, checkpoints)
    }

    /// Checks whether a schedule certifies a YES answer: its expected makespan
    /// must not exceed the bound (up to a relative tolerance of 1e-9), and in
    /// that case the checkpointed groups are returned as a partition.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn partition_from_schedule(
        &self,
        reduction: &Reduction,
        schedule: &Schedule,
    ) -> Result<Option<Vec<Vec<usize>>>, ScheduleError> {
        let value = expected_makespan(&reduction.instance, schedule)?;
        if value > reduction.bound * (1.0 + 1e-9) {
            return Ok(None);
        }
        // Extract the groups delimited by checkpoints.
        let mut groups = Vec::new();
        let mut current = Vec::new();
        for (pos, &task) in schedule.order().iter().enumerate() {
            current.push(task.0);
            if schedule.checkpoint_after()[pos] {
                groups.push(std::mem::take(&mut current));
            }
        }
        // By the convexity argument of the proof, meeting the bound forces
        // every group to weigh exactly T; double-check before vouching.
        for group in &groups {
            let sum: u64 = group.iter().map(|&i| self.values[i]).sum();
            if sum != self.target {
                return Ok(None);
            }
        }
        Ok(Some(groups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;

    /// A tiny YES instance: n = 2, T = 100.
    fn yes_instance() -> ThreePartitionInstance {
        ThreePartitionInstance::new(vec![30, 35, 35, 26, 33, 41], 100).unwrap()
    }

    #[test]
    fn validation_rejects_malformed_instances() {
        // Not a multiple of 3.
        assert!(ThreePartitionInstance::new(vec![30, 35], 100).is_err());
        // Wrong sum.
        assert!(ThreePartitionInstance::new(vec![30, 35, 36], 100).is_err());
        // Value out of the (T/4, T/2) window.
        assert!(ThreePartitionInstance::new(vec![25, 25, 50], 100).is_err());
        // Valid.
        assert!(ThreePartitionInstance::new(vec![30, 35, 35], 100).is_ok());
    }

    #[test]
    fn accessors() {
        let inst = yes_instance();
        assert_eq!(inst.values().len(), 6);
        assert_eq!(inst.target(), 100);
        assert_eq!(inst.subset_count(), 2);
    }

    #[test]
    fn exact_solver_finds_partition_of_yes_instance() {
        let inst = yes_instance();
        let partition = inst.solve_exact().unwrap().expect("instance is YES");
        assert_eq!(partition.len(), 2);
        for group in &partition {
            let sum: u64 = group.iter().map(|&i| inst.values()[i]).sum();
            assert_eq!(sum, 100);
        }
    }

    #[test]
    fn exact_solver_detects_no_instance() {
        // Sum and window constraints hold but no grouping into 100s exists:
        // values 26,26,26,40,41,41 — only combinations: 26+26+40=92, 26+26+41=93,
        // 26+40+41=107, 26+41+41=108, 40+41+41=122, 26+26+26=78 — none is 100...
        // but the sum must be 200. 26*3+40+41*2 = 78+40+82 = 200. Good.
        let inst = ThreePartitionInstance::new(vec![26, 26, 26, 40, 41, 41], 100).unwrap();
        assert!(inst.solve_exact().unwrap().is_none());
    }

    #[test]
    fn exact_solver_guards_size() {
        let inst = ThreePartitionInstance::generate_yes(5, 100, 3).unwrap();
        assert!(inst.solve_exact().is_err());
    }

    #[test]
    fn generated_yes_instances_are_valid_and_solvable() {
        for seed in 0..5 {
            let inst = ThreePartitionInstance::generate_yes(3, 120, seed).unwrap();
            assert_eq!(inst.values().len(), 9);
            assert_eq!(inst.values().iter().sum::<u64>(), 3 * 120);
            // Each generated instance is YES by construction.
            assert!(inst.solve_exact().unwrap().is_some());
        }
        assert!(ThreePartitionInstance::generate_yes(0, 120, 1).is_err());
        assert!(ThreePartitionInstance::generate_yes(2, 6, 1).is_err());
        assert!(ThreePartitionInstance::generate_yes(2, 121, 1).is_err());
    }

    #[test]
    fn reduction_parameters_match_the_paper() {
        let inst = yes_instance();
        let red = inst.reduce().unwrap();
        let t = 100.0;
        assert!((red.lambda - 1.0 / (2.0 * t)).abs() < 1e-15);
        assert!((red.checkpoint_cost - (std::f64::consts::LN_2 - 0.5) * 2.0 * t).abs() < 1e-9);
        // The pivotal identity of the proof: e^{λ(T+C)} = 2.
        let factor = (red.lambda * (t + red.checkpoint_cost)).exp();
        assert!((factor - 2.0).abs() < 1e-12);
        assert_eq!(red.instance.task_count(), 6);
        assert_eq!(red.instance.downtime(), 0.0);
    }

    #[test]
    fn partition_schedule_meets_the_bound_exactly() {
        let inst = yes_instance();
        let red = inst.reduce().unwrap();
        let partition = inst.solve_exact().unwrap().unwrap();
        let schedule = inst.schedule_from_partition(&red, &partition).unwrap();
        let value = expected_makespan(&red.instance, &schedule).unwrap();
        assert!(
            (value - red.bound).abs() / red.bound < 1e-12,
            "value {value} vs bound {}",
            red.bound
        );
        // And the verifier recovers a partition from it.
        let recovered = inst.partition_from_schedule(&red, &schedule).unwrap();
        assert!(recovered.is_some());
    }

    #[test]
    fn unbalanced_schedules_exceed_the_bound() {
        let inst = yes_instance();
        let red = inst.reduce().unwrap();
        // Group the six tasks as 2 + 4 instead of 3 + 3 (weights will not be
        // T each), expected makespan must exceed K by convexity.
        let order: Vec<TaskId> = (0..6).map(TaskId).collect();
        let checkpoints = vec![false, true, false, false, false, true];
        let schedule = Schedule::new(&red.instance, order, checkpoints).unwrap();
        let value = expected_makespan(&red.instance, &schedule).unwrap();
        assert!(value > red.bound);
        assert!(inst.partition_from_schedule(&red, &schedule).unwrap().is_none());
    }

    #[test]
    fn schedule_from_partition_validates_its_input() {
        let inst = yes_instance();
        let red = inst.reduce().unwrap();
        // Group sums wrong (91 and 109 instead of 100 and 100).
        assert!(inst.schedule_from_partition(&red, &[vec![0, 1, 3], vec![2, 4, 5]]).is_err());
        // Missing values.
        let partition = inst.solve_exact().unwrap().unwrap();
        assert!(inst.schedule_from_partition(&red, &partition[..1]).is_err());
    }

    #[test]
    fn brute_force_optimum_matches_bound_for_yes_instances() {
        // The optimal expected makespan of the reduced instance equals K for
        // YES instances (the proof's "⇐" direction, checked exhaustively).
        let inst = yes_instance();
        let red = inst.reduce().unwrap();
        let best = brute_force::optimal_schedule(&red.instance).unwrap();
        assert!(
            (best.expected_makespan - red.bound).abs() / red.bound < 1e-9,
            "optimal {} vs bound {}",
            best.expected_makespan,
            red.bound
        );
    }

    #[test]
    fn brute_force_optimum_exceeds_bound_for_no_instances() {
        let inst = ThreePartitionInstance::new(vec![26, 26, 26, 40, 41, 41], 100).unwrap();
        assert!(inst.solve_exact().unwrap().is_none());
        let red = inst.reduce().unwrap();
        let best = brute_force::optimal_schedule(&red.instance).unwrap();
        assert!(best.expected_makespan > red.bound * (1.0 + 1e-9));
    }
}
