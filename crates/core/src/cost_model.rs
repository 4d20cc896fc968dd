//! General checkpoint-cost models (paper §6, first extension).
//!
//! The baseline model charges a checkpoint taken after task `T_i` a cost `C_i`
//! that depends only on `T_i`. In general, the state a checkpoint must save is
//! the output of every completed task that still has an unexecuted successor —
//! the **live set** — so the cost should be a function of that set. For linear
//! chains the live set is always the single most recent task, which is why the
//! paper's per-task model is fully general there (§6); for wider DAGs the two
//! models differ and this module makes the difference explicit.
//!
//! Two evaluation paths are provided:
//!
//! * [`CheckpointCostModel::checkpoint_cost`] and
//!   [`CheckpointCostModel::recovery_cost`] re-derive the live set of one
//!   prefix from scratch — the reference formulation, `O(n·degree)` per
//!   query;
//! * [`CheckpointCostModel::costs_along_order`] sweeps a whole order once
//!   with [`LiveSetSweep`], maintaining
//!   the live-set aggregates incrementally, and emits **both** positional
//!   cost vectors (checkpoint and recovery) in `O(n + E)` — the path every
//!   table build ([`crate::dag_schedule::model_cost_table`]) and the order
//!   search take. The two paths are cross-checked by property tests.

use std::collections::{BTreeSet, BinaryHeap};

use ckpt_dag::{traversal, traversal::LiveSetSweep, TaskGraph, TaskId};

use crate::instance::ProblemInstance;

/// How the cost of a checkpoint (and of the matching recovery) is computed
/// from the execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckpointCostModel {
    /// The paper's baseline: the cost of a checkpoint taken after task `T_i`
    /// is `C_i`, regardless of what else is in memory.
    #[default]
    PerLastTask,
    /// The checkpoint must save the output of every live task; its cost is the
    /// **sum** of their per-task costs (bandwidth-bound stable storage).
    LiveSetSum,
    /// The live tasks are saved in parallel to per-processor local storage;
    /// the cost is the **maximum** of their per-task costs.
    LiveSetMax,
}

impl std::fmt::Display for CheckpointCostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointCostModel::PerLastTask => write!(f, "per-last-task"),
            CheckpointCostModel::LiveSetSum => write!(f, "live-set-sum"),
            CheckpointCostModel::LiveSetMax => write!(f, "live-set-max"),
        }
    }
}

impl CheckpointCostModel {
    /// The cost of a checkpoint taken after executing the prefix
    /// `order[..=position]`, under this model.
    ///
    /// `per_task` maps a task to its individual cost (`C_i` for checkpoints,
    /// `R_i` for recoveries).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds of `order`.
    fn cost_after_prefix<F>(
        &self,
        graph: &TaskGraph,
        order: &[TaskId],
        position: usize,
        per_task: F,
    ) -> f64
    where
        F: Fn(TaskId) -> f64,
    {
        assert!(position < order.len(), "position out of bounds");
        match self {
            CheckpointCostModel::PerLastTask => per_task(order[position]),
            CheckpointCostModel::LiveSetSum | CheckpointCostModel::LiveSetMax => {
                let completed: BTreeSet<TaskId> = order[..=position].iter().copied().collect();
                let mut live = traversal::live_tasks(graph, &completed);
                if live.is_empty() {
                    // End of the execution: by convention the final state to
                    // save is the last task's output.
                    live.push(order[position]);
                }
                match self {
                    CheckpointCostModel::LiveSetSum => live.iter().map(|&t| per_task(t)).sum(),
                    _ => live.iter().map(|&t| per_task(t)).fold(0.0f64, f64::max),
                }
            }
        }
    }

    /// The checkpoint cost after `order[..=position]` using the instance's
    /// per-task checkpoint costs.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds of `order`.
    pub fn checkpoint_cost(
        &self,
        instance: &ProblemInstance,
        order: &[TaskId],
        position: usize,
    ) -> f64 {
        self.cost_after_prefix(instance.graph(), order, position, |t| instance.checkpoint_cost(t))
    }

    /// The recovery cost protecting a segment that starts right after
    /// `order[..=position]`, using the instance's per-task recovery costs.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of bounds of `order`.
    pub fn recovery_cost(
        &self,
        instance: &ProblemInstance,
        order: &[TaskId],
        position: usize,
    ) -> f64 {
        self.cost_after_prefix(instance.graph(), order, position, |t| instance.recovery_cost(t))
    }

    /// Both positional cost vectors of `order` under this model, in **one
    /// incremental sweep**: entry `i` of the first vector is the cost of a
    /// checkpoint taken right after position `i`
    /// ([`checkpoint_cost`](CheckpointCostModel::checkpoint_cost)`(…, i)`),
    /// entry `i` of the second the recovery cost of that checkpoint
    /// ([`recovery_cost`](CheckpointCostModel::recovery_cost)`(…, i)`).
    ///
    /// The live-set models maintain the set as a delta structure
    /// ([`LiveSetSweep`]) instead of re-deriving it per position:
    /// [`LiveSetSum`](CheckpointCostModel::LiveSetSum) keeps running sums
    /// updated on each enter/retire delta (`O(n + E)` total), and
    /// [`LiveSetMax`](CheckpointCostModel::LiveSetMax) keeps lazily-pruned
    /// max-heaps — each task is pushed and popped at most once, for
    /// `O(n log n + E)` total. Either way the whole order costs far less
    /// than the `O(n·degree)`-per-position reference path, which is kept
    /// only for cross-checking.
    ///
    /// ```
    /// use ckpt_core::{cost_model::CheckpointCostModel, ProblemInstance};
    /// use ckpt_dag::{generators, TaskId};
    ///
    /// let graph = generators::diamond([10.0, 20.0, 30.0, 40.0])?;
    /// let instance = ProblemInstance::builder(graph)
    ///     .checkpoint_costs(vec![1.0, 2.0, 4.0, 8.0])
    ///     .uniform_recovery_cost(5.0)
    ///     .platform_lambda(1e-3)
    ///     .build()?;
    /// let order = vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)];
    /// let model = CheckpointCostModel::LiveSetSum;
    /// let (ckpt, _rec) = model.costs_along_order(&instance, &order);
    /// // Matches the per-position reference path: after {a, b} the live set
    /// // is {a, b} (c and d still need them), so the checkpoint costs 1 + 2.
    /// assert_eq!(ckpt[1], 3.0);
    /// assert_eq!(ckpt[1], model.checkpoint_cost(&instance, &order, 1));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Under the live-set models, panics if `order` is not a topological
    /// order of the instance graph covering every task exactly once (the
    /// sweep asserts precedence as it advances).
    /// [`PerLastTask`](CheckpointCostModel::PerLastTask) reads positions
    /// independently and performs no such validation — callers needing the
    /// check (e.g. [`crate::dag_schedule::model_cost_table`]) validate
    /// before calling.
    pub fn costs_along_order(
        &self,
        instance: &ProblemInstance,
        order: &[TaskId],
    ) -> (Vec<f64>, Vec<f64>) {
        let mut sweep = LiveSetCostSweep::new(instance.graph());
        let mut ckpt = Vec::with_capacity(order.len());
        let mut rec = Vec::with_capacity(order.len());
        sweep.costs_into(*self, instance, order, &mut ckpt, &mut rec);
        (ckpt, rec)
    }
}

/// Reusable working state for repeated [`costs_along_order`] sweeps over
/// orders of **one graph**: the live-set delta structure and the
/// [`LiveSetMax`] lazy max-heaps are cleared and refilled instead of being
/// reallocated per order. This is what the order search's proposal loop
/// holds — evaluating thousands of candidate orders allocates nothing.
///
/// [`costs_along_order`]: CheckpointCostModel::costs_along_order
/// [`LiveSetMax`]: CheckpointCostModel::LiveSetMax
#[derive(Debug, Clone)]
pub struct LiveSetCostSweep<'g> {
    sweep: LiveSetSweep<'g>,
    ckpt_heap: BinaryHeap<MaxCostEntry>,
    rec_heap: BinaryHeap<MaxCostEntry>,
}

impl<'g> LiveSetCostSweep<'g> {
    /// Working state sized for `graph` (which must be the graph every
    /// subsequent order belongs to).
    pub fn new(graph: &'g TaskGraph) -> Self {
        LiveSetCostSweep {
            sweep: LiveSetSweep::new(graph),
            ckpt_heap: BinaryHeap::new(),
            rec_heap: BinaryHeap::new(),
        }
    }

    /// The buffer-reusing core of
    /// [`CheckpointCostModel::costs_along_order`]: clears `ckpt_out` /
    /// `rec_out` and fills them with the positional checkpoint and recovery
    /// costs of `order` under `model`. Identical results, same `O(n + E)`
    /// sweep; the only difference is where the working memory lives.
    ///
    /// # Panics
    ///
    /// Same contract as [`CheckpointCostModel::costs_along_order`]: the
    /// live-set models panic on non-topological orders (the sweep asserts),
    /// the per-last-task model performs no validation.
    pub fn costs_into(
        &mut self,
        model: CheckpointCostModel,
        instance: &ProblemInstance,
        order: &[TaskId],
        ckpt_out: &mut Vec<f64>,
        rec_out: &mut Vec<f64>,
    ) {
        ckpt_out.clear();
        rec_out.clear();
        match model {
            CheckpointCostModel::PerLastTask => {
                ckpt_out.extend(order.iter().map(|&t| instance.checkpoint_cost(t)));
                rec_out.extend(order.iter().map(|&t| instance.recovery_cost(t)));
            }
            CheckpointCostModel::LiveSetSum => {
                self.sweep.reset();
                let (mut ckpt_sum, mut rec_sum) = (0.0f64, 0.0f64);
                for &task in order {
                    let entered = self.sweep.complete(task, |retired| {
                        ckpt_sum -= instance.checkpoint_cost(retired);
                        rec_sum -= instance.recovery_cost(retired);
                    });
                    if entered {
                        ckpt_sum += instance.checkpoint_cost(task);
                        rec_sum += instance.recovery_cost(task);
                    }
                    if self.sweep.live_count() == 0 {
                        // Empty live set (end of the order, or between
                        // independent components): the state to save is by
                        // convention the last task's output.
                        ckpt_out.push(instance.checkpoint_cost(task));
                        rec_out.push(instance.recovery_cost(task));
                    } else {
                        ckpt_out.push(ckpt_sum);
                        rec_out.push(rec_sum);
                    }
                }
            }
            CheckpointCostModel::LiveSetMax => {
                self.sweep.reset();
                self.ckpt_heap.clear();
                self.rec_heap.clear();
                for &task in order {
                    let entered = self.sweep.complete(task, |_| {});
                    if entered {
                        self.ckpt_heap
                            .push(MaxCostEntry { cost: instance.checkpoint_cost(task), task });
                        self.rec_heap
                            .push(MaxCostEntry { cost: instance.recovery_cost(task), task });
                    }
                    if self.sweep.live_count() == 0 {
                        ckpt_out.push(instance.checkpoint_cost(task));
                        rec_out.push(instance.recovery_cost(task));
                    } else {
                        ckpt_out.push(live_max(&mut self.ckpt_heap, &self.sweep));
                        rec_out.push(live_max(&mut self.rec_heap, &self.sweep));
                    }
                }
            }
        }
    }
}

/// A max-heap entry of the [`CheckpointCostModel::LiveSetMax`] sweep. Heaps
/// are pruned lazily: retired tasks stay in the heap until they surface and
/// are popped, so each task is pushed and popped at most once over a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MaxCostEntry {
    cost: f64,
    task: TaskId,
}

impl Eq for MaxCostEntry {}

impl Ord for MaxCostEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cost.total_cmp(&other.cost).then(self.task.cmp(&other.task))
    }
}

impl PartialOrd for MaxCostEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The largest cost among currently-live heap entries, discarding retired
/// tops as they surface.
///
/// # Panics
///
/// Panics if no live entry remains (callers check `live_count() > 0`).
fn live_max(heap: &mut BinaryHeap<MaxCostEntry>, sweep: &LiveSetSweep<'_>) -> f64 {
    while let Some(top) = heap.peek() {
        if sweep.is_live(top.task) {
            return top.cost;
        }
        heap.pop();
    }
    unreachable!("live_max called with a non-empty live set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dag::generators;

    fn diamond_instance() -> ProblemInstance {
        let graph = generators::diamond([10.0, 20.0, 30.0, 40.0]).unwrap();
        ProblemInstance::builder(graph)
            .checkpoint_costs(vec![1.0, 2.0, 4.0, 8.0])
            .recovery_costs(vec![16.0, 32.0, 64.0, 128.0])
            .platform_lambda(1e-3)
            .build()
            .unwrap()
    }

    #[test]
    fn per_last_task_ignores_the_live_set() {
        let inst = diamond_instance();
        let order = vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)];
        let model = CheckpointCostModel::PerLastTask;
        assert_eq!(model.checkpoint_cost(&inst, &order, 1), 2.0);
        assert_eq!(model.recovery_cost(&inst, &order, 2), 64.0);
    }

    #[test]
    fn live_set_sum_counts_all_live_outputs() {
        let inst = diamond_instance();
        // Diamond a -> {b, c} -> d, order a b c d.
        let order = vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)];
        let model = CheckpointCostModel::LiveSetSum;
        // After a: live = {a} (b and c still need it) -> cost 1.
        assert_eq!(model.checkpoint_cost(&inst, &order, 0), 1.0);
        // After a, b: live = {a (c pending), b (d pending)} -> 1 + 2 = 3.
        assert_eq!(model.checkpoint_cost(&inst, &order, 1), 3.0);
        // After a, b, c: live = {b, c} (both feed d) -> 2 + 4 = 6.
        assert_eq!(model.checkpoint_cost(&inst, &order, 2), 6.0);
        // After everything: convention = last task -> 8.
        assert_eq!(model.checkpoint_cost(&inst, &order, 3), 8.0);
    }

    #[test]
    fn live_set_max_takes_the_largest_cost() {
        let inst = diamond_instance();
        let order = vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)];
        let model = CheckpointCostModel::LiveSetMax;
        assert_eq!(model.checkpoint_cost(&inst, &order, 1), 2.0);
        assert_eq!(model.checkpoint_cost(&inst, &order, 2), 4.0);
        assert_eq!(model.recovery_cost(&inst, &order, 2), 64.0);
    }

    #[test]
    fn reused_cost_sweep_matches_fresh_sweeps_across_orders() {
        // One LiveSetCostSweep evaluating both topological orders of the
        // diamond in a row must give exactly what per-order fresh sweeps do.
        let inst = diamond_instance();
        let orders = [
            vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)],
            vec![TaskId(0), TaskId(2), TaskId(1), TaskId(3)],
        ];
        for model in [CheckpointCostModel::LiveSetSum, CheckpointCostModel::LiveSetMax] {
            let mut reused = LiveSetCostSweep::new(inst.graph());
            let (mut ckpt, mut rec) = (Vec::new(), Vec::new());
            for order in &orders {
                reused.costs_into(model, &inst, order, &mut ckpt, &mut rec);
                let (fresh_ckpt, fresh_rec) = model.costs_along_order(&inst, order);
                assert_eq!(ckpt, fresh_ckpt, "{model}");
                assert_eq!(rec, fresh_rec, "{model}");
            }
        }
    }

    #[test]
    fn all_models_coincide_on_linear_chains() {
        // §6's observation: on a chain the live set is always the single most
        // recently completed task, so the general models reduce to the
        // baseline.
        let graph = generators::chain(&[10.0, 20.0, 30.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .checkpoint_costs(vec![3.0, 5.0, 7.0])
            .recovery_costs(vec![11.0, 13.0, 17.0])
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        let order = vec![TaskId(0), TaskId(1), TaskId(2)];
        for pos in 0..3 {
            let base = CheckpointCostModel::PerLastTask.checkpoint_cost(&inst, &order, pos);
            assert_eq!(CheckpointCostModel::LiveSetSum.checkpoint_cost(&inst, &order, pos), base);
            assert_eq!(CheckpointCostModel::LiveSetMax.checkpoint_cost(&inst, &order, pos), base);
            let base_r = CheckpointCostModel::PerLastTask.recovery_cost(&inst, &order, pos);
            assert_eq!(CheckpointCostModel::LiveSetSum.recovery_cost(&inst, &order, pos), base_r);
            assert_eq!(CheckpointCostModel::LiveSetMax.recovery_cost(&inst, &order, pos), base_r);
        }
    }

    #[test]
    fn display_and_default() {
        assert_eq!(CheckpointCostModel::default(), CheckpointCostModel::PerLastTask);
        assert_eq!(CheckpointCostModel::PerLastTask.to_string(), "per-last-task");
        assert_eq!(CheckpointCostModel::LiveSetSum.to_string(), "live-set-sum");
        assert_eq!(CheckpointCostModel::LiveSetMax.to_string(), "live-set-max");
    }

    #[test]
    #[should_panic(expected = "position out of bounds")]
    fn out_of_bounds_position_panics() {
        let inst = diamond_instance();
        let order = vec![TaskId(0)];
        let _ = CheckpointCostModel::PerLastTask.checkpoint_cost(&inst, &order, 3);
    }

    const ALL_MODELS: [CheckpointCostModel; 3] = [
        CheckpointCostModel::PerLastTask,
        CheckpointCostModel::LiveSetSum,
        CheckpointCostModel::LiveSetMax,
    ];

    #[test]
    fn incremental_sweep_matches_reference_on_diamond() {
        let inst = diamond_instance();
        let order = vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)];
        for model in ALL_MODELS {
            let (ckpt, rec) = model.costs_along_order(&inst, &order);
            for pos in 0..order.len() {
                assert_eq!(ckpt[pos], model.checkpoint_cost(&inst, &order, pos), "{model} ckpt");
                assert_eq!(rec[pos], model.recovery_cost(&inst, &order, pos), "{model} rec");
            }
        }
    }

    #[test]
    fn incremental_sweep_handles_independent_components() {
        // Independent tasks: the live set is empty after every completion, so
        // every model falls back to the per-last-task convention everywhere.
        let graph = generators::independent(&[5.0, 6.0, 7.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .checkpoint_costs(vec![1.0, 2.0, 3.0])
            .recovery_costs(vec![4.0, 5.0, 6.0])
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        let order = vec![TaskId(2), TaskId(0), TaskId(1)];
        for model in ALL_MODELS {
            let (ckpt, rec) = model.costs_along_order(&inst, &order);
            assert_eq!(ckpt, vec![3.0, 1.0, 2.0], "{model}");
            assert_eq!(rec, vec![6.0, 4.0, 5.0], "{model}");
        }
    }

    // The incremental-vs-recomputing sweep property test lives in the
    // workspace integration suite (`tests/live_set_cost_models.rs`): its
    // random layered DAG cases come from the shared
    // `ckpt_bench::testgen::random_layered_proptest_case` generator, and
    // `ckpt-bench` cannot be a dev-dependency here without the unit-test
    // build seeing two distinct `ckpt-core` compilations.
}
