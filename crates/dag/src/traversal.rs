//! Reachability and live-set queries: the transitive closure, and the set of
//! completed tasks that still have an unexecuted successor.
//!
//! The general checkpoint-cost extension of §6 needs, for any prefix of an
//! execution, that "live" set: the tasks whose data a checkpoint must save.
//! [`live_tasks`] recomputes it from scratch and [`LiveSetSweep`] maintains
//! it incrementally along an order.

use std::collections::BTreeSet;

use crate::graph::{TaskGraph, TaskId};

/// The full transitive closure as a boolean reachability matrix:
/// `closure[i][j]` is true iff `TaskId(j)` is reachable from `TaskId(i)`
/// (with `closure[i][i] == true`).
pub fn transitive_closure(graph: &TaskGraph) -> Vec<Vec<bool>> {
    let n = graph.task_count();
    let mut closure = vec![vec![false; n]; n];
    // Process in reverse topological order so each node can reuse the closure
    // of its successors.
    let order = crate::topo::topological_sort(graph);
    for &node in order.iter().rev() {
        closure[node.0][node.0] = true;
        let succ: Vec<TaskId> = graph.successors(node).to_vec();
        for s in succ {
            // closure[node] |= closure[s]
            let (head, tail) = if node.0 < s.0 {
                let (a, b) = closure.split_at_mut(s.0);
                (&mut a[node.0], &b[0])
            } else {
                let (a, b) = closure.split_at_mut(node.0);
                (&mut b[0], &a[s.0])
            };
            for j in 0..n {
                head[j] = head[j] || tail[j];
            }
        }
    }
    closure
}

/// Given the set of `completed` tasks (which must be closed under
/// predecessors), returns the subset whose output is still **live**: tasks
/// with at least one successor that has not completed yet.
///
/// This is exactly the set of tasks a general checkpoint after that prefix
/// must save (paper §6, first extension). For a linear chain the result is
/// always the single most recently completed task, which is why the paper's
/// per-task cost model is fully general for chains.
///
/// Recomputes the live set from scratch in `O(n·degree)` — the reference
/// formulation. Sweeping a whole execution order position by position should
/// go through [`LiveSetSweep`] instead, which maintains the set
/// incrementally in `O(n + E)` total.
pub fn live_tasks(graph: &TaskGraph, completed: &BTreeSet<TaskId>) -> Vec<TaskId> {
    completed
        .iter()
        .copied()
        .filter(|&t| graph.successors(t).iter().any(|succ| !completed.contains(succ)))
        .collect()
}

/// Incremental live-set maintenance along a topological execution order.
///
/// [`live_tasks`] re-derives the live set of a prefix from scratch; evaluating
/// it once per position of an order therefore costs `O(n·degree)` per
/// linearisation. This structure instead maintains the live set as a **delta
/// structure** while the order is swept front to back: completing a task
///
/// * adds the task itself to the live set iff it has at least one successor
///   (all its successors are unexecuted at that instant, the order being
///   topological), and
/// * retires every predecessor whose last unexecuted successor it was.
///
/// Each task enters the live set at most once and leaves at most once, and
/// every edge is inspected exactly once over the whole sweep, so a full
/// order costs `O(n + E)` — the bound `ckpt-core`'s §6 cost-model tables are
/// built in. [`reset`](LiveSetSweep::reset) rewinds the sweep without
/// reallocating, so one instance can evaluate many candidate orders.
///
/// # Example
///
/// ```
/// use ckpt_dag::{generators, traversal::LiveSetSweep, TaskId};
///
/// // Diamond a → {b, c} → d, executed in id order.
/// let g = generators::diamond([1.0, 1.0, 1.0, 1.0])?;
/// let mut sweep = LiveSetSweep::new(&g);
/// sweep.complete(TaskId(0), |_| {});
/// sweep.complete(TaskId(1), |_| {});
/// // After {a, b}: a is still needed by c, b by d.
/// assert_eq!(sweep.live_tasks(), vec![TaskId(0), TaskId(1)]);
/// let mut retired = Vec::new();
/// sweep.complete(TaskId(2), |t| retired.push(t));
/// // Completing c retires a (both its successors are now done).
/// assert_eq!(retired, vec![TaskId(0)]);
/// assert_eq!(sweep.live_tasks(), vec![TaskId(1), TaskId(2)]);
/// # Ok::<(), ckpt_dag::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LiveSetSweep<'g> {
    graph: &'g TaskGraph,
    /// Number of successors of each task that have not been executed yet.
    remaining_successors: Vec<usize>,
    completed: Vec<bool>,
    live: Vec<bool>,
    live_count: usize,
}

impl<'g> LiveSetSweep<'g> {
    /// A sweep positioned before the first task of an order of `graph`.
    pub fn new(graph: &'g TaskGraph) -> Self {
        let n = graph.task_count();
        let remaining_successors = (0..n).map(|i| graph.out_degree(TaskId(i))).collect();
        LiveSetSweep {
            graph,
            remaining_successors,
            completed: vec![false; n],
            live: vec![false; n],
            live_count: 0,
        }
    }

    /// Rewinds the sweep to the empty prefix, keeping all allocations.
    pub fn reset(&mut self) {
        for (i, slot) in self.remaining_successors.iter_mut().enumerate() {
            *slot = self.graph.out_degree(TaskId(i));
        }
        self.completed.fill(false);
        self.live.fill(false);
        self.live_count = 0;
    }

    /// Advances the sweep by completing `task` (the next task of the order).
    ///
    /// Returns `true` iff `task` itself **entered** the live set (it has at
    /// least one successor); calls `on_retire` once for every task that
    /// **left** the live set because `task` was its last unexecuted
    /// successor.
    ///
    /// # Panics
    ///
    /// Panics if `task` was already completed or has an uncompleted
    /// predecessor (i.e. the completion sequence is not a topological
    /// order).
    pub fn complete<F>(&mut self, task: TaskId, mut on_retire: F) -> bool
    where
        F: FnMut(TaskId),
    {
        assert!(!self.completed[task.0], "task {task} completed twice");
        let predecessors = self.graph.predecessors(task);
        assert!(
            predecessors.iter().all(|p| self.completed[p.0]),
            "task {task} completed before one of its predecessors"
        );
        self.completed[task.0] = true;
        let entered = self.graph.out_degree(task) > 0;
        if entered {
            self.live[task.0] = true;
            self.live_count += 1;
        }
        for &pred in predecessors {
            self.remaining_successors[pred.0] -= 1;
            if self.remaining_successors[pred.0] == 0 {
                // `pred` is live (it had a successor — `task`), and `task`
                // was its last unexecuted one.
                debug_assert!(self.live[pred.0]);
                self.live[pred.0] = false;
                self.live_count -= 1;
                on_retire(pred);
            }
        }
        entered
    }

    /// Whether `task` is in the live set of the current prefix.
    pub fn is_live(&self, task: TaskId) -> bool {
        self.live[task.0]
    }

    /// The size of the current live set.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// The current live set in increasing id order — the same value
    /// [`live_tasks`] returns for the completed prefix (materialises a
    /// vector; the hot paths use the incremental callbacks instead).
    pub fn live_tasks(&self) -> Vec<TaskId> {
        self.live
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| if l { Some(TaskId(i)) } else { None })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn diamond() -> TaskGraph {
        generators::diamond([1.0; 4]).unwrap()
    }

    #[test]
    fn closure_matches_reachability() {
        let g = diamond();
        let closure = transitive_closure(&g);
        for (i, row) in closure.iter().enumerate() {
            for (j, &reachable) in row.iter().enumerate() {
                assert_eq!(
                    reachable,
                    g.is_reachable(TaskId(i), TaskId(j)),
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn closure_of_chain_is_upper_triangular() {
        let g = generators::chain(&[1.0; 5]).unwrap();
        let closure = transitive_closure(&g);
        for (i, row) in closure.iter().enumerate() {
            for (j, &reachable) in row.iter().enumerate() {
                assert_eq!(reachable, j >= i);
            }
        }
    }

    #[test]
    fn live_tasks_on_chain_is_last_completed() {
        let g = generators::chain(&[1.0; 4]).unwrap();
        let completed: BTreeSet<TaskId> = [TaskId(0), TaskId(1)].into_iter().collect();
        assert_eq!(live_tasks(&g, &completed), vec![TaskId(1)]);
        let all: BTreeSet<TaskId> = g.task_ids().collect();
        assert_eq!(live_tasks(&g, &all), vec![]);
    }

    #[test]
    fn live_tasks_on_diamond_prefix() {
        let g = diamond();
        // After completing a and b, both a (needed by c) and b (needed by d) are live.
        let completed: BTreeSet<TaskId> = [TaskId(0), TaskId(1)].into_iter().collect();
        assert_eq!(live_tasks(&g, &completed), vec![TaskId(0), TaskId(1)]);
        // After completing a, b, c, only b and c are live (a's successors done).
        let completed: BTreeSet<TaskId> = [TaskId(0), TaskId(1), TaskId(2)].into_iter().collect();
        assert_eq!(live_tasks(&g, &completed), vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn live_tasks_of_independent_set_is_empty() {
        let g = generators::independent(&[1.0, 1.0, 1.0]).unwrap();
        let completed: BTreeSet<TaskId> = [TaskId(0)].into_iter().collect();
        assert!(live_tasks(&g, &completed).is_empty());
    }

    #[test]
    fn sweep_matches_recomputed_live_set_at_every_prefix() {
        let g = diamond();
        let order = crate::topo::topological_sort(&g);
        let mut sweep = LiveSetSweep::new(&g);
        let mut completed = BTreeSet::new();
        for &task in &order {
            sweep.complete(task, |_| {});
            completed.insert(task);
            assert_eq!(sweep.live_tasks(), live_tasks(&g, &completed));
            assert_eq!(sweep.live_count(), live_tasks(&g, &completed).len());
        }
        assert!(sweep.completed.iter().all(|&done| done));
    }

    #[test]
    fn sweep_reports_enter_and_retire_deltas() {
        let g = diamond();
        // a enters (has successors), retires nobody.
        let mut sweep = LiveSetSweep::new(&g);
        assert!(sweep.complete(TaskId(0), |_| panic!("nothing to retire")));
        assert!(sweep.is_live(TaskId(0)));
        // b enters; a stays (c still pending).
        assert!(sweep.complete(TaskId(1), |_| panic!("nothing to retire")));
        // c enters and retires a.
        let mut retired = Vec::new();
        assert!(sweep.complete(TaskId(2), |t| retired.push(t)));
        assert_eq!(retired, vec![TaskId(0)]);
        // d (a sink) does not enter; it retires b and c.
        let mut retired = Vec::new();
        assert!(!sweep.complete(TaskId(3), |t| retired.push(t)));
        retired.sort();
        assert_eq!(retired, vec![TaskId(1), TaskId(2)]);
        assert_eq!(sweep.live_count(), 0);
    }

    #[test]
    fn sweep_reset_allows_reuse_across_orders() {
        let g = diamond();
        let mut sweep = LiveSetSweep::new(&g);
        for &t in &[TaskId(0), TaskId(1), TaskId(2), TaskId(3)] {
            sweep.complete(t, |_| {});
        }
        sweep.reset();
        assert_eq!(sweep.live_count(), 0);
        assert!(!sweep.completed.contains(&true));
        // The other topological order of the diamond.
        let mut completed = BTreeSet::new();
        for &t in &[TaskId(0), TaskId(2), TaskId(1), TaskId(3)] {
            sweep.complete(t, |_| {});
            completed.insert(t);
            assert_eq!(sweep.live_tasks(), live_tasks(&g, &completed));
        }
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn sweep_rejects_duplicate_completion() {
        let g = diamond();
        let mut sweep = LiveSetSweep::new(&g);
        sweep.complete(TaskId(0), |_| {});
        sweep.complete(TaskId(0), |_| {});
    }

    #[test]
    #[should_panic(expected = "before one of its predecessors")]
    fn sweep_rejects_non_topological_completion() {
        let g = diamond();
        let mut sweep = LiveSetSweep::new(&g);
        sweep.complete(TaskId(3), |_| {});
    }
}
