//! Topological orders of a task graph.
//!
//! Under the paper's full-parallelism assumption (§2), executing the workflow
//! means choosing a *linearisation* of the DAG — i.e. a topological order —
//! and then deciding where to checkpoint. This module provides the order
//! machinery: Kahn's algorithm for one order, a seeded random order (used by
//! randomised heuristics), verification of candidate orders, and exhaustive
//! enumeration of all orders for the small instances used by brute-force
//! optimality checks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{TaskGraph, TaskId};

/// Computes one topological order using Kahn's algorithm.
///
/// Ties are broken by task id (the smallest ready id runs first), so the
/// result is deterministic. Runs in `O((n + E) log n)`. Returns an empty
/// vector for an empty graph.
pub fn topological_sort(graph: &TaskGraph) -> Vec<TaskId> {
    let n = graph.task_count();
    let mut in_degree: Vec<usize> = (0..n).map(|i| graph.in_degree(TaskId(i))).collect();
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| in_degree[i] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(node)) = ready.pop() {
        order.push(TaskId(node));
        for &succ in graph.successors(TaskId(node)) {
            in_degree[succ.0] -= 1;
            if in_degree[succ.0] == 0 {
                ready.push(Reverse(succ.0));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "TaskGraph invariant guarantees acyclicity");
    order
}

/// Checks whether `order` is a valid topological order of `graph`:
/// it must contain every task exactly once and respect every edge. Runs in
/// `O(n + E)`, reading the edges in place.
pub fn is_topological_order(graph: &TaskGraph, order: &[TaskId]) -> bool {
    let n = graph.task_count();
    if order.len() != n {
        return false;
    }
    let mut position = vec![usize::MAX; n];
    for (pos, &task) in order.iter().enumerate() {
        if task.0 >= n || position[task.0] != usize::MAX {
            return false;
        }
        position[task.0] = pos;
    }
    graph
        .task_ids()
        .all(|from| graph.successors(from).iter().all(|to| position[from.0] < position[to.0]))
}

/// Computes a random topological order, using the provided uniform variates.
///
/// `pick` is called with the number of currently ready tasks and must return
/// an index in `0..ready_count`; passing a closure backed by a seeded RNG
/// yields reproducible random linearisations without coupling this crate to a
/// particular RNG implementation.
pub fn random_topological_order<F>(graph: &TaskGraph, mut pick: F) -> Vec<TaskId>
where
    F: FnMut(usize) -> usize,
{
    let n = graph.task_count();
    let mut in_degree: Vec<usize> = (0..n).map(|i| graph.in_degree(TaskId(i))).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
    ready.sort_unstable();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let idx = pick(ready.len()).min(ready.len() - 1);
        let node = ready.remove(idx);
        order.push(TaskId(node));
        for &succ in graph.successors(TaskId(node)) {
            in_degree[succ.0] -= 1;
            if in_degree[succ.0] == 0 {
                ready.push(succ.0);
            }
        }
        ready.sort_unstable();
    }
    order
}

/// Enumerates **all** topological orders of `graph`.
///
/// The number of orders grows factorially (an independent set of `n` tasks has
/// `n!` orders), so this is only meant for the brute-force optimality checks
/// on small instances (experiment E2/E4).
///
/// # Panics
///
/// Panics if the graph has more than 12 tasks, to protect against accidental
/// combinatorial explosions.
pub fn all_topological_orders(graph: &TaskGraph) -> Vec<Vec<TaskId>> {
    assert!(
        graph.task_count() <= max_tasks_for_enumeration(),
        "refusing to enumerate topological orders of a graph with more than {} tasks",
        max_tasks_for_enumeration()
    );
    let n = graph.task_count();
    let mut in_degree: Vec<usize> = (0..n).map(|i| graph.in_degree(TaskId(i))).collect();
    let mut current = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut out = Vec::new();
    enumerate(graph, &mut in_degree, &mut used, &mut current, &mut out);
    out
}

/// The largest graph size accepted by [`all_topological_orders`].
fn max_tasks_for_enumeration() -> usize {
    12
}

fn enumerate(
    graph: &TaskGraph,
    in_degree: &mut Vec<usize>,
    used: &mut Vec<bool>,
    current: &mut Vec<TaskId>,
    out: &mut Vec<Vec<TaskId>>,
) {
    let n = graph.task_count();
    if current.len() == n {
        out.push(current.clone());
        return;
    }
    for i in 0..n {
        if !used[i] && in_degree[i] == 0 {
            used[i] = true;
            current.push(TaskId(i));
            for &succ in graph.successors(TaskId(i)) {
                in_degree[succ.0] -= 1;
            }
            enumerate(graph, in_degree, used, current, out);
            for &succ in graph.successors(TaskId(i)) {
                in_degree[succ.0] += 1;
            }
            current.pop();
            used[i] = false;
        }
    }
}

/// Groups tasks into precedence levels: level 0 contains the sources, level
/// `k+1` contains tasks whose predecessors all lie in levels `≤ k`.
///
/// The result is a partition of the task set; it is used for layered DAG
/// statistics and as a crude parallelism profile.
pub fn levels(graph: &TaskGraph) -> Vec<Vec<TaskId>> {
    let order = topological_sort(graph);
    let mut level = vec![0usize; graph.task_count()];
    let mut max_level = 0;
    for &task in &order {
        let lvl = graph.predecessors(task).iter().map(|p| level[p.0] + 1).max().unwrap_or(0);
        level[task.0] = lvl;
        max_level = max_level.max(lvl);
    }
    let mut out = vec![Vec::new(); if graph.is_empty() { 0 } else { max_level + 1 }];
    for task in graph.task_ids() {
        out[level[task.0]].push(task);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::TaskGraph;

    fn diamond() -> TaskGraph {
        // a -> b, a -> c, b -> d, c -> d
        generators::diamond([1.0; 4]).unwrap()
    }

    #[test]
    fn topological_sort_of_chain_is_the_chain() {
        let g = generators::chain(&[1.0; 5]).unwrap();
        let order = topological_sort(&g);
        assert_eq!(order, (0..5).map(TaskId).collect::<Vec<_>>());
        assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn topological_sort_respects_edges_on_diamond() {
        let g = diamond();
        let order = topological_sort(&g);
        assert!(is_topological_order(&g, &order));
        assert_eq!(order.first(), Some(&TaskId(0)));
        assert_eq!(order.last(), Some(&TaskId(3)));
    }

    #[test]
    fn is_topological_order_rejects_bad_orders() {
        let g = diamond();
        // Wrong length.
        assert!(!is_topological_order(&g, &[TaskId(0)]));
        // Duplicate.
        assert!(!is_topological_order(&g, &[TaskId(0), TaskId(0), TaskId(1), TaskId(2)]));
        // Edge violated (d before b).
        assert!(!is_topological_order(&g, &[TaskId(0), TaskId(2), TaskId(3), TaskId(1)]));
        // Unknown id.
        assert!(!is_topological_order(&g, &[TaskId(0), TaskId(1), TaskId(2), TaskId(9)]));
    }

    #[test]
    fn empty_graph_has_empty_order() {
        let g = TaskGraph::default();
        assert!(topological_sort(&g).is_empty());
        assert!(is_topological_order(&g, &[]));
        assert!(levels(&g).is_empty());
    }

    #[test]
    fn all_orders_of_independent_tasks_is_factorial() {
        let g = generators::independent(&[1.0, 2.0, 3.0]).unwrap();
        let orders = all_topological_orders(&g);
        assert_eq!(orders.len(), 6);
        for order in &orders {
            assert!(is_topological_order(&g, order));
        }
    }

    #[test]
    fn all_orders_of_chain_is_one() {
        let g = generators::chain(&[1.0; 6]).unwrap();
        assert_eq!(all_topological_orders(&g).len(), 1);
    }

    #[test]
    fn all_orders_of_diamond_is_two() {
        let g = diamond();
        let orders = all_topological_orders(&g);
        assert_eq!(orders.len(), 2);
    }

    #[test]
    #[should_panic(expected = "refusing to enumerate")]
    fn all_orders_guards_against_large_graphs() {
        let g = generators::independent(&[1.0; 13]).unwrap();
        let _ = all_topological_orders(&g);
    }

    #[test]
    fn random_order_is_valid_for_any_pick() {
        let g = diamond();
        // Always pick the last ready task.
        let order = random_topological_order(&g, |len| len - 1);
        assert!(is_topological_order(&g, &order));
        // Always pick the first ready task.
        let order = random_topological_order(&g, |_| 0);
        assert!(is_topological_order(&g, &order));
        // Out-of-range picks are clamped.
        let order = random_topological_order(&g, |_| 1_000_000);
        assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn levels_of_diamond() {
        let g = diamond();
        let lv = levels(&g);
        assert_eq!(lv.len(), 3);
        assert_eq!(lv[0], vec![TaskId(0)]);
        assert_eq!(lv[1], vec![TaskId(1), TaskId(2)]);
        assert_eq!(lv[2], vec![TaskId(3)]);
    }

    #[test]
    fn levels_partition_the_task_set() {
        let g = generators::fork_join(4, &[2.0; 4], 1.0, 1.0).unwrap();
        let lv = levels(&g);
        let total: usize = lv.iter().map(|l| l.len()).sum();
        assert_eq!(total, g.task_count());
    }
}
