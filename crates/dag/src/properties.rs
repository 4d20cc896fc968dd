//! Structural properties of task graphs.
//!
//! The paper's results attach to specific DAG shapes: Proposition 3 requires a
//! *linear chain*, Proposition 2 holds already for an *independent set*, and
//! the discussion of full parallelism (§2) mentions that linear chains are
//! "very frequent in scientific applications". This module detects those
//! shapes and computes the classical DAG metrics (critical path, depth,
//! width) used by the experiment harness to describe generated workloads.

use crate::graph::{TaskGraph, TaskId};
use crate::topo::{levels, topological_sort};

/// If the graph is a linear chain `T_{i1} → T_{i2} → … → T_{in}`, returns the
/// task ids in chain order; otherwise returns `None`.
///
/// A chain requires every task to have in-degree ≤ 1 and out-degree ≤ 1, a
/// single source, a single sink, and connectivity (exactly `n − 1` edges).
/// The empty graph is not a chain; a single task is.
pub fn as_chain(graph: &TaskGraph) -> Option<Vec<TaskId>> {
    let n = graph.task_count();
    if n == 0 {
        return None;
    }
    if graph.edge_count() != n - 1 {
        return None;
    }
    if graph.task_ids().any(|t| graph.in_degree(t) > 1 || graph.out_degree(t) > 1) {
        return None;
    }
    let sources = graph.sources();
    if sources.len() != 1 {
        return None;
    }
    // Walk the chain from the unique source.
    let mut order = Vec::with_capacity(n);
    let mut current = sources[0];
    order.push(current);
    while let Some(&next) = graph.successors(current).first() {
        order.push(next);
        current = next;
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

/// Whether the graph is a linear chain.
pub fn is_chain(graph: &TaskGraph) -> bool {
    as_chain(graph).is_some()
}

/// Whether the tasks are independent (the graph has no edges).
///
/// This is the shape of the Proposition 2 NP-completeness instance.
pub fn is_independent(graph: &TaskGraph) -> bool {
    graph.edge_count() == 0
}

/// The critical path: the heaviest (by summed weight) directed path in the
/// graph, returned as `(total_weight, path)`.
///
/// Returns `(0.0, vec![])` for an empty graph.
pub fn critical_path(graph: &TaskGraph) -> (f64, Vec<TaskId>) {
    let n = graph.task_count();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let order = topological_sort(graph);
    // best[i] = heaviest path ending at i (including w_i); parent for reconstruction.
    let mut best = vec![0.0f64; n];
    let mut parent: Vec<Option<TaskId>> = vec![None; n];
    for &task in &order {
        let w = graph.weight(task);
        let (incoming, from) = graph
            .predecessors(task)
            .iter()
            .map(|&p| (best[p.0], Some(p)))
            .fold((0.0, None), |acc, x| if x.0 > acc.0 { x } else { acc });
        best[task.0] = incoming + w;
        parent[task.0] = from;
    }
    let (end, &weight) = best
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("weights are finite"))
        .expect("graph is non-empty");
    let mut path = vec![TaskId(end)];
    while let Some(p) = parent[path.last().unwrap().0] {
        path.push(p);
    }
    path.reverse();
    (weight, path)
}

/// The depth of the graph: the number of tasks on the longest path (counting
/// tasks, not edges). Zero for an empty graph.
pub fn depth(graph: &TaskGraph) -> usize {
    levels(graph).len()
}

/// The width of the graph: the size of the largest precedence level.
///
/// This is an upper bound on the exploitable task parallelism; under the
/// paper's full-parallelism assumption it is ignored by the scheduler but
/// reported by the experiment harness to characterise workloads.
pub fn width(graph: &TaskGraph) -> usize {
    levels(graph).iter().map(|l| l.len()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::TaskGraphBuilder;

    #[test]
    fn chain_detection_positive() {
        let g = generators::chain(&[1.0, 2.0, 3.0]).unwrap();
        let order = as_chain(&g).unwrap();
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert!(is_chain(&g));
        assert!(!is_independent(&g));
    }

    #[test]
    fn single_task_is_a_chain_and_independent() {
        let g = generators::chain(&[5.0]).unwrap();
        assert!(is_chain(&g));
        assert!(is_independent(&g));
    }

    #[test]
    fn empty_graph_is_not_a_chain() {
        let g = TaskGraph::default();
        assert!(as_chain(&g).is_none());
        assert_eq!(depth(&g), 0);
        assert_eq!(width(&g), 0);
        assert_eq!(critical_path(&g), (0.0, vec![]));
    }

    #[test]
    fn chain_detection_negative_for_fork() {
        let mut g = TaskGraphBuilder::new();
        let a = g.add_task(1.0).unwrap();
        let b = g.add_task(1.0).unwrap();
        let c = g.add_task(1.0).unwrap();
        g.add_dependency(a, b).unwrap();
        g.add_dependency(a, c).unwrap();
        assert!(!is_chain(&g.build().unwrap()));
    }

    #[test]
    fn chain_detection_negative_for_disconnected_chains() {
        // Two 2-task chains: degrees are fine but edge count is n-2.
        let mut g = TaskGraphBuilder::new();
        let a = g.add_task(1.0).unwrap();
        let b = g.add_task(1.0).unwrap();
        let c = g.add_task(1.0).unwrap();
        let d = g.add_task(1.0).unwrap();
        g.add_dependency(a, b).unwrap();
        g.add_dependency(c, d).unwrap();
        assert!(!is_chain(&g.build().unwrap()));
    }

    #[test]
    fn independent_detection() {
        let g = generators::independent(&[1.0, 1.0]).unwrap();
        assert!(is_independent(&g));
        assert!(!is_chain(&g));
    }

    #[test]
    fn critical_path_of_chain_is_total_weight() {
        let g = generators::chain(&[1.0, 2.0, 3.0]).unwrap();
        let (w, path) = critical_path(&g);
        assert_eq!(w, 6.0);
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn critical_path_of_independent_is_heaviest_task() {
        let g = generators::independent(&[1.0, 7.0, 3.0]).unwrap();
        let (w, path) = critical_path(&g);
        assert_eq!(w, 7.0);
        assert_eq!(path, vec![TaskId(1)]);
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        // a -> b(10) -> d, a -> c(1) -> d
        let g = generators::diamond([1.0, 10.0, 1.0, 1.0]).unwrap();
        let [a, b, d] = [TaskId(0), TaskId(1), TaskId(3)];
        let (w, path) = critical_path(&g);
        assert_eq!(w, 12.0);
        assert_eq!(path, vec![a, b, d]);
    }

    #[test]
    fn depth_and_width() {
        let g = generators::fork_join(3, &[1.0, 1.0, 1.0], 1.0, 1.0).unwrap();
        assert_eq!(depth(&g), 3); // fork, branches, join
        assert_eq!(width(&g), 3);
        let chain = generators::chain(&[1.0; 7]).unwrap();
        assert_eq!(depth(&chain), 7);
        assert_eq!(width(&chain), 1);
        let ind = generators::independent(&[1.0; 7]).unwrap();
        assert_eq!(depth(&ind), 1);
        assert_eq!(width(&ind), 7);
    }
}
