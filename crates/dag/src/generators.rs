//! Workload generators.
//!
//! These build the DAG shapes used throughout the test suite and the
//! experiment harness: the linear chains of Proposition 3, the independent
//! sets of Proposition 2, and the fork-join / layered / tree shapes that the
//! paper's introduction cites as typical scientific workflows (DataCutter
//! pipelines, distributed application workflows, …).

use crate::error::GraphError;
use crate::graph::{TaskGraph, TaskGraphBuilder, TaskId};

/// Builds a linear chain `T1 → T2 → … → Tn` with the given weights, in
/// `O(n)`. Its tasks carry their default names.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] when `weights` is empty and
/// [`GraphError::InvalidWeight`] when any weight is not strictly positive.
pub fn chain(weights: &[f64]) -> Result<TaskGraph, GraphError> {
    if weights.is_empty() {
        return Err(GraphError::EmptyGraph);
    }
    let mut g = TaskGraphBuilder::with_capacity(weights.len(), weights.len() - 1);
    let mut prev: Option<TaskId> = None;
    for &w in weights {
        let id = g.add_task(w)?;
        if let Some(p) = prev {
            g.add_dependency(p, id)?;
        }
        prev = Some(id);
    }
    g.build()
}

/// Builds a set of independent tasks (no edges) with the given weights.
/// Its tasks carry their default names.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] when `weights` is empty and
/// [`GraphError::InvalidWeight`] when any weight is not strictly positive.
pub fn independent(weights: &[f64]) -> Result<TaskGraph, GraphError> {
    if weights.is_empty() {
        return Err(GraphError::EmptyGraph);
    }
    let mut g = TaskGraphBuilder::with_capacity(weights.len(), 0);
    for &w in weights {
        g.add_task(w)?;
    }
    g.build()
}

/// Builds a fork-join graph: one fork task, `branches` parallel branch tasks
/// with the given weights, and one join task.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `branches == 0`, and propagates
/// weight validation errors. `branch_weights` must have exactly `branches`
/// entries.
///
/// # Panics
///
/// Panics if `branch_weights.len() != branches`.
pub fn fork_join(
    branches: usize,
    branch_weights: &[f64],
    fork_weight: f64,
    join_weight: f64,
) -> Result<TaskGraph, GraphError> {
    if branches == 0 {
        return Err(GraphError::EmptyGraph);
    }
    assert_eq!(branch_weights.len(), branches, "need one weight per branch");
    let mut g = TaskGraphBuilder::with_capacity(branches + 2, 2 * branches);
    let fork = g.add_named_task("fork", fork_weight)?;
    let mut branch_ids = Vec::with_capacity(branches);
    for (i, &w) in branch_weights.iter().enumerate() {
        let id = g.add_named_task(format!("branch{}", i + 1), w)?;
        g.add_dependency(fork, id)?;
        branch_ids.push(id);
    }
    let join = g.add_named_task("join", join_weight)?;
    for id in branch_ids {
        g.add_dependency(id, join)?;
    }
    g.build()
}

/// Builds a diamond: `a → {b, c} → d` with the given four weights.
///
/// # Errors
///
/// Propagates weight validation errors.
pub fn diamond(weights: [f64; 4]) -> Result<TaskGraph, GraphError> {
    let mut g = TaskGraphBuilder::with_capacity(4, 4);
    let a = g.add_named_task("a", weights[0])?;
    let b = g.add_named_task("b", weights[1])?;
    let c = g.add_named_task("c", weights[2])?;
    let d = g.add_named_task("d", weights[3])?;
    g.add_dependency(a, b)?;
    g.add_dependency(a, c)?;
    g.add_dependency(b, d)?;
    g.add_dependency(c, d)?;
    g.build()
}

/// Builds a complete out-tree of the given `depth` and `fanout`; every task
/// has weight `weight`. A `depth` of 1 is a single task.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `depth == 0` or `fanout == 0`.
pub fn out_tree(depth: usize, fanout: usize, weight: f64) -> Result<TaskGraph, GraphError> {
    if depth == 0 || fanout == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut g = TaskGraphBuilder::new();
    let root = g.add_named_task("n0", weight)?;
    let mut frontier = vec![root];
    for _ in 1..depth {
        let mut next = Vec::with_capacity(frontier.len() * fanout);
        for &parent in &frontier {
            for _ in 0..fanout {
                let child = g.add_named_task(format!("n{}", g.task_count()), weight)?;
                g.add_dependency(parent, child)?;
                next.push(child);
            }
        }
        frontier = next;
    }
    g.build()
}

/// Builds a layered random DAG.
///
/// The graph has `layers.len()` precedence levels; level `k` contains
/// `layers[k]` tasks of weight `weight(level, index)`. Each task in level
/// `k+1` receives an edge from each task of level `k` with probability
/// `edge_prob`, drawn from the `coin` closure (call it with no arguments, get
/// a uniform variate in `[0,1)`); every task without a sampled predecessor is
/// connected to one task of the previous level so that levels are preserved.
///
/// Taking the `coin` as a closure keeps this crate independent of any RNG
/// implementation while still being fully deterministic under a seeded RNG.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `layers` is empty or contains a zero.
pub fn layered_random<W, C>(
    layers: &[usize],
    mut weight: W,
    edge_prob: f64,
    mut coin: C,
) -> Result<TaskGraph, GraphError>
where
    W: FnMut(usize, usize) -> f64,
    C: FnMut() -> f64,
{
    if layers.is_empty() || layers.contains(&0) {
        return Err(GraphError::EmptyGraph);
    }
    let mut g = TaskGraphBuilder::new();
    let mut previous: Vec<TaskId> = Vec::new();
    for (level, &count) in layers.iter().enumerate() {
        let mut current = Vec::with_capacity(count);
        for idx in 0..count {
            let id = g.add_named_task(format!("L{level}N{idx}"), weight(level, idx))?;
            current.push(id);
        }
        if level > 0 {
            for &to in &current {
                let mut connected = false;
                for &from in &previous {
                    if coin() < edge_prob {
                        g.add_dependency(from, to)?;
                        connected = true;
                    }
                }
                if !connected {
                    // Preserve the level structure: attach to a deterministic
                    // predecessor from the previous level.
                    let from = previous[to.0 % previous.len()];
                    g.add_dependency(from, to)?;
                }
            }
        }
        previous = current;
    }
    g.build()
}

/// Convenience: a chain of `n` tasks of equal weight `w`.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `n == 0`.
pub fn uniform_chain(n: usize, w: f64) -> Result<TaskGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    chain(&vec![w; n])
}

/// Convenience: `n` independent tasks of equal weight `w`.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] if `n == 0`.
pub fn uniform_independent(n: usize, w: f64) -> Result<TaskGraph, GraphError> {
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    independent(&vec![w; n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use crate::topo;

    #[test]
    fn chain_has_right_shape() {
        let g = chain(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(g.task_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(properties::is_chain(&g));
        assert_eq!(g.name(TaskId(0)), "T1");
        assert_eq!(g.weight(TaskId(2)), 3.0);
    }

    #[test]
    fn chain_rejects_empty_and_bad_weights() {
        assert!(matches!(chain(&[]), Err(GraphError::EmptyGraph)));
        assert!(chain(&[1.0, -1.0]).is_err());
    }

    #[test]
    fn independent_has_no_edges() {
        let g = independent(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert!(properties::is_independent(&g));
        assert!(independent(&[]).is_err());
    }

    #[test]
    fn fork_join_shape() {
        let g = fork_join(3, &[5.0, 6.0, 7.0], 1.0, 2.0).unwrap();
        assert_eq!(g.task_count(), 5);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(properties::depth(&g), 3);
        assert_eq!(properties::width(&g), 3);
        assert!(fork_join(0, &[], 1.0, 1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "one weight per branch")]
    fn fork_join_checks_weight_arity() {
        let _ = fork_join(3, &[1.0], 1.0, 1.0);
    }

    #[test]
    fn diamond_shape() {
        let g = diamond([1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(properties::critical_path(&g).0, 1.0 + 3.0 + 4.0);
    }

    #[test]
    fn out_tree_counts() {
        let g = out_tree(3, 2, 1.0).unwrap();
        // 1 + 2 + 4 = 7 tasks, 6 edges.
        assert_eq!(g.task_count(), 7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(properties::depth(&g), 3);
        assert!(out_tree(0, 2, 1.0).is_err());
        assert!(out_tree(2, 0, 1.0).is_err());
    }

    #[test]
    fn out_tree_depth_one_is_single_task() {
        let g = out_tree(1, 5, 2.0).unwrap();
        assert_eq!(g.task_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn layered_random_preserves_levels_and_is_acyclic() {
        // A deterministic "coin" that alternates values below/above 0.5.
        let mut flip = false;
        let coin = move || {
            flip = !flip;
            if flip {
                0.25
            } else {
                0.75
            }
        };
        let g = layered_random(&[3, 4, 2], |lvl, _| (lvl + 1) as f64, 0.5, coin).unwrap();
        assert_eq!(g.task_count(), 9);
        assert_eq!(properties::depth(&g), 3);
        // Valid topological order must exist (construction guarantees it).
        let order = topo::topological_sort(&g);
        assert!(topo::is_topological_order(&g, &order));
        // Every non-source task has at least one predecessor.
        let lvls = topo::levels(&g);
        assert_eq!(lvls[0].len(), 3);
        assert_eq!(lvls[1].len(), 4);
        assert_eq!(lvls[2].len(), 2);
    }

    #[test]
    fn layered_random_with_zero_probability_still_connects() {
        let g = layered_random(&[2, 2], |_, _| 1.0, 0.0, || 0.9).unwrap();
        // Each level-1 task got exactly one fallback predecessor.
        assert_eq!(g.edge_count(), 2);
        assert_eq!(properties::depth(&g), 2);
    }

    #[test]
    fn layered_random_rejects_bad_layer_specs() {
        assert!(layered_random(&[], |_, _| 1.0, 0.5, || 0.5).is_err());
        assert!(layered_random(&[2, 0, 1], |_, _| 1.0, 0.5, || 0.5).is_err());
    }

    #[test]
    fn uniform_helpers() {
        let c = uniform_chain(5, 2.0).unwrap();
        assert_eq!(c.task_count(), 5);
        assert_eq!(c.total_weight(), 10.0);
        let i = uniform_independent(4, 3.0).unwrap();
        assert_eq!(i.total_weight(), 12.0);
        assert!(uniform_chain(0, 1.0).is_err());
        assert!(uniform_independent(0, 1.0).is_err());
    }
}
