//! Remaining-graph extraction for online re-linearisation.
//!
//! When a linearised DAG execution has durably committed a prefix of its
//! order (the **completed-and-checkpointed frontier**), re-planning the rest
//! of the execution only concerns the *remaining* graph: the surviving
//! (unexecuted) tasks with the dependence edges induced among them. Edges
//! arriving from the frontier are satisfied — their producers' outputs are
//! part of the checkpointed state — so they drop out of the suffix problem,
//! and any topological order of the suffix subgraph, spliced after the
//! frontier, is a topological order of the full graph.
//!
//! [`suffix_subgraph`] performs that extraction in `O(n + E)`: it returns
//! the induced [`TaskGraph`] over the suffix (sub-ids assigned by suffix
//! position, so the identity order of the subgraph *is* the current suffix
//! order), the mapping back to original task ids, and the **live-set seed**
//! — the frontier tasks that still have unexecuted successors, i.e. exactly
//! the completed outputs a §6 live-set checkpoint of the suffix would have
//! to keep saving. The `ckpt-adaptive` re-linearisation policies run their
//! bounded-budget order search on this subgraph instead of the full graph.

use crate::graph::{TaskGraph, TaskGraphBuilder, TaskId};
use crate::topo::is_topological_order;

/// The remaining graph of a partially executed linearisation (see
/// [`suffix_subgraph`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SuffixSubgraph {
    /// The induced subgraph over the surviving tasks. Sub-ids are assigned
    /// by suffix position: `TaskId(i)` of this graph is the task at position
    /// `start + i` of the original order, with its original name and weight.
    pub graph: TaskGraph,
    /// Maps each sub-id back to the original task: `tasks[i]` is the
    /// original [`TaskId`] of the subgraph's `TaskId(i)`.
    pub tasks: Vec<TaskId>,
    /// The live-set seed: frontier (executed) tasks, in original ids and
    /// increasing id order, that still have at least one surviving
    /// successor. Their outputs are part of every checkpoint taken while
    /// they stay live, whatever suffix order is chosen.
    pub live_seed: Vec<TaskId>,
}

impl SuffixSubgraph {
    /// Translates an order over the subgraph (sub-ids) back to original
    /// task ids, ready to be spliced after the frontier.
    ///
    /// # Panics
    ///
    /// Panics if a sub-id is out of range of the subgraph.
    pub fn to_original_order(&self, sub_order: &[TaskId]) -> Vec<TaskId> {
        sub_order.iter().map(|&t| self.tasks[t.index()]).collect()
    }

    /// The number of surviving tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task survives (the execution frontier covers everything).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// Extracts the remaining graph of `order[start..]`: the induced subgraph
/// over the surviving tasks, the sub-id → original-id mapping, and the
/// live-set seed contributed by the frontier `order[..start]` (see the
/// module docs). Runs in `O(n + E)`.
///
/// `order` must be a topological order of `graph`; the suffix positions are
/// then precedence-consistent among themselves, so the identity order of the
/// subgraph is a valid topological order of it. Each surviving task keeps
/// its original [name](TaskGraph::name) and weight.
///
/// # Panics
///
/// Panics if `order` is not a topological order of `graph` covering every
/// task exactly once, or if `start > order.len()`.
pub fn suffix_subgraph(graph: &TaskGraph, order: &[TaskId], start: usize) -> SuffixSubgraph {
    assert!(
        is_topological_order(graph, order),
        "suffix_subgraph requires a topological order of the graph"
    );
    assert!(start <= order.len(), "frontier length {start} exceeds the order length");

    let n = graph.task_count();
    // Original id -> sub id (usize::MAX for frontier tasks).
    let mut sub_id = vec![usize::MAX; n];
    let tasks: Vec<TaskId> = order[start..].to_vec();
    for (i, &t) in tasks.iter().enumerate() {
        sub_id[t.index()] = i;
    }

    let mut sub = TaskGraphBuilder::with_capacity(tasks.len(), graph.edge_count());
    for &t in &tasks {
        sub.add_named_task(graph.name(t), graph.weight(t))
            .expect("weights of an existing graph are already validated");
    }
    for &t in &tasks {
        let from = sub_id[t.index()];
        for &succ in graph.successors(t) {
            let to = sub_id[succ.index()];
            // Successors of a surviving task are never in the frontier (the
            // order is topological), so `to` is always a valid sub id.
            debug_assert_ne!(to, usize::MAX, "successor of a surviving task in the frontier");
            sub.add_dependency(TaskId(from), TaskId(to))
                .expect("both endpoints of an induced edge survive");
        }
    }
    let sub = sub.build().expect("the induced subgraph of a DAG is a DAG");

    // Frontier tasks with at least one surviving successor stay live for
    // the whole suffix-planning horizon.
    let live_seed: Vec<TaskId> = order[..start]
        .iter()
        .copied()
        .filter(|&t| graph.successors(t).iter().any(|s| sub_id[s.index()] != usize::MAX))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    SuffixSubgraph { graph: sub, tasks, live_seed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::topo;

    fn diamond() -> TaskGraph {
        generators::diamond([1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn empty_frontier_reproduces_the_whole_graph() {
        let g = diamond();
        let order = topo::topological_sort(&g);
        let sub = suffix_subgraph(&g, &order, 0);
        assert_eq!(sub.len(), 4);
        assert!(!sub.is_empty());
        assert_eq!(sub.graph.edge_count(), 4);
        assert!(sub.live_seed.is_empty());
        // Sub ids follow the order, weights/names are carried over.
        for (i, &t) in order.iter().enumerate() {
            assert_eq!(sub.tasks[i], t);
            assert_eq!(sub.graph.weight(TaskId(i)), g.weight(t));
            assert_eq!(sub.graph.name(TaskId(i)), g.name(t));
        }
    }

    #[test]
    fn full_frontier_leaves_an_empty_subgraph() {
        let g = diamond();
        let order = topo::topological_sort(&g);
        let sub = suffix_subgraph(&g, &order, 4);
        assert!(sub.is_empty());
        assert!(sub.graph.is_empty());
        assert!(sub.live_seed.is_empty());
    }

    #[test]
    fn mid_execution_frontier_drops_satisfied_edges_and_seeds_the_live_set() {
        // Diamond a -> {b, c} -> d, order a b c d, frontier {a, b}.
        let g = diamond();
        let order: Vec<TaskId> = (0..4).map(TaskId).collect();
        let sub = suffix_subgraph(&g, &order, 2);
        // Surviving: c, d with the single induced edge c -> d.
        assert_eq!(sub.tasks, vec![TaskId(2), TaskId(3)]);
        assert_eq!(sub.graph.task_count(), 2);
        assert_eq!(sub.graph.edge_count(), 1);
        assert!(sub.graph.has_edge(TaskId(0), TaskId(1)));
        // Both a (needed by c) and b (needed by d) are still live.
        assert_eq!(sub.live_seed, vec![TaskId(0), TaskId(1)]);
        // A sub order maps back to original ids.
        assert_eq!(sub.to_original_order(&[TaskId(0), TaskId(1)]), vec![TaskId(2), TaskId(3)]);
    }

    #[test]
    fn live_seed_excludes_fully_consumed_frontier_tasks() {
        // Chain of 4, frontier {T0, T1}: only T1 still feeds the suffix.
        let g = generators::chain(&[1.0; 4]).unwrap();
        let order: Vec<TaskId> = (0..4).map(TaskId).collect();
        let sub = suffix_subgraph(&g, &order, 2);
        assert_eq!(sub.live_seed, vec![TaskId(1)]);
        assert_eq!(sub.graph.edge_count(), 1);
    }

    #[test]
    fn surviving_tasks_keep_their_original_default_names() {
        let g = generators::chain(&[1.0; 4]).unwrap();
        let order: Vec<TaskId> = (0..4).map(TaskId).collect();
        let sub = suffix_subgraph(&g, &order, 2);
        assert_eq!(sub.graph.name(TaskId(0)), "T3");
        assert_eq!(sub.graph.name(TaskId(1)), "T4");
    }

    #[test]
    fn any_topological_suffix_order_splices_into_a_valid_full_order() {
        let g = generators::fork_join(4, &[2.0, 3.0, 4.0, 5.0], 1.0, 1.0).unwrap();
        let order = topo::topological_sort(&g);
        for start in 0..=order.len() {
            let sub = suffix_subgraph(&g, &order, start);
            // Identity order of the subgraph is topological…
            let identity: Vec<TaskId> = (0..sub.len()).map(TaskId).collect();
            assert!(topo::is_topological_order(&sub.graph, &identity));
            // …and every topological order of the subgraph, spliced after
            // the frontier, is a topological order of the full graph.
            for sub_order in topo::all_topological_orders(&sub.graph) {
                let mut full = order[..start].to_vec();
                full.extend(sub.to_original_order(&sub_order));
                assert!(
                    topo::is_topological_order(&g, &full),
                    "start {start}: spliced order is not topological"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn non_topological_orders_are_rejected() {
        let g = diamond();
        let order: Vec<TaskId> = (0..4).rev().map(TaskId).collect();
        let _ = suffix_subgraph(&g, &order, 1);
    }
}
