//! The [`TaskGraph`] container.

use crate::error::GraphError;

/// Identifier of a task inside a [`TaskGraph`].
///
/// Ids are dense indices assigned in insertion order; `TaskId(i)` is the
/// `i`-th task added to the graph. By convention the paper numbers tasks from
/// 1 (`T1 … Tn`); the `Display` impl follows the paper (`TaskId(0)` prints as
/// `T0` only for graphs built programmatically, generators start at `T1`
/// semantics through their names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The dense index of this task.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A task: a name plus its computational weight `w_i` (seconds of work).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    name: String,
    weight: f64,
}

impl Task {
    /// The task's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's computational weight `w_i`.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

/// A directed acyclic graph of weighted tasks.
///
/// The graph enforces acyclicity eagerly: [`TaskGraph::add_dependency`]
/// rejects any edge that would close a cycle, so a `TaskGraph` value is a DAG
/// by construction.
///
/// # Example
///
/// ```rust
/// use ckpt_dag::TaskGraph;
///
/// let mut g = TaskGraph::new();
/// let a = g.add_task("a", 5.0)?;
/// let b = g.add_task("b", 3.0)?;
/// let c = g.add_task("c", 2.0)?;
/// g.add_dependency(a, b)?;
/// g.add_dependency(b, c)?;
/// assert!(g.add_dependency(c, a).is_err()); // would close a cycle
/// # Ok::<(), ckpt_dag::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    successors: Vec<Vec<TaskId>>,
    predecessors: Vec<Vec<TaskId>>,
    edge_count: usize,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Creates an empty graph with capacity for `n` tasks.
    pub fn with_capacity(n: usize) -> Self {
        TaskGraph {
            tasks: Vec::with_capacity(n),
            successors: Vec::with_capacity(n),
            predecessors: Vec::with_capacity(n),
            edge_count: 0,
        }
    }

    /// Adds a task with the given name and weight, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidWeight`] if `weight` is not strictly
    /// positive and finite.
    pub fn add_task(&mut self, name: impl Into<String>, weight: f64) -> Result<TaskId, GraphError> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(GraphError::InvalidWeight { weight });
        }
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task { name: name.into(), weight });
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());
        Ok(id)
    }

    /// Adds a dependence edge `from → to` (i.e. `to` cannot start before
    /// `from` completes).
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownTask`] if either endpoint is not in the graph;
    /// * [`GraphError::SelfLoop`] if `from == to`;
    /// * [`GraphError::DuplicateEdge`] if the edge already exists;
    /// * [`GraphError::CycleDetected`] if the edge would close a cycle.
    pub fn add_dependency(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        self.check_task(from)?;
        self.check_task(to)?;
        if from == to {
            return Err(GraphError::SelfLoop { task: from });
        }
        if self.successors[from.0].contains(&to) {
            return Err(GraphError::DuplicateEdge { from, to });
        }
        // The edge from -> to closes a cycle iff `from` is reachable from `to`.
        if self.is_reachable(to, from) {
            return Err(GraphError::CycleDetected { from, to });
        }
        self.successors[from.0].push(to);
        self.predecessors[to.0].push(from);
        self.edge_count += 1;
        Ok(())
    }

    /// The number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The number of dependence edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// The task with id `id`, or `None` if it does not exist.
    pub fn get_task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.0)
    }

    /// The weight `w_i` of task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn weight(&self, id: TaskId) -> f64 {
        self.tasks[id.0].weight
    }

    /// The sum of all task weights (`W_total`).
    pub fn total_weight(&self) -> f64 {
        self.tasks.iter().map(|t| t.weight).sum()
    }

    /// Iterates over all task ids in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Iterates over `(id, task)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> + '_ {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// The direct successors of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.successors[id.0]
    }

    /// The direct predecessors of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.predecessors[id.0]
    }

    /// The in-degree of `id`.
    pub fn in_degree(&self, id: TaskId) -> usize {
        self.predecessors[id.0].len()
    }

    /// The out-degree of `id`.
    pub fn out_degree(&self, id: TaskId) -> usize {
        self.successors[id.0].len()
    }

    /// Tasks with no predecessors (entry tasks).
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids().filter(|&t| self.in_degree(t) == 0).collect()
    }

    /// Tasks with no successors (exit tasks).
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids().filter(|&t| self.out_degree(t) == 0).collect()
    }

    /// Whether the edge `from → to` exists.
    pub fn has_edge(&self, from: TaskId, to: TaskId) -> bool {
        self.successors.get(from.0).is_some_and(|succ| succ.contains(&to))
    }

    /// Whether `to` is reachable from `from` following dependence edges
    /// (including `from == to`).
    pub fn is_reachable(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let mut visited = vec![false; self.tasks.len()];
        let mut stack = vec![from];
        visited[from.0] = true;
        while let Some(node) = stack.pop() {
            for &succ in &self.successors[node.0] {
                if succ == to {
                    return true;
                }
                if !visited[succ.0] {
                    visited[succ.0] = true;
                    stack.push(succ);
                }
            }
        }
        false
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> Vec<(TaskId, TaskId)> {
        let mut edges = Vec::with_capacity(self.edge_count);
        for (i, succ) in self.successors.iter().enumerate() {
            for &to in succ {
                edges.push((TaskId(i), to));
            }
        }
        edges
    }

    /// Validates that `id` belongs to this graph.
    fn check_task(&self, id: TaskId) -> Result<(), GraphError> {
        if id.0 < self.tasks.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownTask { task: id })
        }
    }

    /// The weights of all tasks, indexed by task id.
    pub fn weights(&self) -> Vec<f64> {
        self.tasks.iter().map(|t| t.weight).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_chain() -> (TaskGraph, TaskId, TaskId, TaskId) {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0).unwrap();
        let b = g.add_task("b", 2.0).unwrap();
        let c = g.add_task("c", 3.0).unwrap();
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, c).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn empty_graph_has_no_tasks_or_edges() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.task_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), 0.0);
        assert!(g.sources().is_empty());
        assert!(g.sinks().is_empty());
    }

    #[test]
    fn add_task_assigns_dense_ids() {
        let mut g = TaskGraph::new();
        assert_eq!(g.add_task("a", 1.0).unwrap(), TaskId(0));
        assert_eq!(g.add_task("b", 1.0).unwrap(), TaskId(1));
        assert_eq!(g.add_task("c", 1.0).unwrap(), TaskId(2));
        assert_eq!(g.task(TaskId(1)).name(), "b");
    }

    #[test]
    fn weight_validation() {
        let mut g = TaskGraph::new();
        assert!(g.add_task("ok", 0.5).is_ok());
        assert!(matches!(g.add_task("zero", 0.0), Err(GraphError::InvalidWeight { .. })));
        assert!(g.add_task("neg", -1.0).is_err());
        assert!(g.add_task("nan", f64::NAN).is_err());
        assert!(g.add_task("inf", f64::INFINITY).is_err());
    }

    #[test]
    fn dependencies_and_degrees() {
        let (g, a, b, c) = three_chain();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(a), &[b]);
        assert_eq!(g.predecessors(c), &[b]);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![c]);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
    }

    #[test]
    fn cycle_is_rejected() {
        let (mut g, a, _b, c) = three_chain();
        assert!(matches!(g.add_dependency(c, a), Err(GraphError::CycleDetected { .. })));
        // Graph unchanged.
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_loop_and_duplicate_rejected() {
        let (mut g, a, b, _c) = three_chain();
        assert!(matches!(g.add_dependency(a, a), Err(GraphError::SelfLoop { .. })));
        assert!(matches!(g.add_dependency(a, b), Err(GraphError::DuplicateEdge { .. })));
    }

    #[test]
    fn unknown_task_rejected() {
        let (mut g, a, _b, _c) = three_chain();
        assert!(matches!(g.add_dependency(a, TaskId(99)), Err(GraphError::UnknownTask { .. })));
        assert!(g.get_task(TaskId(99)).is_none());
    }

    #[test]
    fn reachability() {
        let (g, a, b, c) = three_chain();
        assert!(g.is_reachable(a, c));
        assert!(g.is_reachable(a, a));
        assert!(!g.is_reachable(c, a));
        assert!(g.is_reachable(b, c));
    }

    #[test]
    fn total_weight_and_weights() {
        let (g, ..) = three_chain();
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.weights(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn edges_lists_all_edges() {
        let (g, a, b, c) = three_chain();
        let edges = g.edges();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&(a, b)));
        assert!(edges.contains(&(b, c)));
    }

    #[test]
    fn display_of_task_id() {
        assert_eq!(TaskId(3).to_string(), "T3");
        assert_eq!(TaskId(3).index(), 3);
    }

    #[test]
    fn iter_yields_tasks_in_insertion_order() {
        let (g, ..) = three_chain();
        let names: Vec<&str> = g.iter().map(|(_, t)| t.name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut g = TaskGraph::with_capacity(10);
        assert!(g.is_empty());
        g.add_task("x", 1.0).unwrap();
        assert_eq!(g.task_count(), 1);
    }
}
