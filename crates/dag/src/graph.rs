//! The [`TaskGraph`] container and its [`TaskGraphBuilder`].

use std::borrow::Cow;

use crate::error::GraphError;

/// Identifier of a task inside a [`TaskGraph`].
///
/// Ids are dense indices assigned in insertion order; `TaskId(i)` is the
/// `i`-th task added to the graph. By convention the paper numbers tasks from
/// 1 (`T1 … Tn`); the `Display` impl prints the raw index (`TaskId(0)` prints
/// as `T0`), while a task's default [name](TaskGraph::name) follows the paper
/// (`TaskId(0)` is named `T1`).
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

/// Whether `name` is the default name `T{index + 1}` of task `index`.
fn is_default_name(name: &str, index: usize) -> bool {
    name.strip_prefix('T').is_some_and(|digits| {
        digits.bytes().all(|b| b.is_ascii_digit())
            && !digits.starts_with('0')
            && digits.parse() == Ok(index + 1)
    })
}

/// Task names packed into one buffer: task `i`'s name is
/// `text[ends[i - 1]..ends[i]]` (from 0 for the first task).
#[derive(Debug, Clone, PartialEq, Default)]
struct Names {
    text: String,
    ends: Vec<usize>,
}

impl Names {
    fn get(&self, index: usize) -> &str {
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        &self.text[start..self.ends[index]]
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }
}

/// Adjacency lists in compressed sparse row form: the neighbours of task
/// `i` are `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<TaskId>,
}

impl Adjacency {
    /// Groups `edges` by `key(edge)` with a counting sort that keeps each
    /// group in insertion order; `value(edge)` is what the group lists.
    fn group(
        n: usize,
        edges: &[(TaskId, TaskId)],
        key: impl Fn(&(TaskId, TaskId)) -> usize,
        value: impl Fn(&(TaskId, TaskId)) -> TaskId,
    ) -> Self {
        // Count each group, take inclusive prefix sums (group ends), then
        // fill back to front: every end moves down to its group's start.
        let mut offsets = vec![0usize; n + 1];
        for edge in edges {
            offsets[key(edge)] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = vec![TaskId(0); edges.len()];
        for edge in edges.iter().rev() {
            let slot = &mut offsets[key(edge)];
            *slot -= 1;
            targets[*slot] = value(edge);
        }
        Adjacency { offsets, targets }
    }

    /// The `[start, end)` range of `task`'s neighbours in `targets`.
    #[inline]
    fn range(&self, task: TaskId) -> (usize, usize) {
        // One range check covers both reads.
        let bounds = &self.offsets[task.0..task.0 + 2];
        (bounds[0], bounds[1])
    }

    #[inline]
    fn of(&self, task: TaskId) -> &[TaskId] {
        let (start, end) = self.range(task);
        &self.targets[start..end]
    }

    #[inline]
    fn degree(&self, task: TaskId) -> usize {
        let (start, end) = self.range(task);
        end - start
    }
}

/// An immutable directed acyclic graph of weighted tasks.
///
/// A `TaskGraph` is built by a [`TaskGraphBuilder`], whose
/// [`build`](TaskGraphBuilder::build) checks acyclicity (and rejects
/// duplicate edges) in one `O(n + E)` pass, so a `TaskGraph` value is a DAG
/// by construction. The storage is compact: one flat weight array, the
/// successor and predecessor lists in compressed sparse row form (offsets
/// plus one flat id array per direction, each task's list in edge insertion
/// order), and names only for graphs whose tasks do not all carry their
/// default name `T{i+1}`. [`TaskGraph::default`] is the empty graph.
///
/// # Example
///
/// ```rust
/// use ckpt_dag::{GraphError, TaskGraphBuilder};
///
/// let mut builder = TaskGraphBuilder::new();
/// let a = builder.add_named_task("a", 5.0)?;
/// let b = builder.add_named_task("b", 3.0)?;
/// let c = builder.add_task(2.0)?; // default name "T3"
/// builder.add_dependency(a, b)?;
/// builder.add_dependency(b, c)?;
/// builder.add_dependency(c, a)?; // closes a cycle: caught by `build`
/// assert!(matches!(builder.build(), Err(GraphError::CycleDetected { .. })));
/// # Ok::<(), ckpt_dag::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    weights: Vec<f64>,
    /// Empty when every task carries its default name.
    names: Names,
    successors: Adjacency,
    predecessors: Adjacency,
}

impl Default for TaskGraph {
    /// The empty graph.
    fn default() -> Self {
        let empty = || Adjacency { offsets: vec![0], targets: Vec::new() };
        TaskGraph {
            weights: Vec::new(),
            names: Names::default(),
            successors: empty(),
            predecessors: empty(),
        }
    }
}

impl TaskGraph {
    /// The number of tasks.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.weights.len()
    }

    /// The number of dependence edges.
    pub fn edge_count(&self) -> usize {
        self.successors.targets.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight `w_i` of task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn weight(&self, id: TaskId) -> f64 {
        self.weights[id.0]
    }

    /// The name of task `id`: the one given to
    /// [`TaskGraphBuilder::add_named_task`], or the default `T{i+1}`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn name(&self, id: TaskId) -> Cow<'_, str> {
        assert!(id.0 < self.task_count(), "unknown task {id}");
        if self.names.ends.is_empty() {
            Cow::Owned(format!("T{}", id.0 + 1))
        } else {
            Cow::Borrowed(self.names.get(id.0))
        }
    }

    /// The sum of all task weights (`W_total`).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// The weights of all tasks, indexed by task id.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Iterates over all task ids in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.weights.len()).map(TaskId)
    }

    /// The direct successors of `id`, in edge insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.successors.of(id)
    }

    /// The direct predecessors of `id`, in edge insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        self.predecessors.of(id)
    }

    /// The in-degree of `id`.
    #[inline]
    pub fn in_degree(&self, id: TaskId) -> usize {
        self.predecessors.degree(id)
    }

    /// The out-degree of `id`.
    #[inline]
    pub fn out_degree(&self, id: TaskId) -> usize {
        self.successors.degree(id)
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
    #[inline]
    pub fn has_edge(&self, from: TaskId, to: TaskId) -> bool {
        from.0 < self.task_count() && self.successors(from).contains(&to)
    }

    /// Whether `to` is reachable from `from` following dependence edges
    /// (including `from == to`).
    pub fn is_reachable(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let mut visited = vec![false; self.task_count()];
        let mut stack = vec![from];
        visited[from.0] = true;
        while let Some(node) = stack.pop() {
            for &succ in self.successors(node) {
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

    /// All edges as `(from, to)` pairs, grouped by source in id order.
    pub fn edges(&self) -> Vec<(TaskId, TaskId)> {
        self.task_ids()
            .flat_map(|from| self.successors(from).iter().map(move |&to| (from, to)))
            .collect()
    }
}

/// Collects the tasks and edges of a [`TaskGraph`].
///
/// Weights, unknown endpoints and self-loops are checked eagerly, in `O(1)`
/// per call; duplicate edges and cycles are caught by
/// [`build`](TaskGraphBuilder::build) in one `O(n + E)` pass. A call that
/// returns an error leaves the builder unchanged.
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    weights: Vec<f64>,
    /// Empty while every task added so far carries its default name.
    names: Names,
    edges: Vec<(TaskId, TaskId)>,
}

impl TaskGraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TaskGraphBuilder::default()
    }

    /// An empty builder with room for `tasks` tasks and `edges` edges.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        TaskGraphBuilder {
            weights: Vec::with_capacity(tasks),
            names: Names::default(),
            edges: Vec::with_capacity(edges),
        }
    }

    /// The number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.weights.len()
    }

    /// Adds a task with the default name `T{i+1}` and the given weight,
    /// returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidWeight`] if `weight` is not strictly
    /// positive and finite.
    pub fn add_task(&mut self, weight: f64) -> Result<TaskId, GraphError> {
        check_weight(weight)?;
        let id = TaskId(self.weights.len());
        if !self.names.ends.is_empty() {
            self.names.push(&format!("T{}", id.0 + 1));
        }
        self.weights.push(weight);
        Ok(id)
    }

    /// Adds a task with the given name and weight, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidWeight`] if `weight` is not strictly
    /// positive and finite.
    pub fn add_named_task(
        &mut self,
        name: impl AsRef<str>,
        weight: f64,
    ) -> Result<TaskId, GraphError> {
        check_weight(weight)?;
        let id = TaskId(self.weights.len());
        let name = name.as_ref();
        if !self.names.ends.is_empty() || !is_default_name(name, id.0) {
            // The first non-default name spells out the defaults before it.
            for i in self.names.ends.len()..id.0 {
                self.names.push(&format!("T{}", i + 1));
            }
            self.names.push(name);
        }
        self.weights.push(weight);
        Ok(id)
    }

    /// Adds a dependence edge `from → to` (i.e. `to` cannot start before
    /// `from` completes).
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownTask`] if either endpoint has not been added;
    /// * [`GraphError::SelfLoop`] if `from == to`.
    ///
    /// Duplicate edges and cycles are reported by
    /// [`build`](TaskGraphBuilder::build).
    pub fn add_dependency(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        for task in [from, to] {
            if task.0 >= self.weights.len() {
                return Err(GraphError::UnknownTask { task });
            }
        }
        if from == to {
            return Err(GraphError::SelfLoop { task: from });
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Builds the graph in `O(n + E)`: a counting sort lays out both
    /// adjacency directions (each list in edge insertion order), one marker
    /// pass finds duplicate edges and one Kahn pass finds cycles.
    ///
    /// # Errors
    ///
    /// * [`GraphError::DuplicateEdge`] for the second insertion of an edge;
    /// * [`GraphError::CycleDetected`] with an edge that lies on a cycle.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let n = self.weights.len();
        let successors = Adjacency::group(n, &self.edges, |e| e.0 .0, |e| e.1);
        // A task's successor list keeps insertion order, so the repeat of a
        // target within one list is the second insertion of that edge.
        let mut mark = vec![usize::MAX; n];
        for from in 0..n {
            for &to in successors.of(TaskId(from)) {
                if mark[to.0] == from {
                    return Err(GraphError::DuplicateEdge { from: TaskId(from), to });
                }
                mark[to.0] = from;
            }
        }
        let predecessors = Adjacency::group(n, &self.edges, |e| e.1 .0, |e| e.0);
        if let Some((from, to)) = edge_on_cycle(&successors, &predecessors, &mut mark) {
            return Err(GraphError::CycleDetected { from, to });
        }
        Ok(TaskGraph { weights: self.weights, names: self.names, successors, predecessors })
    }
}

fn check_weight(weight: f64) -> Result<(), GraphError> {
    if weight.is_finite() && weight > 0.0 {
        Ok(())
    } else {
        Err(GraphError::InvalidWeight { weight })
    }
}

/// Runs Kahn's algorithm; if some tasks are never released, returns an edge
/// of a cycle among them. `scratch` is an `n`-entry buffer it overwrites.
fn edge_on_cycle(
    successors: &Adjacency,
    predecessors: &Adjacency,
    scratch: &mut [usize],
) -> Option<(TaskId, TaskId)> {
    let n = scratch.len();
    // `scratch` holds each task's unreleased in-degree.
    for (i, slot) in scratch.iter_mut().enumerate() {
        *slot = predecessors.degree(TaskId(i));
    }
    let mut ready: Vec<TaskId> = (0..n).map(TaskId).filter(|t| scratch[t.0] == 0).collect();
    let mut released = 0;
    while let Some(task) = ready.pop() {
        released += 1;
        for &succ in successors.of(task) {
            scratch[succ.0] -= 1;
            if scratch[succ.0] == 0 {
                ready.push(succ);
            }
        }
    }
    if released == n {
        return None;
    }
    // Every unreleased task has an unreleased predecessor, so walking back
    // through them must revisit a task; the step into it closes a cycle.
    // Visited tasks are marked `usize::MAX` (released ones hold 0).
    let mut task = TaskId(scratch.iter().position(|&d| d > 0).expect("an unreleased task"));
    loop {
        scratch[task.0] = usize::MAX;
        let pred = *predecessors
            .of(task)
            .iter()
            .find(|p| scratch[p.0] > 0)
            .expect("an unreleased task has an unreleased predecessor");
        if scratch[pred.0] == usize::MAX {
            return Some((pred, task));
        }
        task = pred;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_chain() -> (TaskGraphBuilder, TaskId, TaskId, TaskId) {
        let mut g = TaskGraphBuilder::new();
        let a = g.add_named_task("a", 1.0).unwrap();
        let b = g.add_named_task("b", 2.0).unwrap();
        let c = g.add_named_task("c", 3.0).unwrap();
        g.add_dependency(a, b).unwrap();
        g.add_dependency(b, c).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn empty_graph_has_no_tasks_or_edges() {
        let g = TaskGraph::default();
        assert!(g.is_empty());
        assert_eq!(g.task_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), 0.0);
        assert!(g.sources().is_empty());
        assert!(g.sinks().is_empty());
        assert_eq!(TaskGraphBuilder::new().build().unwrap(), g);
    }

    #[test]
    fn add_task_assigns_dense_ids() {
        let mut g = TaskGraphBuilder::new();
        assert_eq!(g.add_named_task("a", 1.0).unwrap(), TaskId(0));
        assert_eq!(g.add_named_task("b", 1.0).unwrap(), TaskId(1));
        assert_eq!(g.add_task(1.0).unwrap(), TaskId(2));
        assert_eq!(g.task_count(), 3);
        let g = g.build().unwrap();
        assert_eq!(g.name(TaskId(1)), "b");
        assert_eq!(g.name(TaskId(2)), "T3");
    }

    #[test]
    fn weight_validation() {
        let mut g = TaskGraphBuilder::new();
        assert!(g.add_named_task("ok", 0.5).is_ok());
        assert!(matches!(g.add_named_task("zero", 0.0), Err(GraphError::InvalidWeight { .. })));
        assert!(g.add_task(-1.0).is_err());
        assert!(g.add_named_task("nan", f64::NAN).is_err());
        assert!(g.add_task(f64::INFINITY).is_err());
        assert_eq!(g.task_count(), 1);
    }

    #[test]
    fn dependencies_and_degrees() {
        let (g, a, b, c) = three_chain();
        let g = g.build().unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(a), &[b]);
        assert_eq!(g.predecessors(c), &[b]);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![c]);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(b, a));
        assert!(!g.has_edge(TaskId(99), a));
    }

    #[test]
    fn adjacency_lists_keep_insertion_order() {
        let mut g = TaskGraphBuilder::new();
        let ids: Vec<TaskId> = (0..5).map(|_| g.add_task(1.0).unwrap()).collect();
        for &to in &[ids[3], ids[1], ids[4], ids[2]] {
            g.add_dependency(ids[0], to).unwrap();
        }
        g.add_dependency(ids[2], ids[4]).unwrap();
        g.add_dependency(ids[1], ids[4]).unwrap();
        let g = g.build().unwrap();
        assert_eq!(g.successors(ids[0]), &[ids[3], ids[1], ids[4], ids[2]]);
        assert_eq!(g.predecessors(ids[4]), &[ids[0], ids[2], ids[1]]);
    }

    #[test]
    fn cycle_is_rejected() {
        let (mut g, a, _b, c) = three_chain();
        g.add_dependency(c, a).unwrap();
        assert!(matches!(g.build(), Err(GraphError::CycleDetected { .. })));
    }

    #[test]
    fn reported_cycle_edge_lies_on_the_cycle() {
        // A cycle 2 -> 3 -> 4 -> 2 hanging below an acyclic head 0 -> 1 -> 2.
        let mut g = TaskGraphBuilder::new();
        let t: Vec<TaskId> = (0..5).map(|_| g.add_task(1.0).unwrap()).collect();
        for (from, to) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)] {
            g.add_dependency(t[from], t[to]).unwrap();
        }
        let Err(GraphError::CycleDetected { from, to }) = g.build() else {
            panic!("the cycle must be reported");
        };
        assert!([(t[2], t[3]), (t[3], t[4]), (t[4], t[2])].contains(&(from, to)));
    }

    #[test]
    fn self_loop_and_duplicate_rejected() {
        let (mut g, a, b, _c) = three_chain();
        assert!(matches!(g.add_dependency(a, a), Err(GraphError::SelfLoop { .. })));
        g.add_dependency(a, b).unwrap();
        assert_eq!(g.build(), Err(GraphError::DuplicateEdge { from: a, to: b }));
    }

    #[test]
    fn unknown_task_rejected() {
        let (mut g, a, _b, _c) = three_chain();
        assert!(matches!(g.add_dependency(a, TaskId(99)), Err(GraphError::UnknownTask { .. })));
        assert!(matches!(
            g.add_dependency(TaskId(usize::MAX), a),
            Err(GraphError::UnknownTask { .. })
        ));
        assert_eq!(g.build().unwrap().edge_count(), 2);
    }

    #[test]
    fn reachability() {
        let (g, a, b, c) = three_chain();
        let g = g.build().unwrap();
        assert!(g.is_reachable(a, c));
        assert!(g.is_reachable(a, a));
        assert!(!g.is_reachable(c, a));
        assert!(g.is_reachable(b, c));
    }

    #[test]
    fn total_weight_and_weights() {
        let (g, ..) = three_chain();
        let g = g.build().unwrap();
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.weights(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn edges_lists_all_edges() {
        let (g, a, b, c) = three_chain();
        let edges = g.build().unwrap().edges();
        assert_eq!(edges, vec![(a, b), (b, c)]);
    }

    #[test]
    fn display_of_task_id() {
        assert_eq!(TaskId(3).to_string(), "T3");
        assert_eq!(TaskId(3).index(), 3);
    }

    #[test]
    fn names_follow_insertion_order() {
        let (g, ..) = three_chain();
        let g = g.build().unwrap();
        let names: Vec<String> = g.task_ids().map(|t| g.name(t).into_owned()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn default_names_are_not_stored() {
        let mut named = TaskGraphBuilder::new();
        let mut unnamed = TaskGraphBuilder::new();
        for i in 0..3 {
            named.add_named_task(format!("T{}", i + 1), 1.0).unwrap();
            unnamed.add_task(1.0).unwrap();
        }
        let named = named.build().unwrap();
        assert_eq!(named, unnamed.build().unwrap());
        assert!(named.names.ends.is_empty());
        // A name that only parses like a default is kept, and spells out
        // the defaults before it.
        for odd in ["T04", "T+4", "T4 ", "t4"] {
            let mut g = TaskGraphBuilder::new();
            for _ in 0..3 {
                g.add_task(1.0).unwrap();
            }
            g.add_named_task(odd, 1.0).unwrap();
            g.add_task(1.0).unwrap();
            let g = g.build().unwrap();
            let names: Vec<String> = g.task_ids().map(|t| g.name(t).into_owned()).collect();
            assert_eq!(names, vec!["T1", "T2", "T3", odd, "T5"]);
        }
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn name_of_unknown_task_panics() {
        let _ = TaskGraph::default().name(TaskId(0));
    }
}
