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
//! * one sweep over a whole order with [`LiveSetSweep`], maintaining the
//!   live-set aggregates incrementally, gives the three positional vectors
//!   of its cost table (work, checkpoint costs, protecting recoveries), in
//!   `O(n + E)`. It is the only code that turns an order into positional
//!   costs, behind two entries: [`order_costs`] validates the caller's order
//!   and returns its [`OrderCosts`], which every table build
//!   ([`crate::dag_schedule::model_cost_table`],
//!   [`crate::evaluate::segment_cost_table`], the λ-sweep and levelled
//!   tables) takes; [`LiveSetCostSweep::cost_order`] takes the order over and
//!   returns a [`CostedOrder`], which [`LiveSetCostSweep::apply_move`] keeps
//!   up to date under window moves, recomputing only around the window —
//!   the order search's path, bit for bit equal to a fresh sweep of the
//!   moved order.
//!
//! The paths are cross-checked by property tests.

use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Range;

use ckpt_dag::neighborhood::{self, is_valid_move, OrderMove};
use ckpt_dag::{topo, traversal, traversal::LiveSetSweep, TaskGraph, TaskId};
use ckpt_expectation::segment_cost::SegmentCostTable;

use crate::error::ScheduleError;
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
}

/// `order`'s costs under `model`: the one entry from an execution order to
/// the positional vectors of its cost table. It validates the order first,
/// because the live-set sweep asserts (rather than returns) on bad input,
/// then sweeps it once, as [`LiveSetCostSweep::cost_order`] does, reading
/// the caller's order in place and keeping no window-move state.
///
/// # Errors
///
/// * [`ScheduleError::EmptyInstance`] if `order` is empty;
/// * [`ScheduleError::InvalidOrder`] if `order` is not a topological order
///   of the instance graph.
pub fn order_costs(
    instance: &ProblemInstance,
    order: &[TaskId],
    model: CheckpointCostModel,
) -> Result<OrderCosts, ScheduleError> {
    if order.is_empty() {
        return Err(ScheduleError::EmptyInstance);
    }
    if !topo::is_topological_order(instance.graph(), order) {
        return Err(ScheduleError::InvalidOrder);
    }
    Ok(LiveSetCostSweep::new(instance.graph()).costs_of(model, instance, order, |_, _| {}))
}

/// Reusable working state for repeated [`cost_order`] sweeps over orders of
/// **one graph**: the live-set delta structure and the [`LiveSetMax`] lazy
/// max-heaps are sized at the first live-set sweep, then cleared and
/// refilled instead of being reallocated per order. The per-last-task model
/// reads none of them, so its sweeps never size them.
///
/// It also keeps an order's costs up to date under window moves
/// ([`apply_move`](LiveSetCostSweep::apply_move) on a [`CostedOrder`]),
/// which is what the order search's proposal loop does: evaluating
/// thousands of candidate orders allocates nothing.
///
/// [`cost_order`]: LiveSetCostSweep::cost_order
/// [`LiveSetMax`]: CheckpointCostModel::LiveSetMax
#[derive(Debug, Clone)]
pub struct LiveSetCostSweep<'g> {
    graph: &'g TaskGraph,
    /// Built at the first live-set sweep.
    sweep: Option<LiveSetSweep<'g>>,
    ckpt_heap: BinaryHeap<MaxCostEntry>,
    rec_heap: BinaryHeap<MaxCostEntry>,
    /// A [`LiveSetMax`](CheckpointCostModel::LiveSetMax) window update's
    /// tasks that may be live inside the window, with the position of
    /// their last successor.
    window_live: Vec<(TaskId, usize)>,
}

impl<'g> LiveSetCostSweep<'g> {
    /// Working state for `graph` (which must be the graph every subsequent
    /// order belongs to). It allocates nothing until a live-set sweep needs
    /// it.
    pub fn new(graph: &'g TaskGraph) -> Self {
        LiveSetCostSweep {
            graph,
            sweep: None,
            ckpt_heap: BinaryHeap::new(),
            rec_heap: BinaryHeap::new(),
            window_live: Vec::new(),
        }
    }

    /// `order` with its costs under `model`, in **one incremental sweep**:
    /// the work of each position, the cost of a checkpoint taken right after
    /// it ([`checkpoint_cost`](CheckpointCostModel::checkpoint_cost)`(…, i)`)
    /// and the recovery cost of that checkpoint
    /// ([`recovery_cost`](CheckpointCostModel::recovery_cost)`(…, i)`), plus
    /// the state a window move updates.
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
    /// use ckpt_core::cost_model::{CheckpointCostModel, LiveSetCostSweep};
    /// use ckpt_core::ProblemInstance;
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
    /// let costed = LiveSetCostSweep::new(instance.graph()).cost_order(model, &instance, order);
    /// // Matches the per-position reference path: after {a, b} the live set
    /// // is {a, b} (c and d still need them), so the checkpoint costs 1 + 2.
    /// assert_eq!(costed.costs().checkpoints()[1], 3.0);
    /// assert_eq!(costed.costs().checkpoints()[1], model.checkpoint_cost(&instance, costed.order(), 1));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Under the live-set models, panics if `order` is not a topological
    /// order of the instance graph covering every task exactly once (the
    /// sweep asserts precedence as it advances).
    /// [`PerLastTask`](CheckpointCostModel::PerLastTask) reads positions
    /// independently and performs no such validation; the crate's table
    /// builders validate before they sweep.
    pub fn cost_order(
        &mut self,
        model: CheckpointCostModel,
        instance: &ProblemInstance,
        order: Vec<TaskId>,
    ) -> CostedOrder {
        let n = order.len();
        let (mut position, mut live, mut sums) = (Vec::new(), Vec::new(), Vec::new());
        if model != CheckpointCostModel::PerLastTask {
            position = vec![0; self.graph.task_count()];
            for (p, &task) in order.iter().enumerate() {
                position[task.0] = p;
            }
            live.reserve_exact(n);
        }
        if model == CheckpointCostModel::LiveSetSum {
            sums.reserve_exact(n);
        }
        let costs = self.costs_of(model, instance, &order, |size, sum| {
            live.push(size);
            sums.extend(sum);
        });
        CostedOrder { model, order, position, costs, live, sums }
    }

    /// The sweep behind [`cost_order`](LiveSetCostSweep::cost_order) and
    /// [`order_costs`]: `order`'s costs under `model`. Under the live-set
    /// models it hands `record` the size of the live set after each
    /// position, with the running sums under
    /// [`LiveSetSum`](CheckpointCostModel::LiveSetSum).
    fn costs_of(
        &mut self,
        model: CheckpointCostModel,
        instance: &ProblemInstance,
        order: &[TaskId],
        mut record: impl FnMut(usize, Option<(f64, f64)>),
    ) -> OrderCosts {
        let n = order.len();
        let own_costs = |task| (instance.checkpoint_cost(task), instance.recovery_cost(task));
        let mut costs = OrderCosts {
            weights: order.iter().map(|&task| instance.weight(task)).collect(),
            checkpoints: Vec::with_capacity(n),
            recoveries: Vec::with_capacity(n + 1),
        };
        // Entry `x` of `recoveries` protects a segment starting at `x`:
        // `R₀` at position 0, the previous position's recovery after it.
        costs.recoveries.push(instance.initial_recovery());
        if model == CheckpointCostModel::PerLastTask {
            costs.checkpoints.extend(order.iter().map(|&task| instance.checkpoint_cost(task)));
            costs.recoveries.extend(order.iter().map(|&task| instance.recovery_cost(task)));
            return costs;
        }
        let sweep = self.sweep.get_or_insert_with(|| LiveSetSweep::new(self.graph));
        sweep.reset();
        if model == CheckpointCostModel::LiveSetSum {
            let (mut ckpt_sum, mut rec_sum) = (0.0f64, 0.0f64);
            for &task in order {
                let entered = sweep.complete(task, |retired| {
                    ckpt_sum -= instance.checkpoint_cost(retired);
                    rec_sum -= instance.recovery_cost(retired);
                });
                if entered {
                    ckpt_sum += instance.checkpoint_cost(task);
                    rec_sum += instance.recovery_cost(task);
                }
                let live = sweep.live_count();
                // Empty live set (end of the order, or between independent
                // components): the state to save is by convention the last
                // task's output.
                let (ckpt, rec) = if live == 0 { own_costs(task) } else { (ckpt_sum, rec_sum) };
                costs.checkpoints.push(ckpt);
                costs.recoveries.push(rec);
                record(live, Some((ckpt_sum, rec_sum)));
            }
        } else {
            for heap in [&mut self.ckpt_heap, &mut self.rec_heap] {
                heap.clear();
                heap.reserve(n);
            }
            // The window updates' scratch: at most every task.
            self.window_live.reserve(self.graph.task_count());
            for &task in order {
                if sweep.complete(task, |_| {}) {
                    self.ckpt_heap
                        .push(MaxCostEntry { cost: instance.checkpoint_cost(task), task });
                    self.rec_heap.push(MaxCostEntry { cost: instance.recovery_cost(task), task });
                }
                let live = sweep.live_count();
                let (ckpt, rec) = if live == 0 {
                    own_costs(task)
                } else {
                    (live_max(&mut self.ckpt_heap, sweep), live_max(&mut self.rec_heap, sweep))
                };
                costs.checkpoints.push(ckpt);
                costs.recoveries.push(rec);
                record(live, None);
            }
        }
        costs
    }

    /// Applies the window move `mv` to `costed`'s order and updates its
    /// costs in place, bit for bit to what
    /// [`cost_order`](LiveSetCostSweep::cost_order) returns for the new
    /// order. Returns the positions whose data changed: `lo..end`, where
    /// `(lo, hi)` is the move's window and `end > hi`.
    ///
    /// Outside the window the live sets are those of the old order (the
    /// window permutes the same tasks), so only costs that are not a pure
    /// function of the live set can change past it:
    ///
    /// * [`PerLastTask`](CheckpointCostModel::PerLastTask) patches the
    ///   window (`end = hi + 1`);
    /// * [`LiveSetMax`](CheckpointCostModel::LiveSetMax) recomputes the
    ///   window from the tasks that can be live in it (`end = hi + 1`): a
    ///   maximum does not depend on the order its operands arrive in;
    /// * [`LiveSetSum`](CheckpointCostModel::LiveSetSum) resumes the
    ///   running sums from position `lo − 1` and applies the sweep's
    ///   operations in the sweep's order: at each position, the
    ///   retirements in predecessor order, then the task that enters.
    ///   Floating-point sums drift past the window (the same terms arrive
    ///   in another order), so it runs on to the first position past `hi`
    ///   whose two running sums equal the old ones bit for bit; every later
    ///   position is then unchanged, and that position is `end`.
    ///
    /// # Panics
    ///
    /// `mv` must be a valid move of the order ([`is_valid_move`]), which
    /// debug builds assert, and `costed` an order of this sweep's graph.
    pub fn apply_move(
        &mut self,
        instance: &ProblemInstance,
        costed: &mut CostedOrder,
        mv: &OrderMove,
    ) -> Range<usize> {
        debug_assert!(is_valid_move(self.graph, &costed.order, mv), "{mv:?} is not a valid move");
        let (lo, hi) = mv.window();
        neighborhood::apply_move(&mut costed.order, mv);
        let costs = &mut costed.costs;
        for p in lo..=hi {
            costs.weights[p] = instance.weight(costed.order[p]);
        }
        if costed.model == CheckpointCostModel::PerLastTask {
            for p in lo..=hi {
                let task = costed.order[p];
                costs.checkpoints[p] = instance.checkpoint_cost(task);
                costs.recoveries[p + 1] = instance.recovery_cost(task);
            }
            return lo..hi + 1;
        }
        for p in lo..=hi {
            costed.position[costed.order[p].0] = p;
        }
        let end = if costed.model == CheckpointCostModel::LiveSetSum {
            self.resume_sums(instance, costed, lo, hi)
        } else {
            self.window_maxima(instance, costed, lo, hi);
            hi + 1
        };
        lo..end
    }

    /// The [`LiveSetSum`](CheckpointCostModel::LiveSetSum) update of
    /// [`apply_move`](LiveSetCostSweep::apply_move); returns `end`.
    fn resume_sums(
        &self,
        instance: &ProblemInstance,
        costed: &mut CostedOrder,
        lo: usize,
        hi: usize,
    ) -> usize {
        let graph = self.graph;
        let (mut sums, mut live) = if lo == 0 {
            ((0.0f64, 0.0f64), 0)
        } else {
            (costed.sums[lo - 1], costed.live[lo - 1])
        };
        for p in lo..costed.order.len() {
            let task = costed.order[p];
            for &pred in graph.predecessors(task) {
                // `task` retires `pred` iff it is the last of `pred`'s
                // successors to run.
                if graph.successors(pred).iter().all(|s| costed.position[s.0] <= p) {
                    sums.0 -= instance.checkpoint_cost(pred);
                    sums.1 -= instance.recovery_cost(pred);
                    live -= 1;
                }
            }
            if graph.out_degree(task) > 0 {
                sums.0 += instance.checkpoint_cost(task);
                sums.1 += instance.recovery_cost(task);
                live += 1;
            }
            let old = costed.sums[p];
            if p > hi && sums.0.to_bits() == old.0.to_bits() && sums.1.to_bits() == old.1.to_bits()
            {
                return p;
            }
            costed.sums[p] = sums;
            costed.live[p] = live;
            let (ckpt, rec) = if live == 0 {
                (instance.checkpoint_cost(task), instance.recovery_cost(task))
            } else {
                sums
            };
            costed.costs.checkpoints[p] = ckpt;
            costed.costs.recoveries[p + 1] = rec;
        }
        costed.order.len()
    }

    /// The [`LiveSetMax`](CheckpointCostModel::LiveSetMax) update of
    /// [`apply_move`](LiveSetCostSweep::apply_move): a task is live after
    /// position `p` iff it runs at or before `p` and its last successor
    /// after it. Inside the window that can only be a task of the live set
    /// before it (the `live[lo − 1]` tasks before `lo` whose last successor
    /// runs at or after `lo`, found scanning back from `lo − 1`) or a task
    /// of the window itself.
    fn window_maxima(
        &mut self,
        instance: &ProblemInstance,
        costed: &mut CostedOrder,
        lo: usize,
        hi: usize,
    ) {
        let (graph, position) = (self.graph, &costed.position);
        let last_successor =
            |task: TaskId| graph.successors(task).iter().map(|s| position[s.0]).max();
        self.window_live.clear();
        let mut wanted = if lo == 0 { 0 } else { costed.live[lo - 1] };
        let mut q = lo;
        while wanted > 0 {
            q -= 1;
            let task = costed.order[q];
            if let Some(last) = last_successor(task).filter(|&last| last >= lo) {
                self.window_live.push((task, last));
                wanted -= 1;
            }
        }
        for &task in &costed.order[lo..=hi] {
            if let Some(last) = last_successor(task) {
                self.window_live.push((task, last));
            }
        }
        for p in lo..=hi {
            let task = costed.order[p];
            let mut live = 0;
            let mut max = (instance.checkpoint_cost(task), instance.recovery_cost(task));
            for &(candidate, last) in &self.window_live {
                if position[candidate.0] <= p && last > p {
                    let costs =
                        (instance.checkpoint_cost(candidate), instance.recovery_cost(candidate));
                    max = if live == 0 {
                        costs
                    } else {
                        (total_max(max.0, costs.0), total_max(max.1, costs.1))
                    };
                    live += 1;
                }
            }
            costed.live[p] = live;
            costed.costs.checkpoints[p] = max.0;
            costed.costs.recoveries[p + 1] = max.1;
        }
    }
}

/// The larger of two costs in [`f64::total_cmp`]'s order, the order the
/// [`LiveSetMax`](CheckpointCostModel::LiveSetMax) sweep's heaps keep.
fn total_max(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a).is_gt() {
        b
    } else {
        a
    }
}

/// The positional costs of an execution order under one model: the three
/// vectors a [`SegmentCostTable`] is built from. Made by [`order_costs`],
/// and kept up to date under window moves inside a [`CostedOrder`].
#[derive(Debug, Clone, PartialEq)]
pub struct OrderCosts {
    weights: Vec<f64>,
    checkpoints: Vec<f64>,
    /// `R₀`, then the recovery cost of the checkpoint after each position
    /// (`n + 1` entries): entry `x` protects a segment starting at `x`.
    recoveries: Vec<f64>,
}

impl OrderCosts {
    /// The work of the task at each position.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The cost of a checkpoint right after each position
    /// ([`CheckpointCostModel::checkpoint_cost`]).
    pub fn checkpoints(&self) -> &[f64] {
        &self.checkpoints
    }

    /// The recovery cost of a checkpoint right after each position
    /// ([`CheckpointCostModel::recovery_cost`]).
    pub fn recoveries(&self) -> &[f64] {
        &self.recoveries[1..]
    }

    /// The recovery protecting a segment that starts at each position: the
    /// instance's initial recovery `R₀`, then
    /// [`recoveries`](OrderCosts::recoveries) shifted by one. With
    /// [`weights`](OrderCosts::weights) and
    /// [`checkpoints`](OrderCosts::checkpoints), the arguments of the
    /// order's [`SegmentCostTable`].
    pub fn protecting_recoveries(&self) -> &[f64] {
        &self.recoveries[..self.weights.len()]
    }

    /// The order's cost table at the instance's rate and downtime.
    ///
    /// # Errors
    ///
    /// [`SegmentCostTable::new`]'s, mapped by
    /// [`ScheduleError::from_expectation`].
    pub(crate) fn table(
        &self,
        instance: &ProblemInstance,
    ) -> Result<SegmentCostTable, ScheduleError> {
        SegmentCostTable::new(
            instance.lambda(),
            instance.downtime(),
            &self.weights,
            &self.checkpoints,
            self.protecting_recoveries(),
        )
        .map_err(ScheduleError::from_expectation)
    }
}

/// An execution order with its [`OrderCosts`] under one model, plus the
/// sweep state that lets [`LiveSetCostSweep::apply_move`] update them in
/// place after a window move instead of sweeping the whole order again.
/// Built by [`LiveSetCostSweep::cost_order`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostedOrder {
    model: CheckpointCostModel,
    order: Vec<TaskId>,
    /// `position[t]`: where task `t` runs in `order` (empty under the
    /// per-last-task model, whose window updates never read it).
    position: Vec<usize>,
    costs: OrderCosts,
    /// The size of the live set after each position (empty under the
    /// per-last-task model).
    live: Vec<usize>,
    /// The live-set-sum sweep's running checkpoint and recovery sums after
    /// each position, before the empty-live-set convention (empty under the
    /// other models).
    sums: Vec<(f64, f64)>,
}

impl CostedOrder {
    /// The order.
    pub fn order(&self) -> &[TaskId] {
        &self.order
    }

    /// The order's positional costs.
    pub fn costs(&self) -> &OrderCosts {
        &self.costs
    }

    /// Makes this order equal to `other` when the two differ only at the
    /// positions `range`: the range [`LiveSetCostSweep::apply_move`]
    /// returned when it made one from the other. An order search keeps a
    /// committed and a candidate copy, and settles each move by copying the
    /// range one way (accept) or the other (reject).
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the order, or (in debug builds) if
    /// the two orders were costed under different models.
    pub fn copy_range_from(&mut self, other: &CostedOrder, range: Range<usize>) {
        debug_assert_eq!(self.model, other.model);
        let (lo, end) = (range.start, range.end);
        let (costs, from) = (&mut self.costs, &other.costs);
        self.order[lo..end].copy_from_slice(&other.order[lo..end]);
        costs.weights[lo..end].copy_from_slice(&from.weights[lo..end]);
        costs.checkpoints[lo..end].copy_from_slice(&from.checkpoints[lo..end]);
        costs.recoveries[lo + 1..end + 1].copy_from_slice(&from.recoveries[lo + 1..end + 1]);
        if self.model != CheckpointCostModel::PerLastTask {
            for p in lo..end {
                self.position[self.order[p].0] = p;
            }
            self.live[lo..end].copy_from_slice(&other.live[lo..end]);
        }
        if self.model == CheckpointCostModel::LiveSetSum {
            self.sums[lo..end].copy_from_slice(&other.sums[lo..end]);
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
            for order in &orders {
                let costed = reused.cost_order(model, &inst, order.clone());
                let fresh =
                    LiveSetCostSweep::new(inst.graph()).cost_order(model, &inst, order.clone());
                assert_eq!(costed, fresh, "{model}");
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
            let costed =
                LiveSetCostSweep::new(inst.graph()).cost_order(model, &inst, order.clone());
            let (ckpt, rec) = (costed.costs().checkpoints(), costed.costs().recoveries());
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
            let costed =
                LiveSetCostSweep::new(inst.graph()).cost_order(model, &inst, order.clone());
            assert_eq!(costed.costs().checkpoints(), [3.0, 1.0, 2.0], "{model}");
            assert_eq!(costed.costs().recoveries(), [6.0, 4.0, 5.0], "{model}");
        }
    }

    // The incremental-vs-recomputing sweep property test lives in the
    // workspace integration suite (`tests/live_set_cost_models.rs`): its
    // random layered DAG cases come from the shared
    // `ckpt_bench::testgen::random_layered_proptest_case` generator, and
    // `ckpt-bench` cannot be a dev-dependency here without the unit-test
    // build seeing two distinct `ckpt-core` compilations.
}
