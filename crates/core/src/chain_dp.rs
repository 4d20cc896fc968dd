//! Algorithm 1: the `O(n²)` dynamic program for linear chains (Proposition 3).
//!
//! For a chain `T1 → T2 → … → Tn`, the execution order is forced and only the
//! checkpoint positions remain to be chosen. Writing `E(x)` for the optimal
//! expected time to execute tasks `T_x … T_n` given that a checkpoint (or the
//! initial state) protects the start of `T_x`, the paper's recurrence is
//!
//! ```text
//! E(x) = min_{x ≤ j ≤ n} [ T(w_x + … + w_j, C_j, D, R_{x−1}, λ) + E(j+1) ]
//! E(n+1) = 0
//! ```
//!
//! where `T(·)` is the Proposition 1 closed form. Production runs three
//! entries and one reusable state, all on a precomputed
//! [`SegmentCostTable`] (no `exp` in any inner loop):
//!
//! * [`optimal_chain_schedule`] — the exact pruned DP on a chain instance:
//!   `O(n²)` bottom-up, the inner loop cut by two lower bounds, each valid
//!   for every later candidate: the table's monotone segment bound (for
//!   uniform checkpoint costs, the moment the segment term alone exceeds
//!   the incumbent) and the work-conservation suffix bound (the moment the
//!   first segment's overhead alone exceeds the whole suffix's, since
//!   every later segment costs at least its work). Each row is one
//!   [`SegmentCostTable::pruned_row`] scan: the table splits off the row's
//!   `exp_m1` head once, streams the rest over slices, and past the tail's
//!   first 32 candidates finds the suffix bound's cut-off once by a binary
//!   search. Values and choices are those of a per-candidate scan with the
//!   segment bound alone, bit for bit; only the candidate count falls.
//!   Every bitwise contract of the workspace rests on it;
//! * [`scalable_placement_on_table_with_scratch`] — the recurrence on a
//!   prebuilt table, for callers that own their execution order (`dag_schedule`
//!   per linearisation under any §6 cost model, `order_search`,
//!   `general_failures` at surrogate rates, `analysis` λ sweeps, the online
//!   policies). Small or saturated tables run the pruned DP; from 1 024
//!   positions up it runs the **blocked kernel**: the line decomposition of
//!   the [`oracle`] module's Li Chao solver organised as a divide and conquer
//!   over index space, so `10⁵`–`10⁶`-position tables stream through
//!   cache-sized working sets. It runs in `O(n log n)`: it sorts the
//!   positions once per solve and derives every range's orders from that
//!   sort by splits and merges;
//! * [`optimal_levelled_schedule`] — the recurrence over `(position, level)`
//!   checkpoints on a storage hierarchy, bitwise equal to
//!   [`optimal_chain_schedule`] on [`StorageLevels::single`];
//! * [`ResumableDp`] — the pruned recurrence as reusable state: prefix
//!   re-solves after a local order change (the order search) and suffix-only
//!   re-solves (online re-planning).
//!
//! The [`oracle`] module holds the yardsticks the tests and benches compare
//! these against; every formulation is cross-checked against the others and
//! against exhaustive search in the tests below.

use std::cmp::Ordering;

use ckpt_dag::{properties, TaskId};
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_expectation::storage::{LevelledCostTable, StorageLevels};

use crate::error::ScheduleError;
use crate::evaluate::{levelled_cost_table, segment_cost_table};
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;
use crate::solver_stats;

#[cfg(test)]
mod kernel_walls;
pub mod oracle;
pub use oracle::optimal_chain_schedule_divide_conquer;

/// The result of the chain dynamic program.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSolution {
    /// The optimal schedule (chain order, optimal checkpoint positions).
    pub schedule: Schedule,
    /// The optimal expected makespan (the DP value).
    pub expected_makespan: f64,
    /// The positions (indices in the chain order) after which a checkpoint is
    /// taken, in increasing order. Always ends with `n − 1`.
    pub checkpoint_positions: Vec<usize>,
}

/// Resolves the chain order of `instance` and builds its segment-cost table.
fn chain_table(
    instance: &ProblemInstance,
) -> Result<(Vec<TaskId>, SegmentCostTable), ScheduleError> {
    let order = properties::as_chain(instance.graph()).ok_or(ScheduleError::NotAChain)?;
    let table = segment_cost_table(instance, &order)?;
    Ok((order, table))
}

/// A checkpoint placement computed directly on a [`SegmentCostTable`],
/// without reference to the instance the table came from.
///
/// This is what [`scalable_placement_on_table_with_scratch`] returns:
/// callers that own the execution order (a chain, a DAG
/// linearisation, a λ-swept surrogate) turn it into a [`Schedule`]
/// themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePlacement {
    /// The optimal expected makespan over the table's order (the DP value).
    pub expected_makespan: f64,
    /// The positions after which a checkpoint is taken, in increasing order.
    /// Always ends with the table's last position (the mandatory final
    /// checkpoint).
    pub checkpoint_positions: Vec<usize>,
}

impl TablePlacement {
    /// The placement as per-position booleans (`result[j]` is `true` iff a
    /// checkpoint is taken right after position `j`), the form
    /// [`Schedule::new`] and [`SegmentCostTable::total_cost`] consume.
    pub fn checkpoint_after(&self) -> Vec<bool> {
        let n = self.checkpoint_positions.last().map_or(0, |&last| last + 1);
        let mut flags = vec![false; n];
        for &j in &self.checkpoint_positions {
            flags[j] = true;
        }
        flags
    }

    /// The number of checkpoints taken (the final mandatory one included).
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoint_positions.len()
    }
}

/// Walks a `choice[x]` table (first checkpoint position of an optimal
/// solution for suffix `x..n`) into the increasing checkpoint positions.
fn positions_from_choice(choice: &[usize]) -> Vec<usize> {
    let starts = || {
        std::iter::successors(Some(0usize), |&x| choice.get(x).map(|&j| j + 1))
            .take_while(|&x| x < choice.len())
    };
    // Sized by a first walk, so a placement allocates once whatever its
    // checkpoint count.
    let mut positions = Vec::with_capacity(starts().count());
    positions.extend(starts().map(|x| choice[x]));
    positions
}

/// Turns checkpoint positions into a [`ChainSolution`] over `order`.
fn solution_from_positions(
    instance: &ProblemInstance,
    order: Vec<TaskId>,
    checkpoint_positions: Vec<usize>,
    expected_makespan: f64,
) -> Result<ChainSolution, ScheduleError> {
    let mut checkpoint_after = vec![false; order.len()];
    for &j in &checkpoint_positions {
        checkpoint_after[j] = true;
    }
    let schedule = Schedule::new(instance, order, checkpoint_after)?;
    Ok(ChainSolution { schedule, expected_makespan, checkpoint_positions })
}

/// The pruned Algorithm 1 recurrence restricted to positions
/// `from ≤ x < below`, given final values for `value[below..]`: `value[x]`
/// becomes the optimal expected time for positions `x..n`, `choice[x]` the
/// first checkpoint position of an optimal solution for that suffix
/// (`value` holds `n + 1` entries with `value[n] = 0`). The
/// recurrence for `x` never reads positions `< x`, so any contiguous span can
/// be solved independently of the prefix before it — which is what both the
/// order search ([`ResumableDp::try_prefix`], `from = 0`) and the online
/// re-planning policies ([`ResumableDp::solve_suffix`], `below = n`) exploit.
///
/// Each row is one [`SegmentCostTable::pruned_row`] scan, which keeps the
/// cost formula, its regimes and the prune break in the table's module.
/// Returns the span's work for the caller to keep and flush.
fn pruned_dp_span(
    table: &SegmentCostTable,
    value: &mut [f64],
    choice: &mut [usize],
    from: usize,
    below: usize,
) -> DpTally {
    let n = table.len();
    debug_assert_eq!(value.len(), n + 1);
    debug_assert_eq!(choice.len(), n);
    debug_assert!(from <= below && below <= n);
    let mut tally = DpTally { positions: (below - from) as u64, ..DpTally::default() };
    for x in (from..below).rev() {
        let row = table.pruned_row(x, &value[x + 1..]);
        value[x] = row.value;
        choice[x] = row.choice;
        tally.candidates += row.candidates;
        tally.prune_breaks += row.prune_breaks;
    }
    tally
}

/// The work of one DP solve, tallied in locals and flushed to
/// [`solver_stats`] with one relaxed add per counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DpTally {
    positions: u64,
    candidates: u64,
    prune_breaks: u64,
}

impl DpTally {
    fn flush(&self) {
        solver_stats::DP_POSITIONS.add(self.positions);
        solver_stats::DP_CANDIDATES.add(self.candidates);
        solver_stats::DP_PRUNE_BREAKS.add(self.prune_breaks);
    }
}

impl std::ops::AddAssign for DpTally {
    fn add_assign(&mut self, other: DpTally) {
        self.positions += other.positions;
        self.candidates += other.candidates;
        self.prune_breaks += other.prune_breaks;
    }
}

/// The work of a [`ResumableDp`]'s [`try_prefix`](ResumableDp::try_prefix)
/// trials, tallied in the state and flushed to [`solver_stats`] once, when
/// the state is dropped: an order search runs thousands of trials per run,
/// on workers that would otherwise contend for the counters' cache lines
/// five times per trial. A clone starts from nothing, so every trial is
/// flushed once.
#[derive(Debug, Default, PartialEq, Eq)]
struct TrialTally {
    trials: u64,
    reused_positions: u64,
    dp: DpTally,
}

impl Clone for TrialTally {
    fn clone(&self) -> Self {
        TrialTally::default()
    }
}

impl Drop for TrialTally {
    fn drop(&mut self) {
        if self.trials > 0 {
            solver_stats::PREFIX_TRIALS.add(self.trials);
            solver_stats::SUFFIX_REUSED_POSITIONS.add(self.reused_positions);
            self.dp.flush();
        }
    }
}

/// The pruned recurrence over the whole of `table`, in `scratch`'s DP
/// buffers: the exact `O(n²)` solve behind [`optimal_chain_schedule`] and
/// the small/saturated branch of
/// [`scalable_placement_on_table_with_scratch`].
fn pruned_placement(table: &SegmentCostTable, scratch: &mut ChainDpScratch) -> TablePlacement {
    let n = table.len();
    scratch.value.clear();
    scratch.value.resize(n + 1, 0.0);
    scratch.choice.clear();
    scratch.choice.resize(n, 0);
    pruned_dp_span(table, &mut scratch.value, &mut scratch.choice, 0, n).flush();
    TablePlacement {
        expected_makespan: scratch.value[0],
        checkpoint_positions: positions_from_choice(&scratch.choice),
    }
}

/// Reusable state of the pruned Algorithm 1 recurrence that supports
/// **resuming after a prefix-local change** of the table.
///
/// The recurrence runs back to front: `value[x]` depends only on table
/// entries at positions `≥ x`. So when a new table differs from the last
/// solved one **only at positions `< first_changed_suffix`** — exactly what a
/// precedence-preserving order move inside a window produces (see
/// [`crate::order_search`]) — the committed values of the unchanged suffix
/// can be reused and only the prefix needs recomputation
/// ([`try_prefix`](ResumableDp::try_prefix)). Trial results are kept
/// separate from the committed state so a search can evaluate a candidate
/// and discard it without re-solving
/// ([`commit_trial`](ResumableDp::commit_trial)).
///
/// # Example
///
/// ```
/// use ckpt_core::chain_dp::ResumableDp;
/// use ckpt_expectation::segment_cost::SegmentCostTable;
///
/// let weights = [400.0, 100.0, 900.0, 250.0];
/// let base = SegmentCostTable::new(1e-4, 30.0, &weights, &[60.0; 4], &[15.0; 4])?;
/// // A table whose data differs from `base` only at positions < 2.
/// let changed = SegmentCostTable::new(1e-4, 30.0, &[100.0, 400.0, 900.0, 250.0],
///     &[10.0, 60.0, 60.0, 60.0], &[15.0; 4])?;
///
/// let mut dp = ResumableDp::new();
/// dp.solve(&base);
/// let resumed = dp.try_prefix(&changed, 2);
/// // The resumed value matches a from-scratch solve of the changed table.
/// let mut fresh = ResumableDp::new();
/// assert_eq!(resumed, fresh.solve(&changed));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ResumableDp {
    /// Committed `value[x]` (optimal expected time for positions `x..n`);
    /// `len + 1` entries, `value[len] = 0`.
    value: Vec<f64>,
    choice: Vec<usize>,
    trial_value: Vec<f64>,
    trial_choice: Vec<usize>,
    /// The trial buffers equal the committed ones at every position from
    /// here on (`usize::MAX`: nowhere known), so a trial copies only the
    /// stretch the last one overwrote.
    trial_stale: usize,
    /// Whether the trial buffers hold an uncommitted `try_prefix` result.
    trial_pending: bool,
    len: usize,
    /// The work of the last span solved (by `solve`, `try_prefix` or
    /// `solve_suffix`).
    tally: DpTally,
    /// The trials' work, not yet flushed to [`solver_stats`].
    trials: TrialTally,
}

impl Default for ResumableDp {
    fn default() -> Self {
        ResumableDp {
            value: Vec::new(),
            choice: Vec::new(),
            trial_value: Vec::new(),
            trial_choice: Vec::new(),
            trial_stale: usize::MAX,
            trial_pending: false,
            len: 0,
            tally: DpTally::default(),
            trials: TrialTally::default(),
        }
    }
}

impl ResumableDp {
    /// An empty state; [`solve`](ResumableDp::solve) sizes it to its table.
    pub fn new() -> Self {
        ResumableDp::default()
    }

    /// Solves `table` from scratch and commits the result. Returns the
    /// optimal expected makespan (the DP value).
    pub fn solve(&mut self, table: &SegmentCostTable) -> f64 {
        let n = table.len();
        self.len = n;
        self.value.clear();
        self.value.resize(n + 1, 0.0);
        self.choice.clear();
        self.choice.resize(n, 0);
        solver_stats::FULL_SOLVES.add(1);
        self.tally = pruned_dp_span(table, &mut self.value, &mut self.choice, 0, n);
        self.tally.flush();
        self.trial_pending = false;
        self.trial_stale = usize::MAX;
        self.value[0]
    }

    /// Evaluates `table` assuming its positional data at positions
    /// `≥ first_unchanged` is identical to the last committed solve: the
    /// committed suffix values are reused and only `x < first_unchanged` is
    /// recomputed, into a **trial** buffer. Returns the candidate's optimal
    /// expected makespan; the committed state is untouched until
    /// [`commit_trial`](ResumableDp::commit_trial).
    ///
    /// The trial buffers are kept between trials: they differ from the
    /// committed state only at the positions the last trial overwrote (a
    /// commit swaps the two, which keeps that true), so a trial copies back
    /// only the part of that stretch it does not overwrite itself.
    ///
    /// The trials' work reaches [`solver_stats`] when the state is dropped,
    /// not per trial ([`solve`](ResumableDp::solve) and
    /// [`solve_suffix`](ResumableDp::solve_suffix) flush per call).
    ///
    /// # Panics
    ///
    /// Panics if no solve was committed or `table` has a different length.
    pub fn try_prefix(&mut self, table: &SegmentCostTable, first_unchanged: usize) -> f64 {
        let n = self.len;
        assert!(n > 0, "try_prefix before the first solve");
        assert_eq!(table.len(), n, "table length changed between solves");
        let below = first_unchanged.min(n);
        if self.trial_value.len() == n + 1 {
            let stale = self.trial_stale.min(n);
            if stale > below {
                self.trial_value[below..stale].copy_from_slice(&self.value[below..stale]);
                self.trial_choice[below..stale].copy_from_slice(&self.choice[below..stale]);
            }
        } else {
            self.trial_value.clone_from(&self.value);
            self.trial_choice.clone_from(&self.choice);
        }
        self.trial_stale = below;
        self.tally = pruned_dp_span(table, &mut self.trial_value, &mut self.trial_choice, 0, below);
        self.trials.trials += 1;
        self.trials.reused_positions += (n - below) as u64;
        self.trials.dp += self.tally;
        self.trial_pending = true;
        self.trial_value[0]
    }

    /// Commits the last [`try_prefix`](ResumableDp::try_prefix) trial as the
    /// new state (O(1): the buffers are swapped).
    ///
    /// # Panics
    ///
    /// Panics if there is no uncommitted trial (no `try_prefix` since the
    /// last `solve`/`commit_trial`).
    pub fn commit_trial(&mut self) {
        assert!(self.trial_pending, "no trial to commit");
        self.trial_pending = false;
        std::mem::swap(&mut self.value, &mut self.trial_value);
        std::mem::swap(&mut self.choice, &mut self.trial_choice);
    }

    /// The committed optimal expected makespan.
    ///
    /// # Panics
    ///
    /// Panics if no solve was committed.
    pub fn value(&self) -> f64 {
        assert!(self.len > 0, "value before the first solve");
        self.value[0]
    }

    /// Solves only the **suffix** `from..n` of `table` and commits it:
    /// `value[x]` and `choice[x]` become the optimal plan of the remaining
    /// chain for every `x ≥ from`, while positions `< from` are left
    /// untouched (stale, or zero on a fresh state). Returns the optimal
    /// expected time of the suffix starting at `from` (0 for `from ≥ n`).
    ///
    /// This is the re-planning primitive of the online policies
    /// (`ckpt-adaptive`): after a failure with the last durable checkpoint
    /// at position `from − 1`, only the remaining chain needs a plan, and
    /// the Algorithm 1 recurrence for `x ≥ from` never reads positions
    /// `< from` — so a mid-execution re-solve costs `O((n − from)²)` pruned
    /// work instead of a full solve. Accessors for positions `< from` return
    /// stale data until a wider solve is committed.
    pub fn solve_suffix(&mut self, table: &SegmentCostTable, from: usize) -> f64 {
        let n = table.len();
        if self.len != n {
            self.len = n;
            self.value.clear();
            self.value.resize(n + 1, 0.0);
            self.choice.clear();
            self.choice.resize(n, 0);
        }
        let from = from.min(n);
        solver_stats::SUFFIX_SOLVES.add(1);
        solver_stats::SUFFIX_REUSED_POSITIONS.add(from as u64);
        self.tally = pruned_dp_span(table, &mut self.value, &mut self.choice, from, n);
        self.tally.flush();
        self.trial_pending = false;
        self.trial_stale = usize::MAX;
        self.value[from]
    }

    /// The first checkpoint position of the committed optimal plan for the
    /// suffix starting at `x`: executing positions `x..=choice_at(x)` and
    /// checkpointing there is optimal for the remaining chain.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range or no solve was committed. After a
    /// [`solve_suffix`](ResumableDp::solve_suffix) from `from`, only
    /// positions `≥ from` carry committed data.
    pub fn choice_at(&self, x: usize) -> usize {
        assert!(x < self.len, "position {x} out of range (len {})", self.len);
        self.choice[x]
    }

    /// The committed optimal expected time of the suffix starting at `x`
    /// (`x = len` gives 0).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range or no solve was committed.
    pub fn suffix_value(&self, x: usize) -> f64 {
        assert!(self.len > 0, "suffix_value before the first solve");
        assert!(x <= self.len, "position {x} out of range (len {})", self.len);
        self.value[x]
    }

    /// The committed optimal placement.
    ///
    /// # Panics
    ///
    /// Panics if no solve was committed.
    pub fn placement(&self) -> TablePlacement {
        assert!(self.len > 0, "placement before the first solve");
        TablePlacement {
            expected_makespan: self.value[0],
            checkpoint_positions: positions_from_choice(&self.choice),
        }
    }

    /// The committed optimal checkpoint positions of the suffix starting at
    /// `from`, in increasing order, ending with the mandatory final
    /// checkpoint at `len − 1` (empty for `from ≥ len`). After a
    /// [`solve_suffix`](ResumableDp::solve_suffix) from `from`, this is the
    /// mid-execution re-plan the request-serving tier returns: the remaining
    /// chain's optimal placement, in the **full order's** position indices.
    ///
    /// # Panics
    ///
    /// Panics if no solve was committed, or (via stale data) if positions
    /// `< from` of the last commit were narrower than requested — callers
    /// must not ask for positions below their last solved suffix.
    pub fn suffix_positions(&self, from: usize) -> Vec<usize> {
        assert!(self.len > 0, "suffix_positions before the first solve");
        let mut positions = Vec::new();
        let mut x = from;
        while x < self.len {
            let j = self.choice[x];
            positions.push(j);
            x = j + 1;
        }
        positions
    }
}

/// Computes the optimal checkpoint placement for a linear-chain instance,
/// bottom-up, in `O(n²)` time and `O(n)` space — with the per-cell
/// Proposition-1 evaluation reduced to a few multiplies by a precomputed
/// [`SegmentCostTable`], and the inner loop pruned with the table's
/// segment and suffix lower bounds ([`SegmentCostTable::pruned_row`]).
///
/// # Example
///
/// ```
/// use ckpt_core::{chain_dp, ProblemInstance};
/// use ckpt_dag::generators;
///
/// // A four-task chain on a platform failing every 2 000 s on average.
/// let graph = generators::chain(&[500.0, 1_500.0, 250.0, 750.0])?;
/// let instance = ProblemInstance::builder(graph)
///     .uniform_checkpoint_cost(25.0)
///     .uniform_recovery_cost(40.0)
///     .platform_lambda(1.0 / 2_000.0)
///     .build()?;
///
/// let solution = chain_dp::optimal_chain_schedule(&instance)?;
/// // The final checkpoint is mandatory, so it closes the placement…
/// assert_eq!(*solution.checkpoint_positions.last().unwrap(), 3);
/// // …and the DP value matches the analytical evaluation of its schedule.
/// let eval = ckpt_core::evaluate::expected_makespan(&instance, &solution.schedule)?;
/// assert!((solution.expected_makespan - eval).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// * [`ScheduleError::NotAChain`] if the instance graph is not a linear chain;
/// * propagated validation errors (cannot occur for instances built through
///   [`ProblemInstance::builder`]).
pub fn optimal_chain_schedule(instance: &ProblemInstance) -> Result<ChainSolution, ScheduleError> {
    let (order, table) = chain_table(instance)?;
    let placement = pruned_placement(&table, &mut ChainDpScratch::new());
    solution_from_positions(
        instance,
        order,
        placement.checkpoint_positions,
        placement.expected_makespan,
    )
}

/// The levelled recurrence of [`optimal_levelled_schedule`] on a prebuilt
/// [`LevelledCostTable`]: the DP value, the checkpoints as
/// `(position, level)` pairs in increasing position order, and the solve's
/// work for the caller to flush. With a single unbounded level the state
/// space collapses to `(x)` and every candidate it evaluates replays the
/// flat pruned DP's floating-point operations in order; the candidates
/// either bound skips cost strictly more than the incumbent, so the result
/// is **bitwise identical** — +∞ optima included. The caller rejects the
/// one hierarchy without a plan, a sole level with no slot.
///
/// Each row `x` runs one scan over `j` for all of its `L·(S+1)` states
/// `(p, s)`. The bound and the `L²` segment costs depend on `(x, j, p)` but
/// not on `s`, so the scan computes each once per `j` and shares it. The
/// bound is the larger of two, each valid for every later `j`: the
/// cross-level first-segment bound (the minimum over written levels of
/// [`SegmentCostTable::segment_lower_bound_with_coefficient`]) and the
/// work-conservation bound
/// [`SegmentCostTable::suffix_lower_bound_with_coefficient`] with level
/// `p`'s coefficient, which holds for every state of `p` because every
/// level's segments cost at least their work. A state leaves the scan at
/// the first `j` whose bound exceeds its incumbent, where a scan of its own
/// would break; until then it sees the same candidates in the same order,
/// so values, choices and counts are those of one scan per state. Every
/// candidate the bound skips costs strictly more than the incumbent, so
/// values and choices are also those of a scan with the first-segment bound
/// alone.
fn optimal_levelled_placement_on_table(
    table: &LevelledCostTable,
) -> (f64, Vec<(usize, usize)>, DpTally) {
    let n = table.len();
    let levels = table.level_count();
    let (bounded, budget) = match table.levels().bounded() {
        // A plan never takes more than `n` checkpoints, so larger budgets
        // are equivalent to `n` (keeps the state space `O(n)` in the budget).
        Some((idx, slots)) => (Some(idx), slots.min(n)),
        None => (None, 0),
    };
    let slot_states = budget + 1;
    let states = levels * slot_states;
    let idx = |x: usize, p: usize, s: usize| (x * levels + p) * slot_states + s;
    // A state whose candidates all cost +∞ keeps its default choice: the
    // last position, on a level that spends no slot (if any does not), so
    // the traceback of a +∞ optimum ends at once, as Algorithm 1's does.
    let free_level = (0..levels).find(|&level| bounded != Some(level)).unwrap_or(0);
    // value[idx(x, p, s)] is E(x, p, s); row x = n is the 0 base case.
    let mut value = vec![0.0f64; (n + 1) * states];
    let mut choice_j = vec![0usize; n * states];
    let mut choice_level = vec![0usize; n * states];
    // The scan of one row: each state's incumbent and whether it still
    // scans, and per protecting level its coefficient, its number of
    // scanning states and its costs at the current `j`.
    let mut best = vec![0.0f64; states];
    let mut best_j = vec![0usize; states];
    let mut best_level = vec![0usize; states];
    let mut scanning = vec![false; states];
    let mut coefficients = vec![0.0f64; levels];
    let mut scanning_per_level = vec![0usize; levels];
    let mut costs = vec![0.0f64; levels];
    let mut tally = DpTally { positions: (n * states) as u64, ..DpTally::default() };
    for x in (0..n).rev() {
        for (p, coefficient) in coefficients.iter_mut().enumerate() {
            // Level p's protecting coefficient e^{λR_x}(1/λ+D); at x = 0 it
            // is the level-independent initial recovery on every table.
            *coefficient = table.table(p).coefficient(x);
        }
        best.fill(f64::INFINITY);
        best_j.fill(n - 1);
        best_level.fill(free_level);
        scanning.fill(true);
        scanning_per_level.fill(slot_states);
        let mut scanning_total = states;
        for j in x..n {
            for p in 0..levels {
                if scanning_per_level[p] == 0 {
                    continue;
                }
                let coefficient = coefficients[p];
                let mut bound =
                    table.table(0).segment_lower_bound_with_coefficient(x, j, coefficient);
                for level in 1..levels {
                    bound = bound.min(table.table(level).segment_lower_bound_with_coefficient(
                        x,
                        j,
                        coefficient,
                    ));
                }
                // Every level's table shares the prefix sums and λ, so any
                // of them gives the suffix bound of protecting level p.
                bound = bound.max(table.table(0).suffix_lower_bound_with_coefficient(
                    x,
                    j,
                    coefficient,
                ));
                for (level, cost) in costs.iter_mut().enumerate() {
                    *cost = table.table(level).cost_with_coefficient(x, j, coefficient);
                }
                for s in 0..slot_states {
                    let state = p * slot_states + s;
                    if !scanning[state] {
                        continue;
                    }
                    // The bound is valid for every j′ ≥ j and non-decreasing
                    // in j: once it clears the incumbent, the state is done.
                    if bound > best[state] {
                        tally.prune_breaks += 1;
                        scanning[state] = false;
                        scanning_per_level[p] -= 1;
                        scanning_total -= 1;
                        continue;
                    }
                    for (level, &cost) in costs.iter().enumerate() {
                        let next_s = match bounded {
                            Some(b) if b == level => {
                                if s == 0 {
                                    // The bounded level is exhausted: it
                                    // cannot be written in this suffix.
                                    continue;
                                }
                                s - 1
                            }
                            _ => s,
                        };
                        tally.candidates += 1;
                        let cost = cost + value[idx(j + 1, level, next_s)];
                        if cost < best[state] {
                            best[state] = cost;
                            best_j[state] = j;
                            best_level[state] = level;
                        }
                    }
                }
            }
            if scanning_total == 0 {
                break;
            }
        }
        let row = idx(x, 0, 0)..idx(x + 1, 0, 0);
        value[row.clone()].copy_from_slice(&best);
        choice_j[row.clone()].copy_from_slice(&best_j);
        choice_level[row].copy_from_slice(&best_level);
    }

    let mut checkpoints = Vec::new();
    let (mut x, mut p, mut s) = (0usize, 0usize, budget);
    while x < n {
        let state = idx(x, p, s);
        let j = choice_j[state];
        let level = choice_level[state];
        checkpoints.push((j, level));
        if bounded == Some(level) {
            s -= 1;
        }
        p = level;
        x = j + 1;
    }
    (value[idx(0, 0, budget)], checkpoints, tally)
}

/// The result of the levelled chain dynamic program
/// ([`optimal_levelled_schedule`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelledSolution {
    /// The optimal schedule (chain order, optimal checkpoint positions) with
    /// levels erased — drop-in compatible with every single-level consumer.
    pub schedule: Schedule,
    /// The optimal expected makespan under the storage hierarchy (the DP
    /// value).
    pub expected_makespan: f64,
    /// The checkpoints as `(position, level)` pairs in increasing position
    /// order. Always ends at position `n − 1`.
    pub checkpoints: Vec<(usize, usize)>,
    /// The storage hierarchy the plan was computed for.
    pub levels: StorageLevels,
}

impl LevelledSolution {
    /// Converts the levelled plan into simulator [`Segment`](ckpt_simulator::Segment)s: each
    /// segment's checkpoint cost is scaled by the written level's write
    /// factor, and the *next* segment's recovery by that same level's read
    /// factor (see [`ckpt_simulator::levelled_segments`]).
    ///
    /// # Errors
    ///
    /// Propagates segment-validation errors (cannot occur for instances
    /// built through [`ProblemInstance::builder`], whose weights are
    /// positive).
    pub fn to_segments(
        &self,
        instance: &ProblemInstance,
    ) -> Result<Vec<ckpt_simulator::Segment>, ckpt_simulator::SimulationError> {
        let order = self.schedule.order();
        let works: Vec<f64> = order.iter().map(|&t| instance.weight(t)).collect();
        let checkpoints: Vec<f64> = order.iter().map(|&t| instance.checkpoint_cost(t)).collect();
        let recoveries: Vec<f64> = order.iter().map(|&t| instance.recovery_cost(t)).collect();
        ckpt_simulator::levelled_segments(
            &works,
            &checkpoints,
            &recoveries,
            instance.initial_recovery(),
            &self.levels,
            &self.checkpoints,
        )
    }
}

/// Computes the optimal joint `(position, level)` checkpoint plan for a
/// linear-chain instance over a storage hierarchy: Algorithm 1 with the
/// written storage level as a second decision per checkpoint and the fast
/// tier's slot budget threaded through the DP state. The state `(x, p, s)`
/// is the suffix from position `x`, protected by a checkpoint on level `p`,
/// with `s` slots of the bounded level (at most one level is bounded) left:
///
/// ```text
/// E(x, p, s) = min_{x ≤ j < n} min_ℓ [ T_{p,ℓ}(x, j) + E(j+1, ℓ, s − [ℓ bounded]) ]
/// E(n, ·, ·) = 0
/// ```
///
/// where `T_{p,ℓ}` charges level `p`'s protecting coefficient and level
/// `ℓ`'s write cost ([`SegmentCostTable::cost_with_coefficient`]). A slot
/// is spent **permanently** (the fast tier holds only so many checkpoints
/// for the lifetime of the run), which makes the reachable plan set — and
/// hence the optimum — monotone in the slot budget. The inner loop keeps
/// the flat solver's pruning: the cross-level bound is the minimum of the
/// per-level monotone bounds, raised to the work-conservation suffix bound
/// of the protecting level where that is larger. `O(n² · L · (L + S))`
/// time for `L` levels and a budget of `S` slots, `O(n · L · S)` space.
///
/// With `StorageLevels::single()` this is **bitwise identical** to
/// [`optimal_chain_schedule`] — same expected makespan to the last bit
/// (+∞ included), same positions (differential-tested). The work differs:
/// this DP tests the suffix bound at every candidate, the flat DP only
/// past a row's first 32 product-form candidates, so the single-level
/// solve evaluates at most as many candidates as the flat one.
///
/// # Example
///
/// ```
/// use ckpt_core::{chain_dp, ProblemInstance};
/// use ckpt_dag::generators;
/// use ckpt_expectation::storage::{StorageLevel, StorageLevels};
///
/// let graph = generators::chain(&[500.0, 1_500.0, 250.0, 750.0])?;
/// let instance = ProblemInstance::builder(graph)
///     .uniform_checkpoint_cost(25.0)
///     .uniform_recovery_cost(40.0)
///     .platform_lambda(1.0 / 2_000.0)
///     .build()?;
/// // A burst-buffer tier: 4× cheaper writes, 5× cheaper reads, 1 slot.
/// let levels = StorageLevels::two_level(
///     StorageLevel::new(0.25, 0.2)?.with_slots(1),
///     StorageLevel::new(1.0, 1.0)?,
/// )?;
///
/// let levelled = chain_dp::optimal_levelled_schedule(&instance, &levels)?;
/// let flat = chain_dp::optimal_chain_schedule(&instance)?;
/// // The hierarchy can only help: the flat plan is still available.
/// assert!(levelled.expected_makespan <= flat.expected_makespan);
/// // The final checkpoint is mandatory and carries its level.
/// assert_eq!(levelled.checkpoints.last().unwrap().0, 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// * [`ScheduleError::NotAChain`] if the instance graph is not a linear
///   chain;
/// * [`ScheduleError::InvalidStorageLevels`] for a sole storage level with
///   no slot, which cannot hold the mandatory final checkpoint;
/// * propagated validation errors (cannot occur for instances built through
///   [`ProblemInstance::builder`]).
pub fn optimal_levelled_schedule(
    instance: &ProblemInstance,
    levels: &StorageLevels,
) -> Result<LevelledSolution, ScheduleError> {
    if let [only] = levels.levels() {
        if only.slots() == Some(0) {
            return Err(ScheduleError::InvalidStorageLevels);
        }
    }
    let order = properties::as_chain(instance.graph()).ok_or(ScheduleError::NotAChain)?;
    let table = levelled_cost_table(instance, &order, levels.clone())?;
    let (expected_makespan, checkpoints, tally) = optimal_levelled_placement_on_table(&table);
    tally.flush();
    let mut checkpoint_after = vec![false; order.len()];
    for &(j, _) in &checkpoints {
        checkpoint_after[j] = true;
    }
    let schedule = Schedule::new(instance, order, checkpoint_after)?;
    Ok(LevelledSolution { schedule, expected_makespan, checkpoints, levels: levels.clone() })
}

/// Sums the table costs of the checkpoint-delimited segments of `positions` —
/// used by the envelope-based solvers to report a value with the same
/// summation order as the direct DPs instead of their line arithmetic.
fn resummed_value(table: &SegmentCostTable, positions: &[usize]) -> f64 {
    let mut total = 0.0;
    let mut start = 0usize;
    for &j in positions {
        total += table.cost(start, j);
        start = j + 1;
    }
    total
}

/// Positions per cache-sized block of the blocked solver. 1 024 positions
/// keep a block's slice of every table array (prefix, slopes, query points,
/// DP state) near 64 KiB together — L1/L2 resident on current hardware.
const DP_BLOCK: usize = 1024;

/// Caller-owned scratch arena for [`scalable_placement_on_table_with_scratch`]:
/// the DP state of both kernels, and the blocked kernel's position orders,
/// block-local Li Chao buffers and envelope hull.
///
/// A blocked solve keeps about 74 bytes per position here: six `f64`/`usize`
/// arrays (query points, slopes, DP values and choices, cross-range minima),
/// two `u32` position orders and their spill half, and a hull of up to
/// `n / 2` lines of 32 bytes; the Li Chao domain, tree and ranks are
/// block-sized. The orders are sorted in place, so nothing else grows with
/// `n`. A solve
/// without an arena allocates all of it afresh (tens of megabytes at
/// `n = 10⁶`) and page-faults it in. Batch consumers (λ sweeps, the order
/// search, the §6 batch planner) reuse one arena across every solve; a fresh
/// arena allocates nothing until its first solve, and nothing after a solve
/// of a table at least as long.
///
/// # Example
///
/// ```
/// use ckpt_core::chain_dp::{scalable_placement_on_table_with_scratch, ChainDpScratch};
/// use ckpt_expectation::sweep::LambdaSweep;
///
/// // One 2 000-position order, solved at three rates through one arena.
/// let n = 2_000;
/// let sweep = LambdaSweep::new(30.0, &vec![300.0; n], &vec![30.0; n], &vec![30.0; n])?;
/// let mut scratch = ChainDpScratch::new();
/// for lambda in [1e-7, 1e-6, 1e-5] {
///     let table = sweep.table_for(lambda)?;
///     let reused = scalable_placement_on_table_with_scratch(&table, &mut scratch);
///     let fresh = scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new());
///     assert_eq!(reused, fresh);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChainDpScratch {
    points: Vec<f64>,
    slopes: Vec<f64>,
    value: Vec<f64>,
    choice: Vec<usize>,
    cross_val: Vec<f64>,
    cross_id: Vec<usize>,
    /// Every position, in ascending query-point order within each range the
    /// recursion has reached (ties by position).
    by_point: Vec<u32>,
    /// Every position, in descending slope order within each range the
    /// recursion has solved (ties by position).
    by_slope: Vec<u32>,
    /// Half a range, parked while its order is split or merged.
    spill: Vec<u32>,
    /// Each block position's index into the block's Li Chao domain.
    rank: Vec<u32>,
    domain: Vec<f64>,
    tree: LiChaoTree,
    hull: Vec<HullLine>,
    /// How the last blocked solve's sorts (its point order and each block's
    /// slope order) finished.
    sorts: SortTally,
}

impl ChainDpScratch {
    /// An empty arena; buffers grow to the largest table solved through it
    /// and are reused from then on.
    pub fn new() -> Self {
        ChainDpScratch::default()
    }
}

/// Tables at least this long run the blocked kernel in
/// [`scalable_placement_on_table_with_scratch`]; below it the pruned
/// quadratic DP is comparable or faster (and in dense-checkpoint regimes its
/// lower-bound pruning wins outright).
const SCALABLE_THRESHOLD: usize = 1024;

/// Runs the Algorithm 1 recurrence on a prebuilt `table` with the kernel
/// suited to its size, out of a caller-owned [`ChainDpScratch`]:
///
/// * below 1 024 positions, or on saturated tables
///   (`λ·total work` ≳ 650, where the slope/query-point decomposition
///   overflows), the exact pruned DP;
/// * otherwise the **blocked kernel**, a divide and conquer over index space
///   so `10⁵`–`10⁶`-position tables stream through cache-sized working sets,
///   in `O(n log n)` time: the positions are ordered once by query point,
///   and every range of the recursion reads its positions in point and in
///   slope order from a split of its parent's order and a merge of its
///   halves'. Query points fall and slopes rise along the order up to cost
///   jitter, so the point order and each block's slope order are finished
///   by an insertion pass from descending positions, which hands off to a
///   comparison sort once the jitter makes it move too much.
///   Trailing blocks of 1 024 positions are solved with a block-local Li
///   Chao sweep whose tree spans only the block's query points; once a
///   suffix range is solved, its candidate lines are batched into a monotone
///   lower envelope (one forward sweep over the lines in slope order, one
///   over the queries in point order) over the matching prefix range. Each
///   position meets `O(log(n / 1024))` envelopes, each spanning one
///   contiguous range; no quadratic state is materialised.
///
/// Both kernels return the optimum (cross-checked to `10⁻¹⁰` relative error
/// against each other and the [`oracle`] yardsticks); checkpoint positions
/// may differ only between exactly cost-equivalent solutions. The buffers
/// are reused across calls, so batch consumers loop over this entry with
/// one arena.
pub fn scalable_placement_on_table_with_scratch(
    table: &SegmentCostTable,
    scratch: &mut ChainDpScratch,
) -> TablePlacement {
    if table.len() >= SCALABLE_THRESHOLD && !table.is_saturated() {
        blocked_placement_with_block_into(table, DP_BLOCK, scratch)
    } else {
        pruned_placement(table, scratch)
    }
}

/// The blocked core with an explicit block size, so tests can force deep
/// recursion on small chains.
#[cfg(test)]
fn blocked_placement_with_block(table: &SegmentCostTable, block: usize) -> TablePlacement {
    blocked_placement_with_block_into(table, block, &mut ChainDpScratch::new())
}

/// The blocked core, running entirely out of `scratch`'s buffers.
///
/// Each range of the recursion needs its positions in two orders: by query
/// point (the queries of a cross-range envelope, and a block's Li Chao
/// domain) and by slope (the lines of an envelope). Neither is sorted per
/// range. The point order is sorted once per solve and split top-down: a
/// stable partition of a range's slice into its `lo..mid` and `mid..hi`
/// halves leaves both halves in point order. The slope order is sorted per
/// block and merged bottom-up once both halves of a range are solved. Ties
/// go by position in both, the order a stable per-range sort gives, so the
/// envelopes see the same sequences, and the placement, its value and the
/// Li Chao counts do not depend on how the orders were obtained.
///
/// Query points `e^{λR_x}(1/λ + D)·e^{−λ·prefix[x]}` fall and slopes
/// `e^{λ(prefix[j+1] + C_j)}` rise with the position, except where recovery
/// or checkpoint costs vary by more than the work between two positions. So
/// both sorts start from descending positions and run [`sort_positions`]'s
/// insertion pass, which moves each position only past the ones it is out
/// of order with; it hands off to a comparison sort once it has moved
/// [`INSERTION_MOVES_PER_POSITION`] times as many positions as it sorts.
/// Either way the sorts cost `O(n log n)` at most; `O(n)` work per recursion
/// level and `O(n log B)` in the blocks make the solve `O(n log n)`.
///
/// The Li Chao tree's tallies cover this solve only: they are cleared when
/// it starts, flushed to [`solver_stats`] when it ends, and stay readable in
/// `scratch` until the next solve.
///
/// # Panics
///
/// Panics if `block` is 0 or the table has more than `u32::MAX` positions
/// (the position orders are `u32`).
fn blocked_placement_with_block_into(
    table: &SegmentCostTable,
    block: usize,
    scratch: &mut ChainDpScratch,
) -> TablePlacement {
    debug_assert!(!table.is_saturated(), "blocked solver needs slopes/query points");
    assert!(block > 0, "block size must be positive");
    let n = table.len();
    let positions = u32::try_from(n).expect("the blocked kernel indexes positions as u32");
    scratch.points.clear();
    scratch.points.extend((0..n).map(|x| table.query_point(x)));
    scratch.slopes.clear();
    scratch.slopes.extend((0..n).map(|j| table.slope(j)));
    scratch.value.clear();
    scratch.value.resize(n + 1, 0.0);
    scratch.choice.clear();
    scratch.choice.resize(n, 0);
    scratch.cross_val.clear();
    scratch.cross_val.resize(n, f64::INFINITY);
    scratch.cross_id.clear();
    scratch.cross_id.resize(n, usize::MAX);
    let points = &scratch.points;
    scratch.by_point.clear();
    scratch.by_point.extend((0..positions).rev());
    scratch.sorts = SortTally::default();
    scratch.sorts.add(sort_positions(&mut scratch.by_point, |&a, &b| {
        points[a as usize].total_cmp(&points[b as usize]).then(a.cmp(&b))
    }));
    scratch.by_slope.clear();
    scratch.by_slope.resize(n, 0);
    scratch.tree.clear_counts();

    struct BlockedDp<'a> {
        table: &'a SegmentCostTable,
        points: &'a [f64],
        slopes: &'a [f64],
        block: usize,
        /// `value[x]` = optimal expected time for positions `x..n`.
        value: &'a mut [f64],
        choice: &'a mut [usize],
        /// Best cross-range candidate of `x` in **line form**
        /// (`slope(j)·t_x + value[j+1]`, before subtracting `coeff(x)`),
        /// accumulated over the envelopes of all solved suffix ranges.
        cross_val: &'a mut [f64],
        cross_id: &'a mut [usize],
        by_point: &'a mut [u32],
        by_slope: &'a mut [u32],
        spill: &'a mut Vec<u32>,
        rank: &'a mut Vec<u32>,
        domain: &'a mut Vec<f64>,
        tree: &'a mut LiChaoTree,
        hull: &'a mut Vec<HullLine>,
        sorts: &'a mut SortTally,
    }

    impl BlockedDp<'_> {
        /// Solves positions `lo..hi`, assuming `value[hi..]` is final,
        /// `cross_*[lo..hi]` already accounts for every candidate `j ≥ hi`
        /// and `by_point[lo..hi]` holds `lo..hi` in point order. Leaves
        /// `by_slope[lo..hi]` in slope order.
        fn solve(&mut self, lo: usize, hi: usize) {
            if hi - lo <= self.block {
                self.solve_block(lo, hi);
                return;
            }
            let mid = lo + (hi - lo) / 2;
            self.split_points(lo, mid, hi);
            self.solve(mid, hi);
            self.apply_cross(lo, mid, hi);
            self.solve(lo, mid);
            self.merge_slopes(lo, mid, hi);
        }

        /// Stably partitions `by_point[lo..hi]` into the positions below
        /// `mid` and the rest, so both halves stay in point order.
        fn split_points(&mut self, lo: usize, mid: usize, hi: usize) {
            self.spill.clear();
            let mut kept = lo;
            for k in lo..hi {
                let x = self.by_point[k];
                if (x as usize) < mid {
                    self.by_point[kept] = x;
                    kept += 1;
                } else {
                    self.spill.push(x);
                }
            }
            debug_assert_eq!(kept, mid);
            self.by_point[mid..hi].copy_from_slice(self.spill.as_slice());
        }

        /// Merges the slope-ordered halves `by_slope[lo..mid]` and
        /// `by_slope[mid..hi]`, the left half first among equal slopes (its
        /// positions are the smaller).
        fn merge_slopes(&mut self, lo: usize, mid: usize, hi: usize) {
            self.spill.clear();
            self.spill.extend_from_slice(&self.by_slope[lo..mid]);
            let (mut right, mut out) = (mid, lo);
            for &left in self.spill.iter() {
                let left_slope = self.slopes[left as usize];
                while right < hi
                    && self.slopes[self.by_slope[right] as usize].total_cmp(&left_slope).is_gt()
                {
                    self.by_slope[out] = self.by_slope[right];
                    right += 1;
                    out += 1;
                }
                self.by_slope[out] = left;
                out += 1;
            }
            // The rest of the right half is already in place.
        }

        /// One cache-sized block, solved with the Li Chao sweep of the
        /// divide-and-conquer formulation restricted to the block: the tree
        /// spans only the block's query points (L2-resident at [`DP_BLOCK`]),
        /// and candidates from outside the block enter through the
        /// accumulated cross-range minima. The block's point order,
        /// deduplicated, is the tree's domain, and each position's place in
        /// it is the index its query reads. Once solved, the block's lines
        /// are sorted into slope order, from descending positions, for the
        /// merges above it.
        fn solve_block(&mut self, lo: usize, hi: usize) {
            self.domain.clear();
            self.rank.clear();
            self.rank.resize(hi - lo, 0);
            let mut distinct = 0u32;
            for &x in self.by_point[lo..hi].iter() {
                let t = self.points[x as usize];
                if self.domain.last() != Some(&t) {
                    self.domain.push(t);
                    distinct += 1;
                }
                self.rank[x as usize - lo] = distinct - 1;
            }
            self.tree.reset(self.domain.as_slice());
            for x in (lo..hi).rev() {
                // Candidate "first checkpoint at j = x" becomes available
                // exactly now: its intercept E(x+1) is final.
                self.tree.insert(LiChaoLine {
                    slope: self.slopes[x],
                    intercept: self.value[x + 1],
                    id: x,
                });
                let (in_block, in_block_id) = self.tree.query(self.rank[x - lo] as usize);
                let (mut best, mut best_j) = (in_block, in_block_id);
                if self.cross_id[x] != usize::MAX && self.cross_val[x] < best {
                    best = self.cross_val[x];
                    best_j = self.cross_id[x];
                }
                self.value[x] = best - self.table.coefficient(x);
                self.choice[x] = best_j;
            }
            let slopes = self.slopes;
            let lines = &mut self.by_slope[lo..hi];
            for (slot, j) in lines.iter_mut().zip((lo as u32..hi as u32).rev()) {
                *slot = j;
            }
            self.sorts.add(sort_positions(lines, |&a, &b| {
                slopes[b as usize].total_cmp(&slopes[a as usize]).then(a.cmp(&b))
            }));
        }

        /// Batches the lines of the solved range `mid..hi` into a monotone
        /// lower envelope (convex-hull trick: lines in slope order, queries
        /// in point order, one forward sweep over each) and folds the
        /// per-point minima into the cross-range candidates of `lo..mid`.
        /// Both orders are already at hand, so everything is a sequential
        /// scan — no sort, no tree. Each hull line keeps its crossover with
        /// the line below it, so a pop test divides once.
        fn apply_cross(&mut self, lo: usize, mid: usize, hi: usize) {
            // Envelope construction, slope-descending (the minimum's winner
            // as the query point grows moves towards smaller slopes).
            self.hull.clear();
            let lines = &self.by_slope[mid..hi];
            let mut k = 0usize;
            while k < lines.len() {
                // A run of equal slopes offers one line: its lowest
                // intercept, the first (lowest position) on ties.
                let j = lines[k] as usize;
                let mut line =
                    LiChaoLine { slope: self.slopes[j], intercept: self.value[j + 1], id: j };
                k += 1;
                while let Some(&next) = lines.get(k) {
                    let j = next as usize;
                    if self.slopes[j] != line.slope {
                        break;
                    }
                    if self.value[j + 1].total_cmp(&line.intercept).is_lt() {
                        line = LiChaoLine { intercept: self.value[j + 1], id: j, ..line };
                    }
                    k += 1;
                }
                while self.hull.len() >= 2 {
                    let a = self.hull[self.hull.len() - 2].line;
                    let b = self.hull[self.hull.len() - 1];
                    // `b` never strictly wins if the a/line crossover is not
                    // to the right of the a/b crossover, stored with `b`
                    // when it was pushed (slopes strictly decrease along
                    // the hull, so both denominators are positive).
                    let x_al = (line.intercept - a.intercept) / (a.slope - line.slope);
                    if x_al <= b.crossover {
                        self.hull.pop();
                    } else {
                        break;
                    }
                }
                let crossover = self.hull.last().map_or(f64::NEG_INFINITY, |b| {
                    (line.intercept - b.line.intercept) / (b.line.slope - line.slope)
                });
                self.hull.push(HullLine { line, crossover });
            }

            // Queries in ascending point order: the winning hull index only
            // moves forward, so the whole batch costs one merge-like sweep.
            let mut k = 0usize;
            for &x in self.by_point[lo..mid].iter() {
                let x = x as usize;
                let t = self.points[x];
                while k + 1 < self.hull.len()
                    && self.hull[k + 1].line.eval(t) <= self.hull[k].line.eval(t)
                {
                    k += 1;
                }
                let candidate = self.hull[k].line.eval(t);
                if self.cross_id[x] == usize::MAX || candidate < self.cross_val[x] {
                    self.cross_val[x] = candidate;
                    self.cross_id[x] = self.hull[k].line.id;
                }
            }
        }
    }

    let ChainDpScratch {
        points,
        slopes,
        value,
        choice,
        cross_val,
        cross_id,
        by_point,
        by_slope,
        spill,
        rank,
        domain,
        tree,
        hull,
        sorts,
    } = scratch;
    let mut dp = BlockedDp {
        table,
        points,
        slopes,
        block,
        value,
        choice,
        cross_val,
        cross_id,
        by_point,
        by_slope,
        spill,
        rank,
        domain,
        tree,
        hull,
        sorts,
    };
    dp.solve(0, n);
    dp.tree.flush_counts();

    // Re-sum through the table, as the divide-and-conquer solver does.
    let positions = positions_from_choice(dp.choice);
    let expected_makespan = resummed_value(table, &positions);
    TablePlacement { expected_makespan, checkpoint_positions: positions }
}

/// How many positions [`sort_positions`]'s insertion pass may move, per
/// position it sorts, before it hands off to a comparison sort. The blocked
/// kernel's orders need a few hundredths of a move per position on chains
/// whose costs vary less than their work (plan-large's: 0.03 for the point
/// order, 0.007 for the slope orders), so insertion finishes them; where
/// the costs' jitter dwarfs the work, the pass gives up after `O(n)` moves.
const INSERTION_MOVES_PER_POSITION: usize = 8;

/// Sorts `positions` in place by `compare`, a total order (the kernel's
/// break ties by position, so any sort gives the same result). An insertion
/// pass moves each position back past those it precedes; once it has moved
/// more than [`INSERTION_MOVES_PER_POSITION`] times as many positions as it
/// sorts, `sort_unstable_by` finishes the slice. Neither allocates. Returns
/// whether the comparison sort ran.
fn sort_positions(positions: &mut [u32], compare: impl Fn(&u32, &u32) -> Ordering) -> bool {
    let budget = INSERTION_MOVES_PER_POSITION * positions.len();
    let mut moves = 0usize;
    for i in 1..positions.len() {
        let x = positions[i];
        let mut k = i;
        while k > 0 && compare(&x, &positions[k - 1]).is_lt() {
            positions[k] = positions[k - 1];
            k -= 1;
        }
        positions[k] = x;
        moves += i - k;
        if moves > budget {
            positions.sort_unstable_by(compare);
            return true;
        }
    }
    false
}

/// How a blocked solve's sorts finished: by the insertion pass alone, or
/// handed off to the comparison sort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SortTally {
    by_insertion: u32,
    by_comparison: u32,
}

impl SortTally {
    /// Counts one [`sort_positions`] call that returned `compared`.
    fn add(&mut self, compared: bool) {
        if compared {
            self.by_comparison += 1;
        } else {
            self.by_insertion += 1;
        }
    }
}

/// A line of a cross-range envelope, with the query point from which it
/// beats the line below it on the hull (`−∞` at the bottom).
#[derive(Debug, Clone, Copy)]
struct HullLine {
    line: LiChaoLine,
    crossover: f64,
}

/// A candidate line of a lower envelope (a Li Chao tree's, or a
/// cross-range hull's): `eval(t) = slope·t + intercept`, tagged with the
/// checkpoint position it represents.
#[derive(Debug, Clone, Copy)]
struct LiChaoLine {
    slope: f64,
    intercept: f64,
    id: usize,
}

impl LiChaoLine {
    /// Fills the tree nodes no line has reached yet.
    const NONE: LiChaoLine = LiChaoLine { slope: 0.0, intercept: 0.0, id: usize::MAX };

    fn eval(&self, t: f64) -> f64 {
        self.slope * t + self.intercept
    }
}

/// A Li Chao tree over a fixed, sorted set of query points: divide and
/// conquer on the query domain, keeping in each node the line that wins at
/// the node's midpoint. Insert and query are `O(log n)`; the minimum returned
/// at any stored point is exact (no convexity assumptions on insertion
/// order).
///
/// The tree tallies the lines inserted and the nodes they visit, but never
/// touches [`solver_stats`] itself: its owner (the blocked kernel, or the
/// [`oracle`]'s global sweep) clears the tallies when a solve starts and
/// flushes them when it ends, one relaxed add per counter and solve.
#[derive(Debug, Clone, Default)]
struct LiChaoTree {
    xs: Vec<f64>,
    /// Node `k` (children `2k` and `2k + 1`) holds the line winning at its
    /// midpoint, or [`LiChaoLine::NONE`]. A node is filled only once its
    /// parent is, so below an empty node the whole subtree is empty.
    nodes: Vec<LiChaoLine>,
    /// Lines inserted since the last [`clear_counts`](LiChaoTree::clear_counts).
    inserts: u64,
    /// Tree nodes those insertions visited.
    visits: u64,
}

impl LiChaoTree {
    /// Re-spans the tree over a new sorted, duplicate-free domain, keeping
    /// both buffers' capacity (the [`ChainDpScratch`] reuse path). The
    /// tallies carry on.
    fn reset(&mut self, xs: &[f64]) {
        self.xs.clear();
        self.xs.extend_from_slice(xs);
        // Halving `len` points takes ⌈log₂ len⌉ levels, so node indices
        // stay below 2·2^⌈log₂ len⌉.
        let len = self.xs.len().max(1);
        self.nodes.clear();
        self.nodes.resize(2 * len.next_power_of_two(), LiChaoLine::NONE);
    }

    fn insert(&mut self, mut line: LiChaoLine) {
        let (mut node, mut lo, mut hi) = (1usize, 0usize, self.xs.len() - 1);
        let mut visited = 1u64;
        loop {
            let current = &mut self.nodes[node];
            if current.id == LiChaoLine::NONE.id {
                *current = line;
                break;
            }
            let mid = (lo + hi) / 2;
            let mid_x = self.xs[mid];
            if line.eval(mid_x) < current.eval(mid_x) {
                std::mem::swap(current, &mut line);
            }
            if lo == hi {
                break;
            }
            // `line` lost at the midpoint; two lines cross at most once, so
            // it can only win on the side where it beats the winner at the
            // boundary.
            let lo_x = self.xs[lo];
            if line.eval(lo_x) < current.eval(lo_x) {
                (node, hi) = (2 * node, mid);
            } else {
                (node, lo) = (2 * node + 1, mid + 1);
            }
            visited += 1;
        }
        self.inserts += 1;
        self.visits += visited;
    }

    /// The minimum over all inserted lines at the domain's `index`-th point,
    /// with the id of a minimising line.
    fn query(&self, index: usize) -> (f64, usize) {
        let t = self.xs[index];
        let (mut lo, mut hi, mut node) = (0usize, self.xs.len() - 1, 1usize);
        let mut best: Option<(f64, usize)> = None;
        loop {
            let line = &self.nodes[node];
            if line.id == LiChaoLine::NONE.id {
                break;
            }
            let candidate = line.eval(t);
            if best.is_none_or(|(value, _)| candidate < value) {
                best = Some((candidate, line.id));
            }
            if lo == hi {
                break;
            }
            let mid = (lo + hi) / 2;
            if index <= mid {
                hi = mid;
                node *= 2;
            } else {
                lo = mid + 1;
                node = 2 * node + 1;
            }
        }
        best.expect("query on an empty envelope")
    }

    /// Zeroes the tallies: a solve starts.
    fn clear_counts(&mut self) {
        self.inserts = 0;
        self.visits = 0;
    }

    /// Adds the tallies to [`solver_stats`]: a solve ends. They stay
    /// readable until the next [`clear_counts`](LiChaoTree::clear_counts).
    fn flush_counts(&self) {
        solver_stats::LI_CHAO_INSERTS.add(self.inserts);
        solver_stats::LI_CHAO_NODE_VISITS.add(self.visits);
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use crate::evaluate::expected_makespan;
    use ckpt_dag::generators;
    use ckpt_expectation::exact::{expected_time, ExecutionParams};
    use ckpt_failure::{Pcg64, RandomSource};
    use proptest::prelude::*;

    fn chain_instance(weights: &[f64], c: f64, r: f64, d: f64, lambda: f64) -> ProblemInstance {
        let graph = generators::chain(weights).unwrap();
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(c)
            .uniform_recovery_cost(r)
            .downtime(d)
            .platform_lambda(lambda)
            .build()
            .unwrap()
    }

    /// A chain with deterministic pseudo-random heterogeneous weights and
    /// costs — exercises the pruning bound and the Li Chao sweep away from
    /// the uniform-cost special case.
    fn random_heterogeneous_chain(seed: u64, n: usize, lambda: f64) -> ProblemInstance {
        let mut rng = Pcg64::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n).map(|_| 10.0 + rng.next_f64() * 1_990.0).collect();
        let ckpt: Vec<f64> = (0..n).map(|_| rng.next_f64() * 250.0).collect();
        let rec: Vec<f64> = (0..n).map(|_| rng.next_f64() * 250.0).collect();
        let graph = generators::chain(&weights).unwrap();
        ProblemInstance::builder(graph)
            .checkpoint_costs(ckpt)
            .recovery_costs(rec)
            .initial_recovery(rng.next_f64() * 100.0)
            .downtime(rng.next_f64() * 60.0)
            .platform_lambda(lambda)
            .build()
            .unwrap()
    }

    /// The segment-cost table of a chain instance along its chain order.
    fn table(instance: &ProblemInstance) -> SegmentCostTable {
        chain_table(instance).unwrap().1
    }

    /// Exhaustive optimum over all checkpoint subsets (final forced) — the
    /// reference the DP is checked against.
    fn exhaustive_optimum(instance: &ProblemInstance) -> f64 {
        let order = properties::as_chain(instance.graph()).unwrap();
        let n = order.len();
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << (n - 1)) {
            let mut checkpoints = vec![false; n];
            checkpoints[n - 1] = true;
            for (pos, flag) in checkpoints.iter_mut().enumerate().take(n - 1) {
                *flag = mask & (1 << pos) != 0;
            }
            let schedule = Schedule::new(instance, order.clone(), checkpoints).unwrap();
            best = best.min(expected_makespan(instance, &schedule).unwrap());
        }
        best
    }

    #[test]
    fn rejects_non_chain_graphs() {
        let graph = generators::independent(&[1.0, 2.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(1.0)
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        assert!(matches!(optimal_chain_schedule(&inst), Err(ScheduleError::NotAChain)));
        assert!(matches!(optimal_chain_schedule_reference(&inst), Err(ScheduleError::NotAChain)));
        assert!(matches!(
            optimal_chain_schedule_divide_conquer(&inst),
            Err(ScheduleError::NotAChain)
        ));
        assert!(matches!(optimal_chain_value_memoized(&inst), Err(ScheduleError::NotAChain)));
    }

    #[test]
    fn single_task_chain_checkpoints_after_it() {
        let inst = chain_instance(&[500.0], 10.0, 20.0, 5.0, 1e-3);
        let sol = optimal_chain_schedule(&inst).unwrap();
        assert_eq!(sol.checkpoint_positions, vec![0]);
        let expected = expected_time(&ExecutionParams::new(500.0, 10.0, 5.0, 0.0, 1e-3).unwrap());
        assert!((sol.expected_makespan - expected).abs() < 1e-9);
    }

    #[test]
    fn dp_value_matches_schedule_evaluation() {
        let inst =
            chain_instance(&[400.0, 100.0, 900.0, 250.0, 650.0, 300.0], 60.0, 60.0, 30.0, 1e-4);
        let sol = optimal_chain_schedule(&inst).unwrap();
        let eval = expected_makespan(&inst, &sol.schedule).unwrap();
        assert!((sol.expected_makespan - eval).abs() < 1e-9);
        // The schedule ends with the mandatory final checkpoint.
        assert_eq!(*sol.checkpoint_positions.last().unwrap(), 5);
    }

    #[test]
    fn dp_matches_exhaustive_search_on_small_chains() {
        let cases: Vec<ProblemInstance> = vec![
            chain_instance(&[100.0, 200.0, 300.0, 50.0, 400.0], 30.0, 30.0, 0.0, 1e-3),
            chain_instance(&[10.0, 10.0, 10.0, 10.0, 10.0, 10.0], 5.0, 5.0, 1.0, 1e-2),
            chain_instance(&[3600.0, 1800.0, 5400.0, 900.0], 600.0, 300.0, 60.0, 1e-5),
            chain_instance(&[50.0, 50.0], 1.0, 1.0, 0.0, 1e-1),
        ];
        for inst in cases {
            let brute = exhaustive_optimum(&inst);
            for (name, value) in [
                ("pruned", optimal_chain_schedule(&inst).unwrap().expected_makespan),
                ("reference", optimal_chain_schedule_reference(&inst).unwrap().expected_makespan),
                (
                    "divide_conquer",
                    optimal_chain_schedule_divide_conquer(&inst).unwrap().expected_makespan,
                ),
                (
                    "blocked",
                    blocked_placement_with_block(&table(&inst), DP_BLOCK).expected_makespan,
                ),
            ] {
                assert!(
                    (value - brute).abs() / brute < 1e-10,
                    "{name} {value} vs exhaustive {brute}"
                );
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_on_heterogeneous_chains() {
        for seed in 0..12u64 {
            for lambda in [1e-6, 1e-4, 1e-3] {
                let inst = random_heterogeneous_chain(seed, 40, lambda);
                let fast = optimal_chain_schedule(&inst).unwrap();
                let reference = optimal_chain_schedule_reference(&inst).unwrap();
                let gap = (fast.expected_makespan - reference.expected_makespan).abs()
                    / reference.expected_makespan;
                assert!(gap < 1e-10, "seed {seed} λ {lambda}: gap {gap}");
                assert_eq!(fast.checkpoint_positions, reference.checkpoint_positions);
            }
        }
    }

    #[test]
    fn divide_conquer_matches_reference_on_heterogeneous_chains() {
        for seed in 0..12u64 {
            for lambda in [1e-6, 1e-4, 1e-3] {
                let inst = random_heterogeneous_chain(seed, 60, lambda);
                let dc = optimal_chain_schedule_divide_conquer(&inst).unwrap();
                let reference = optimal_chain_schedule_reference(&inst).unwrap();
                let gap = (dc.expected_makespan - reference.expected_makespan).abs()
                    / reference.expected_makespan;
                assert!(gap < 1e-10, "seed {seed} λ {lambda}: gap {gap}");
            }
        }
    }

    #[test]
    fn saturated_instances_solve_through_the_fallback() {
        // λ·total work ≈ 11 000 ≫ 650: precomputed exponentials would
        // overflow; every formulation must still agree, and the dispatch
        // must send this table (above the blocked threshold) to the pruned
        // DP. Costs are cheap and failures constant, so the optimum
        // checkpoints after every task.
        let inst = chain_instance(&[100.0; 1_100], 0.1, 0.1, 0.0, 0.1);
        let fast = optimal_chain_schedule(&inst).unwrap();
        let dc = optimal_chain_schedule_divide_conquer(&inst).unwrap();
        let table = table(&inst);
        assert!(table.is_saturated());
        let dispatched =
            scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new());
        let reference = optimal_chain_schedule_reference(&inst).unwrap();
        assert!(fast.expected_makespan.is_finite());
        let gap = (fast.expected_makespan - reference.expected_makespan).abs()
            / reference.expected_makespan;
        assert!(gap < 1e-10, "gap {gap}");
        assert_eq!(fast.checkpoint_positions.len(), 1_100);
        assert_eq!(dc.checkpoint_positions, fast.checkpoint_positions);
        assert_eq!(dispatched.checkpoint_positions, fast.checkpoint_positions);
        assert_eq!(dispatched.expected_makespan, fast.expected_makespan);
    }

    #[test]
    fn memoized_recursion_matches_bottom_up() {
        let inst = chain_instance(
            &[400.0, 100.0, 900.0, 250.0, 650.0, 300.0, 120.0, 780.0],
            45.0,
            90.0,
            15.0,
            2e-4,
        );
        let bottom_up = optimal_chain_schedule(&inst).unwrap().expected_makespan;
        let memoized = optimal_chain_value_memoized(&inst).unwrap();
        assert!((bottom_up - memoized).abs() / bottom_up < 1e-10);
    }

    #[test]
    fn heterogeneous_costs_are_honoured() {
        // Make checkpointing after task 1 free and after task 0 exorbitant:
        // the optimal solution must checkpoint after task 1, not after task 0.
        let graph = generators::chain(&[1000.0, 1000.0, 1000.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .checkpoint_costs(vec![10_000.0, 0.0, 10.0])
            .recovery_costs(vec![10.0, 10.0, 10.0])
            .platform_lambda(1.0 / 2_000.0)
            .build()
            .unwrap();
        let sol = optimal_chain_schedule(&inst).unwrap();
        assert!(sol.checkpoint_positions.contains(&1));
        assert!(!sol.checkpoint_positions.contains(&0));
    }

    #[test]
    fn rare_failures_lead_to_few_checkpoints() {
        let inst = chain_instance(&[100.0; 10], 50.0, 50.0, 0.0, 1e-9);
        let sol = optimal_chain_schedule(&inst).unwrap();
        // With a ten-billion-second MTBF, intermediate checkpoints are pure
        // overhead: only the final mandatory checkpoint remains.
        assert_eq!(sol.checkpoint_positions, vec![9]);
    }

    #[test]
    fn frequent_failures_lead_to_many_checkpoints() {
        let inst = chain_instance(&[100.0; 10], 1.0, 1.0, 0.0, 1.0 / 50.0);
        let sol = optimal_chain_schedule(&inst).unwrap();
        // Failures every 50 s on average, tasks of 100 s with cheap
        // checkpoints: checkpoint after every task.
        assert_eq!(sol.checkpoint_positions.len(), 10);
    }

    #[test]
    fn dp_beats_or_ties_standard_baselines() {
        let inst = chain_instance(
            &[300.0, 800.0, 150.0, 950.0, 420.0, 610.0, 75.0, 340.0],
            45.0,
            60.0,
            10.0,
            1.0 / 3_000.0,
        );
        let sol = optimal_chain_schedule(&inst).unwrap();
        let order = properties::as_chain(inst.graph()).unwrap();
        let all = Schedule::checkpoint_everywhere(&inst, order.clone()).unwrap();
        let last = Schedule::checkpoint_final_only(&inst, order).unwrap();
        assert!(sol.expected_makespan <= expected_makespan(&inst, &all).unwrap() + 1e-9);
        assert!(sol.expected_makespan <= expected_makespan(&inst, &last).unwrap() + 1e-9);
    }

    #[test]
    fn dp_scales_to_large_chains() {
        // A 1 024-task chain (the blocked dispatch threshold) must solve
        // quickly and produce a valid schedule.
        let weights: Vec<f64> = (0..1024).map(|i| 50.0 + (i % 17) as f64 * 10.0).collect();
        let inst = chain_instance(&weights, 30.0, 30.0, 5.0, 1e-4);
        let sol = optimal_chain_schedule(&inst).unwrap();
        assert_eq!(sol.schedule.len(), 1024);
        assert!(sol.expected_makespan > inst.total_weight());
        // The O(n log n) formulations agree at this scale too.
        let dc = optimal_chain_schedule_divide_conquer(&inst).unwrap();
        let gap = (dc.expected_makespan - sol.expected_makespan).abs() / sol.expected_makespan;
        assert!(gap < 1e-10, "gap {gap}");
        let blocked =
            scalable_placement_on_table_with_scratch(&table(&inst), &mut ChainDpScratch::new());
        let gap = (blocked.expected_makespan - sol.expected_makespan).abs() / sol.expected_makespan;
        assert!(gap < 1e-10, "gap {gap}");
    }

    #[test]
    fn blocked_solver_crosses_real_block_boundaries() {
        // 3 000 tasks: three DP_BLOCK-sized base blocks plus cross-range
        // envelope applications at production block size, for several failure
        // regimes (few, some, many checkpoints in the optimum).
        for lambda in [1e-7, 1e-5, 1e-4] {
            let inst = random_heterogeneous_chain(5, 3_000, lambda);
            let table = table(&inst);
            let blocked =
                scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new());
            let dc = optimal_chain_schedule_divide_conquer(&inst).unwrap();
            let gap =
                (blocked.expected_makespan - dc.expected_makespan).abs() / dc.expected_makespan;
            assert!(gap < 1e-10, "λ {lambda}: gap {gap}");
            // The reported value matches the analytical evaluation of the
            // schedule the solver actually returned.
            let order = properties::as_chain(inst.graph()).unwrap();
            let schedule = Schedule::new(&inst, order, blocked.checkpoint_after()).unwrap();
            let eval = expected_makespan(&inst, &schedule).unwrap();
            let eval_gap = (blocked.expected_makespan - eval).abs() / eval;
            assert!(eval_gap < 1e-10, "λ {lambda}: eval gap {eval_gap}");
            // Above the size threshold the dispatch picks the blocked core.
            assert_eq!(blocked, blocked_placement_with_block(&table, DP_BLOCK));
        }
    }

    #[test]
    fn blocked_solver_with_tiny_blocks_matches_reference() {
        // Block size 3 forces the deepest recursion and many cross-range
        // envelopes even on small heterogeneous chains.
        for seed in 0..8u64 {
            let inst = random_heterogeneous_chain(seed, 37, 1e-4);
            let order = properties::as_chain(inst.graph()).unwrap();
            let table = crate::evaluate::segment_cost_table(&inst, &order).unwrap();
            let tiny = blocked_placement_with_block(&table, 3);
            let reference = optimal_chain_schedule_reference(&inst).unwrap();
            let gap = (tiny.expected_makespan - reference.expected_makespan).abs()
                / reference.expected_makespan;
            assert!(gap < 1e-10, "seed {seed}: gap {gap}");
            assert_eq!(table.total_cost(&tiny.checkpoint_after()), tiny.expected_makespan);
        }
    }

    #[test]
    fn resumable_dp_matches_full_solve_after_prefix_changes() {
        // Change the positional data below a boundary, resume above it: the
        // resumed value and placement must match a from-scratch solve of the
        // changed table.
        let inst = random_heterogeneous_chain(3, 60, 1e-4);
        let order = properties::as_chain(inst.graph()).unwrap();
        let table = crate::evaluate::segment_cost_table(&inst, &order).unwrap();
        let n = order.len();
        let weights: Vec<f64> = order.iter().map(|&t| inst.weight(t)).collect();
        let mut ckpt: Vec<f64> = order.iter().map(|&t| inst.checkpoint_cost(t)).collect();
        let mut recov = vec![inst.initial_recovery()];
        recov.extend(order.iter().take(n - 1).map(|&t| inst.recovery_cost(t)));

        let mut dp = ResumableDp::new();
        let full = dp.solve(&table);
        assert_eq!(full, pruned_placement(&table, &mut ChainDpScratch::new()).expected_makespan);

        for boundary in [5usize, 20, 40] {
            // Perturb checkpoint costs strictly below the boundary (weights
            // untouched so the prefix sums of the suffix stay bitwise
            // identical).
            for c in ckpt.iter_mut().take(boundary) {
                *c *= 1.25;
            }
            recov[boundary - 1] += 3.0;
            let changed =
                SegmentCostTable::new(inst.lambda(), inst.downtime(), &weights, &ckpt, &recov)
                    .unwrap();
            let resumed = dp.try_prefix(&changed, boundary);
            let fresh = pruned_placement(&changed, &mut ChainDpScratch::new());
            assert_eq!(resumed, fresh.expected_makespan, "boundary {boundary}");
            dp.commit_trial();
            assert_eq!(dp.value(), fresh.expected_makespan);
            assert_eq!(dp.placement().checkpoint_positions, fresh.checkpoint_positions);
        }
    }

    #[test]
    fn solve_suffix_matches_full_solve_on_the_suffix() {
        // A suffix-only solve (the online re-planning primitive) must agree
        // bitwise with the matching positions of a full solve — at the
        // planning rate and at re-planned rates.
        let inst = random_heterogeneous_chain(7, 48, 1e-4);
        let order = properties::as_chain(inst.graph()).unwrap();
        let sweep = crate::evaluate::lambda_sweep_for_order(&inst, &order).unwrap();
        let n = order.len();
        for lambda in [1e-5f64, 1e-4, 6e-4] {
            let table = sweep.table_for(lambda).unwrap();
            let mut full = ResumableDp::new();
            full.solve(&table);
            for from in [0usize, 1, 13, 30, n - 1, n] {
                let mut suffix = ResumableDp::new();
                let value = suffix.solve_suffix(&table, from);
                assert_eq!(value, full.suffix_value(from), "λ {lambda} from {from}");
                for x in from..n {
                    assert_eq!(suffix.choice_at(x), full.choice_at(x), "λ {lambda} x {x}");
                    assert_eq!(suffix.suffix_value(x), full.suffix_value(x));
                }
            }
        }
    }

    #[test]
    fn solve_suffix_resizes_and_replans_across_tables() {
        // One DP state reused across rates (the adaptive policies' pattern):
        // a full solve at the planning rate, then suffix re-solves at drifted
        // rates keep the committed suffix consistent with fresh solves.
        let inst = random_heterogeneous_chain(9, 32, 2e-4);
        let order = properties::as_chain(inst.graph()).unwrap();
        let sweep = crate::evaluate::lambda_sweep_for_order(&inst, &order).unwrap();
        let mut dp = ResumableDp::new();
        dp.solve(&sweep.table_for(2e-4).unwrap());
        for (from, lambda) in [(4usize, 8e-4f64), (11, 1.6e-3), (25, 4e-4)] {
            let table = sweep.table_for(lambda).unwrap();
            let value = dp.solve_suffix(&table, from);
            let mut fresh = ResumableDp::new();
            assert_eq!(value, fresh.solve_suffix(&table, from), "from {from}");
            assert_eq!(dp.choice_at(from), fresh.choice_at(from));
        }
        // choice walks of the last committed suffix terminate at n - 1.
        let mut x = 25usize;
        while x < 32 {
            let j = dp.choice_at(x);
            assert!(j >= x && j < 32);
            x = j + 1;
        }
        assert_eq!(x, 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn choice_at_rejects_out_of_range_positions() {
        let inst = chain_instance(&[100.0, 200.0], 10.0, 10.0, 0.0, 1e-4);
        let order = properties::as_chain(inst.graph()).unwrap();
        let table = crate::evaluate::segment_cost_table(&inst, &order).unwrap();
        let mut dp = ResumableDp::new();
        dp.solve(&table);
        let _ = dp.choice_at(2);
    }

    #[test]
    #[should_panic(expected = "no trial to commit")]
    fn resumable_dp_rejects_double_commit() {
        let inst = chain_instance(&[100.0, 200.0, 300.0], 10.0, 10.0, 0.0, 1e-4);
        let order = properties::as_chain(inst.graph()).unwrap();
        let table = crate::evaluate::segment_cost_table(&inst, &order).unwrap();
        let mut dp = ResumableDp::new();
        dp.solve(&table);
        let _ = dp.try_prefix(&table, 1);
        dp.commit_trial();
        dp.commit_trial();
    }

    #[test]
    #[should_panic(expected = "before the first solve")]
    fn resumable_dp_rejects_try_before_solve() {
        let inst = chain_instance(&[100.0, 200.0], 10.0, 10.0, 0.0, 1e-4);
        let order = properties::as_chain(inst.graph()).unwrap();
        let table = crate::evaluate::segment_cost_table(&inst, &order).unwrap();
        let mut dp = ResumableDp::new();
        let _ = dp.try_prefix(&table, 1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_solves_across_tables() {
        let mut scratch = ChainDpScratch::new();
        // Mix of sizes around the scalable threshold and regimes, reusing
        // one arena throughout; a blocked solve leaves the Li Chao tallies
        // of that solve alone, as a fresh arena's.
        for (seed, n, lambda) in [
            (1u64, 64usize, 1e-4),
            (2, 1500, 1e-5),
            (3, 700, 1e-3),
            (9, 2000, 1e-5),
            (4, 1100, 1e-4),
        ] {
            let table = table(&random_heterogeneous_chain(seed, n, lambda));
            let reused = scalable_placement_on_table_with_scratch(&table, &mut scratch);
            let mut fresh_scratch = ChainDpScratch::new();
            let fresh = scalable_placement_on_table_with_scratch(&table, &mut fresh_scratch);
            assert_eq!(reused.expected_makespan, fresh.expected_makespan, "seed {seed}");
            assert_eq!(reused.checkpoint_positions, fresh.checkpoint_positions);
            if n >= SCALABLE_THRESHOLD {
                let tallies = |s: &ChainDpScratch| (s.tree.inserts, s.tree.visits);
                assert_eq!(tallies(&scratch), tallies(&fresh_scratch), "seed {seed}");
            }
        }
    }

    #[test]
    fn table_placement_exposes_flags_and_counts() {
        let inst = chain_instance(&[400.0, 100.0, 900.0, 250.0], 60.0, 60.0, 30.0, 1e-4);
        let order = properties::as_chain(inst.graph()).unwrap();
        let table = crate::evaluate::segment_cost_table(&inst, &order).unwrap();
        let placement = pruned_placement(&table, &mut ChainDpScratch::new());
        let flags = placement.checkpoint_after();
        assert_eq!(flags.len(), 4);
        assert_eq!(flags.iter().filter(|&&f| f).count(), placement.checkpoint_count());
        assert_eq!(flags.last(), Some(&true));
        let solution = optimal_chain_schedule(&inst).unwrap();
        assert_eq!(placement.checkpoint_positions, solution.checkpoint_positions);
        assert_eq!(placement.expected_makespan, solution.expected_makespan);
    }

    /// The inputs of one random table for the `ResumableDp` walks: `λ·W`
    /// log-uniform in 10⁻³…10³, across the saturation edge.
    #[derive(Clone)]
    struct TableInputs {
        lambda: f64,
        weights: Vec<f64>,
        checkpoints: Vec<f64>,
        recoveries: Vec<f64>,
    }

    impl TableInputs {
        fn random(rng: &mut Pcg64, n: usize) -> Self {
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + rng.next_f64() * 2_000.0).collect();
            let total: f64 = weights.iter().sum();
            TableInputs {
                lambda: 10f64.powf(-3.0 + 6.0 * rng.next_f64()) / total,
                checkpoints: (0..n).map(|_| rng.next_f64() * 200.0).collect(),
                recoveries: (0..n).map(|_| rng.next_f64() * 200.0).collect(),
                weights,
            }
        }

        fn table(&self) -> SegmentCostTable {
            SegmentCostTable::new(
                self.lambda,
                10.0,
                &self.weights,
                &self.checkpoints,
                &self.recoveries,
            )
            .unwrap()
        }
    }

    /// The checkpoint positions of a choice walk from 0, or `None` where a
    /// choice points backwards (positions no solve has reached yet).
    fn choice_walk(choice: &[usize]) -> Option<Vec<usize>> {
        let mut positions = Vec::new();
        let mut x = 0;
        while x < choice.len() {
            let j = choice[x];
            if j < x {
                return None;
            }
            positions.push(j);
            x = j + 1;
        }
        Some(positions)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of `solve`, `try_prefix` (random
        /// `first_unchanged`, random tables), `commit_trial` and
        /// `solve_suffix` leave `ResumableDp` bit for bit where fresh
        /// solves of the same spans put it: a model state copies the whole
        /// committed state into each trial, as `try_prefix` did before it
        /// kept its trial buffers, and solves every span with a fresh
        /// `pruned_dp_span`. A trial whose table keeps the committed
        /// table's data from `first_unchanged` on also equals a fresh full
        /// solve of its table. `value`, `suffix_value`, `choice_at` and
        /// `placement` are compared after every step.
        #[test]
        fn prop_resumable_dp_matches_fresh_solves(seed in any::<u64>()) {
            let mut rng = Pcg64::seed_from_u64(seed);
            let lengths = [1 + (rng.next_u64() % 40) as usize, 1 + (rng.next_u64() % 40) as usize];
            let mut dp = ResumableDp::new();
            // The model: committed `(value, choice)`, the pending trial and
            // the inputs of the table the committed state fully solves.
            let mut committed: Option<(Vec<f64>, Vec<usize>)> = None;
            let mut trial: Option<(Vec<f64>, Vec<usize>, Option<TableInputs>)> = None;
            let mut solved: Option<TableInputs> = None;
            for step in 0..40 {
                let n = committed.as_ref().map_or(0, |(_, choice)| choice.len());
                match rng.next_u64() % 6 {
                    0 => {
                        let inputs = TableInputs::random(&mut rng, lengths[step % 2]);
                        let value = dp.solve(&inputs.table());
                        let mut fresh = ResumableDp::new();
                        prop_assert_eq!(value.to_bits(), fresh.solve(&inputs.table()).to_bits());
                        committed = Some((fresh.value, fresh.choice));
                        trial = None;
                        solved = Some(inputs);
                    }
                    1 | 2 if n > 0 => {
                        let first_unchanged = (rng.next_u64() % (n as u64 + 3)) as usize;
                        // Half the trials keep the committed table's data
                        // from `first_unchanged` on; the rest are random.
                        let kept = match (&solved, rng.next_u64() % 2) {
                            (Some(base), 0) => {
                                let mut inputs = base.clone();
                                for x in 0..first_unchanged.min(n) {
                                    inputs.checkpoints[x] *= 0.5 + rng.next_f64();
                                    inputs.recoveries[x] *= 0.5 + rng.next_f64();
                                }
                                Some(inputs)
                            }
                            _ => None,
                        };
                        let inputs = kept.clone().unwrap_or_else(|| TableInputs::random(&mut rng, n));
                        let table = inputs.table();
                        let got = dp.try_prefix(&table, first_unchanged);
                        let (mut value, mut choice) = committed.clone().unwrap();
                        pruned_dp_span(&table, &mut value, &mut choice, 0, first_unchanged.min(n));
                        prop_assert!(got.to_bits() == value[0].to_bits(), "step {}", step);
                        if kept.is_some() {
                            let mut fresh = ResumableDp::new();
                            prop_assert_eq!(got.to_bits(), fresh.solve(&table).to_bits());
                            prop_assert_eq!(&choice, &fresh.choice);
                        }
                        trial = Some((value, choice, kept));
                    }
                    3 if trial.is_some() => {
                        dp.commit_trial();
                        let (value, choice, kept) = trial.take().unwrap();
                        committed = Some((value, choice));
                        solved = kept;
                    }
                    4 | 5 => {
                        let m = lengths[(rng.next_u64() % 2) as usize];
                        let from = (rng.next_u64() % (m as u64 + 2)) as usize;
                        let inputs = TableInputs::random(&mut rng, m);
                        let table = inputs.table();
                        let got = dp.solve_suffix(&table, from);
                        let (mut value, mut choice) = match committed.take() {
                            Some(state) if state.1.len() == m => state,
                            _ => (vec![0.0; m + 1], vec![0; m]),
                        };
                        pruned_dp_span(&table, &mut value, &mut choice, from.min(m), m);
                        prop_assert_eq!(got.to_bits(), value[from.min(m)].to_bits());
                        committed = Some((value, choice));
                        trial = None;
                        solved = if from == 0 { Some(inputs) } else { None };
                    }
                    _ => continue,
                }
                let (value, choice) = committed.as_ref().unwrap();
                prop_assert!(dp.value().to_bits() == value[0].to_bits(), "step {}", step);
                for (x, v) in value.iter().enumerate() {
                    prop_assert!(dp.suffix_value(x).to_bits() == v.to_bits(), "step {} x {}", step, x);
                }
                for (x, &c) in choice.iter().enumerate() {
                    prop_assert!(dp.choice_at(x) == c, "step {} x {}", step, x);
                }
                if let Some(positions) = choice_walk(choice) {
                    let placement = dp.placement();
                    prop_assert_eq!(placement.checkpoint_positions, positions);
                    prop_assert_eq!(placement.expected_makespan.to_bits(), value[0].to_bits());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_dp_is_never_beaten_by_random_schedules(
            seed in any::<u64>(),
            n in 2usize..9,
            lambda_exp in -5.0f64..-2.0,
        ) {
            let mut rng = Pcg64::seed_from_u64(seed);
            let weights: Vec<f64> = (0..n).map(|_| 10.0 + rng.next_f64() * 990.0).collect();
            let lambda = 10f64.powf(lambda_exp);
            let inst = chain_instance(&weights, 20.0, 40.0, 5.0, lambda);
            let sol = optimal_chain_schedule(&inst).unwrap();
            let order = properties::as_chain(inst.graph()).unwrap();
            // Compare against 20 random checkpoint subsets.
            for _ in 0..20 {
                let mut checkpoints: Vec<bool> = (0..n).map(|_| rng.next_bool(0.5)).collect();
                checkpoints[n - 1] = true;
                let schedule = Schedule::new(&inst, order.clone(), checkpoints).unwrap();
                let value = expected_makespan(&inst, &schedule).unwrap();
                prop_assert!(sol.expected_makespan <= value + 1e-9);
            }
        }

        #[test]
        fn prop_all_formulations_agree(
            seed in any::<u64>(),
            n in 2usize..48,
            lambda_exp in -6.0f64..-2.0,
        ) {
            let lambda = 10f64.powf(lambda_exp);
            let inst = random_heterogeneous_chain(seed, n, lambda);
            let fast = optimal_chain_schedule(&inst).unwrap();
            let reference = optimal_chain_schedule_reference(&inst).unwrap();
            let dc = optimal_chain_schedule_divide_conquer(&inst).unwrap();
            let memoized = optimal_chain_value_memoized(&inst).unwrap();
            let base = reference.expected_makespan;
            prop_assert!((fast.expected_makespan - base).abs() / base < 1e-10,
                "pruned {} vs reference {base}", fast.expected_makespan);
            prop_assert!((dc.expected_makespan - base).abs() / base < 1e-10,
                "divide-conquer {} vs reference {base}", dc.expected_makespan);
            prop_assert!((memoized - base).abs() / base < 1e-10,
                "memoized {memoized} vs reference {base}");
            // The blocked kernel, at production block size and with a tiny
            // block size that forces deep recursion on these chain lengths.
            let table = table(&inst);
            let blocked = blocked_placement_with_block(&table, DP_BLOCK);
            prop_assert!((blocked.expected_makespan - base).abs() / base < 1e-10,
                "blocked {} vs reference {base}", blocked.expected_makespan);
            let tiny = blocked_placement_with_block(&table, 4);
            prop_assert!((tiny.expected_makespan - base).abs() / base < 1e-10,
                "blocked(4) {} vs reference {base}", tiny.expected_makespan);
        }

        #[test]
        fn prop_divide_conquer_matches_exhaustive_on_small_chains(
            seed in any::<u64>(),
            n in 2usize..9,
            lambda_exp in -5.0f64..-2.0,
        ) {
            let lambda = 10f64.powf(lambda_exp);
            let inst = random_heterogeneous_chain(seed, n, lambda);
            let dc = optimal_chain_schedule_divide_conquer(&inst).unwrap();
            let brute = exhaustive_optimum(&inst);
            prop_assert!((dc.expected_makespan - brute).abs() / brute < 1e-10,
                "divide-conquer {} vs exhaustive {brute}", dc.expected_makespan);
        }
    }

    mod levelled {
        use super::*;
        use crate::brute_force::optimal_levelled_checkpoints_for_order;
        use ckpt_expectation::storage::StorageLevel;

        fn two_level(slots: usize) -> StorageLevels {
            StorageLevels::two_level(
                StorageLevel::new(0.25, 0.2).unwrap().with_slots(slots),
                StorageLevel::new(1.0, 1.0).unwrap(),
            )
            .unwrap()
        }

        /// A seed-derived hierarchy: a bounded fast tier with factors below
        /// one and an unbounded slow tier with factors around one — keeps
        /// the property tests away from the hand-picked constants.
        fn random_two_level(rng: &mut Pcg64) -> StorageLevels {
            let fast = StorageLevel::new(0.05 + rng.next_f64() * 0.9, 0.05 + rng.next_f64() * 0.9)
                .unwrap()
                .with_slots((rng.next_f64() * 4.0) as usize);
            let slow =
                StorageLevel::new(0.5 + rng.next_f64() * 2.0, 0.5 + rng.next_f64() * 2.0).unwrap();
            StorageLevels::two_level(fast, slow).unwrap()
        }

        #[test]
        fn single_unit_level_collapses_bitwise_to_the_flat_solver() {
            // The differential wall: with `StorageLevels::single()` every
            // floating-point operation of the levelled DP replays the flat
            // DP's in order, so values agree to the last bit — on arbitrary
            // heterogeneous instances, not just friendly ones.
            for seed in 0..25u64 {
                for lambda in [1e-5, 1e-3, 0.05] {
                    let inst = random_heterogeneous_chain(seed, 3 + (seed % 30) as usize, lambda);
                    let flat = optimal_chain_schedule(&inst).unwrap();
                    let levelled =
                        optimal_levelled_schedule(&inst, &StorageLevels::single()).unwrap();
                    assert_eq!(
                        levelled.expected_makespan.to_bits(),
                        flat.expected_makespan.to_bits(),
                        "seed {seed} λ {lambda}: {} vs {}",
                        levelled.expected_makespan,
                        flat.expected_makespan
                    );
                    assert_eq!(
                        levelled.checkpoints.iter().map(|&(j, _)| j).collect::<Vec<_>>(),
                        flat.checkpoint_positions,
                    );
                    assert!(levelled.checkpoints.iter().all(|&(_, l)| l == 0));
                    assert_eq!(levelled.schedule, flat.schedule);
                }
            }
        }

        #[test]
        fn collapse_also_holds_on_saturated_tables() {
            // λ·total work beyond the table's safe exponent: both solvers run
            // in the per-call exp_m1 regime and must still agree bitwise.
            let inst = chain_instance(&[2_000.0; 6], 60.0, 90.0, 30.0, 0.1);
            let flat = optimal_chain_schedule(&inst).unwrap();
            let levelled = optimal_levelled_schedule(&inst, &StorageLevels::single()).unwrap();
            assert_eq!(levelled.expected_makespan.to_bits(), flat.expected_makespan.to_bits());
        }

        #[test]
        fn fast_tier_with_ample_slots_takes_every_checkpoint() {
            // A strictly cheaper tier with enough slots dominates level by
            // level: the optimum writes everything to it.
            let inst = chain_instance(&[400.0, 100.0, 900.0, 250.0, 650.0], 60.0, 60.0, 30.0, 1e-3);
            let sol = optimal_levelled_schedule(&inst, &two_level(5)).unwrap();
            assert!(sol.checkpoints.iter().all(|&(_, l)| l == 0), "plan {:?}", sol.checkpoints);
            let flat = optimal_chain_schedule(&inst).unwrap();
            assert!(sol.expected_makespan < flat.expected_makespan);
        }

        #[test]
        fn bounded_slots_are_respected_and_zero_slots_collapse_to_slow() {
            let inst = chain_instance(&[400.0, 100.0, 900.0, 250.0, 650.0], 60.0, 60.0, 30.0, 1e-3);
            for slots in 0..=3usize {
                let sol = optimal_levelled_schedule(&inst, &two_level(slots)).unwrap();
                let used = sol.checkpoints.iter().filter(|&&(_, l)| l == 0).count();
                assert!(used <= slots, "{used} fast checkpoints with {slots} slots");
            }
            // Zero fast slots: the plan (and its value) is the slow tier's —
            // here the slow tier is the unit level, i.e. the flat optimum.
            let zero = optimal_levelled_schedule(&inst, &two_level(0)).unwrap();
            let flat = optimal_chain_schedule(&inst).unwrap();
            assert!((zero.expected_makespan - flat.expected_makespan).abs() < 1e-9);
        }

        #[test]
        fn more_slots_never_hurt() {
            // Monotone improvement by plan-set inclusion: every plan feasible
            // with s slots is feasible with s + 1.
            let inst =
                chain_instance(&[400.0, 100.0, 900.0, 250.0, 650.0, 300.0], 60.0, 60.0, 30.0, 1e-3);
            let mut last = f64::INFINITY;
            for slots in 0..=6usize {
                let sol = optimal_levelled_schedule(&inst, &two_level(slots)).unwrap();
                assert!(
                    sol.expected_makespan <= last + 1e-12,
                    "slots {slots}: {} after {last}",
                    sol.expected_makespan
                );
                last = sol.expected_makespan;
            }
        }

        #[test]
        fn slotless_single_level_has_no_plan() {
            let inst = chain_instance(&[400.0, 100.0], 60.0, 60.0, 30.0, 1e-3);
            let levels =
                StorageLevels::new(vec![StorageLevel::new(1.0, 1.0).unwrap().with_slots(0)])
                    .unwrap();
            assert_eq!(
                optimal_levelled_schedule(&inst, &levels),
                Err(ScheduleError::InvalidStorageLevels)
            );
        }

        #[test]
        fn infinite_optima_collapse_bitwise_and_never_spend_a_missing_slot() {
            // Chains whose every plan costs +∞: an astronomic rate, λ·w ≈ 708
            // per task (e^{λw} at the edge of the f64 range), and huge
            // downtime or checkpoint costs. The levelled DP returns Algorithm
            // 1's +∞ plan bit for bit, and on two levels its default choice
            // spends no slot.
            let cases = [
                chain_instance(&[100.0, 200.0, 300.0], 10.0, 0.0, 5.0, 1e300),
                chain_instance(&[100.0, 100.0, 100.0], 0.0, 0.0, 60.0, 7.08),
                chain_instance(&[100.0, 200.0, 300.0], 10.0, 20.0, 1e308, 1e-2),
                chain_instance(&[100.0, 200.0, 300.0], 1e308, 20.0, 5.0, 1e-3),
            ];
            for inst in &cases {
                let flat = optimal_chain_schedule(inst).unwrap();
                assert_eq!(flat.expected_makespan, f64::INFINITY);
                let single = optimal_levelled_schedule(inst, &StorageLevels::single()).unwrap();
                assert_eq!(single.expected_makespan.to_bits(), flat.expected_makespan.to_bits());
                assert_eq!(single.schedule, flat.schedule);
                for slots in [0usize, 1] {
                    let two = optimal_levelled_schedule(inst, &two_level(slots)).unwrap();
                    assert_eq!(two.expected_makespan, f64::INFINITY);
                    assert_eq!(two.checkpoints, vec![(2, 1)]);
                }
            }
        }

        #[test]
        fn levelled_value_matches_table_total_cost_and_segments() {
            // The DP value, the levelled table's plan evaluation and the
            // closed form summed over the executable segments all agree.
            let inst = chain_instance(&[400.0, 100.0, 900.0, 250.0, 650.0], 45.0, 80.0, 25.0, 2e-3);
            let sol = optimal_levelled_schedule(&inst, &two_level(2)).unwrap();
            let order = properties::as_chain(inst.graph()).unwrap();
            let table = levelled_cost_table(&inst, &order, two_level(2)).unwrap();
            let total = table.total_cost(&sol.checkpoints);
            assert!((sol.expected_makespan - total).abs() / total < 1e-10);
            let segments = sol.to_segments(&inst).unwrap();
            assert_eq!(segments.len(), sol.checkpoints.len());
            let summed: f64 = segments
                .iter()
                .map(|s| {
                    expected_time(
                        &ExecutionParams::new(
                            s.work(),
                            s.checkpoint(),
                            inst.downtime(),
                            s.recovery(),
                            inst.lambda(),
                        )
                        .unwrap(),
                    )
                })
                .sum();
            assert!(
                (sol.expected_makespan - summed).abs() / summed < 1e-10,
                "dp {} vs segment sum {summed}",
                sol.expected_makespan
            );
        }

        #[test]
        fn levelled_analytic_value_matches_simulation() {
            // Execution-semantics wall: the Monte-Carlo engine run on the
            // levelled segments reproduces the levelled DP's expectation.
            let inst =
                chain_instance(&[400.0, 100.0, 900.0, 250.0], 60.0, 60.0, 30.0, 1.0 / 2_000.0);
            let sol = optimal_levelled_schedule(&inst, &two_level(1)).unwrap();
            let segments = sol.to_segments(&inst).unwrap();
            let outcome = ckpt_simulator::SimulationScenario::exponential(inst.lambda())
                .with_downtime(inst.downtime())
                .with_trials(20_000)
                .with_seed(23)
                .run(&segments);
            let rel = outcome.makespan.relative_error(sol.expected_makespan);
            assert!(rel < 0.02, "relative error {rel}");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            #[test]
            fn prop_levelled_dp_matches_exhaustive(
                seed in any::<u64>(),
                n in 2usize..7,
                lambda_exp in -5.0f64..-2.0,
            ) {
                let lambda = 10f64.powf(lambda_exp);
                let inst = random_heterogeneous_chain(seed, n, lambda);
                let mut rng = Pcg64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                let levels = random_two_level(&mut rng);
                let sol = optimal_levelled_schedule(&inst, &levels).unwrap();
                let order = properties::as_chain(inst.graph()).unwrap();
                let brute =
                    optimal_levelled_checkpoints_for_order(&inst, &order, &levels).unwrap();
                let gap = (sol.expected_makespan - brute.expected_makespan).abs()
                    / brute.expected_makespan;
                prop_assert!(gap < 1e-10,
                    "dp {} vs exhaustive {} (plan {:?} vs {:?})",
                    sol.expected_makespan, brute.expected_makespan,
                    sol.checkpoints, brute.checkpoints);
            }

            #[test]
            fn prop_single_unit_level_collapse_is_bitwise(
                seed in any::<u64>(),
                n in 2usize..24,
                lambda_exp in -6.0f64..-1.0,
            ) {
                let lambda = 10f64.powf(lambda_exp);
                let inst = random_heterogeneous_chain(seed, n, lambda);
                let order = properties::as_chain(inst.graph()).unwrap();
                let base = segment_cost_table(&inst, &order).unwrap();
                let table =
                    levelled_cost_table(&inst, &order, StorageLevels::single()).unwrap();
                let flat = pruned_placement(&base, &mut ChainDpScratch::new());
                let (value, checkpoints, _) = optimal_levelled_placement_on_table(&table);
                prop_assert_eq!(value.to_bits(), flat.expected_makespan.to_bits());
                let positions: Vec<usize> = checkpoints.iter().map(|&(j, _)| j).collect();
                prop_assert_eq!(positions, flat.checkpoint_positions);
            }
        }
    }
}
