//! Linearisation search: local search over topological orders.
//!
//! Proposition 2 shows the joint order+checkpoint problem is strongly
//! NP-complete, which makes heuristic search over linearisations the
//! practically interesting regime. [`crate::dag_schedule::schedule_dag_best_of`]
//! only tries a fixed handful of [`LinearizationStrategy`] orders; this module
//! *searches* the order space around them:
//!
//! * **starts** — every deterministic strategy plus seeded random
//!   linearisations (the exact candidate set `schedule_dag_best_of` would
//!   evaluate, so the search result can never be worse);
//! * **moves** — precedence-preserving adjacent swaps and rotations of
//!   windows of up to 12 positions ([`ckpt_dag::neighborhood`]), proposed by
//!   a seeded RNG (one derived stream per run) and accepted on strict
//!   improvement (first-improvement hill climbing);
//! * **evaluation** — a trial costs what its move changes. The candidate
//!   order's costs under the requested [`CheckpointCostModel`] are updated
//!   in place around the move's window
//!   ([`LiveSetCostSweep::apply_move`]), one kept [`SegmentCostTable`] is
//!   refilled ([`SegmentCostTable::refill`], which calls `exp` only where
//!   an input's bits changed), and the order is scored by a
//!   **suffix-reusing** Algorithm 1 solve ([`ResumableDp::try_prefix`]): a
//!   move inside the window `[i, j]` leaves every table position `≥ j + 2`
//!   unchanged in exact arithmetic, so only the prefix of the recurrence is
//!   recomputed. Accepting or rejecting a move copies back only the
//!   positions it changed, and every buffer is sized when a run starts: the
//!   proposal loop allocates nothing;
//! * **parallelism** — independent runs (one per start order) are spread
//!   across threads with the same deterministic contiguous-chunk pattern as
//!   the Monte-Carlo engine: per-run RNG streams are derived from the master
//!   seed and the run index, and the winner is selected in run order, so the
//!   outcome is **identical for any thread count**.
//!
//! Experiment `e10_order_search` measures search quality against
//! `schedule_dag_best_of` on chains, wide fork-joins and layered random
//! DAGs; bench `b6_order_search` tracks its throughput.
//!
//! [`SegmentCostTable`]: ckpt_expectation::segment_cost::SegmentCostTable

use std::ops::Range;

use ckpt_dag::neighborhood::{is_valid_move, OrderMove};
use ckpt_dag::{linearize, properties, LinearizationStrategy, TaskId};
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_failure::{Pcg64, RandomSource};

use crate::chain_dp::{scalable_placement_on_table_with_scratch, ChainDpScratch, ResumableDp};
use crate::cost_model::{CheckpointCostModel, CostedOrder, LiveSetCostSweep};
use crate::dag_schedule::DagSolution;
use crate::error::ScheduleError;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;

#[cfg(test)]
mod search_walls;

/// Largest window span (in positions, inclusive) a rotation may cover.
const MAX_WINDOW: usize = 12;

/// Tuning knobs of [`schedule_dag_search`].
#[derive(Debug, Clone)]
pub struct OrderSearchConfig {
    /// Seeded random start orders explored on top of the four deterministic
    /// strategies — the same `Random(0..restarts)` set
    /// [`crate::dag_schedule::schedule_dag_best_of`] tries with
    /// `random_tries = restarts`.
    pub restarts: u64,
    /// Move proposals per start order; `0` picks `min(4n + 64, 2048)`.
    pub steps: usize,
    /// Worker threads runs are spread across; `0` means one per available
    /// core. The result is identical for every thread count.
    pub threads: usize,
    /// Master seed; each run derives its own RNG stream from it.
    pub seed: u64,
}

impl Default for OrderSearchConfig {
    fn default() -> Self {
        OrderSearchConfig { restarts: 8, steps: 0, threads: 0, seed: 0x02DE2 }
    }
}

/// The result of a linearisation search.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSearchOutcome {
    /// The best schedule found (order + optimal checkpoints for it), with
    /// its values under the per-last-task model and the requested model.
    /// `solution.strategy` records the start strategy of the winning run.
    pub solution: DagSolution,
    /// Distinct start orders that were searched (duplicates of earlier
    /// starts — e.g. every strategy on a chain — are searched once).
    pub starts: usize,
    /// Moves accepted across all runs.
    pub accepted_moves: usize,
    /// Moves proposed across all runs (valid or not).
    pub proposed_moves: usize,
}

impl OrderSearchOutcome {
    /// The expected makespan of the best schedule under the searched model —
    /// the value [`schedule_dag_search`] minimised, never worse than
    /// [`crate::dag_schedule::schedule_dag_best_of`]'s with the same
    /// `random_tries`/`restarts`.
    pub fn expected_makespan_under_model(&self) -> f64 {
        self.solution.expected_makespan_under_model
    }
}

/// Searches the space of linearisations of `instance` for a schedule with a
/// small expected makespan under `model`, starting from every order
/// [`crate::dag_schedule::schedule_dag_best_of`] would try (with
/// `random_tries = config.restarts`) and hill-climbing through
/// precedence-preserving moves.
///
/// **Dominance:** the start orders are evaluated with exactly the same
/// table-and-DP pipeline `schedule_dag_best_of` uses and only improving
/// moves are accepted, so the returned value is never worse than the
/// best-of baseline's.
///
/// # Example
///
/// ```
/// use ckpt_core::cost_model::CheckpointCostModel;
/// use ckpt_core::order_search::{schedule_dag_search, OrderSearchConfig};
/// use ckpt_core::{dag_schedule, ProblemInstance};
/// use ckpt_dag::generators;
///
/// let graph = generators::fork_join(4, &[500.0, 300.0, 700.0, 400.0], 100.0, 200.0)?;
/// let instance = ProblemInstance::builder(graph)
///     .uniform_checkpoint_cost(40.0)
///     .uniform_recovery_cost(80.0)
///     .platform_lambda(1.0 / 3_000.0)
///     .build()?;
/// let config = OrderSearchConfig { restarts: 4, steps: 128, threads: 1, ..Default::default() };
/// let model = CheckpointCostModel::LiveSetSum;
/// let found = schedule_dag_search(&instance, model, &config)?;
/// let baseline = dag_schedule::schedule_dag_best_of(&instance, model, 4)?;
/// assert!(
///     found.expected_makespan_under_model() <= baseline.expected_makespan_under_model
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Propagates validation errors; cannot fail for instances built through
/// [`ProblemInstance::builder`].
pub fn schedule_dag_search(
    instance: &ProblemInstance,
    model: CheckpointCostModel,
    config: &OrderSearchConfig,
) -> Result<OrderSearchOutcome, ScheduleError> {
    schedule_dag_search_with(instance, model, config, local_search_run)
}

/// [`schedule_dag_search`] with each start searched by `run`.
fn schedule_dag_search_with(
    instance: &ProblemInstance,
    model: CheckpointCostModel,
    config: &OrderSearchConfig,
    run: SearchRun,
) -> Result<OrderSearchOutcome, ScheduleError> {
    let strategies = default_start_strategies(config.restarts);

    // Materialise distinct start orders (on chains all strategies coincide —
    // searching one copy is enough), keeping the strategy of each retained
    // start aligned with it.
    let mut kept_strategies: Vec<LinearizationStrategy> = Vec::new();
    let mut starts: Vec<Vec<TaskId>> = Vec::new();
    for strategy in strategies {
        let order = linearize::linearize(instance.graph(), strategy);
        if !starts.contains(&order) {
            kept_strategies.push(strategy);
            starts.push(order);
        }
    }

    let runs = run_all(instance, model, config, &starts, run)?;
    let winner = winning_run(&runs);
    let best = &runs[winner];

    let schedule = Schedule::new(instance, best.order.clone(), best.checkpoint_after.clone())?;
    let expected_makespan = crate::evaluate::expected_makespan(instance, &schedule)?;
    let solution = DagSolution {
        schedule,
        expected_makespan,
        expected_makespan_under_model: best.value,
        strategy: kept_strategies[winner],
    };
    Ok(OrderSearchOutcome {
        solution,
        starts: starts.len(),
        accepted_moves: runs.iter().map(|r| r.accepted).sum(),
        proposed_moves: runs.iter().map(|r| r.proposed).sum(),
    })
}

/// The start-strategy set of [`schedule_dag_search`] and
/// [`crate::dag_schedule::schedule_dag_best_of`]: the four deterministic
/// strategies plus `restarts` seeded random linearisations. Exposed in one
/// place so callers seeding [`search_from_starts`] with fresh strategy
/// orders (e.g. the online re-linearisation policies) can never silently
/// diverge from the offline planners' candidate set.
pub fn default_start_strategies(restarts: u64) -> Vec<LinearizationStrategy> {
    let mut strategies = vec![
        LinearizationStrategy::IdOrder,
        LinearizationStrategy::HeaviestFirst,
        LinearizationStrategy::LightestFirst,
        LinearizationStrategy::CriticalPathFirst,
    ];
    strategies.extend((0..restarts).map(LinearizationStrategy::Random));
    strategies
}

/// The result of a [`search_from_starts`] run: the best order found and its
/// optimal placement, without the strategy bookkeeping of
/// [`schedule_dag_search`] (caller-seeded starts have no
/// [`LinearizationStrategy`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SeededSearchOutcome {
    /// The best order found, never worse (under the model) than any start.
    pub order: Vec<TaskId>,
    /// The optimal checkpoint placement for that order under the model.
    pub checkpoint_after: Vec<bool>,
    /// The expected makespan of the order + placement under the model.
    pub value: f64,
    /// Index (into the deduplicated start list) of the winning start.
    pub winning_start: usize,
    /// Distinct start orders searched.
    pub starts: usize,
    /// Moves accepted across all runs.
    pub accepted_moves: usize,
    /// Moves proposed across all runs (valid or not).
    pub proposed_moves: usize,
}

/// [`schedule_dag_search`]'s engine over **caller-supplied** start orders:
/// each start is validated as a topological order of the instance graph,
/// duplicates are searched once, and every run uses the same moves,
/// evaluation and deterministic threading as `schedule_dag_search`. The
/// returned value is never worse than the best start evaluated through the
/// `schedule_dag_best_of` pipeline — so passing the incumbent order as a
/// start makes the search a strict-improvement step.
///
/// This is the online re-linearisation primitive: the `ckpt-adaptive`
/// `DagRelinearise` policy extracts the remaining graph after a failure
/// ([`ckpt_dag::subgraph::suffix_subgraph`]), seeds this search with the
/// current suffix order plus fresh strategy orders of the subgraph, and
/// splices the winner back into its execution order.
///
/// # Errors
///
/// * [`ScheduleError::EmptyInstance`] if `starts` is empty;
/// * [`ScheduleError::InvalidOrder`] if any start is not a topological
///   order of the instance graph.
pub fn search_from_starts(
    instance: &ProblemInstance,
    model: CheckpointCostModel,
    config: &OrderSearchConfig,
    starts: &[Vec<TaskId>],
) -> Result<SeededSearchOutcome, ScheduleError> {
    search_from_starts_with(instance, model, config, starts, local_search_run)
}

/// [`search_from_starts`] with each start searched by `run`.
fn search_from_starts_with(
    instance: &ProblemInstance,
    model: CheckpointCostModel,
    config: &OrderSearchConfig,
    starts: &[Vec<TaskId>],
    run: SearchRun,
) -> Result<SeededSearchOutcome, ScheduleError> {
    if starts.is_empty() {
        return Err(ScheduleError::EmptyInstance);
    }
    let mut deduped: Vec<Vec<TaskId>> = Vec::new();
    for order in starts {
        if !ckpt_dag::topo::is_topological_order(instance.graph(), order) {
            return Err(ScheduleError::InvalidOrder);
        }
        if !deduped.contains(order) {
            deduped.push(order.clone());
        }
    }

    let runs = run_all(instance, model, config, &deduped, run)?;
    let winner = winning_run(&runs);
    let accepted_moves = runs.iter().map(|r| r.accepted).sum();
    let proposed_moves = runs.iter().map(|r| r.proposed).sum();
    let best = runs.into_iter().nth(winner).expect("winner index is in range");
    Ok(SeededSearchOutcome {
        order: best.order,
        checkpoint_after: best.checkpoint_after,
        value: best.value,
        winning_start: winner,
        starts: deduped.len(),
        accepted_moves,
        proposed_moves,
    })
}

/// Deterministic winner selection: smallest value, ties broken by run index.
fn winning_run(runs: &[RunResult]) -> usize {
    runs.iter()
        .enumerate()
        .min_by(|(ia, a), (ib, b)| a.value.total_cmp(&b.value).then(ia.cmp(ib)))
        .map(|(index, _)| index)
        .expect("at least one start order exists")
}

/// The outcome of one start order's local search.
struct RunResult {
    order: Vec<TaskId>,
    checkpoint_after: Vec<bool>,
    /// Expected makespan under the model, evaluated with the same
    /// table-and-DP pipeline `schedule_dag_best_of` uses.
    value: f64,
    accepted: usize,
    proposed: usize,
}

/// One start order's local search: [`local_search_run`] (the test reference
/// runs the trial evaluation it replaced).
type SearchRun = fn(
    &ProblemInstance,
    CheckpointCostModel,
    &OrderSearchConfig,
    &[TaskId],
    usize,
) -> Result<RunResult, ScheduleError>;

/// Runs every start's local search, spreading runs across worker threads in
/// contiguous chunks (the Monte-Carlo engine's deterministic pattern: run
/// `k`'s result always lands in slot `k`, whatever the thread count).
fn run_all(
    instance: &ProblemInstance,
    model: CheckpointCostModel,
    config: &OrderSearchConfig,
    starts: &[Vec<TaskId>],
    run: SearchRun,
) -> Result<Vec<RunResult>, ScheduleError> {
    crate::parallel::chunked_map_with(
        starts,
        config.threads,
        || (),
        |_, run_index, start| run(instance, model, config, start, run_index),
    )
    .into_iter()
    .collect()
}

/// Relative improvement a candidate must show to be accepted — comfortably
/// above the ~1e-15 noise the suffix-reusing evaluation can carry (prefix
/// sums re-associate when a window is permuted), so accepted improvements
/// are always real.
const ACCEPT_MARGIN: f64 = 1e-10;

/// Hill-climbs from one start order. Proposes `steps` seeded random moves,
/// evaluates each with a window-local cost update, an in-place table refill
/// and a suffix-reusing DP resolve, and accepts strict improvements. The
/// returned value is a final from-scratch evaluation of the best order
/// through the same table-and-placement pipeline `schedule_dag_best_of`
/// uses.
fn local_search_run(
    instance: &ProblemInstance,
    model: CheckpointCostModel,
    config: &OrderSearchConfig,
    start_order: &[TaskId],
    run_index: usize,
) -> Result<RunResult, ScheduleError> {
    let n = start_order.len();
    let mut state = OrderState::new(instance, model, start_order.to_vec());
    let mut accepted = 0usize;
    let mut proposed = 0usize;

    // On a chain the topological order is unique: no move can be valid, so
    // skip straight to the final evaluation.
    let searchable = n >= 2 && !properties::is_chain(instance.graph());
    if searchable {
        let steps = if config.steps == 0 { (4 * n + 64).min(2048) } else { config.steps };
        let max_window = MAX_WINDOW.min(n);
        let mut rng = Pcg64::seed_from_u64(config.seed).derive(run_index as u64);
        let mut table = state.table()?;
        let mut dp = ResumableDp::new();
        let mut incumbent = dp.solve(&table);

        for _ in 0..steps {
            proposed += 1;
            let mv = propose_move(&mut rng, n, max_window);
            if !is_valid_move(instance.graph(), state.order(), &mv) {
                continue;
            }
            let (_, hi) = mv.window();
            state.try_move(&mv, &mut table)?;
            let value = dp.try_prefix(&table, hi + 2);
            if value < incumbent * (1.0 - ACCEPT_MARGIN) {
                state.accept();
                dp.commit_trial();
                incumbent = value;
                accepted += 1;
            } else {
                state.reject();
            }
        }
    }

    // Final from-scratch evaluation: bitwise the same pipeline as
    // `schedule_dag_best_of` (model table + scalable placement), so start
    // orders score identically to the baseline and dominance is exact.
    let order = state.into_order();
    let table = crate::dag_schedule::model_cost_table(instance, &order, model)?;
    let placement = scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new());
    Ok(RunResult {
        order,
        checkpoint_after: placement.checkpoint_after(),
        value: placement.expected_makespan,
        accepted,
        proposed,
    })
}

/// Draws one random move: adjacent swaps and both rotation directions with
/// equal probability, windows uniform in `2..=max_window` positions.
fn propose_move(rng: &mut Pcg64, n: usize, max_window: usize) -> OrderMove {
    let kind = rng.next_u64() % 3;
    if kind == 0 || max_window == 2 || n < 3 {
        OrderMove::SwapAdjacent { i: (rng.next_u64() as usize) % (n - 1) }
    } else {
        let span = 2 + (rng.next_u64() as usize) % (max_window - 1);
        let span = span.min(n);
        let i = (rng.next_u64() as usize) % (n - span + 1);
        let j = i + span - 1;
        if kind == 1 {
            OrderMove::RotateLeft { i, j }
        } else {
            OrderMove::RotateRight { i, j }
        }
    }
}

/// The committed order with its costs, and a candidate copy that the
/// pending move is applied to. The two differ only at the positions the
/// move changed, which accepting or rejecting it copies one way or the
/// other; all working memory (both copies, the live-set sweep state and its
/// scratch) is sized when the state is built, so a proposal loop over it
/// allocates nothing. The order search's runs and the heuristics' local
/// search ([`crate::heuristics`]) both move orders through it.
pub(crate) struct OrderState<'a> {
    instance: &'a ProblemInstance,
    cost_sweep: LiveSetCostSweep<'a>,
    committed: CostedOrder,
    candidate: CostedOrder,
    /// The positions at which `candidate` differs from `committed`.
    changed: Range<usize>,
}

impl<'a> OrderState<'a> {
    /// The state of `order`, which must be a topological order of the
    /// instance graph (the live-set sweeps assert it).
    pub(crate) fn new(
        instance: &'a ProblemInstance,
        model: CheckpointCostModel,
        order: Vec<TaskId>,
    ) -> Self {
        let mut cost_sweep = LiveSetCostSweep::new(instance.graph());
        let committed = cost_sweep.cost_order(model, instance, order);
        OrderState { instance, cost_sweep, candidate: committed.clone(), committed, changed: 0..0 }
    }

    /// The committed order.
    pub(crate) fn order(&self) -> &[TaskId] {
        self.committed.order()
    }

    pub(crate) fn into_order(self) -> Vec<TaskId> {
        self.committed.order().to_vec()
    }

    /// The cost table of the committed order.
    pub(crate) fn table(&self) -> Result<SegmentCostTable, ScheduleError> {
        self.committed.costs().table(self.instance)
    }

    /// Applies the valid move `mv` to the candidate and refills `table`
    /// with the candidate's costs.
    pub(crate) fn try_move(
        &mut self,
        mv: &OrderMove,
        table: &mut SegmentCostTable,
    ) -> Result<(), ScheduleError> {
        self.changed = self.cost_sweep.apply_move(self.instance, &mut self.candidate, mv);
        table
            .refill(
                self.instance.lambda(),
                self.instance.downtime(),
                self.candidate.costs().weights(),
                self.candidate.costs().checkpoints(),
                self.candidate.costs().protecting_recoveries(),
            )
            .map_err(ScheduleError::from_expectation)
    }

    /// Commits the pending move.
    pub(crate) fn accept(&mut self) {
        self.committed.copy_range_from(&self.candidate, self.changed.clone());
    }

    /// Undoes the pending move.
    pub(crate) fn reject(&mut self) {
        self.candidate.copy_range_from(&self.committed, self.changed.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_dp;
    use crate::dag_schedule::schedule_dag_best_of;
    use ckpt_dag::generators;
    use ckpt_dag::neighborhood::apply_move;

    fn fork_join_instance() -> ProblemInstance {
        let graph =
            generators::fork_join(5, &[500.0, 300.0, 700.0, 150.0, 900.0], 100.0, 200.0).unwrap();
        ProblemInstance::builder(graph)
            .checkpoint_costs(vec![40.0, 10.0, 120.0, 35.0, 80.0, 20.0, 55.0])
            .uniform_recovery_cost(80.0)
            .downtime(10.0)
            .platform_lambda(1.0 / 3_000.0)
            .build()
            .unwrap()
    }

    fn layered_instance(seed: u64) -> ProblemInstance {
        use ckpt_failure::{Pcg64, RandomSource};
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut coin_rng = rng.derive(7);
        let graph = generators::layered_random(
            &[2, 4, 3, 4, 2],
            |lvl, idx| 100.0 + 150.0 * ((lvl * 3 + idx) % 5) as f64,
            0.4,
            move || coin_rng.next_f64(),
        )
        .unwrap();
        let n = graph.task_count();
        let ckpt: Vec<f64> = (0..n).map(|_| 10.0 + rng.next_f64() * 90.0).collect();
        let rec: Vec<f64> = (0..n).map(|_| 10.0 + rng.next_f64() * 90.0).collect();
        ProblemInstance::builder(graph)
            .checkpoint_costs(ckpt)
            .recovery_costs(rec)
            .downtime(5.0)
            .platform_lambda(1.0 / 2_500.0)
            .build()
            .unwrap()
    }

    const MODELS: [CheckpointCostModel; 3] = [
        CheckpointCostModel::PerLastTask,
        CheckpointCostModel::LiveSetSum,
        CheckpointCostModel::LiveSetMax,
    ];

    #[test]
    fn search_never_worse_than_best_of() {
        let config =
            OrderSearchConfig { restarts: 4, steps: 300, threads: 1, ..Default::default() };
        for inst in [fork_join_instance(), layered_instance(1), layered_instance(2)] {
            for model in MODELS {
                let found = schedule_dag_search(&inst, model, &config).unwrap();
                let baseline = schedule_dag_best_of(&inst, model, config.restarts).unwrap();
                assert!(
                    found.expected_makespan_under_model() <= baseline.expected_makespan_under_model,
                    "{model}: search {} vs best-of {}",
                    found.expected_makespan_under_model(),
                    baseline.expected_makespan_under_model
                );
            }
        }
    }

    #[test]
    fn search_on_chain_returns_the_chain_optimum() {
        let graph = generators::chain(&[400.0, 100.0, 900.0, 250.0, 650.0]).unwrap();
        let inst = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(60.0)
            .uniform_recovery_cost(60.0)
            .downtime(30.0)
            .platform_lambda(1.0 / 4_000.0)
            .build()
            .unwrap();
        let found =
            schedule_dag_search(&inst, CheckpointCostModel::PerLastTask, &Default::default())
                .unwrap();
        let chain = chain_dp::optimal_chain_schedule(&inst).unwrap();
        assert!((found.solution.expected_makespan - chain.expected_makespan).abs() < 1e-9);
        // A chain has a unique linearisation: one start, no proposals.
        assert_eq!(found.starts, 1);
        assert_eq!(found.proposed_moves, 0);
    }

    #[test]
    fn outcome_is_identical_for_any_thread_count() {
        let inst = layered_instance(5);
        let base = OrderSearchConfig { restarts: 6, steps: 200, threads: 1, ..Default::default() };
        let single = schedule_dag_search(&inst, CheckpointCostModel::LiveSetSum, &base).unwrap();
        for threads in [2usize, 3, 8] {
            let config = OrderSearchConfig { threads, ..base.clone() };
            let multi =
                schedule_dag_search(&inst, CheckpointCostModel::LiveSetSum, &config).unwrap();
            assert_eq!(single.solution, multi.solution, "differs at {threads} threads");
            assert_eq!(single.accepted_moves, multi.accepted_moves);
        }
    }

    #[test]
    fn search_improves_on_an_adversarial_independent_instance() {
        // Independent tasks with wildly heterogeneous checkpoint costs: the
        // fixed strategies order by weight, but the best orders interleave
        // cheap-checkpoint tasks at segment ends. Search must find strictly
        // better than the deterministic starts here.
        use ckpt_failure::{Pcg64, RandomSource};
        let mut rng = Pcg64::seed_from_u64(42);
        let n = 12;
        let weights: Vec<f64> = (0..n).map(|_| 200.0 + rng.next_f64() * 1_000.0).collect();
        let graph = generators::independent(&weights).unwrap();
        let ckpt: Vec<f64> = (0..n).map(|_| rng.next_f64() * 400.0).collect();
        let inst = ProblemInstance::builder(graph)
            .checkpoint_costs(ckpt)
            .uniform_recovery_cost(50.0)
            .platform_lambda(1.0 / 1_500.0)
            .build()
            .unwrap();
        let config =
            OrderSearchConfig { restarts: 4, steps: 800, threads: 1, ..Default::default() };
        let model = CheckpointCostModel::PerLastTask;
        let found = schedule_dag_search(&inst, model, &config).unwrap();
        let baseline = schedule_dag_best_of(&inst, model, config.restarts).unwrap();
        assert!(
            found.expected_makespan_under_model() < baseline.expected_makespan_under_model,
            "search {} should beat best-of {} here",
            found.expected_makespan_under_model(),
            baseline.expected_makespan_under_model
        );
        assert!(found.accepted_moves > 0);
    }

    mod search_properties {
        use super::*;
        use ckpt_failure::Pcg64;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Every valid neighbourhood move maps a topological order to a
            /// topological order — validated through `Schedule::new`, the
            /// constructor every search result must pass anyway.
            #[test]
            fn prop_moves_yield_orders_schedule_new_accepts(seed in any::<u64>()) {
                let inst = layered_instance(seed);
                let n = inst.task_count();
                let order = linearize::linearize(
                    inst.graph(),
                    LinearizationStrategy::Random(seed ^ 0x5A5A),
                );
                let mut rng = Pcg64::seed_from_u64(seed);
                let mut current = order;
                for _ in 0..80 {
                    let mv = propose_move(&mut rng, n, 8);
                    if !is_valid_move(inst.graph(), &current, &mv) {
                        continue;
                    }
                    apply_move(&mut current, &mv);
                    let flags = vec![true; n];
                    let schedule = Schedule::new(&inst, current.clone(), flags);
                    prop_assert!(schedule.is_ok(), "{:?} produced an invalid order", mv);
                }
            }

            /// The search never returns a worse model value than
            /// `schedule_dag_best_of` with the matching random-tries count.
            #[test]
            fn prop_search_dominates_best_of(seed in any::<u64>()) {
                let inst = layered_instance(seed);
                let config = OrderSearchConfig { restarts: 3, steps: 60, threads: 1, seed };
                for model in MODELS {
                    let found = schedule_dag_search(&inst, model, &config).unwrap();
                    let baseline = schedule_dag_best_of(&inst, model, config.restarts).unwrap();
                    prop_assert!(
                        found.expected_makespan_under_model()
                            <= baseline.expected_makespan_under_model,
                        "{}: search {} vs best-of {}",
                        model,
                        found.expected_makespan_under_model(),
                        baseline.expected_makespan_under_model
                    );
                }
            }
        }
    }

    #[test]
    fn search_from_starts_never_worse_than_its_seeds() {
        let inst = layered_instance(9);
        let config = OrderSearchConfig { steps: 120, threads: 1, ..Default::default() };
        let seed_orders: Vec<Vec<TaskId>> = [
            LinearizationStrategy::IdOrder,
            LinearizationStrategy::Random(3),
            LinearizationStrategy::Random(3), // duplicate: searched once
        ]
        .into_iter()
        .map(|s| linearize::linearize(inst.graph(), s))
        .collect();
        for model in MODELS {
            let found = search_from_starts(&inst, model, &config, &seed_orders).unwrap();
            assert_eq!(found.starts, 2, "duplicate start must be deduplicated");
            assert!(found.winning_start < found.starts);
            for order in &seed_orders {
                let table = crate::dag_schedule::model_cost_table(&inst, order, model).unwrap();
                let seed_value =
                    scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new())
                        .expected_makespan;
                assert!(
                    found.value <= seed_value,
                    "{model}: seeded search {} worse than its start {seed_value}",
                    found.value
                );
            }
            // The returned order + placement re-evaluate to the reported
            // value through the same pipeline.
            let table = crate::dag_schedule::model_cost_table(&inst, &found.order, model).unwrap();
            let value = table.total_cost(&found.checkpoint_after);
            assert!((value - found.value).abs() <= 1e-10 * value.abs().max(1.0));
        }
    }

    #[test]
    fn search_from_starts_validates_inputs() {
        let inst = layered_instance(9);
        let config = OrderSearchConfig { threads: 1, ..Default::default() };
        assert!(matches!(
            search_from_starts(&inst, CheckpointCostModel::PerLastTask, &config, &[]),
            Err(ScheduleError::EmptyInstance)
        ));
        let mut bad = linearize::linearize(inst.graph(), LinearizationStrategy::IdOrder);
        bad.reverse();
        assert!(matches!(
            search_from_starts(&inst, CheckpointCostModel::PerLastTask, &config, &[bad]),
            Err(ScheduleError::InvalidOrder)
        ));
    }

    #[test]
    fn returned_schedule_is_consistent_with_its_reported_values() {
        let inst = layered_instance(3);
        let config =
            OrderSearchConfig { restarts: 3, steps: 150, threads: 1, ..Default::default() };
        for model in MODELS {
            let found = schedule_dag_search(&inst, model, &config).unwrap();
            // The order is a valid topological order (Schedule::new validated
            // it) and the model value matches re-evaluating the order.
            let table = crate::dag_schedule::model_cost_table(
                &inst,
                found.solution.schedule.order(),
                model,
            )
            .unwrap();
            let value = table.total_cost(found.solution.schedule.checkpoint_after());
            let gap = (value - found.expected_makespan_under_model()).abs() / value;
            assert!(gap < 1e-10, "{model}: reported value off by {gap}");
            let eval = crate::evaluate::expected_makespan(&inst, &found.solution.schedule).unwrap();
            let gap = (eval - found.solution.expected_makespan).abs() / eval;
            assert!(gap < 1e-10, "{model}: per-last-task value off by {gap}");
        }
    }
}
