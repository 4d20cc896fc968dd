//! The DAG execution tier of the online subsystem: policies that
//! re-linearise the remaining graph after failures.
//!
//! The chain policies re-plan checkpoint *placement* online but keep the
//! execution order frozen — for a chain there is nothing else to decide.
//! General DAGs have a whole order space, and when the failure rate turns
//! out misspecified, the stale order is wrong together with the stale
//! placement: the tasks worth putting at segment boundaries (cheap
//! checkpoints, small live sets) change with the checkpoint density. The
//! policies here close that loop on top of
//! [`ckpt_simulator::simulate_dag_policy`], the same engine and
//! [`Policy`] trait the chain policies run on:
//!
//! * [`StaticPlan::from_plan`] — replay a fixed offline plan's placement
//!   over the plan's order; solved at the *true* rate it is the clairvoyant
//!   regret reference;
//! * [`DagAdaptiveResolve`] — after every observed failure, update the
//!   Gamma-posterior rate estimate and re-solve the checkpoint placement of
//!   the **remaining suffix on the current order**
//!   ([`ResumableDp::solve_suffix`](ckpt_core::chain_dp::ResumableDp::solve_suffix));
//!   the order itself never changes;
//! * [`DagRelinearise`] — additionally extract the **remaining graph**
//!   ([`ckpt_dag::subgraph::suffix_subgraph`]: surviving tasks, induced
//!   edges, live-set seed) and run a bounded-budget
//!   [`order_search`](ckpt_core::order_search) restart over it, seeded with
//!   the incumbent suffix order — the chosen order is never worse, under
//!   the planning model at the posterior rate, than keeping the current one
//!   — then splice the winner back and re-solve the placement.
//!
//! Execution semantics: the simulator charges each task its **own**
//! checkpoint/recovery cost (the paper's §2 baseline, exactly what
//! [`Schedule::to_segments`](ckpt_core::Schedule) replays). The §6
//! live-set models remain available as *planning objectives*
//! ([`DagSpec::new`] takes the [`CheckpointCostModel`]), mirroring the
//! offline `expected_makespan` / `expected_makespan_under_model` split; the
//! suffix re-linearisation then also ignores the frontier's live-set seed
//! contribution (exposed by `suffix_subgraph` for future refinement).
//!
//! [`compare_dag_policies`] is the misspecified-truth regret harness
//! (paired per-trial streams, deterministic at any thread count) and
//! experiment `e12_dag_adaptive` asserts the headline claims.

use std::sync::Arc;

use ckpt_core::cost_model::{order_costs, CheckpointCostModel};
use ckpt_core::order_search::{
    default_start_strategies, schedule_dag_search, search_from_starts, OrderSearchConfig,
    SeededSearchOutcome,
};
use ckpt_core::ProblemInstance;
use ckpt_dag::subgraph::{suffix_subgraph, SuffixSubgraph};
use ckpt_dag::{linearize, TaskId};
use ckpt_expectation::sweep::LambdaSweep;
use ckpt_simulator::{ChainTask, Decision, DecisionContext, Policy};

use crate::error::AdaptiveError;
use crate::harness::{
    find_row, result_row, EvaluationConfig, PolicyResult, TruthModel, TruthRunner,
};
use crate::policies::{Replanner, StaticPlan};

/// One DAG instance in both representations the online subsystem needs:
/// the planner's [`ProblemInstance`] (graph, per-task costs, planning
/// objective) and the simulator's per-task [`ChainTask`] view (indexed by
/// task id; execution orders index into it). Cloning shares the heavy data
/// by `Arc`.
#[derive(Debug, Clone)]
pub struct DagSpec {
    instance: Arc<ProblemInstance>,
    model: CheckpointCostModel,
    tasks: Arc<Vec<ChainTask>>,
}

impl DagSpec {
    /// Builds the spec from a planner instance and the cost model every
    /// policy of this spec plans under.
    ///
    /// # Errors
    ///
    /// Returns an [`AdaptiveError`] if the instance is empty or a task's
    /// parameters do not form a valid simulator task (cannot occur for
    /// instances built through [`ProblemInstance::builder`]).
    pub fn new(
        instance: ProblemInstance,
        model: CheckpointCostModel,
    ) -> Result<Self, AdaptiveError> {
        if instance.task_count() == 0 {
            return Err(ckpt_core::ScheduleError::EmptyInstance.into());
        }
        let tasks: Vec<ChainTask> = instance
            .graph()
            .task_ids()
            .map(|t| {
                ChainTask::new(
                    instance.weight(t),
                    instance.checkpoint_cost(t),
                    instance.recovery_cost(t),
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(DagSpec { instance: Arc::new(instance), model, tasks: Arc::new(tasks) })
    }

    /// The planner view of the DAG.
    pub fn instance(&self) -> &ProblemInstance {
        &self.instance
    }

    /// The cost model the policies plan under.
    pub fn model(&self) -> CheckpointCostModel {
        self.model
    }

    /// The simulator view: one [`ChainTask`] per task id.
    pub fn tasks(&self) -> &[ChainTask] {
        &self.tasks
    }

    /// The number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the spec is empty (never true: construction requires at
    /// least one task).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The downtime `D`.
    pub fn downtime(&self) -> f64 {
        self.instance.downtime()
    }

    /// The initial recovery `R₀`.
    pub fn initial_recovery(&self) -> f64 {
        self.instance.initial_recovery()
    }

    /// The total work of the DAG.
    pub fn total_work(&self) -> f64 {
        self.instance.total_weight()
    }
}

/// An offline DAG plan: a linearisation plus its optimal checkpoint
/// placement, the unit the DAG policies replay, re-solve and re-linearise.
#[derive(Debug, Clone, PartialEq)]
pub struct DagPlan {
    /// The execution order (a topological order of the spec graph).
    pub order: Vec<TaskId>,
    /// Per-position checkpoint decisions (final position always `true`).
    pub checkpoint_after: Vec<bool>,
    /// The plan's expected makespan under the spec's planning model at the
    /// rate it was solved for.
    pub value_under_model: f64,
}

impl DagPlan {
    /// The order as task indices, the form the simulator engine consumes.
    pub fn order_indices(&self) -> Vec<usize> {
        self.order.iter().map(|t| t.index()).collect()
    }
}

/// Solves the offline plan of `spec` at `rate`: a full
/// [`schedule_dag_search`] (the strongest offline planner of the workspace)
/// on the instance re-rated to `rate`, under the spec's model. This is the
/// plan [`StaticPlan::from_plan`] replays and the adaptive DAG policies
/// start from;
/// solved at the truth's rate it is the clairvoyant reference.
///
/// # Errors
///
/// Returns an [`AdaptiveError`] for a non-positive rate or invalid search
/// parameters.
pub fn optimal_static_dag_plan(
    spec: &DagSpec,
    rate: f64,
    search: &OrderSearchConfig,
) -> Result<DagPlan, AdaptiveError> {
    let instance = spec.instance().with_lambda(rate)?;
    let found = schedule_dag_search(&instance, spec.model(), search)?;
    Ok(DagPlan {
        order: found.solution.schedule.order().to_vec(),
        checkpoint_after: found.solution.schedule.checkpoint_after().to_vec(),
        value_under_model: found.expected_makespan_under_model(),
    })
}

/// The λ-batched planner view of one fixed order of a spec: a
/// [`LambdaSweep`] over the order's positional cost vectors under the
/// spec's model, so a policy can instantiate the order's cost table at any
/// rate estimate in `O(n)`, plus the protecting recoveries
/// (`protecting[x]` protects a segment that starts at position `x`) the
/// suffix re-linearisation reads its initial recovery from. Both come from
/// one [`order_costs`] sweep, which rejects an `order` that is not a
/// topological order of the spec graph.
fn order_sweep(spec: &DagSpec, order: &[TaskId]) -> Result<(LambdaSweep, Vec<f64>), AdaptiveError> {
    let costs = order_costs(spec.instance(), order, spec.model())?;
    let protecting = costs.protecting_recoveries();
    let sweep =
        LambdaSweep::new(spec.downtime(), costs.weights(), costs.checkpoints(), protecting)?;
    Ok((sweep, protecting.to_vec()))
}

/// Re-solves the checkpoint placement of the remaining suffix **on the
/// current order** after every observed failure, at the Gamma-posterior
/// rate estimate — [`crate::AdaptiveResolve`] over a DAG order. The
/// execution order itself is never touched; [`DagRelinearise`] adds that.
#[derive(Debug, Clone)]
pub struct DagAdaptiveResolve(Replanner);

impl DagAdaptiveResolve {
    /// Arms the policy with `plan` (solved at `planning_rate`): builds the
    /// λ-batched planner view of the plan's order and solves the full DP
    /// once, so a failure-free execution replays the plan exactly.
    ///
    /// # Errors
    ///
    /// Returns an [`AdaptiveError`] if the plan's order is not a
    /// topological order of the spec graph or the rate is not strictly
    /// positive.
    pub fn new(spec: &DagSpec, plan: &DagPlan, planning_rate: f64) -> Result<Self, AdaptiveError> {
        let (sweep, _) = order_sweep(spec, &plan.order)?;
        Replanner::new(sweep, planning_rate).map(DagAdaptiveResolve)
    }

    /// Overrides the prior strength `k₀` (builder style); see
    /// [`crate::AdaptiveResolve::with_prior_strength`].
    pub fn with_prior_strength(self, prior_strength: f64) -> Self {
        DagAdaptiveResolve(self.0.with_prior_strength(prior_strength))
    }

    /// The rate the current committed plan was solved at.
    pub fn plan_rate(&self) -> f64 {
        self.0.plan_rate()
    }

    /// Re-plans performed so far.
    pub fn replans(&self) -> usize {
        self.0.replans()
    }
}

impl Policy for DagAdaptiveResolve {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        self.0.replan_on_failure(ctx);
        Decision::keep_order(self.0.through(ctx))
    }
}

/// Re-plans **both layers** after every observed failure: updates the
/// Gamma-posterior rate, re-linearises the unexecuted suffix by a
/// bounded-budget order search over the remaining graph
/// ([`suffix_subgraph`] + [`search_from_starts`] seeded with the incumbent
/// suffix), splices the winner into its execution order, and re-solves the
/// checkpoint placement on the updated order. With no observed failures it
/// replays its initial plan exactly, like every other policy here.
#[derive(Debug, Clone)]
pub struct DagRelinearise {
    spec: DagSpec,
    /// The policy's view of the current execution order (kept in lockstep
    /// with the engine: every accepted reorder updates both).
    order: Vec<TaskId>,
    /// The current order's protecting recoveries (see [`order_sweep`]).
    protecting: Vec<f64>,
    plan: Replanner,
    reorders: usize,
}

/// The re-linearisation budget: a handful of random restarts on top of the
/// deterministic strategies and the incumbent, with a short move budget, on
/// one thread (the search runs inside a Monte-Carlo trial). Re-plans run once
/// per observed failure, so the budget is paid `O(failures)` times per
/// trial.
fn default_replan_budget() -> OrderSearchConfig {
    OrderSearchConfig { restarts: 2, steps: 48, threads: 1, ..Default::default() }
}

impl DagRelinearise {
    /// Arms the policy with `plan` (solved at `planning_rate`) and the
    /// re-linearisation budget of `default_replan_budget`.
    ///
    /// # Errors
    ///
    /// Same contract as [`DagAdaptiveResolve::new`].
    pub fn new(spec: &DagSpec, plan: &DagPlan, planning_rate: f64) -> Result<Self, AdaptiveError> {
        let (sweep, protecting) = order_sweep(spec, &plan.order)?;
        Ok(DagRelinearise {
            spec: spec.clone(),
            order: plan.order.clone(),
            protecting,
            plan: Replanner::new(sweep, planning_rate)?,
            reorders: 0,
        })
    }

    /// Overrides the prior strength `k₀` (builder style).
    pub fn with_prior_strength(mut self, prior_strength: f64) -> Self {
        self.plan = self.plan.with_prior_strength(prior_strength);
        self
    }

    /// The rate the current committed plan was solved at.
    pub fn plan_rate(&self) -> f64 {
        self.plan.plan_rate()
    }

    /// Re-plans performed so far.
    pub fn replans(&self) -> usize {
        self.plan.replans()
    }

    /// Suffix reorders actually taken so far.
    pub fn reorders(&self) -> usize {
        self.reorders
    }

    /// Runs the bounded-budget order search on the remaining graph of
    /// `self.order[suffix_start..]` at `rate` and returns the winning
    /// suffix (original task ids), or `None` when the incumbent suffix
    /// wins (no reorder worth taking) or the search fails. `r0` recovers the
    /// state the suffix starts from.
    ///
    /// The incumbent suffix is always among the starts, and
    /// [`search_from_starts`] never returns a worse value than any start —
    /// so under the planning model at `rate`, reordering is never a
    /// planned-value regression over [`DagAdaptiveResolve`]'s keep-the-
    /// order behaviour.
    fn relinearised_suffix(&self, suffix_start: usize, r0: f64, rate: f64) -> Option<Vec<TaskId>> {
        let sub: SuffixSubgraph =
            suffix_subgraph(self.spec.instance().graph(), &self.order, suffix_start);
        let instance = self.spec.instance();
        let ckpt: Vec<f64> = sub.tasks.iter().map(|&t| instance.checkpoint_cost(t)).collect();
        let rec: Vec<f64> = sub.tasks.iter().map(|&t| instance.recovery_cost(t)).collect();
        let mut builder = ProblemInstance::builder(sub.graph.clone());
        builder
            .checkpoint_costs(ckpt)
            .recovery_costs(rec)
            .initial_recovery(r0)
            .downtime(self.spec.downtime())
            .platform_lambda(rate);
        let sub_instance = builder.build().ok()?;

        // Starts: the incumbent suffix (sub-ids follow suffix positions, so
        // the identity order IS the incumbent) plus exactly the strategy
        // set `schedule_dag_search` would try on the subgraph (shared
        // through `default_start_strategies`, so the two can never drift).
        let search = default_replan_budget();
        let mut starts: Vec<Vec<TaskId>> = vec![(0..sub.len()).map(TaskId).collect()];
        starts.extend(
            default_start_strategies(search.restarts)
                .into_iter()
                .map(|s| linearize::linearize(&sub.graph, s)),
        );

        let found: SeededSearchOutcome =
            search_from_starts(&sub_instance, self.spec.model(), &search, &starts).ok()?;
        let new_suffix = sub.to_original_order(&found.order);
        if new_suffix == self.order[suffix_start..] {
            None
        } else {
            Some(new_suffix)
        }
    }
}

impl Policy for DagRelinearise {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        debug_assert!(
            ctx.order.iter().zip(&self.order).all(|(&a, &b)| a == b.index()),
            "the policy's order drifted from the engine's"
        );
        let mut reorder_suffix: Option<Vec<usize>> = None;
        if let Some(estimate) = self.plan.posterior_on_failure(ctx) {
            // Re-linearise the unexecuted suffix (positions from the one to
            // run on) when there are at least two tasks to permute. Its
            // first segment is protected by the last durable checkpoint (the
            // position before it), or by R₀ at the start — the natural R₀
            // of the sub-problem.
            let suffix_start = ctx.position;
            let r0 = self.protecting[suffix_start];
            if self.spec.len() - suffix_start >= 2 {
                if let Some(new_suffix) = self.relinearised_suffix(suffix_start, r0, estimate) {
                    let mut candidate = self.order.clone();
                    candidate[suffix_start..].copy_from_slice(&new_suffix);
                    // The spliced order is topological by construction, so
                    // the planner rebuild cannot fail; guarding keeps the
                    // policy's plan and the engine's order in lockstep even
                    // if it ever did.
                    if let Ok((sweep, protecting)) = order_sweep(&self.spec, &candidate) {
                        self.order = candidate;
                        self.plan.sweep = sweep;
                        self.protecting = protecting;
                        reorder_suffix = Some(new_suffix.iter().map(|t| t.index()).collect());
                        self.reorders += 1;
                        crate::stats::DAG_RELINEARISATIONS.add(1);
                    }
                }
            }
            self.plan.resolve(ctx.position, estimate);
        }
        Decision { through: self.plan.through(ctx), reorder_suffix }
    }
}

/// The outcome of [`compare_dag_policies`].
#[derive(Debug, Clone, PartialEq)]
pub struct DagPolicyComparison {
    /// Mean makespan of the clairvoyant baseline (the offline
    /// [`schedule_dag_search`] plan at the truth's effective rate, replayed
    /// statically).
    pub clairvoyant_makespan: f64,
    /// The (mis)planned offline plan every non-clairvoyant policy starts
    /// from.
    pub planned: DagPlan,
    /// The clairvoyant plan.
    pub clairvoyant_plan: DagPlan,
    /// One row per policy, in a fixed order: `clairvoyant`, `dag-static`,
    /// `dag-adaptive-resolve`, `dag-relinearise`.
    pub results: Vec<PolicyResult>,
}

impl DagPolicyComparison {
    /// The row of a policy by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not one of the four fixed rows.
    pub fn row(&self, policy: &str) -> &PolicyResult {
        find_row(&self.results, policy)
    }
}

/// Runs the three DAG policies (plus the clairvoyant static baseline) over
/// `spec`, planned at `planning_rate` with `search`, under the given truth
/// — the DAG twin of [`crate::compare_policies`]. All rows replay
/// identical per-trial failure streams (paired comparison) and the outcome
/// is bit-identical at any thread count.
///
/// # Errors
///
/// Returns an [`AdaptiveError`] for invalid rates, truth parameters or
/// search configuration, and propagates
/// [`AdaptiveError::TraceHorizonExceeded`] for trace truths whose horizon
/// a trial outruns.
pub fn compare_dag_policies(
    spec: &DagSpec,
    planning_rate: f64,
    truth: &TruthModel,
    config: &EvaluationConfig,
    search: &OrderSearchConfig,
) -> Result<DagPolicyComparison, AdaptiveError> {
    truth.validate()?;

    let planned = optimal_static_dag_plan(spec, planning_rate, search)?;
    let clairvoyant = optimal_static_dag_plan(spec, truth.effective_rate(), search)?;

    let runner =
        TruthRunner::new(truth, config, spec.tasks(), spec.initial_recovery(), spec.downtime())?;
    let clairvoyant_outcome =
        runner.run(&clairvoyant.order_indices(), &StaticPlan::from_plan(&clairvoyant))?;
    let clairvoyant_makespan = clairvoyant_outcome.makespan.mean;
    let row = |policy, outcome| result_row(policy, outcome, clairvoyant_makespan);

    let order = planned.order_indices();
    let results = vec![
        row("clairvoyant", &clairvoyant_outcome),
        row("dag-static", &runner.run(&order, &StaticPlan::from_plan(&planned))?),
        row(
            "dag-adaptive-resolve",
            &runner.run(&order, &DagAdaptiveResolve::new(spec, &planned, planning_rate)?)?,
        ),
        row(
            "dag-relinearise",
            &runner.run(&order, &DagRelinearise::new(spec, &planned, planning_rate)?)?,
        ),
    ];

    Ok(DagPolicyComparison {
        clairvoyant_makespan,
        planned,
        clairvoyant_plan: clairvoyant,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint_positions;
    use ckpt_dag::topo;
    use ckpt_simulator::stream::{NoFailureStream, ScriptedStream};
    use ckpt_simulator::{simulate_dag_policy, PolicyExecutionRecord};
    use ckpt_telemetry::{NoopSink, RingBufferSink};

    /// A heterogeneous layered DAG spec (per-last-task planning model).
    fn layered_spec(seed: u64) -> DagSpec {
        use ckpt_failure::{Pcg64, RandomSource};
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut coin_rng = rng.derive(7);
        let graph = ckpt_dag::generators::layered_random(
            &[2, 4, 3, 4, 2],
            |lvl, idx| 150.0 + 120.0 * ((lvl * 3 + idx) % 5) as f64,
            0.4,
            move || coin_rng.next_f64(),
        )
        .unwrap();
        let n = graph.task_count();
        let ckpt: Vec<f64> = (0..n).map(|_| 10.0 + rng.next_f64() * 80.0).collect();
        let rec: Vec<f64> = (0..n).map(|_| 10.0 + rng.next_f64() * 80.0).collect();
        let instance = ProblemInstance::builder(graph)
            .checkpoint_costs(ckpt)
            .recovery_costs(rec)
            .initial_recovery(20.0)
            .downtime(10.0)
            .platform_lambda(1e-4)
            .build()
            .unwrap();
        DagSpec::new(instance, CheckpointCostModel::PerLastTask).unwrap()
    }

    fn quick_search() -> OrderSearchConfig {
        OrderSearchConfig { restarts: 3, steps: 80, threads: 1, ..Default::default() }
    }

    /// Runs a DAG policy on a given stream, tracing into `sink`.
    fn run_traced<P: Policy + ?Sized>(
        spec: &DagSpec,
        order: &[usize],
        policy: &mut P,
        stream: &mut dyn ckpt_simulator::FailureStream,
        sink: &mut RingBufferSink,
    ) -> PolicyExecutionRecord {
        simulate_dag_policy(
            spec.tasks(),
            order,
            spec.initial_recovery(),
            spec.downtime(),
            policy,
            stream,
            sink,
        )
        .unwrap()
    }

    #[test]
    fn static_plan_replays_its_placement() {
        let spec = layered_spec(1);
        let plan = optimal_static_dag_plan(&spec, 1e-4, &quick_search()).unwrap();
        let mut policy = StaticPlan::from_plan(&plan);
        let mut sink = RingBufferSink::new(1_024);
        let order = plan.order_indices();
        let outcome = run_traced(&spec, &order, &mut policy, &mut NoFailureStream, &mut sink);
        let expected: Vec<usize> =
            plan.checkpoint_after.iter().enumerate().filter_map(|(p, &c)| c.then_some(p)).collect();
        assert_eq!(checkpoint_positions(&sink), expected);
        assert_eq!(outcome.reorders, 0);
    }

    #[test]
    fn adaptive_policies_without_failures_replay_the_offline_plan() {
        for seed in [1u64, 5] {
            let spec = layered_spec(seed);
            let plan = optimal_static_dag_plan(&spec, 1e-4, &quick_search()).unwrap();
            let order = plan.order_indices();
            let run = |policy: &mut dyn Policy| {
                let mut sink = RingBufferSink::new(1_024);
                let outcome = run_traced(&spec, &order, policy, &mut NoFailureStream, &mut sink);
                (outcome, checkpoint_positions(&sink))
            };
            let reference = run(&mut StaticPlan::from_plan(&plan));
            let mut resolve = DagAdaptiveResolve::new(&spec, &plan, 1e-4).unwrap();
            assert_eq!(run(&mut resolve), reference, "seed {seed}: resolve drifted");
            assert_eq!(resolve.replans(), 0);

            let mut relin = DagRelinearise::new(&spec, &plan, 1e-4).unwrap();
            assert_eq!(run(&mut relin), reference, "seed {seed}: relinearise drifted");
            assert_eq!(relin.replans(), 0);
            assert_eq!(relin.reorders(), 0);
        }
    }

    #[test]
    fn relinearise_replans_and_may_reorder_on_failures() {
        let spec = layered_spec(2);
        // Plan at a wildly optimistic rate, then hit early failures: the
        // posterior shoots up and the policy re-plans.
        let plan = optimal_static_dag_plan(&spec, 1e-6, &quick_search()).unwrap();
        let mut policy = DagRelinearise::new(&spec, &plan, 1e-6).unwrap().with_prior_strength(0.01);
        let mut stream = ScriptedStream::new(vec![300.0, 900.0, 1_700.0]);
        let outcome = simulate_dag_policy(
            spec.tasks(),
            &plan.order_indices(),
            spec.initial_recovery(),
            spec.downtime(),
            &mut policy,
            &mut stream,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(outcome.record.failures, 3);
        assert!(policy.replans() >= 1);
        assert!(policy.plan_rate() > 1e-6);
        // With the rate revised sharply upwards, more than just the final
        // checkpoint gets taken.
        assert!(outcome.checkpoints > 1, "checkpoints: {}", outcome.checkpoints);
        // The engine's applied reorders match the policy's accounting.
        assert_eq!(outcome.reorders as usize, policy.reorders());
    }

    #[test]
    fn relinearised_orders_stay_topological() {
        // Drive the policy through many scripted failures and let the
        // engine + instance validation check every spliced order.
        for seed in [3u64, 4, 8] {
            let spec = layered_spec(seed);
            let plan = optimal_static_dag_plan(&spec, 1e-6, &quick_search()).unwrap();
            let mut policy =
                DagRelinearise::new(&spec, &plan, 1e-6).unwrap().with_prior_strength(0.05);
            let mut stream =
                ScriptedStream::new(vec![250.0, 600.0, 1_000.0, 1_500.0, 2_200.0, 3_000.0]);
            let outcome = simulate_dag_policy(
                spec.tasks(),
                &plan.order_indices(),
                spec.initial_recovery(),
                spec.downtime(),
                &mut policy,
                &mut stream,
                &mut NoopSink,
            )
            .unwrap();
            // The final order must be a topological order of the graph.
            let final_order = outcome.final_order.unwrap_or_else(|| plan.order_indices());
            let final_order: Vec<TaskId> = final_order.into_iter().map(TaskId).collect();
            assert!(
                topo::is_topological_order(spec.instance().graph(), &final_order),
                "seed {seed}: final order is not topological"
            );
        }
    }

    #[test]
    fn comparison_is_deterministic_and_ranks_sanely() {
        let spec = layered_spec(1);
        let planning = 1.0 / 40_000.0;
        let truth = TruthModel::Exponential { lambda: 8.0 * planning };
        let config = EvaluationConfig { trials: 120, seed: 11, threads: 1 };
        let cmp = compare_dag_policies(&spec, planning, &truth, &config, &quick_search()).unwrap();
        assert_eq!(cmp.results.len(), 4);
        assert_eq!(cmp.row("clairvoyant").regret, 0.0);
        let again =
            compare_dag_policies(&spec, planning, &truth, &config, &quick_search()).unwrap();
        assert_eq!(cmp, again, "comparison must be deterministic");
        // Adapting must beat the stale static plan under an 8× truth.
        let stale = cmp.row("dag-static").mean_makespan;
        assert!(cmp.row("dag-adaptive-resolve").mean_makespan < stale);
        assert!(cmp.row("dag-relinearise").mean_makespan < stale);
    }

    #[test]
    fn spec_validates_and_exposes_both_views() {
        let spec = layered_spec(1);
        assert!(!spec.is_empty());
        assert_eq!(spec.len(), spec.instance().task_count());
        assert_eq!(spec.tasks().len(), spec.len());
        let t0 = spec.tasks()[0];
        assert_eq!(t0.work(), spec.instance().weight(TaskId(0)));
        assert_eq!(t0.checkpoint(), spec.instance().checkpoint_cost(TaskId(0)));
        assert!((spec.total_work() - spec.instance().total_weight()).abs() < 1e-12);
        let empty =
            ProblemInstance::builder(ckpt_dag::TaskGraph::default()).platform_lambda(1e-3).build();
        // An empty graph cannot even build an instance, or is rejected here.
        if let Ok(instance) = empty {
            assert!(DagSpec::new(instance, CheckpointCostModel::PerLastTask).is_err());
        }
    }

    #[test]
    fn policies_validate_their_plans() {
        let spec = layered_spec(1);
        let plan = optimal_static_dag_plan(&spec, 1e-4, &quick_search()).unwrap();
        let mut bad = plan.clone();
        bad.order.reverse();
        assert!(DagAdaptiveResolve::new(&spec, &bad, 1e-4).is_err());
        assert!(DagRelinearise::new(&spec, &bad, 1e-4).is_err());
        assert!(DagAdaptiveResolve::new(&spec, &plan, 0.0).is_err());
        assert!(optimal_static_dag_plan(&spec, -1.0, &quick_search()).is_err());
    }
}
