//! The four online checkpoint policies.
//!
//! All four implement [`ckpt_simulator::Policy`]: the engine consults them
//! whenever an attempt of a chain is about to start, and each names the
//! position the attempt checkpoints after (none of them reorders):
//!
//! * [`StaticPlan`] — replay a fixed offline placement (no adaptation; the
//!   paper's model, used both as the planning-rate baseline and, solved at
//!   the *true* rate, as the clairvoyant reference; it replays a
//!   [`DagPlan`]'s placement just as well);
//! * [`PeriodicYoung`] — end each attempt at the first task that brings its
//!   work to the Young period `√(2·C̄/λ_plan)` (the §7 divisible-load
//!   baseline transplanted to task boundaries);
//! * [`AdaptiveResolve`] — after **every** observed failure, update a
//!   Bayesian rate estimate (Gamma prior centred on the planning rate) and
//!   re-solve the remaining chain with Algorithm 1 on a
//!   [`SegmentCostTable`] refilled at the new estimate — a **suffix-only**
//!   [`ResumableDp::solve_suffix`] solve, since everything before the last
//!   durable checkpoint is already executed;
//! * [`RateLearning`] — maintain the pure maximum-likelihood rate from
//!   observed inter-failure times
//!   ([`OnlineExponentialMle`])
//!   and re-solve only when the estimate drifts past a configurable factor
//!   from the rate the current plan was solved at (fewer re-plans, no
//!   prior).
//!
//! The re-solving policies here and in [`crate::dag`] share one private
//! re-planner: a committed suffix plan, the Gamma posterior and the
//! bookkeeping of seen failures and re-plans.
//!
//! With **no observed failures**, `AdaptiveResolve` and `RateLearning`
//! never re-plan and follow their initial full solve exactly — so on a
//! failure-free stream they reproduce the offline DP optimum bit for bit
//! (property-tested in the crate tests).

use ckpt_core::chain_dp::{
    scalable_placement_on_table_with_scratch, ChainDpScratch, ResumableDp, TablePlacement,
};
use ckpt_expectation::approximations::young_period;
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_expectation::sweep::LambdaSweep;
use ckpt_failure::fitting::OnlineExponentialMle;
use ckpt_simulator::{next_checkpoint, Decision, DecisionContext, Policy};

use crate::chain::ChainSpec;
use crate::dag::DagPlan;
use crate::error::AdaptiveError;

/// Solves the offline Algorithm 1 optimum of `spec` at `rate` — the plan
/// [`StaticPlan`] replays and the adaptive policies start from.
///
/// # Errors
///
/// Returns an [`AdaptiveError`] if `rate` is not strictly positive.
pub fn optimal_static_plan(spec: &ChainSpec, rate: f64) -> Result<TablePlacement, AdaptiveError> {
    let table = spec.sweep().table_for(rate)?;
    Ok(scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new()))
}

/// Replays a fixed checkpoint placement, ignoring everything the execution
/// observes and never reordering. `StaticPlan` of the offline optimum is the
/// paper's §5 policy; `StaticPlan` of the optimum **at the true rate** is
/// the clairvoyant reference the evaluation harnesses measure regret
/// against, on chains and on DAGs alike.
#[derive(Debug, Clone)]
pub struct StaticPlan {
    checkpoint_after: Vec<bool>,
}

impl StaticPlan {
    /// A policy replaying per-position decisions (`checkpoint_after[i]` is
    /// whether to checkpoint right after position `i`; the last position is
    /// checkpointed regardless).
    pub fn new(checkpoint_after: Vec<bool>) -> Self {
        StaticPlan { checkpoint_after }
    }

    /// A policy replaying a [`TablePlacement`] (e.g. the chain DP optimum).
    pub fn from_placement(placement: &TablePlacement) -> Self {
        StaticPlan { checkpoint_after: placement.checkpoint_after() }
    }

    /// A policy replaying an offline [`DagPlan`]'s placement (the plan's
    /// order is handed to the engine separately).
    pub fn from_plan(plan: &DagPlan) -> Self {
        StaticPlan { checkpoint_after: plan.checkpoint_after.clone() }
    }
}

impl Policy for StaticPlan {
    /// Runs through the next flagged position, or to the end
    /// ([`next_checkpoint`]).
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        Decision::keep_order(next_checkpoint(&self.checkpoint_after, ctx.position, ctx.order.len()))
    }
}

/// Young-periodic checkpointing at task granularity: each attempt ends at
/// the first task that pushes its work to the period or beyond (the same
/// walk as `ckpt_core::heuristics::young_periodic_schedule`, applied online
/// so it also re-triggers during re-execution).
#[derive(Debug, Clone)]
pub struct PeriodicYoung {
    spec: ChainSpec,
    period: f64,
}

impl PeriodicYoung {
    /// The Young period `√(2·C̄/λ_plan)` of the chain's mean checkpoint cost
    /// at the planning rate.
    ///
    /// # Errors
    ///
    /// Returns an [`AdaptiveError`] if the mean checkpoint cost is zero or
    /// the rate not strictly positive (the period is then undefined), or if
    /// the period overflows.
    pub fn new(spec: &ChainSpec, planning_rate: f64) -> Result<Self, AdaptiveError> {
        let period = young_period(spec.mean_checkpoint_cost(), planning_rate)?;
        if !period.is_finite() || period <= 0.0 {
            return Err(AdaptiveError::NonPositiveParameter { name: "period", value: period });
        }
        Ok(PeriodicYoung { spec: spec.clone(), period })
    }
}

impl Policy for PeriodicYoung {
    /// Runs through the first `j` with `work(position..=j) ≥ period`, or to
    /// the end.
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        let last = ctx.order.len() - 1;
        let start = ctx.position;
        let through = (start..last).find(|&j| self.spec.work_between(start, j) >= self.period);
        Decision::keep_order(through.unwrap_or(last))
    }
}

/// Pseudo-failure weight of the planning-rate prior (the Gamma-conjugate
/// prior contributes `k₀` failures over `k₀/λ_plan` seconds of pseudo
/// exposure): one pseudo-failure keeps the very first observed failure from
/// yanking the plan arbitrarily far, while a genuinely misspecified rate
/// overtakes the prior within a handful of failures.
const DEFAULT_PRIOR_STRENGTH: f64 = 1.0;

/// The re-planner the re-solving policies are built on: a committed
/// Algorithm 1 plan over one order's λ-batched cost tables, re-solved on the
/// suffix the execution is in, plus the Gamma-posterior rate estimate and
/// the bookkeeping of seen failures and re-plans. Decision lookups are
/// `O(1)`; each re-plan costs one `O(n)` table instantiation plus a
/// suffix-only solve.
#[derive(Debug, Clone)]
pub(crate) struct Replanner {
    /// The cost tables of the order the plan is over; a policy that
    /// reorders the suffix swaps in the new order's tables.
    pub(crate) sweep: LambdaSweep,
    /// The table of the last re-plan, refilled by the next one; built on
    /// the first, so a policy cloned per trial copies no table.
    table: Option<SegmentCostTable>,
    dp: ResumableDp,
    planning_rate: f64,
    prior_strength: f64,
    /// The rate the committed plan was solved at.
    plan_rate: f64,
    seen_failures: usize,
    replans: usize,
}

impl Replanner {
    /// Solves the full plan of `sweep` at `planning_rate`, with the default
    /// prior strength.
    pub(crate) fn new(sweep: LambdaSweep, planning_rate: f64) -> Result<Self, AdaptiveError> {
        let table = sweep.table_for(planning_rate)?;
        let mut dp = ResumableDp::new();
        dp.solve(&table);
        Ok(Replanner {
            sweep,
            table: None,
            dp,
            planning_rate,
            prior_strength: DEFAULT_PRIOR_STRENGTH,
            plan_rate: planning_rate,
            seen_failures: 0,
            replans: 0,
        })
    }

    /// Overrides the prior strength `k₀`.
    ///
    /// # Panics
    ///
    /// Panics if `prior_strength` is not strictly positive and finite.
    pub(crate) fn with_prior_strength(mut self, prior_strength: f64) -> Self {
        assert!(
            prior_strength.is_finite() && prior_strength > 0.0,
            "prior strength must be strictly positive"
        );
        self.prior_strength = prior_strength;
        self
    }

    /// The failures `ctx` reports that were not seen at an earlier
    /// decision; they count as seen from now on.
    fn unseen_failures<'c>(&mut self, ctx: &DecisionContext<'c>) -> &'c [f64] {
        let times = ctx.failure_times;
        if times.len() <= self.seen_failures {
            return &[];
        }
        let fresh = &times[self.seen_failures..];
        self.seen_failures = times.len();
        fresh
    }

    /// On a newly seen failure, the posterior-mean rate under the Gamma
    /// prior: `(k₀ + k) / (k₀/λ_plan + t)` after `k` failures over `t`
    /// seconds.
    pub(crate) fn posterior_on_failure(&mut self, ctx: &DecisionContext<'_>) -> Option<f64> {
        if self.unseen_failures(ctx).is_empty() {
            return None;
        }
        let failures = ctx.failure_times.len() as f64;
        Some(
            (self.prior_strength + failures)
                / (self.prior_strength / self.planning_rate + ctx.clock),
        )
    }

    /// Re-solves the plan from position `start` at `rate`. Returns whether
    /// it did: a rate the tables reject keeps the committed plan.
    pub(crate) fn resolve(&mut self, start: usize, rate: f64) -> bool {
        let table = match &mut self.table {
            Some(table) => match self.sweep.table_into(rate, table) {
                Ok(()) => table,
                Err(_) => return false,
            },
            None => match self.sweep.table_for(rate) {
                Ok(table) => self.table.insert(table),
                Err(_) => return false,
            },
        };
        self.dp.solve_suffix(table, start);
        self.plan_rate = rate;
        self.replans += 1;
        true
    }

    /// Re-solves the suffix from the position to run at the posterior
    /// estimate when `ctx` shows a new failure. Returns whether it
    /// re-planned.
    pub(crate) fn replan_on_failure(&mut self, ctx: &DecisionContext<'_>) -> bool {
        self.posterior_on_failure(ctx).is_some_and(|rate| self.resolve(ctx.position, rate))
    }

    /// The committed plan's next checkpoint from `ctx`'s position: the
    /// attempt the plan runs next. Every re-plan solves the suffix from the
    /// position it is made at, and positions only move forward until the
    /// next one, so the plan always covers the position asked about.
    pub(crate) fn through(&self, ctx: &DecisionContext<'_>) -> usize {
        self.dp.choice_at(ctx.position)
    }

    /// The rate the committed plan was solved at.
    pub(crate) fn plan_rate(&self) -> f64 {
        self.plan_rate
    }

    /// Re-plans performed so far.
    pub(crate) fn replans(&self) -> usize {
        self.replans
    }
}

/// Re-solves the remaining chain after **every** observed failure, at the
/// posterior-mean rate estimate (see the module docs).
#[derive(Debug, Clone)]
pub struct AdaptiveResolve(Replanner);

impl AdaptiveResolve {
    /// Plans `spec` at `planning_rate` (a full Algorithm 1 solve) and arms
    /// the re-planning machinery with the default prior strength.
    ///
    /// # Errors
    ///
    /// Returns an [`AdaptiveError`] if `planning_rate` is not strictly
    /// positive.
    pub fn new(spec: &ChainSpec, planning_rate: f64) -> Result<Self, AdaptiveError> {
        Replanner::new(spec.sweep().clone(), planning_rate).map(AdaptiveResolve)
    }

    /// Overrides the prior strength `k₀` (builder style): larger values
    /// trust the planning rate longer, `0 < k₀ ≪ 1` makes the estimate
    /// almost purely empirical after the first failure.
    pub fn with_prior_strength(self, prior_strength: f64) -> Self {
        AdaptiveResolve(self.0.with_prior_strength(prior_strength))
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

impl Policy for AdaptiveResolve {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        if self.0.replan_on_failure(ctx) {
            crate::stats::ADAPTIVE_RESOLVE_REPLANS.add(1);
        }
        Decision::keep_order(self.0.through(ctx))
    }
}

/// Re-solves the remaining chain only when the running maximum-likelihood
/// rate estimate drifts past a threshold factor from the rate the current
/// plan was solved at. The MLE is the pure `k / Σ gaps` from observed
/// inter-failure times — no prior — so the policy requires a minimum number
/// of observations before it trusts the estimate at all.
#[derive(Debug, Clone)]
pub struct RateLearning {
    plan: Replanner,
    mle: OnlineExponentialMle,
    /// Absolute time of the last failure folded into the MLE.
    last_failure_time: f64,
}

/// Observations required before the MLE may override the planning rate.
const DEFAULT_MIN_FAILURES: u64 = 3;
/// Relative drift (either direction) that triggers a re-plan.
const DEFAULT_DRIFT_FACTOR: f64 = 1.5;

impl RateLearning {
    /// Plans `spec` at `planning_rate` and arms the estimator. The policy
    /// re-plans once at least 3 inter-failure times are observed **and** the
    /// MLE is at least 1.5× away (in either direction) from the current
    /// plan's rate.
    ///
    /// # Errors
    ///
    /// Returns an [`AdaptiveError`] if `planning_rate` is not strictly
    /// positive.
    pub fn new(spec: &ChainSpec, planning_rate: f64) -> Result<Self, AdaptiveError> {
        Ok(RateLearning {
            plan: Replanner::new(spec.sweep().clone(), planning_rate)?,
            mle: OnlineExponentialMle::new(),
            last_failure_time: 0.0,
        })
    }

    /// The rate the current committed plan was solved at.
    pub fn plan_rate(&self) -> f64 {
        self.plan.plan_rate()
    }

    /// Re-plans performed so far.
    pub fn replans(&self) -> usize {
        self.plan.replans()
    }
}

impl Policy for RateLearning {
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Decision {
        let fresh = self.plan.unseen_failures(ctx);
        for &t in fresh {
            self.mle.observe(t - self.last_failure_time);
            self.last_failure_time = t;
        }
        if !fresh.is_empty() && self.mle.count() >= DEFAULT_MIN_FAILURES {
            if let Some(estimate) = self.mle.rate() {
                let plan_rate = self.plan.plan_rate();
                let drift = (estimate / plan_rate).max(plan_rate / estimate);
                if drift >= DEFAULT_DRIFT_FACTOR && self.plan.resolve(ctx.position, estimate) {
                    crate::stats::RATE_LEARNING_REPLANS.add(1);
                }
            }
        }
        Decision::keep_order(self.plan.through(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint_positions;
    use ckpt_simulator::simulate_policy;
    use ckpt_simulator::stream::{NoFailureStream, ScriptedStream};
    use ckpt_telemetry::{NoopSink, RingBufferSink};

    fn spec() -> ChainSpec {
        ChainSpec::new(
            &[400.0, 100.0, 900.0, 250.0, 650.0, 300.0],
            &[60.0; 6],
            &[60.0; 6],
            30.0,
            30.0,
        )
        .unwrap()
    }

    /// The checkpoint positions a policy actually takes on a given stream.
    fn checkpoints_taken<P: Policy>(
        spec: &ChainSpec,
        policy: &mut P,
        stream: &mut dyn ckpt_simulator::FailureStream,
    ) -> Vec<usize> {
        let mut sink = RingBufferSink::new(1_024);
        simulate_policy(
            spec.tasks(),
            spec.initial_recovery(),
            spec.downtime(),
            policy,
            stream,
            &mut sink,
        )
        .unwrap();
        checkpoint_positions(&sink)
    }

    #[test]
    fn static_plan_replays_its_placement() {
        let spec = spec();
        let placement = optimal_static_plan(&spec, 1e-4).unwrap();
        let mut policy = StaticPlan::from_placement(&placement);
        let mut stream = NoFailureStream;
        let taken = checkpoints_taken(&spec, &mut policy, &mut stream);
        assert_eq!(taken, placement.checkpoint_positions);
    }

    #[test]
    fn periodic_young_triggers_on_accumulated_work() {
        let spec = spec();
        // Young period √(2·60/1.2e-4) = 1000 s.
        let mut policy = PeriodicYoung::new(&spec, 1.2e-4).unwrap();
        assert!((policy.period - 1_000.0).abs() < 1e-9);
        let mut stream = NoFailureStream;
        let taken = checkpoints_taken(&spec, &mut policy, &mut stream);
        // Work prefix: 400, 500, 1400 (>= 1000 -> ckpt), 250, 900, 1200
        // (>= 1000 -> ckpt); final forced.
        assert_eq!(taken, vec![2, 5]);
        assert!(PeriodicYoung::new(&spec, 0.0).is_err());
        // Zero mean checkpoint cost has no Young period.
        let free = ChainSpec::new(&[100.0; 3], &[0.0; 3], &[0.0; 3], 0.0, 0.0).unwrap();
        assert!(PeriodicYoung::new(&free, 1e-4).is_err());
    }

    #[test]
    fn adaptive_resolve_without_failures_is_the_static_optimum() {
        let spec = spec();
        let placement = optimal_static_plan(&spec, 1e-4).unwrap();
        let mut policy = AdaptiveResolve::new(&spec, 1e-4).unwrap();
        let mut stream = NoFailureStream;
        let taken = checkpoints_taken(&spec, &mut policy, &mut stream);
        assert_eq!(taken, placement.checkpoint_positions);
        assert_eq!(policy.replans(), 0);
        assert_eq!(policy.plan_rate(), 1e-4);
    }

    #[test]
    fn adaptive_resolve_replans_on_failures() {
        let spec = spec();
        // A nearly uninformative prior: the posterior is dominated by the
        // three observed failures, far above the optimistic planning rate.
        let mut policy = AdaptiveResolve::new(&spec, 1e-6).unwrap().with_prior_strength(0.01);
        let mut stream = ScriptedStream::new(vec![200.0, 700.0, 1_400.0]);
        let outcome = simulate_policy(
            spec.tasks(),
            spec.initial_recovery(),
            spec.downtime(),
            &mut policy,
            &mut stream,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(outcome.record.failures, 3);
        assert_eq!(policy.replans(), 3);
        assert!(policy.plan_rate() > 1e-6, "posterior must move above the prior");
        // With the rate revised sharply upwards mid-run, the policy
        // checkpoints more than the one mandatory final time.
        assert!(outcome.checkpoints > 1, "checkpoints: {}", outcome.checkpoints);
    }

    #[test]
    fn rate_learning_replans_only_past_the_drift_threshold() {
        let spec = spec();
        let mut policy = RateLearning::new(&spec, 1e-3).unwrap();
        // Three failures 200 s apart: the MLE jumps to 3/600 = 5e-3, a 5×
        // drift above the planning rate — past the 1.5× threshold, so the
        // policy re-plans (once: all three gaps arrive before the next
        // decision).
        let mut stream = ScriptedStream::new(vec![200.0, 400.0, 600.0]);
        let _ = simulate_policy(
            spec.tasks(),
            spec.initial_recovery(),
            spec.downtime(),
            &mut policy,
            &mut stream,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(policy.replans(), 1);
        assert!(policy.plan_rate() > 1e-3, "the MLE revised the rate upwards");
    }

    #[test]
    fn rate_learning_below_min_failures_keeps_the_plan() {
        let spec = spec();
        let mut policy = RateLearning::new(&spec, 1e-4).unwrap();
        // Two observed gaps, one short of the three the MLE needs.
        let mut stream = ScriptedStream::new(vec![300.0, 900.0]);
        let _ = simulate_policy(
            spec.tasks(),
            spec.initial_recovery(),
            spec.downtime(),
            &mut policy,
            &mut stream,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(policy.replans(), 0);
        assert_eq!(policy.plan_rate(), 1e-4);
    }

    #[test]
    fn builders_validate() {
        let spec = spec();
        assert!(optimal_static_plan(&spec, 0.0).is_err());
        assert!(AdaptiveResolve::new(&spec, -1.0).is_err());
        assert!(RateLearning::new(&spec, f64::NAN).is_err());
    }
}
