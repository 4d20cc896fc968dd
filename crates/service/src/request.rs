//! Request/response types of the planner service.
//!
//! A [`PlanInstance`] is a *validated, fingerprinted* chain workload — the
//! deserialised body of an admission request. Construction does all the
//! per-order work once ([`LambdaSweep`] validation, prefix sums, FNV-1a
//! fingerprint); the instance itself is then a couple of `Arc`s, so cloning
//! it into thousands of [`PlanRequest`]s is free and the planner can adopt
//! its λ-independent sweep directly into the cache on a cold miss.

use std::sync::Arc;

use ckpt_core::evaluate::lambda_sweep_for_order;
use ckpt_core::ProblemInstance;
use ckpt_dag::properties;
use ckpt_expectation::sweep::LambdaSweep;

use crate::error::ServiceError;

/// A validated chain workload, ready to be planned at any failure rate.
///
/// Two instances constructed from bitwise-equal cost vectors fingerprint
/// identically and compare equal, so the planner's cache recognises the
/// "same" workload across independently constructed requests (the service
/// never relies on `Arc` identity — see
/// [`Planner`](crate::Planner)'s collision handling).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanInstance {
    sweep: Arc<LambdaSweep>,
    fingerprint: u64,
}

impl PlanInstance {
    /// Validates one execution order positionally — exactly as
    /// [`LambdaSweep::new`]: `weights[j]` is position `j`'s work,
    /// `checkpoints[j]` its checkpoint cost, and `recoveries[x]` the
    /// recovery protecting the segment that starts at position `x`
    /// (`recoveries[0]` is the initial recovery).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Invalid`] if `downtime` is negative, any
    /// weight is not strictly positive, or any cost is negative.
    pub fn new(
        downtime: f64,
        weights: &[f64],
        checkpoints: &[f64],
        recoveries: &[f64],
    ) -> Result<Self, ServiceError> {
        let sweep = LambdaSweep::new(downtime, weights, checkpoints, recoveries)?;
        Ok(PlanInstance::from_sweep(sweep))
    }

    /// Builds the instance from a linear-chain [`ProblemInstance`], along
    /// its unique topological order — producing the *bitwise same* sweep as
    /// `ckpt_core::chain_dp::optimal_chain_schedule` builds internally, so a
    /// served plan can be compared bit-for-bit against a one-shot solve of
    /// the same instance (the differential suites do exactly that).
    ///
    /// The instance's own `lambda` is ignored: the failure rate is a
    /// per-request parameter ([`PlanRequest::plan`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Instance`] if the graph is not a linear chain
    /// or the cost data fails validation.
    pub fn from_chain_instance(instance: &ProblemInstance) -> Result<Self, ServiceError> {
        let order = properties::as_chain(instance.graph())
            .ok_or(ServiceError::Instance(ckpt_core::ScheduleError::NotAChain))?;
        let sweep = lambda_sweep_for_order(instance, &order)?;
        Ok(PlanInstance::from_sweep(sweep))
    }

    fn from_sweep(sweep: LambdaSweep) -> Self {
        let fingerprint = sweep.fingerprint();
        PlanInstance { sweep: Arc::new(sweep), fingerprint }
    }

    /// The number of positions of the order.
    pub fn len(&self) -> usize {
        self.sweep.len()
    }

    /// Whether the order covers no positions (never true: construction
    /// requires at least one position).
    pub fn is_empty(&self) -> bool {
        self.sweep.is_empty()
    }

    /// The order's FNV-1a fingerprint ([`LambdaSweep::fingerprint`]) — the
    /// cache key's first half (the second is the rate bucket).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The order's λ-independent sweep, shared (`Arc`) with the planner's
    /// cache once the instance has been admitted.
    pub fn sweep(&self) -> &Arc<LambdaSweep> {
        &self.sweep
    }
}

/// One plan or re-plan request, validated at construction so that serving
/// is infallible.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    id: u64,
    instance: PlanInstance,
    lambda: f64,
    resume_from: usize,
}

impl PlanRequest {
    /// A full-plan request: the optimal checkpoint placement for the whole
    /// chain at failure rate `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Invalid`] if `lambda` fails the order's rate
    /// check ([`LambdaSweep::check_rate`], `O(1)`): it must be strictly
    /// positive with a finite `1/λ`, and must not let an overflowing
    /// Proposition 1 coefficient meet a vanishing exponent.
    pub fn plan(id: u64, instance: PlanInstance, lambda: f64) -> Result<Self, ServiceError> {
        instance.sweep.check_rate(lambda)?;
        Ok(PlanRequest { id, instance, lambda, resume_from: 0 })
    }

    /// A re-plan request: the workflow has a durable checkpoint right before
    /// position `resume_from` and asks for the optimal placement of the
    /// remaining positions `resume_from..n` (the
    /// [`ResumableDp::solve_suffix`](ckpt_core::chain_dp::ResumableDp::solve_suffix)
    /// path).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Invalid`] for a rate that fails the order's
    /// check (as [`PlanRequest::plan`]), or
    /// [`ServiceError::ResumeOutOfRange`] unless `1 ≤ resume_from < n`
    /// (use [`PlanRequest::plan`] for a fresh plan).
    pub fn replan(
        id: u64,
        instance: PlanInstance,
        lambda: f64,
        resume_from: usize,
    ) -> Result<Self, ServiceError> {
        instance.sweep.check_rate(lambda)?;
        if resume_from == 0 || resume_from >= instance.len() {
            return Err(ServiceError::ResumeOutOfRange { resume_from, len: instance.len() });
        }
        Ok(PlanRequest { id, instance, lambda, resume_from })
    }

    /// The caller-chosen request id, echoed verbatim in the response.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The validated workload the request plans for.
    pub fn instance(&self) -> &PlanInstance {
        &self.instance
    }

    /// The requested platform failure rate.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// First position of the suffix to plan (0 for a full plan).
    pub fn resume_from(&self) -> usize {
        self.resume_from
    }
}

/// How the planner produced a response.
///
/// The label reflects the cache's state *at admission*, so it depends on the
/// order requests arrive in (the first request for a new order is the
/// [`ColdSolve`](ResponseSource::ColdSolve); an identical one right behind
/// it coalesces onto the same solve and inherits its label). The numeric
/// payload — positions, expected makespan, effective rate — is a pure
/// function of (instance, effective rate, resume position) and never
/// depends on arrival order or worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Full plan answered straight from the cache (no DP ran).
    CacheHit,
    /// Full solve for an order the cache had never seen: the instance's
    /// λ-independent sweep was adopted, a per-rate table stamped, and the
    /// chain DP run.
    ColdSolve,
    /// Full solve for a *cached* order at a new rate bucket: the cached
    /// sweep stamped the table (no re-validation, no prefix sums), then the
    /// chain DP ran.
    SweepSolve,
    /// Suffix re-plan: the DP solved only positions `resume_from..n` on the
    /// cached (or freshly stamped) table. Re-plans are always computed —
    /// only full plans are cached.
    SuffixReplan,
}

/// The answer to one [`PlanRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResponse {
    /// The request's id, echoed.
    pub id: u64,
    /// The rate the client asked for.
    pub lambda: f64,
    /// The rate the plan is exactly optimal for: `lambda` under
    /// [`RateBucketing::Exact`](crate::RateBucketing::Exact), the nearest
    /// grid rate under a grid (or `lambda` again where the order cannot be
    /// planned at that grid rate).
    pub effective_lambda: f64,
    /// First position the plan covers (0 for a full plan).
    pub resume_from: usize,
    /// The optimal expected makespan of the planned positions at
    /// `effective_lambda` (for a re-plan: the expected time to finish the
    /// remaining chain).
    pub expected_makespan: f64,
    /// The optimal checkpoint positions over `resume_from..n`, increasing,
    /// ending with the mandatory final checkpoint at `n − 1`. Shared
    /// (`Arc`) with the cache on a hit.
    pub checkpoint_positions: Arc<Vec<usize>>,
    /// How the response was produced (admission-order dependent; the
    /// numeric fields are not).
    pub source: ResponseSource,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> PlanInstance {
        PlanInstance::new(30.0, &[400.0, 100.0, 900.0], &[60.0; 3], &[15.0, 60.0, 20.0])
            .expect("valid order")
    }

    #[test]
    fn equal_vectors_fingerprint_and_compare_equal() {
        let a = instance();
        let b = instance();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        assert!(!Arc::ptr_eq(a.sweep(), b.sweep()));
        let c = PlanInstance::new(30.0, &[400.0, 100.0, 901.0], &[60.0; 3], &[15.0, 60.0, 20.0])
            .expect("valid order");
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            PlanInstance::new(30.0, &[400.0, -1.0], &[60.0; 2], &[15.0; 2]),
            Err(ServiceError::Invalid(_))
        ));
        let inst = instance();
        assert!(PlanRequest::plan(0, inst.clone(), 0.0).is_err());
        assert!(PlanRequest::plan(0, inst.clone(), f64::INFINITY).is_err());
        assert!(PlanRequest::plan(0, inst.clone(), 1e-4).is_ok());
        // 1/λ overflows: the closed form would be ∞·0.
        assert!(PlanRequest::plan(0, inst.clone(), 1e-310).is_err());
        assert!(PlanRequest::replan(0, inst.clone(), 1e-310, 1).is_err());
        // The weight 1.0 vanishes into the prefix sum 1e300 while the
        // recovery 1e300 overflows the coefficient.
        let absorbed = PlanInstance::new(30.0, &[1e300, 1.0], &[0.0; 2], &[0.0, 1e300]).unwrap();
        assert!(matches!(
            PlanRequest::plan(0, absorbed.clone(), 1e-4),
            Err(ServiceError::Invalid(_))
        ));
        assert!(PlanRequest::plan(0, absorbed, 1e-300).is_ok());
        assert!(matches!(
            PlanRequest::replan(0, inst.clone(), 1e-4, 0),
            Err(ServiceError::ResumeOutOfRange { .. })
        ));
        assert!(matches!(
            PlanRequest::replan(0, inst.clone(), 1e-4, 3),
            Err(ServiceError::ResumeOutOfRange { .. })
        ));
        assert_eq!(PlanRequest::replan(7, inst, 1e-4, 2).expect("valid").resume_from(), 2);
    }

    #[test]
    fn chain_instance_round_trip_matches_positional_construction() {
        use ckpt_dag::generators;
        let graph = generators::chain(&[400.0, 100.0, 900.0]).expect("chain");
        let problem = ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(60.0)
            .downtime(30.0)
            .initial_recovery(15.0)
            .platform_lambda(1e-4)
            .recovery_costs(vec![60.0, 20.0, 5.0])
            .build()
            .expect("valid instance");
        let via_instance = PlanInstance::from_chain_instance(&problem).expect("chain");
        // Positional recoveries: initial, then task x−1's recovery cost.
        let positional = instance();
        assert_eq!(via_instance, positional);
    }
}
