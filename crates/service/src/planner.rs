//! The planner: batched admission, the fingerprint × rate-bucket cache,
//! and the deterministic parallel solve phase.
//!
//! # Serving pipeline
//!
//! [`Planner::serve_batch`] runs three phases:
//!
//! 1. **Admission** (serial, in request order): each request is keyed by
//!    its instance's fingerprint (masked by the collision-test hook) and
//!    its rate bucket. Cache hits are answered immediately; misses become
//!    *work items*, deduplicated so that many identical requests in one
//!    batch coalesce onto a single solve. A never-seen order adopts the
//!    instance's λ-independent [`LambdaSweep`] into the cache.
//! 2. **Solve** (parallel): the work items are mapped over
//!    [`chunked_map_with`] — the workspace's deterministic contiguous-chunk
//!    worker pattern — with one arena-allocated [`ResumableDp`] scratch per
//!    worker. Each item stamps (or reuses) the bucket's
//!    [`SegmentCostTable`] and runs the pruned Algorithm 1 DP, full or
//!    suffix-only. Every result is a pure function of the item, so the
//!    phase is **bit-identical for every worker count**.
//! 3. **Commit + assembly** (serial, in request order): freshly stamped
//!    tables and full plans enter the cache, and responses are assembled
//!    in arrival order.
//!
//! Determinism falls out of the structure: hash maps are only ever probed
//! by key (never iterated for results), admission and commit are serial,
//! and the parallel phase uses the same chunking contract as every other
//! thread-parallel path of the workspace.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ckpt_core::chain_dp::ResumableDp;
use ckpt_core::parallel::chunked_map_with;
use ckpt_expectation::segment_cost::SegmentCostTable;
use ckpt_expectation::sweep::LambdaSweep;
use ckpt_telemetry::{wall_seconds, MetricsRegistry, NoopSink, TelemetrySink, TraceEvent};

use crate::bucketing::RateBucketing;
use crate::request::{PlanRequest, PlanResponse, ResponseSource};

/// A cached full plan: the DP value and the shared checkpoint positions.
#[derive(Debug, Clone)]
struct CachedPlan {
    expected_makespan: f64,
    checkpoint_positions: Arc<Vec<usize>>,
}

/// One cached execution order: its λ-independent sweep plus the per-bucket
/// tables and full plans stamped so far. Orders that collide on the
/// (masked) fingerprint live side by side in a `Vec` and are told apart by
/// comparing their sweeps' defining vectors.
#[derive(Debug)]
struct OrderShard {
    sweep: Arc<LambdaSweep>,
    tables: HashMap<u64, Arc<SegmentCostTable>>,
    plans: HashMap<u64, CachedPlan>,
}

/// Running counters of how requests were served (monotonic; one increment
/// per request, keyed by its [`ResponseSource`]).
///
/// Since the telemetry migration this is a *view*: the counters live on the
/// planner's [`MetricsRegistry`] (under the `service_*_total` names, see
/// `docs/OBSERVABILITY.md`) and [`Planner::stats`] materialises this struct
/// from them, keeping the original accessor and its semantics intact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests served in total.
    pub requests: u64,
    /// Full plans answered from the cache without running a DP.
    pub cache_hits: u64,
    /// Full solves that introduced a new order to the cache.
    pub cold_solves: u64,
    /// Full solves at a new rate bucket of an already-cached order.
    pub sweep_solves: u64,
    /// Suffix re-plans (always computed, never cached).
    pub suffix_replans: u64,
}

/// The planner-as-a-service core: a plan cache keyed by *instance
/// fingerprint × rate bucket* in front of the deterministic chain-DP
/// solvers.
///
/// # Example
///
/// ```
/// use ckpt_service::{PlanInstance, PlanRequest, Planner, RateBucketing, ResponseSource};
///
/// let mut planner = Planner::new(RateBucketing::Exact);
/// let chain = PlanInstance::new(30.0, &[400.0, 100.0, 900.0], &[60.0; 3], &[15.0; 3])?;
/// let first = PlanRequest::plan(1, chain.clone(), 1e-4)?;
/// let again = PlanRequest::plan(2, chain, 1e-4)?;
///
/// let cold = planner.serve_batch(&[first.clone()]);
/// assert_eq!(cold[0].source, ResponseSource::ColdSolve);
/// let warm = planner.serve_batch(&[again]);
/// assert_eq!(warm[0].source, ResponseSource::CacheHit);
/// // Same plan, no DP ran the second time.
/// assert_eq!(warm[0].checkpoint_positions, cold[0].checkpoint_positions);
/// assert_eq!(warm[0].expected_makespan.to_bits(), cold[0].expected_makespan.to_bits());
/// # Ok::<(), ckpt_service::ServiceError>(())
/// ```
#[derive(Debug)]
pub struct Planner {
    bucketing: RateBucketing,
    threads: usize,
    fingerprint_mask: u64,
    shards: HashMap<u64, Vec<OrderShard>>,
    metrics: MetricsRegistry,
}

/// Where a work item's per-rate table comes from.
enum TableSource {
    /// Already stamped for this (order, bucket) — reuse it.
    Cached(Arc<SegmentCostTable>),
    /// Stamp it from the order's sweep inside the worker.
    Stamp(Arc<LambdaSweep>),
}

/// One deduplicated solve: the table (or the sweep to stamp it from), the
/// effective rate, and the suffix start (0 = full plan).
struct WorkItem {
    table: TableSource,
    effective_lambda: f64,
    resume_from: usize,
    /// Cache coordinates for the commit phase.
    masked: u64,
    shard: usize,
    bucket: u64,
    source: ResponseSource,
}

/// A worker's result for one [`WorkItem`].
struct SolveOutcome {
    expected_makespan: f64,
    checkpoint_positions: Arc<Vec<usize>>,
    /// The table, iff the worker stamped it fresh (for the commit phase).
    stamped: Option<Arc<SegmentCostTable>>,
}

/// Per-request admission verdict.
enum Admitted {
    /// Answered from the cache; payload cloned out of the shard.
    Ready { expected_makespan: f64, checkpoint_positions: Arc<Vec<usize>>, effective_lambda: f64 },
    /// Answered by work item `index` (possibly shared with other requests).
    Computed { index: usize },
}

impl Planner {
    /// A planner with the given rate-bucketing policy, solving on all
    /// available cores ([`with_threads`](Planner::with_threads) overrides).
    pub fn new(bucketing: RateBucketing) -> Self {
        Planner {
            bucketing,
            threads: 0,
            fingerprint_mask: u64::MAX,
            shards: HashMap::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Sets the solve phase's worker count (`0` = one per core). Responses
    /// are bit-identical for every choice; this only trades latency for
    /// cores.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// **Differential-testing hook**: fingerprints are AND-masked with
    /// `mask` before keying the cache, so a small mask (e.g. `0x3`) forces
    /// unrelated orders to collide and exercises the collision-resolution
    /// path (shards compare their orders' defining vectors, so collisions
    /// cost a probe, never a wrong plan). Production planners keep the
    /// default `u64::MAX`.
    pub fn with_fingerprint_mask(mut self, mask: u64) -> Self {
        self.fingerprint_mask = mask;
        self
    }

    /// The serving counters so far (materialised from the metrics registry;
    /// see [`Planner::metrics`] for the full set including phase timings).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.metrics.counter("service_requests_total"),
            cache_hits: self.metrics.counter("service_cache_hits_total"),
            cold_solves: self.metrics.counter("service_cold_solves_total"),
            sweep_solves: self.metrics.counter("service_sweep_solves_total"),
            suffix_replans: self.metrics.counter("service_suffix_replans_total"),
        }
    }

    /// The planner's full metrics registry: the [`ServiceStats`] counters
    /// plus batch/coalescing counters and per-phase wall-time histograms
    /// (`service_admission_us` / `service_solve_us` / `service_commit_us` /
    /// `service_batch_us`). Wall-time values are in the non-deterministic
    /// domain; the counters are deterministic for a deterministic request
    /// stream. Export with [`ckpt_telemetry::prometheus_text`] or
    /// [`MetricsRegistry::to_json`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Distinct execution orders currently cached.
    pub fn cached_orders(&self) -> usize {
        self.shards.values().map(Vec::len).sum()
    }

    /// Full plans currently cached, over all orders and rate buckets.
    pub fn cached_plans(&self) -> usize {
        self.shards.values().flatten().map(|shard| shard.plans.len()).sum()
    }

    /// Serves a batch of requests, returning one response per request in
    /// request order. Infallible: requests are validated at construction,
    /// and a grid rate the order cannot be planned at falls back to the
    /// request's own rate (see [`RateBucketing::Grid`]).
    pub fn serve_batch(&mut self, requests: &[PlanRequest]) -> Vec<PlanResponse> {
        self.serve_batch_with_sink(requests, &mut NoopSink)
    }

    /// [`serve_batch`](Planner::serve_batch) with a telemetry sink: one
    /// **wall-domain** `service_batch` event is emitted per batch, carrying
    /// the batch composition and per-phase timings. Responses are bitwise
    /// identical to the sink-less path for every sink and thread count —
    /// instrumentation is observation-only.
    pub fn serve_batch_with_sink(
        &mut self,
        requests: &[PlanRequest],
        sink: &mut dyn TelemetrySink,
    ) -> Vec<PlanResponse> {
        let batch_started = Instant::now();
        // Phase 1 — serial admission in request order.
        let mut work: Vec<WorkItem> = Vec::new();
        let mut seen: HashMap<(u64, usize, u64, usize), usize> = HashMap::new();
        let admitted: Vec<Admitted> = requests
            .iter()
            .map(|request| {
                let masked = request.instance().fingerprint() & self.fingerprint_mask;
                let colliders = self.shards.entry(masked).or_default();
                let (shard_index, is_new_order) = match colliders.iter().position(|candidate| {
                    Arc::ptr_eq(&candidate.sweep, request.instance().sweep())
                        || *candidate.sweep == **request.instance().sweep()
                }) {
                    Some(index) => (index, false),
                    None => {
                        colliders.push(OrderShard {
                            sweep: Arc::clone(request.instance().sweep()),
                            tables: HashMap::new(),
                            plans: HashMap::new(),
                        });
                        (colliders.len() - 1, true)
                    }
                };
                let shard = &colliders[shard_index];
                let (bucket, effective_lambda) = match self.bucketing.bucket(request.lambda()) {
                    // A grid rate at which this order's closed form is not a
                    // number is never served: the request is planned at its
                    // own rate, which construction checked against the same
                    // order, exactly as under `Exact`. Its key, the rate's
                    // bit pattern, exceeds 2⁴⁹ (`1/λ` is finite), far above
                    // any grid index.
                    (_, rate) if shard.sweep.check_rate(rate).is_err() => {
                        RateBucketing::Exact.bucket(request.lambda())
                    }
                    quantised => quantised,
                };
                let resume_from = request.resume_from();
                if resume_from == 0 {
                    if let Some(plan) = shard.plans.get(&bucket) {
                        return Admitted::Ready {
                            expected_makespan: plan.expected_makespan,
                            checkpoint_positions: Arc::clone(&plan.checkpoint_positions),
                            effective_lambda,
                        };
                    }
                }
                let index =
                    *seen.entry((masked, shard_index, bucket, resume_from)).or_insert_with(|| {
                        let table = match shard.tables.get(&bucket) {
                            Some(table) => TableSource::Cached(Arc::clone(table)),
                            None => TableSource::Stamp(Arc::clone(&shard.sweep)),
                        };
                        let source = if resume_from > 0 {
                            ResponseSource::SuffixReplan
                        } else if is_new_order {
                            ResponseSource::ColdSolve
                        } else {
                            ResponseSource::SweepSolve
                        };
                        work.push(WorkItem {
                            table,
                            effective_lambda,
                            resume_from,
                            masked,
                            shard: shard_index,
                            bucket,
                            source,
                        });
                        work.len() - 1
                    });
                Admitted::Computed { index }
            })
            .collect();
        let admission_us = batch_started.elapsed().as_secs_f64() * 1e6;

        // Phase 2 — deterministic parallel solve, one `ResumableDp` arena
        // per worker (allocation-free after its first items).
        let solve_started = Instant::now();
        let outcomes: Vec<SolveOutcome> =
            chunked_map_with(&work, self.threads, ResumableDp::new, |dp, _, item| {
                let table = match &item.table {
                    TableSource::Cached(table) => Arc::clone(table),
                    TableSource::Stamp(sweep) => Arc::new(
                        sweep
                            .table_for(item.effective_lambda)
                            .expect("admission checked the effective rate against this order"),
                    ),
                };
                let expected_makespan = if item.resume_from == 0 {
                    dp.solve(&table)
                } else {
                    dp.solve_suffix(&table, item.resume_from)
                };
                let checkpoint_positions = Arc::new(dp.suffix_positions(item.resume_from));
                let stamped =
                    matches!(item.table, TableSource::Stamp(_)).then(|| Arc::clone(&table));
                SolveOutcome { expected_makespan, checkpoint_positions, stamped }
            });

        let solve_us = solve_started.elapsed().as_secs_f64() * 1e6;

        // Phase 3 — serial commit (in work order) and assembly (in request
        // order).
        let commit_started = Instant::now();
        for (item, outcome) in work.iter().zip(&outcomes) {
            let shard =
                &mut self.shards.get_mut(&item.masked).expect("admitted shard exists")[item.shard];
            if let Some(table) = &outcome.stamped {
                shard.tables.entry(item.bucket).or_insert_with(|| Arc::clone(table));
            }
            if item.resume_from == 0 {
                shard.plans.entry(item.bucket).or_insert_with(|| CachedPlan {
                    expected_makespan: outcome.expected_makespan,
                    checkpoint_positions: Arc::clone(&outcome.checkpoint_positions),
                });
            }
        }

        let responses: Vec<PlanResponse> = requests
            .iter()
            .zip(admitted)
            .map(|(request, verdict)| match verdict {
                Admitted::Ready { expected_makespan, checkpoint_positions, effective_lambda } => {
                    PlanResponse {
                        id: request.id(),
                        lambda: request.lambda(),
                        effective_lambda,
                        resume_from: 0,
                        expected_makespan,
                        checkpoint_positions,
                        source: ResponseSource::CacheHit,
                    }
                }
                Admitted::Computed { index } => {
                    let (item, outcome) = (&work[index], &outcomes[index]);
                    PlanResponse {
                        id: request.id(),
                        lambda: request.lambda(),
                        effective_lambda: item.effective_lambda,
                        resume_from: item.resume_from,
                        expected_makespan: outcome.expected_makespan,
                        checkpoint_positions: Arc::clone(&outcome.checkpoint_positions),
                        source: item.source,
                    }
                }
            })
            .collect();

        let commit_us = commit_started.elapsed().as_secs_f64() * 1e6;

        let mut cache_hits = 0u64;
        let mut cold_solves = 0u64;
        let mut sweep_solves = 0u64;
        let mut suffix_replans = 0u64;
        for response in &responses {
            match response.source {
                ResponseSource::CacheHit => cache_hits += 1,
                ResponseSource::ColdSolve => cold_solves += 1,
                ResponseSource::SweepSolve => sweep_solves += 1,
                ResponseSource::SuffixReplan => suffix_replans += 1,
            }
        }
        // Requests that shared (coalesced onto) another request's solve.
        let computed = (responses.len() as u64) - cache_hits;
        let coalesced = computed - work.len() as u64;

        self.metrics.counter_add("service_requests_total", responses.len() as u64);
        self.metrics.counter_add("service_cache_hits_total", cache_hits);
        self.metrics.counter_add("service_cold_solves_total", cold_solves);
        self.metrics.counter_add("service_sweep_solves_total", sweep_solves);
        self.metrics.counter_add("service_suffix_replans_total", suffix_replans);
        self.metrics.counter_add("service_coalesced_total", coalesced);
        self.metrics.counter_add("service_work_items_total", work.len() as u64);
        self.metrics.counter_add("service_batches_total", 1);
        let batch_us = batch_started.elapsed().as_secs_f64() * 1e6;
        self.metrics.observe("service_admission_us", admission_us);
        self.metrics.observe("service_solve_us", solve_us);
        self.metrics.observe("service_commit_us", commit_us);
        self.metrics.observe("service_batch_us", batch_us);

        if sink.enabled() {
            sink.record(
                &TraceEvent::wall("service_batch", wall_seconds())
                    .with("requests", responses.len())
                    .with("work_items", work.len())
                    .with("cache_hits", cache_hits)
                    .with("coalesced", coalesced)
                    .with("admission_us", admission_us)
                    .with("solve_us", solve_us)
                    .with("commit_us", commit_us),
            );
        }
        responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PlanInstance;
    use ckpt_core::chain_dp::optimal_chain_schedule;
    use ckpt_core::ProblemInstance;
    use ckpt_dag::generators;

    fn chain_problem(lambda: f64) -> ProblemInstance {
        let graph = generators::chain(&[400.0, 100.0, 900.0, 250.0, 650.0, 300.0]).expect("chain");
        ProblemInstance::builder(graph)
            .uniform_checkpoint_cost(60.0)
            .uniform_recovery_cost(60.0)
            .downtime(30.0)
            .platform_lambda(lambda)
            .build()
            .expect("valid instance")
    }

    fn instance() -> PlanInstance {
        PlanInstance::from_chain_instance(&chain_problem(1e-4)).expect("chain")
    }

    #[test]
    fn serves_the_one_shot_optimum_bit_for_bit() {
        let mut planner = Planner::new(RateBucketing::Exact).with_threads(1);
        let request = PlanRequest::plan(1, instance(), 1e-4).expect("valid");
        let response = planner.serve_batch(&[request]).remove(0);
        let reference = optimal_chain_schedule(&chain_problem(1e-4)).expect("solvable");
        assert_eq!(*response.checkpoint_positions, reference.checkpoint_positions);
        assert_eq!(response.expected_makespan.to_bits(), reference.expected_makespan.to_bits());
        assert_eq!(response.source, ResponseSource::ColdSolve);
        assert_eq!(response.effective_lambda, 1e-4);
    }

    #[test]
    fn cache_hit_sweep_solve_and_replan_sources() {
        let mut planner = Planner::new(RateBucketing::Exact).with_threads(2);
        let inst = instance();
        let batch = [
            PlanRequest::plan(1, inst.clone(), 1e-4).expect("valid"),
            PlanRequest::plan(2, inst.clone(), 1e-4).expect("valid"), // coalesces onto 1
            PlanRequest::plan(3, inst.clone(), 1e-3).expect("valid"), // new bucket
            PlanRequest::replan(4, inst.clone(), 1e-4, 3).expect("valid"),
        ];
        let responses = planner.serve_batch(&batch);
        assert_eq!(responses[0].source, ResponseSource::ColdSolve);
        // Coalesced onto the same solve: same label, same shared payload.
        assert_eq!(responses[1].source, ResponseSource::ColdSolve);
        assert!(Arc::ptr_eq(
            &responses[0].checkpoint_positions,
            &responses[1].checkpoint_positions
        ));
        assert_eq!(responses[2].source, ResponseSource::SweepSolve);
        assert_eq!(responses[3].source, ResponseSource::SuffixReplan);
        assert_eq!(responses[3].resume_from, 3);

        // A later identical full plan is a pure cache hit…
        let warm = planner
            .serve_batch(&[PlanRequest::plan(5, inst.clone(), 1e-4).expect("valid")])
            .remove(0);
        assert_eq!(warm.source, ResponseSource::CacheHit);
        assert_eq!(warm.expected_makespan.to_bits(), responses[0].expected_makespan.to_bits());
        // …and re-plans always recompute.
        let replan_again =
            planner.serve_batch(&[PlanRequest::replan(6, inst, 1e-4, 3).expect("valid")]).remove(0);
        assert_eq!(replan_again.source, ResponseSource::SuffixReplan);
        assert_eq!(
            replan_again.expected_makespan.to_bits(),
            responses[3].expected_makespan.to_bits()
        );

        let stats = planner.stats();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cold_solves, 2);
        assert_eq!(stats.sweep_solves, 1);
        assert_eq!(stats.suffix_replans, 2);
        assert_eq!(planner.cached_orders(), 1);
        assert_eq!(planner.cached_plans(), 2);
    }

    #[test]
    fn replan_matches_full_plan_tail_and_suffix_value() {
        let mut planner = Planner::new(RateBucketing::Exact);
        let inst = instance();
        let full = planner
            .serve_batch(&[PlanRequest::plan(1, inst.clone(), 1e-4).expect("valid")])
            .remove(0);
        for from in 1..inst.len() {
            let replan = planner
                .serve_batch(&[PlanRequest::replan(2, inst.clone(), 1e-4, from).expect("valid")])
                .remove(0);
            // Optimal substructure: once the full plan passes `from` at a
            // checkpoint boundary, the suffix plans coincide.
            if full.checkpoint_positions.contains(&(from - 1)) {
                let tail: Vec<usize> =
                    full.checkpoint_positions.iter().copied().filter(|&j| j >= from).collect();
                assert_eq!(*replan.checkpoint_positions, tail, "suffix from {from}");
            }
            assert!(replan.expected_makespan <= full.expected_makespan);
        }
    }

    #[test]
    fn grid_bucketing_reports_the_effective_rate() {
        let bucketing = RateBucketing::grid(vec![1e-5, 1e-4, 1e-3]).expect("valid grid");
        let mut planner = Planner::new(bucketing).with_threads(1);
        let inst = instance();
        let responses = planner.serve_batch(&[
            PlanRequest::plan(1, inst.clone(), 9e-5).expect("valid"),
            PlanRequest::plan(2, inst.clone(), 1.2e-4).expect("valid"),
        ]);
        // Both quantise to the 1e-4 bucket: one solve, one coalesced.
        assert_eq!(responses[0].effective_lambda, 1e-4);
        assert_eq!(responses[1].effective_lambda, 1e-4);
        assert_eq!(responses[0].lambda, 9e-5);
        assert_eq!(
            responses[0].expected_makespan.to_bits(),
            responses[1].expected_makespan.to_bits()
        );
        // The served plan is the exact optimum for the effective rate.
        let reference = optimal_chain_schedule(&chain_problem(1e-4)).expect("solvable");
        assert_eq!(*responses[0].checkpoint_positions, reference.checkpoint_positions);
        assert_eq!(responses[0].expected_makespan.to_bits(), reference.expected_makespan.to_bits());
        assert_eq!(planner.cached_plans(), 1);
    }

    #[test]
    fn grid_rates_an_order_cannot_take_fall_back_to_the_request_rate() {
        // The weight 1.0 vanishes into the prefix sum 1e300 and the recovery
        // 1e300 overflows the coefficient at every grid rate: only tiny rates
        // can plan this order, so its requests skip the grid.
        let absorbed =
            PlanInstance::new(30.0, &[1e300, 1.0], &[0.0; 2], &[0.0, 1e300]).expect("valid order");
        let bucketing = RateBucketing::grid(vec![1e-5, 1e-4, 1e-3]).expect("valid grid");
        let mut planner = Planner::new(bucketing).with_threads(1);
        let requests = [
            PlanRequest::plan(1, absorbed.clone(), 1e-300).expect("valid"),
            PlanRequest::plan(2, absorbed.clone(), 1e-300).expect("valid"),
            PlanRequest::replan(3, absorbed, 1e-300, 1).expect("valid"),
            PlanRequest::plan(4, instance(), 1e-300).expect("valid"),
        ];
        let responses = planner.serve_batch(&requests);
        for response in &responses[..3] {
            assert_eq!(response.effective_lambda, 1e-300);
            assert!(!response.expected_makespan.is_nan());
        }
        // An ordinary order at the same rate still clamps onto the grid.
        assert_eq!(responses[3].effective_lambda, 1e-5);
        // The fallback serves what exact bucketing serves, bit for bit.
        let reference = Planner::new(RateBucketing::Exact).serve_batch(&requests[..3]);
        for (served, exact) in responses.iter().zip(&reference) {
            assert_eq!(served.expected_makespan.to_bits(), exact.expected_makespan.to_bits());
            assert_eq!(served.checkpoint_positions, exact.checkpoint_positions);
        }
        // The fallback bucket is cached like any other.
        assert_eq!(planner.serve_batch(&requests[..1])[0].source, ResponseSource::CacheHit);
    }

    #[test]
    fn forced_fingerprint_collisions_never_cross_plans() {
        // Mask every fingerprint to one bucket: all orders collide, and the
        // shard scan must still tell them apart by their defining vectors.
        let mut planner = Planner::new(RateBucketing::Exact).with_fingerprint_mask(0);
        let chains: Vec<PlanInstance> = (0..5)
            .map(|k| {
                PlanInstance::new(
                    30.0,
                    &[400.0 + f64::from(k), 100.0, 900.0],
                    &[60.0; 3],
                    &[15.0; 3],
                )
                .expect("valid order")
            })
            .collect();
        let batch: Vec<PlanRequest> = chains
            .iter()
            .enumerate()
            .map(|(id, inst)| PlanRequest::plan(id as u64, inst.clone(), 1e-4).expect("valid"))
            .collect();
        let cold = planner.serve_batch(&batch);
        let warm = planner.serve_batch(&batch);
        assert_eq!(planner.cached_orders(), 5);
        for (before, after) in cold.iter().zip(&warm) {
            assert_eq!(after.source, ResponseSource::CacheHit);
            assert_eq!(after.checkpoint_positions, before.checkpoint_positions);
            assert_eq!(after.expected_makespan.to_bits(), before.expected_makespan.to_bits());
        }
        // Distinct chains got distinct optima (the values differ).
        assert!(cold[0].expected_makespan != cold[4].expected_makespan);
    }
}
