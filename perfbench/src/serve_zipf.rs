//! `serve-zipf`: the planning service (L3) under a Zipf-popular fleet of
//! chain shapes, served by one `Planner` on all workers from one
//! closed-loop client in batches of 256.
//!
//! Set-up serves the whole stream once, which fills the cache (cold and
//! sweep solves land in `setup_s`); timed calls replay it, so they are
//! cache hits plus the re-plans, which are always computed. The fleet is
//! large enough that the cache outgrows the CPU caches.

use std::time::Instant;

use ckpt_core::chain_dp::{optimal_chain_schedule, ResumableDp};
use ckpt_core::evaluate::segment_cost_table;
use ckpt_core::parallel::chunked_map_with;
use ckpt_core::ProblemInstance;
use ckpt_dag::{generators, properties};
use ckpt_service::{PlanInstance, PlanRequest, PlanResponse, Planner, RateBucketing};
use ckpt_telemetry::{FieldValue, TelemetrySink, TraceEvent};

use crate::measure::{quantile, ratio, Digest};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{LayerContext, Metric, Outcome, Size, Workload};

const ZIPF_EXPONENT: f64 = 1.1;
const REPLAN_FRACTION: f64 = 0.2;
const RATE_CENTRES: [f64; 3] = [3e-5, 1e-4, 3e-4];
const BATCH: usize = 256;

/// One fleet shape: per-position work, checkpoint and recovery costs.
struct Shape {
    weights: Vec<f64>,
    checkpoints: Vec<f64>,
    recoveries: Vec<f64>,
}

impl Shape {
    fn at(&self, lambda: f64) -> ProblemInstance {
        let graph = generators::chain(&self.weights).expect("non-empty chain");
        ProblemInstance::builder(graph)
            .checkpoint_costs(self.checkpoints.clone())
            .recovery_costs(self.recoveries.clone())
            .downtime(30.0)
            .initial_recovery(20.0)
            .platform_lambda(lambda)
            .build()
            .expect("valid generated chain")
    }
}

/// Collects the per-batch phase timings the planner reports through its
/// telemetry sink (the values it also records into its `service_*_us`
/// histograms), unbucketed.
#[derive(Default)]
struct PhaseSink {
    admission_us: Vec<f64>,
    solve_us: Vec<f64>,
    commit_us: Vec<f64>,
}

impl TelemetrySink for PhaseSink {
    fn record(&mut self, event: &TraceEvent) {
        for (key, value) in event.fields() {
            let FieldValue::F64(v) = value else { continue };
            match key.as_ref() {
                "admission_us" => self.admission_us.push(*v),
                "solve_us" => self.solve_us.push(*v),
                "commit_us" => self.commit_us.push(*v),
                _ => {}
            }
        }
    }
}

pub struct ServeZipf {
    planner: Planner,
    shapes: Vec<Shape>,
    batches: Vec<Vec<PlanRequest>>,
    /// Shape index of every request, in stream order.
    request_shape: Vec<usize>,
    digests: Vec<u64>,
    /// A fixed sample of set-up responses, with their stream index.
    sample: Vec<(usize, PlanResponse)>,
    /// Service counters after the set-up pass.
    setup_stats: ckpt_service::ServiceStats,
    cached_plans: usize,
    /// Traced-pass accumulators.
    phases: PhaseSink,
    traced_from: Option<(ckpt_service::ServiceStats, u64)>,
}

fn batch_digest(responses: &[PlanResponse]) -> Result<u64, String> {
    let mut d = Digest::new();
    for r in responses {
        d.word(r.id).value(r.effective_lambda)?.index(r.resume_from);
        d.value(r.expected_makespan)?.indices(&r.checkpoint_positions);
    }
    Ok(d.finish())
}

/// Ranks `0..items` drawn with probability ∝ `1 / (rank + 1)^exponent`.
fn zipf_ranks(rng: &mut Rng, items: usize, count: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(items);
    let mut total = 0.0;
    for k in 0..items {
        total += 1.0 / ((k + 1) as f64).powf(ZIPF_EXPONENT);
        cdf.push(total);
    }
    (0..count)
        .map(|_| {
            let u = rng.unit() * total;
            cdf.partition_point(|&c| c <= u).min(items - 1)
        })
        .collect()
}

impl ServeZipf {
    pub fn setup(seed: u64, size: Size, workers: usize) -> Result<Self, String> {
        let (shape_count, batch_count) = match size {
            Size::Full => (1_000, 117),
            Size::Tiny => (40, 4),
        };
        // Sizes depend on the rank only (hot shapes are mid-sized, the tail
        // spans 24–288 tasks), so the traffic's cost barely moves with the
        // seed; the seed draws the costs and the stream.
        let shapes: Vec<Shape> = (0..shape_count)
            .map(|rank| {
                let n = if rank < 4 { 192 + 32 * rank } else { 24 + (rank * 13) % 265 };
                let mut rng = Rng::new(seed, 0x5E00_0000 + rank as u64);
                Shape {
                    weights: rng.vec(n, 100.0, 4_000.0),
                    checkpoints: rng.vec(n, 10.0, 300.0),
                    recoveries: rng.vec(n, 10.0, 600.0),
                }
            })
            .collect();
        let instances: Vec<PlanInstance> = chunked_map_with(
            &shapes,
            workers,
            || (),
            |_, _, shape| PlanInstance::from_chain_instance(&shape.at(1e-4)),
        )
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

        let requests = batch_count * BATCH;
        let mut rng = Rng::new(seed, 0x5E57);
        let ranks = zipf_ranks(&mut rng, shape_count, requests);
        let mut stream = Vec::with_capacity(requests);
        for (id, &rank) in ranks.iter().enumerate() {
            let instance = instances[rank].clone();
            let rate = RATE_CENTRES[rng.below(3) as usize] * rng.range(0.95, 1.05);
            let n = shapes[rank].weights.len();
            let request = if rng.unit() < REPLAN_FRACTION {
                let from = 1 + rng.below(n as u64 - 1) as usize;
                PlanRequest::replan(id as u64, instance, rate, from)
            } else {
                PlanRequest::plan(id as u64, instance, rate)
            };
            stream.push(request.map_err(|e| e.to_string())?);
        }
        let batches: Vec<Vec<PlanRequest>> = stream.chunks(BATCH).map(<[_]>::to_vec).collect();

        let bucketing = RateBucketing::log_grid(1e-6, 1e-3, 13).map_err(|e| e.to_string())?;
        let mut planner = Planner::new(bucketing).with_threads(workers);
        let sample_every = (requests / 256).max(1);
        let mut digests = Vec::with_capacity(batches.len());
        let mut sample = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            let responses = planner.serve_batch(batch);
            digests.push(batch_digest(&responses)?);
            for (i, response) in responses.into_iter().enumerate() {
                let index = b * BATCH + i;
                if index.is_multiple_of(sample_every) {
                    sample.push((index, response));
                }
            }
        }
        Ok(ServeZipf {
            setup_stats: planner.stats(),
            cached_plans: planner.cached_plans(),
            planner,
            shapes,
            batches,
            request_shape: ranks,
            digests,
            sample,
            phases: PhaseSink::default(),
            traced_from: None,
        })
    }

    /// e14's wall: a served plan equals a cold one-shot solve at its
    /// effective rate (a full solve, or a fresh table plus a suffix solve
    /// for a re-plan), bitwise.
    fn matches_cold(&self, index: usize, response: &PlanResponse) -> Result<(), String> {
        let instance = self.shapes[self.request_shape[index]].at(response.effective_lambda);
        let (value, positions) = if response.resume_from == 0 {
            let solution = optimal_chain_schedule(&instance).map_err(|e| e.to_string())?;
            (solution.expected_makespan, solution.checkpoint_positions)
        } else {
            let order = properties::as_chain(instance.graph()).ok_or("not a chain")?;
            let table = segment_cost_table(&instance, &order).map_err(|e| e.to_string())?;
            let mut dp = ResumableDp::new();
            let value = dp.solve_suffix(&table, response.resume_from);
            (value, dp.suffix_positions(response.resume_from))
        };
        if value.to_bits() != response.expected_makespan.to_bits()
            || positions != *response.checkpoint_positions
        {
            return Err(format!("request {index}: served plan differs from a cold solve"));
        }
        Ok(())
    }

    fn coalesced(&self) -> u64 {
        self.planner.metrics().counter("service_coalesced_total")
    }
}

impl Workload for ServeZipf {
    fn cycle_len(&self) -> usize {
        self.batches.len()
    }

    fn nominal_calls_per_s(&self) -> f64 {
        1_450.0
    }

    fn unit_name(&self) -> &'static str {
        "requests"
    }

    fn call(&mut self, k: usize, trace: Option<(&Tracer, u64)>) -> Result<Outcome, String> {
        let batch = &self.batches[k % self.batches.len()];
        let started = Instant::now();
        let responses = match trace {
            None => self.planner.serve_batch(batch),
            Some((tracer, call)) => {
                let _span = tracer.span("service.serve_batch", 0, call);
                self.planner.serve_batch_with_sink(batch, &mut self.phases)
            }
        };
        let latency = started.elapsed();
        Ok(Outcome { units: responses.len() as u64, digest: batch_digest(&responses)?, latency })
    }

    fn reference(&self, slot: usize) -> u64 {
        self.digests[slot]
    }

    fn oracles(&self) -> Vec<(usize, String)> {
        self.sample
            .iter()
            .filter_map(|(index, response)| {
                self.matches_cold(*index, response).err().map(|e| (index / BATCH, e))
            })
            .collect()
    }

    fn begin_traced_pass(&mut self) {
        self.phases = PhaseSink::default();
        self.traced_from = Some((self.planner.stats(), self.coalesced()));
    }

    fn layer_metrics(&self, ctx: &LayerContext) -> Vec<Metric> {
        let (before, coalesced_before) = self.traced_from.unwrap_or_default();
        let now = self.planner.stats();
        let requests = (now.requests - before.requests) as f64;
        let hits = (now.cache_hits - before.cache_hits) as f64;
        let solver = &ctx.counters.solver;
        let solve_ns: f64 = self.phases.solve_us.iter().sum::<f64>() * 1e3;
        vec![
            Metric::new("service.hit_ratio", ratio(hits, requests), "ratio"),
            Metric::new("service.cold_solves", self.setup_stats.cold_solves as f64, "count"),
            Metric::new("service.sweep_solves", self.setup_stats.sweep_solves as f64, "count"),
            Metric::new(
                "service.suffix_replans",
                (now.suffix_replans - before.suffix_replans) as f64,
                "count",
            ),
            Metric::new("service.coalesced", (self.coalesced() - coalesced_before) as f64, "count"),
            Metric::new("service.cached_plans", self.cached_plans as f64, "count"),
            Metric::new("service.admission_us_p50", quantile(&self.phases.admission_us, 0.5), "us"),
            Metric::new("service.solve_us_p50", quantile(&self.phases.solve_us, 0.5), "us"),
            Metric::new("service.commit_us_p50", quantile(&self.phases.commit_us, 0.5), "us"),
            Metric::new("core.dp_candidates", solver.dp_candidates as f64, "count"),
            Metric::new("core.dp_prune_breaks", solver.dp_prune_breaks as f64, "count"),
            Metric::new("core.suffix_solves", solver.suffix_solves as f64, "count"),
            Metric::new(
                "core.ns_per_dp_candidate",
                ratio(solve_ns, solver.dp_candidates as f64),
                "ns",
            ),
        ]
    }
}
