//! `plan-large`: λ sweeps over four 10⁵-task heterogeneous chains — the
//! Algorithm 1 blocked kernel (L1) and the segment-cost tables (L0).
//!
//! A call is one `analysis::lambda_sweep_with_threads` over two rate points
//! of one chain, on all workers. Rates stay within λ·W ∈ [3, 300], clear
//! of the saturated fallback (λ·W ≳ 650) that would time the quadratic DP
//! instead of the blocked kernel.

use std::time::Instant;

use ckpt_core::analysis::{lambda_sweep_with_threads, LambdaSweepPoint};
use ckpt_core::chain_dp::{
    optimal_chain_schedule_divide_conquer, scalable_placement_on_table_with_scratch, ChainDpScratch,
};
use ckpt_core::evaluate::lambda_sweep_for_order;
use ckpt_core::parallel::chunked_map_with;
use ckpt_core::{ProblemInstance, ScheduleError};
use ckpt_dag::{generators, properties};
use ckpt_expectation::sweep::log_lambda_grid;

use crate::measure::{ratio, Digest};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{LayerContext, Metric, Outcome, Size, Workload};

/// Log10 of the lowest λ·W of a call's first point; the second point sits
/// `SPAN_DECADES` higher, so every point lies in λ·W ∈ [3, 300].
const LOW_DECADE: f64 = 0.477_121_254_719_662_4; // log10(3)
const SPAN_DECADES: f64 = 0.5;
const FIRST_POINT_DECADES: f64 = 1.5;

struct CallSpec {
    chain: usize,
    lambda_min: f64,
    lambda_max: f64,
}

pub struct PlanLarge {
    chains: Vec<ProblemInstance>,
    specs: Vec<CallSpec>,
    references: Vec<Vec<LambdaSweepPoint>>,
    digests: Vec<u64>,
    workers: usize,
    instance_build_s: f64,
}

fn digest(points: &[LambdaSweepPoint]) -> Result<u64, String> {
    let mut d = Digest::new();
    for p in points {
        d.value(p.lambda)?.index(p.checkpoints).value(p.expected_makespan)?.value(p.slowdown)?;
    }
    Ok(d.finish())
}

fn build_chain(weights: &[f64], checkpoints: &[f64], recoveries: &[f64]) -> ProblemInstance {
    let graph = generators::chain(weights).expect("non-empty chain");
    ProblemInstance::builder(graph)
        .checkpoint_costs(checkpoints.to_vec())
        .recovery_costs(recoveries.to_vec())
        .downtime(30.0)
        .initial_recovery(20.0)
        .platform_lambda(1e-6)
        .build()
        .expect("valid generated chain")
}

impl PlanLarge {
    pub fn setup(seed: u64, size: Size, workers: usize) -> Result<Self, String> {
        let (chain_count, tasks, specs_per_chain) = match size {
            Size::Full => (4, 100_000, 4),
            Size::Tiny => (2, 2_000, 2),
        };
        let inputs: Vec<[Vec<f64>; 3]> = (0..chain_count)
            .map(|c| {
                let mut rng = Rng::new(seed, 0x1A00 + c as u64);
                [
                    rng.vec(tasks, 100.0, 2_000.0),
                    rng.vec(tasks, 10.0, 300.0),
                    rng.vec(tasks, 10.0, 600.0),
                ]
            })
            .collect();
        // `TaskGraph::add_dependency` is linear in the graph size, so a
        // chain builds in O(n²): the dominant set-up cost, kept on every
        // worker rather than routed around.
        let started = Instant::now();
        let chains =
            chunked_map_with(&inputs, workers, || (), |_, _, [w, c, r]| build_chain(w, c, r));
        let instance_build_s = started.elapsed().as_secs_f64();

        // Stratified rate bands: the spec `k` of a chain draws its first
        // point from the k-th slice of the band, so every seed covers the
        // band evenly and the cycle's cost barely depends on the seed.
        let mut rng = Rng::new(seed, 0x1A57);
        let mut specs = Vec::new();
        for k in 0..specs_per_chain {
            for (chain, instance) in chains.iter().enumerate() {
                let slice = (k as f64 + rng.unit()) / specs_per_chain as f64;
                let low = 10f64.powf(LOW_DECADE + FIRST_POINT_DECADES * slice);
                let total = instance.total_weight();
                specs.push(CallSpec {
                    chain,
                    lambda_min: low / total,
                    lambda_max: low * 10f64.powf(SPAN_DECADES) / total,
                });
            }
        }

        let mut workload = PlanLarge {
            chains,
            specs,
            references: Vec::new(),
            digests: Vec::new(),
            workers,
            instance_build_s,
        };
        for slot in 0..workload.specs.len() {
            let points = workload.sweep(slot).map_err(|e| e.to_string())?;
            workload.digests.push(digest(&points)?);
            workload.references.push(points);
        }
        Ok(workload)
    }

    fn sweep(&self, slot: usize) -> Result<Vec<LambdaSweepPoint>, ScheduleError> {
        let spec = &self.specs[slot];
        lambda_sweep_with_threads(
            &self.chains[spec.chain],
            spec.lambda_min,
            spec.lambda_max,
            2,
            self.workers,
        )
    }

    /// The sweep split into its public parts, one span each; must be
    /// bitwise equal to [`PlanLarge::sweep`] (checked through the digest).
    fn traced_sweep(
        &self,
        slot: usize,
        tracer: &Tracer,
        call: u64,
    ) -> Result<Vec<LambdaSweepPoint>, String> {
        let spec = &self.specs[slot];
        let instance = &self.chains[spec.chain];
        let root = tracer.span("bench.sweep_call", 0, call);
        let order = {
            let _s = tracer.span("dag.as_chain", root.id(), call);
            properties::as_chain(instance.graph()).ok_or("not a chain")?
        };
        let sweep = {
            let _s = tracer.span("expectation.sweep_build", root.id(), call);
            lambda_sweep_for_order(instance, &order).map_err(|e| e.to_string())?
        };
        let grid =
            log_lambda_grid(spec.lambda_min, spec.lambda_max, 2).map_err(|e| e.to_string())?;
        let total_work = instance.total_weight();
        let parent = root.id();
        chunked_map_with(&grid, self.workers, ChainDpScratch::new, |scratch, _, &lambda| {
            let table = {
                let _s = tracer.span("expectation.table_for", parent, call);
                sweep.table_for(lambda).map_err(|e| e.to_string())?
            };
            let placement = {
                let _s = tracer.span("core.blocked_placement", parent, call);
                scalable_placement_on_table_with_scratch(&table, scratch)
            };
            Ok(LambdaSweepPoint {
                lambda,
                checkpoints: placement.checkpoint_count(),
                expected_makespan: placement.expected_makespan,
                slowdown: placement.expected_makespan / total_work,
            })
        })
        .into_iter()
        .collect()
    }
}

impl Workload for PlanLarge {
    fn cycle_len(&self) -> usize {
        self.specs.len()
    }

    fn nominal_calls_per_s(&self) -> f64 {
        11.8
    }

    fn unit_name(&self) -> &'static str {
        "chain x rate points"
    }

    fn call(&mut self, k: usize, trace: Option<(&Tracer, u64)>) -> Result<Outcome, String> {
        let slot = k % self.specs.len();
        let started = Instant::now();
        let points = match trace {
            None => self.sweep(slot).map_err(|e| e.to_string())?,
            Some((tracer, call)) => self.traced_sweep(slot, tracer, call)?,
        };
        let latency = started.elapsed();
        Ok(Outcome { units: points.len() as u64, digest: digest(&points)?, latency })
    }

    fn reference(&self, slot: usize) -> u64 {
        self.digests[slot]
    }

    /// One point per chain is re-solved from scratch by the global Li Chao
    /// solver and must agree to 10⁻¹⁰ relative.
    fn oracles(&self) -> Vec<(usize, String)> {
        let mut bad = Vec::new();
        for chain in 0..self.chains.len() {
            let Some(slot) = self.specs.iter().position(|s| s.chain == chain) else { continue };
            let point = &self.references[slot][0];
            let checked = self.chains[chain]
                .with_lambda(point.lambda)
                .and_then(|instance| optimal_chain_schedule_divide_conquer(&instance));
            match checked {
                Ok(solution) => {
                    let gap = (solution.expected_makespan - point.expected_makespan).abs()
                        / point.expected_makespan;
                    if gap.is_nan() || gap > 1e-10 {
                        bad.push((
                            slot,
                            format!("chain {chain}: sweep vs divide-conquer gap {gap:e}"),
                        ));
                    }
                }
                Err(e) => bad.push((slot, format!("chain {chain}: {e}"))),
            }
        }
        bad
    }

    fn layer_metrics(&self, ctx: &LayerContext) -> Vec<Metric> {
        let blocked = ctx.layer("core.blocked_placement");
        let visits = ctx.counters.solver.li_chao_node_visits;
        vec![
            Metric::new("dag.instance_build_s", self.instance_build_s, "s"),
            Metric::new(
                "expectation.sweep_build_us",
                ctx.layer("expectation.sweep_build").mean_us(),
                "us",
            ),
            Metric::new("expectation.table_us", ctx.layer("expectation.table_for").mean_us(), "us"),
            Metric::new("core.blocked_us", blocked.mean_us(), "us"),
            Metric::new("core.li_chao_node_visits", visits as f64, "count"),
            Metric::new(
                "core.ns_per_li_chao_visit",
                ratio(blocked.total_ns as f64, visits as f64),
                "ns",
            ),
        ]
    }
}
