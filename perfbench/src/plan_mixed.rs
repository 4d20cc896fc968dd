//! `plan-mixed`: three equally frequent, cache-resident planning calls that
//! bypass the blocked kernel — the order search over layered DAGs
//! (`ckpt-dag` moves and live-set sweeps, `ResumableDp::try_prefix`), the
//! two-level storage DP, and the pruned flat Algorithm 1.
//!
//! A call solves two problems of one class on all workers through
//! `parallel::chunked_map_with`. The classes are sized to cost about the
//! same, so the latency percentiles fall inside a class rather than on the
//! boundary between two.

use std::time::Instant;

use ckpt_core::chain_dp::{optimal_chain_schedule, optimal_levelled_schedule};
use ckpt_core::cost_model::CheckpointCostModel;
use ckpt_core::dag_schedule::schedule_dag_best_of;
use ckpt_core::order_search::{schedule_dag_search, OrderSearchConfig};
use ckpt_core::parallel::chunked_map_with;
use ckpt_core::ProblemInstance;
use ckpt_dag::generators;
use ckpt_expectation::storage::{StorageLevel, StorageLevels};

use crate::measure::{ratio, Digest};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{LayerContext, Metric, Outcome, Size, Workload};

const CLASSES: usize = 3;
const SEARCH: usize = 0;
const LEVELLED: usize = 1;
const FLAT: usize = 2;
const SPAN_NAMES: [&str; CLASSES] =
    ["core.schedule_dag_search", "core.levelled_schedule", "core.chain_schedule"];
const MODEL: CheckpointCostModel = CheckpointCostModel::LiveSetSum;

/// One solved problem, reduced to what the digest and the metrics need.
struct Solved {
    digest: u64,
    proposed: u64,
    accepted: u64,
}

pub struct PlanMixed {
    /// `problems[class]`: the class's instances, used in consecutive pairs.
    problems: [Vec<ProblemInstance>; CLASSES],
    levels: StorageLevels,
    search: OrderSearchConfig,
    workers: usize,
    digests: Vec<u64>,
    /// Traced-pass accumulators: the flat class's DP candidates (the
    /// solver counters are process-wide, so they are read around each
    /// call) and the search's moves.
    flat_candidates: u64,
    proposed: u64,
    accepted: u64,
}

fn chain(rng: &mut Rng, n: usize, lambda: f64) -> ProblemInstance {
    let weights = rng.vec(n, 100.0, 2_000.0);
    let graph = generators::chain(&weights).expect("non-empty chain");
    ProblemInstance::builder(graph)
        .checkpoint_costs(rng.vec(n, 10.0, 300.0))
        .recovery_costs(rng.vec(n, 10.0, 600.0))
        .downtime(30.0)
        .initial_recovery(20.0)
        .platform_lambda(lambda)
        .build()
        .expect("valid generated chain")
}

fn layered_dag(rng: &mut Rng, layers: &[usize], lambda: f64) -> ProblemInstance {
    let mut weights = Rng::new(rng.next_u64(), 1);
    let mut coins = Rng::new(rng.next_u64(), 2);
    let graph = generators::layered_random(
        layers,
        |_, _| weights.range(200.0, 1_400.0),
        0.3,
        || coins.unit(),
    )
    .expect("non-empty layers");
    let n = graph.task_count();
    ProblemInstance::builder(graph)
        .checkpoint_costs(rng.vec(n, 5.0, 60.0))
        .recovery_costs(rng.vec(n, 5.0, 120.0))
        .platform_lambda(lambda)
        .build()
        .expect("valid generated DAG")
}

fn two_level(slots: usize) -> StorageLevels {
    StorageLevels::two_level(
        StorageLevel::new(0.25, 0.2).expect("positive factors").with_slots(slots),
        StorageLevel::new(1.0, 1.0).expect("positive factors"),
    )
    .expect("one bounded level")
}

impl PlanMixed {
    pub fn setup(seed: u64, size: Size, workers: usize) -> Result<Self, String> {
        let (pool, layers, levelled_n, flat_n, restarts, steps) = match size {
            Size::Full => (8, vec![8; 9], 445, 2_650, 4, 320),
            Size::Tiny => (4, vec![3, 4, 3], 60, 200, 2, 32),
        };
        let mut rng = Rng::new(seed, 0x313D);
        let problems = [
            (0..pool).map(|_| layered_dag(&mut rng, &layers, 1e-4)).collect(),
            (0..pool).map(|_| chain(&mut rng, levelled_n, 1e-5)).collect(),
            (0..pool).map(|_| chain(&mut rng, flat_n, 1e-6)).collect(),
        ];
        let search = OrderSearchConfig {
            restarts,
            steps,
            threads: 1,
            seed: rng.next_u64(),
            ..OrderSearchConfig::default()
        };
        let mut workload = PlanMixed {
            problems,
            levels: two_level(8),
            search,
            workers,
            digests: Vec::new(),
            flat_candidates: 0,
            proposed: 0,
            accepted: 0,
        };
        for slot in 0..workload.cycle_len() {
            let solved = workload.solve_pair(slot, None)?;
            workload.digests.push(pair_digest(&solved));
        }
        Ok(workload)
    }

    fn slot_of(&self, k: usize) -> (usize, usize) {
        let slot = k % self.cycle_len();
        (slot % CLASSES, slot / CLASSES)
    }

    fn solve(&self, class: usize, instance: &ProblemInstance) -> Result<Solved, String> {
        let mut d = Digest::new();
        let (mut proposed, mut accepted) = (0, 0);
        match class {
            SEARCH => {
                let found = schedule_dag_search(instance, MODEL, &self.search)
                    .map_err(|e| e.to_string())?;
                let schedule = &found.solution.schedule;
                d.value(found.expected_makespan_under_model())?
                    .value(found.solution.expected_makespan)?;
                d.indices(&schedule.order().iter().map(|t| t.0).collect::<Vec<_>>());
                d.indices(
                    &schedule.checkpoint_after().iter().map(|&b| b as usize).collect::<Vec<_>>(),
                );
                proposed = found.proposed_moves as u64;
                accepted = found.accepted_moves as u64;
            }
            LEVELLED => {
                let solution =
                    optimal_levelled_schedule(instance, &self.levels).map_err(|e| e.to_string())?;
                d.value(solution.expected_makespan)?;
                for &(position, level) in &solution.checkpoints {
                    d.index(position).index(level);
                }
            }
            _ => {
                let solution = optimal_chain_schedule(instance).map_err(|e| e.to_string())?;
                d.value(solution.expected_makespan)?.indices(&solution.checkpoint_positions);
            }
        }
        Ok(Solved { digest: d.finish(), proposed, accepted })
    }

    fn solve_pair(
        &self,
        k: usize,
        trace: Option<(&Tracer, u64, u64)>,
    ) -> Result<Vec<Solved>, String> {
        let (class, pair) = self.slot_of(k);
        let pool = &self.problems[class];
        let indices = [(2 * pair) % pool.len(), (2 * pair + 1) % pool.len()];
        chunked_map_with(
            &indices,
            self.workers,
            || (),
            |_, _, &i| {
                let _span = trace
                    .map(|(tracer, parent, call)| tracer.span(SPAN_NAMES[class], parent, call));
                self.solve(class, &pool[i])
            },
        )
        .into_iter()
        .collect()
    }
}

fn pair_digest(solved: &[Solved]) -> u64 {
    let mut d = Digest::new();
    for s in solved {
        d.word(s.digest);
    }
    d.finish()
}

impl Workload for PlanMixed {
    fn cycle_len(&self) -> usize {
        CLASSES * self.problems[0].len() / 2
    }

    fn nominal_calls_per_s(&self) -> f64 {
        41.0
    }

    fn unit_name(&self) -> &'static str {
        "problems"
    }

    fn call(&mut self, k: usize, trace: Option<(&Tracer, u64)>) -> Result<Outcome, String> {
        let before = trace.map(|_| ckpt_core::solver_stats::snapshot().dp_candidates);
        let started = Instant::now();
        let solved = match trace {
            None => self.solve_pair(k, None)?,
            Some((tracer, call)) => {
                let root = tracer.span("bench.mixed_call", 0, call);
                self.solve_pair(k, Some((tracer, root.id(), call)))?
            }
        };
        let latency = started.elapsed();
        if let Some(before) = before {
            if self.slot_of(k).0 == FLAT {
                self.flat_candidates += ckpt_core::solver_stats::snapshot().dp_candidates - before;
            }
            self.proposed += solved.iter().map(|s| s.proposed).sum::<u64>();
            self.accepted += solved.iter().map(|s| s.accepted).sum::<u64>();
        }
        Ok(Outcome { units: solved.len() as u64, digest: pair_digest(&solved), latency })
    }

    fn reference(&self, slot: usize) -> u64 {
        self.digests[slot]
    }

    /// The search never loses to the best-of baseline it starts from, and
    /// the levelled DP on a single unbounded level is Algorithm 1 exactly.
    fn oracles(&self) -> Vec<(usize, String)> {
        let mut bad = Vec::new();
        for (i, instance) in self.problems[SEARCH].iter().enumerate() {
            let slot = CLASSES * (i / 2) + SEARCH;
            let search = schedule_dag_search(instance, MODEL, &self.search);
            let baseline = schedule_dag_best_of(instance, MODEL, self.search.restarts);
            match (search, baseline) {
                (Ok(found), Ok(base)) => {
                    let (v, b) =
                        (found.expected_makespan_under_model(), base.expected_makespan_under_model);
                    if v.partial_cmp(&b).is_none_or(|order| order.is_gt()) {
                        bad.push((slot, format!("DAG {i}: search {v} worse than best-of {b}")));
                    }
                }
                (Err(e), _) | (_, Err(e)) => bad.push((slot, format!("DAG {i}: {e}"))),
            }
        }
        for (i, instance) in self.problems[LEVELLED].iter().enumerate() {
            let slot = CLASSES * (i / 2) + LEVELLED;
            let single = optimal_levelled_schedule(instance, &StorageLevels::single());
            match (single, optimal_chain_schedule(instance)) {
                (Ok(levelled), Ok(flat)) => {
                    let positions: Vec<usize> = levelled.checkpoints.iter().map(|c| c.0).collect();
                    if levelled.expected_makespan.to_bits() != flat.expected_makespan.to_bits()
                        || positions != flat.checkpoint_positions
                    {
                        bad.push((
                            slot,
                            format!("chain {i}: single-level DP differs from Algorithm 1"),
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => bad.push((slot, format!("chain {i}: {e}"))),
            }
        }
        bad
    }

    fn begin_traced_pass(&mut self) {
        self.flat_candidates = 0;
        self.proposed = 0;
        self.accepted = 0;
    }

    fn layer_metrics(&self, ctx: &LayerContext) -> Vec<Metric> {
        let solver = &ctx.counters.solver;
        let flat = ctx.layer(SPAN_NAMES[FLAT]);
        vec![
            Metric::new("core.search_us", ctx.layer(SPAN_NAMES[SEARCH]).mean_us(), "us"),
            Metric::new("core.search_moves_proposed", self.proposed as f64, "count"),
            Metric::new(
                "core.search_accept_ratio",
                ratio(self.accepted as f64, self.proposed as f64),
                "ratio",
            ),
            Metric::new("core.levelled_us", ctx.layer(SPAN_NAMES[LEVELLED]).mean_us(), "us"),
            Metric::new("core.flat_us", flat.mean_us(), "us"),
            Metric::new("core.prefix_trials", solver.prefix_trials as f64, "count"),
            Metric::new(
                "core.suffix_reused_positions",
                solver.suffix_reused_positions as f64,
                "count",
            ),
            Metric::new("core.dp_candidates", solver.dp_candidates as f64, "count"),
            Metric::new("core.dp_prune_breaks", solver.dp_prune_breaks as f64, "count"),
            Metric::new(
                "core.ns_per_dp_candidate",
                ratio(flat.total_ns as f64, self.flat_candidates as f64),
                "ns",
            ),
        ]
    }
}
