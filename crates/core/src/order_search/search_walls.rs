//! Differential walls for the order search's trial path against the one it
//! replaced.
//!
//! [`ReferenceState`] holds the trial evaluation the window updates
//! replaced: every trial clones the committed positional vectors, re-sweeps
//! the whole order with a fresh [`LiveSetCostSweep::cost_order`] (the
//! per-last-task model patched its window), shifts the recoveries by hand
//! and builds a fresh [`SegmentCostTable::new`]. [`reference_run`]
//! is the search run over it, with the production [`OrderState`] driven in
//! lock step: at every valid move, accepted or rejected, the production
//! candidate's weights, checkpoint costs and protecting recoveries and its
//! refilled table must equal the reference's vectors and fresh table bit for
//! bit.
//!
//! [`prop_search_matches_the_reference_trial_path`] then runs whole
//! searches, [`schedule_dag_search`] and [`search_from_starts`], through
//! the production path and through [`reference_run`], on random layered
//! DAGs (plan-mixed's 8 × 9 shape among them) at `λ` from 10⁻⁵ to 5·10⁻³,
//! under every model, at 1, 2 and 3 threads, and asserts the outcomes equal
//! bit for bit: order, flags, both values, the move counts and the winning
//! start.

use super::*;
use ckpt_dag::generators;
use ckpt_dag::neighborhood::apply_move;
use proptest::prelude::*;

const MODELS: [CheckpointCostModel; 3] = [
    CheckpointCostModel::PerLastTask,
    CheckpointCostModel::LiveSetSum,
    CheckpointCostModel::LiveSetMax,
];

/// The committed positional data of the current order plus a candidate
/// buffer, as the search kept them before the window updates.
struct ReferenceState<'a> {
    instance: &'a ProblemInstance,
    model: CheckpointCostModel,
    order: Vec<TaskId>,
    cost_sweep: LiveSetCostSweep<'a>,
    /// Committed positional vectors of `order` *before* the pending move.
    weights: Vec<f64>,
    ckpt: Vec<f64>,
    recoveries: Vec<f64>,
    /// Candidate vectors for the move currently applied to `order`.
    cand_weights: Vec<f64>,
    cand_ckpt: Vec<f64>,
    cand_recoveries: Vec<f64>,
}

impl<'a> ReferenceState<'a> {
    fn new(instance: &'a ProblemInstance, model: CheckpointCostModel, order: Vec<TaskId>) -> Self {
        let mut state = ReferenceState {
            instance,
            model,
            order,
            cost_sweep: LiveSetCostSweep::new(instance.graph()),
            weights: Vec::new(),
            ckpt: Vec::new(),
            recoveries: Vec::new(),
            cand_weights: Vec::new(),
            cand_ckpt: Vec::new(),
            cand_recoveries: Vec::new(),
        };
        state.rebuild_committed();
        state
    }

    fn rebuild_committed(&mut self) {
        self.weights = self.order.iter().map(|&t| self.instance.weight(t)).collect();
        let fresh = self.cost_sweep.cost_order(self.model, self.instance, self.order.clone());
        self.ckpt = fresh.costs().checkpoints().to_vec();
        shift_recoveries(
            self.instance.initial_recovery(),
            fresh.costs().recoveries(),
            &mut self.recoveries,
        );
    }

    fn refresh_candidate_vectors(&mut self, (lo, hi): (usize, usize)) {
        let n = self.order.len();
        self.cand_weights.clone_from(&self.weights);
        for p in lo..=hi {
            self.cand_weights[p] = self.instance.weight(self.order[p]);
        }
        match self.model {
            CheckpointCostModel::PerLastTask => {
                self.cand_ckpt.clone_from(&self.ckpt);
                self.cand_recoveries.clone_from(&self.recoveries);
                for p in lo..=hi {
                    self.cand_ckpt[p] = self.instance.checkpoint_cost(self.order[p]);
                    if p + 1 < n {
                        self.cand_recoveries[p + 1] = self.instance.recovery_cost(self.order[p]);
                    }
                }
            }
            CheckpointCostModel::LiveSetSum | CheckpointCostModel::LiveSetMax => {
                let fresh =
                    self.cost_sweep.cost_order(self.model, self.instance, self.order.clone());
                self.cand_ckpt = fresh.costs().checkpoints().to_vec();
                shift_recoveries(
                    self.instance.initial_recovery(),
                    fresh.costs().recoveries(),
                    &mut self.cand_recoveries,
                );
            }
        }
    }

    fn commit_candidate(&mut self) {
        std::mem::swap(&mut self.weights, &mut self.cand_weights);
        std::mem::swap(&mut self.ckpt, &mut self.cand_ckpt);
        std::mem::swap(&mut self.recoveries, &mut self.cand_recoveries);
    }

    fn table(&self) -> Result<SegmentCostTable, ScheduleError> {
        SegmentCostTable::new(
            self.instance.lambda(),
            self.instance.downtime(),
            &self.weights,
            &self.ckpt,
            &self.recoveries,
        )
        .map_err(ScheduleError::from_expectation)
    }

    fn candidate_table(&self) -> Result<SegmentCostTable, ScheduleError> {
        SegmentCostTable::new(
            self.instance.lambda(),
            self.instance.downtime(),
            &self.cand_weights,
            &self.cand_ckpt,
            &self.cand_recoveries,
        )
        .map_err(ScheduleError::from_expectation)
    }
}

fn shift_recoveries(initial: f64, raw: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.push(initial);
    out.extend(raw.iter().take(raw.len() - 1).copied());
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bit-for-bit equality of two tables: `Debug` prints every `f64` with the
/// shortest digits that round-trip it.
fn same_table(a: &SegmentCostTable, b: &SegmentCostTable) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

/// The production candidate equals the reference's, vectors and table.
fn assert_same_trial(
    production: &OrderState<'_>,
    production_table: &SegmentCostTable,
    reference: &ReferenceState<'_>,
    reference_table: &SegmentCostTable,
) {
    let candidate = &production.candidate;
    assert_eq!(candidate.order(), &reference.order[..], "order");
    assert_eq!(bits(candidate.costs().weights()), bits(&reference.cand_weights), "weights");
    assert_eq!(bits(candidate.costs().checkpoints()), bits(&reference.cand_ckpt), "checkpoints");
    assert_eq!(
        bits(candidate.costs().protecting_recoveries()),
        bits(&reference.cand_recoveries),
        "recoveries"
    );
    assert!(same_table(production_table, reference_table), "trial tables differ");
}

/// [`local_search_run`] as it was, over [`ReferenceState`], with the
/// production [`OrderState`] and its refilled table driven in lock step.
fn reference_run(
    instance: &ProblemInstance,
    model: CheckpointCostModel,
    config: &OrderSearchConfig,
    start_order: &[TaskId],
    run_index: usize,
) -> Result<RunResult, ScheduleError> {
    let n = start_order.len();
    let mut state = ReferenceState::new(instance, model, start_order.to_vec());
    let mut production = OrderState::new(instance, model, start_order.to_vec());
    let mut accepted = 0usize;
    let mut proposed = 0usize;

    let searchable = n >= 2 && !properties::is_chain(instance.graph());
    if searchable {
        let steps = if config.steps == 0 { (4 * n + 64).min(2048) } else { config.steps };
        let max_window = MAX_WINDOW.min(n);
        let mut rng = Pcg64::seed_from_u64(config.seed).derive(run_index as u64);
        let mut dp = ResumableDp::new();
        let committed_table = state.table()?;
        let mut production_table = production.table().expect("the reference table built");
        assert!(same_table(&production_table, &committed_table), "committed tables differ");
        let mut incumbent = dp.solve(&committed_table);

        for _ in 0..steps {
            proposed += 1;
            let mv = propose_move(&mut rng, n, max_window);
            if !is_valid_move(instance.graph(), &state.order, &mv) {
                continue;
            }
            let (_, hi) = mv.window();
            apply_move(&mut state.order, &mv);
            state.refresh_candidate_vectors(mv.window());
            let candidate_table = state.candidate_table();
            let refilled = production.try_move(&mv, &mut production_table);
            let candidate_table = match (candidate_table, refilled) {
                (Ok(table), Ok(())) => table,
                (Err(expected), Err(got)) => {
                    assert_eq!(got, expected, "the refill failed otherwise");
                    return Err(expected);
                }
                (fresh, refilled) => panic!("new: {fresh:?}, refill: {refilled:?}"),
            };
            assert_same_trial(&production, &production_table, &state, &candidate_table);
            let value = dp.try_prefix(&candidate_table, hi + 2);
            if value < incumbent * (1.0 - ACCEPT_MARGIN) {
                state.commit_candidate();
                production.accept();
                dp.commit_trial();
                incumbent = value;
                accepted += 1;
            } else {
                apply_move(&mut state.order, &mv.inverse());
                production.reject();
            }
            assert_eq!(production.order(), &state.order[..], "committed orders differ");
        }
    }

    let table = crate::dag_schedule::model_cost_table(instance, &state.order, model)?;
    let placement = scalable_placement_on_table_with_scratch(&table, &mut ChainDpScratch::new());
    Ok(RunResult {
        order: state.order,
        checkpoint_after: placement.checkpoint_after(),
        value: placement.expected_makespan,
        accepted,
        proposed,
    })
}

/// A random layered DAG with heterogeneous costs, shaped like plan-mixed's
/// search class.
fn layered_instance(seed: u64, layers: &[usize], lambda: f64) -> ProblemInstance {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut weights = rng.derive(1);
    let mut coins = rng.derive(2);
    let graph = generators::layered_random(
        layers,
        |_, _| 200.0 + weights.next_f64() * 1_200.0,
        0.3,
        move || coins.next_f64(),
    )
    .unwrap();
    let n = graph.task_count();
    ProblemInstance::builder(graph)
        .checkpoint_costs((0..n).map(|_| 5.0 + rng.next_f64() * 55.0).collect())
        .recovery_costs((0..n).map(|_| 5.0 + rng.next_f64() * 115.0).collect())
        .initial_recovery(20.0)
        .downtime(30.0)
        .platform_lambda(lambda)
        .build()
        .unwrap()
}

fn assert_same_outcome(production: &OrderSearchOutcome, reference: &OrderSearchOutcome) {
    let (a, b) = (&production.solution, &reference.solution);
    assert_eq!(a.schedule.order(), b.schedule.order());
    assert_eq!(a.schedule.checkpoint_after(), b.schedule.checkpoint_after());
    assert_eq!(a.expected_makespan.to_bits(), b.expected_makespan.to_bits());
    assert_eq!(
        a.expected_makespan_under_model.to_bits(),
        b.expected_makespan_under_model.to_bits()
    );
    assert_eq!(a.strategy, b.strategy);
    assert_eq!(production.starts, reference.starts);
    assert_eq!(production.accepted_moves, reference.accepted_moves);
    assert_eq!(production.proposed_moves, reference.proposed_moves);
}

fn assert_same_seeded(production: &SeededSearchOutcome, reference: &SeededSearchOutcome) {
    assert_eq!(production.order, reference.order);
    assert_eq!(production.checkpoint_after, reference.checkpoint_after);
    assert_eq!(production.value.to_bits(), reference.value.to_bits());
    assert_eq!(production.winning_start, reference.winning_start);
    assert_eq!(production.starts, reference.starts);
    assert_eq!(production.accepted_moves, reference.accepted_moves);
    assert_eq!(production.proposed_moves, reference.proposed_moves);
}

#[test]
fn the_search_matches_the_reference_on_plan_mixed_shape() {
    let instance = layered_instance(1, &[8; 9], 1e-4);
    let config = OrderSearchConfig { restarts: 2, steps: 160, threads: 1, seed: 0x5EA };
    for model in MODELS {
        let production = schedule_dag_search(&instance, model, &config).unwrap();
        let reference = schedule_dag_search_with(&instance, model, &config, reference_run).unwrap();
        assert_same_outcome(&production, &reference);
        assert!(production.accepted_moves > 0, "{model}: no move accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole searches through the production trial path and through the
    /// reference's return the same outcomes, bit for bit, and every valid
    /// move's trial state agrees on the way (asserted inside
    /// [`reference_run`]).
    #[test]
    fn prop_search_matches_the_reference_trial_path(seed in any::<u64>()) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let layers: Vec<usize> = if seed.is_multiple_of(3) {
            vec![8; 9]
        } else {
            (0..3 + rng.next_u64() % 4).map(|_| 1 + (rng.next_u64() % 8) as usize).collect()
        };
        // λ log-uniform in 10⁻⁵ … 5·10⁻³.
        let lambda = 1e-5 * 500f64.powf(rng.next_f64());
        let instance = layered_instance(seed, &layers, lambda);
        let starts: Vec<Vec<TaskId>> = [
            LinearizationStrategy::CriticalPathFirst,
            LinearizationStrategy::Random(seed),
        ]
        .into_iter()
        .map(|strategy| linearize::linearize(instance.graph(), strategy))
        .collect();
        for model in MODELS {
            for threads in 1..=3 {
                let config = OrderSearchConfig { restarts: 1, steps: 48, threads, seed };
                let production = schedule_dag_search(&instance, model, &config).unwrap();
                let reference =
                    schedule_dag_search_with(&instance, model, &config, reference_run).unwrap();
                assert_same_outcome(&production, &reference);
                let production = search_from_starts(&instance, model, &config, &starts).unwrap();
                let reference =
                    search_from_starts_with(&instance, model, &config, &starts, reference_run)
                        .unwrap();
                assert_same_seeded(&production, &reference);
            }
        }
    }
}
