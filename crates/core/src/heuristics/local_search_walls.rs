//! Differential wall for the local search's swap family against the loop it
//! replaced.
//!
//! [`reference_local_search`] is the local search as it was before its swaps
//! ran on the order search's [`OrderState`]: every adjacent swap re-checks
//! the whole order with [`topo::is_topological_order`] and builds a fresh
//! table with [`segment_cost_table`]. [`prop_local_search_matches_the_reference_swap_loop`]
//! runs both from the same starts, on random independent instances and
//! small layered DAGs, at 1, 3 and 50 passes, and asserts equal results:
//! order, flags, the bits of the expected makespan and the improvement
//! count.

use super::*;
use crate::evaluate::segment_cost_table;
use ckpt_dag::{generators, topo};
use ckpt_failure::{Pcg64, RandomSource};
use proptest::prelude::*;

/// [`local_search`] as it was: a fresh table per valid swap.
fn reference_local_search(
    instance: &ProblemInstance,
    start: Schedule,
    max_passes: usize,
) -> Result<LocalSearchResult, ScheduleError> {
    let mut order: Vec<TaskId> = start.order().to_vec();
    let mut checkpoints: Vec<bool> = start.checkpoint_after().to_vec();
    let mut table = segment_cost_table(instance, &order)?;
    let mut best_value = table.total_cost(&checkpoints);
    let mut improvements = 0u64;
    let n = order.len();

    for _ in 0..max_passes {
        let mut improved = false;

        // Move family 1: toggle checkpoint decisions (the final one is fixed).
        for pos in 0..n.saturating_sub(1) {
            let delta = toggle_delta(&table, &checkpoints, pos);
            if delta < -1e-12 {
                checkpoints[pos] = !checkpoints[pos];
                best_value += delta;
                improvements += 1;
                improved = true;
            }
        }

        // Move family 2: adjacent swaps that preserve precedence.
        for pos in 0..n.saturating_sub(1) {
            order.swap(pos, pos + 1);
            if topo::is_topological_order(instance.graph(), &order) {
                let candidate_table = segment_cost_table(instance, &order)?;
                let value = candidate_table.total_cost(&checkpoints);
                if value + 1e-12 < best_value {
                    best_value = value;
                    table = candidate_table;
                    improvements += 1;
                    improved = true;
                    continue;
                }
            }
            order.swap(pos, pos + 1);
        }

        if !improved {
            break;
        }
    }

    let schedule = Schedule::new(instance, order, checkpoints)?;
    let expected_makespan = expected_makespan(instance, &schedule)?;
    Ok(LocalSearchResult { schedule, expected_makespan, improvements })
}

fn assert_same(production: &LocalSearchResult, reference: &LocalSearchResult) {
    assert_eq!(production.schedule.order(), reference.schedule.order(), "order");
    assert_eq!(
        production.schedule.checkpoint_after(),
        reference.schedule.checkpoint_after(),
        "flags"
    );
    assert_eq!(
        production.expected_makespan.to_bits(),
        reference.expected_makespan.to_bits(),
        "expected makespan"
    );
    assert_eq!(production.improvements, reference.improvements, "improvements");
}

/// Independent tasks (`layers` empty) or a layered DAG, with heterogeneous
/// weights and checkpoint costs and a rate log-uniform in 10⁻⁴ … 10⁻².
fn random_instance(rng: &mut Pcg64, layers: &[usize]) -> ProblemInstance {
    let mut weights = rng.derive(1);
    let graph = if layers.is_empty() {
        let n = 2 + (rng.next_u64() % 13) as usize;
        let weights: Vec<f64> = (0..n).map(|_| 50.0 + weights.next_f64() * 950.0).collect();
        generators::independent(&weights).unwrap()
    } else {
        let mut coins = rng.derive(2);
        generators::layered_random(
            layers,
            |_, _| 50.0 + weights.next_f64() * 950.0,
            0.3,
            move || coins.next_f64(),
        )
        .unwrap()
    };
    let n = graph.task_count();
    ProblemInstance::builder(graph)
        .checkpoint_costs((0..n).map(|_| rng.next_f64() * 300.0).collect())
        .recovery_costs((0..n).map(|_| rng.next_f64() * 100.0).collect())
        .initial_recovery(rng.next_f64() * 50.0)
        .downtime(rng.next_f64() * 20.0)
        .platform_lambda(1e-4 * 100f64.powf(rng.next_f64()))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The local search and the reference swap loop return equal results
    /// from the same start, whatever the pass budget.
    #[test]
    fn prop_local_search_matches_the_reference_swap_loop(seed in any::<u64>()) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let layers: Vec<usize> = if seed.is_multiple_of(2) {
            Vec::new()
        } else {
            (0..2 + rng.next_u64() % 3).map(|_| 1 + (rng.next_u64() % 4) as usize).collect()
        };
        let instance = random_instance(&mut rng, &layers);
        let n = instance.task_count();
        let order = linearize::linearize(instance.graph(), LinearizationStrategy::Random(seed));
        let mut flags: Vec<bool> = (0..n).map(|_| rng.next_u64().is_multiple_of(3)).collect();
        flags[n - 1] = true;
        let start = Schedule::new(&instance, order, flags).unwrap();
        for passes in [1, 3, 50] {
            let production = local_search(&instance, start.clone(), passes).unwrap();
            let reference = reference_local_search(&instance, start.clone(), passes).unwrap();
            assert_same(&production, &reference);
        }
    }
}

/// The independent-task heuristic (LPT, Young, local search) on the
/// adversarial instance of the order search's tests, where accepted swaps
/// reorder the tasks: the swap family is exercised, not only the toggles.
#[test]
fn the_heuristic_matches_the_reference_where_swaps_are_accepted() {
    let mut rng = Pcg64::seed_from_u64(42);
    let weights: Vec<f64> = (0..12).map(|_| 200.0 + rng.next_f64() * 1_000.0).collect();
    let graph = generators::independent(&weights).unwrap();
    let instance = ProblemInstance::builder(graph)
        .checkpoint_costs((0..12).map(|_| rng.next_f64() * 400.0).collect())
        .uniform_recovery_cost(50.0)
        .platform_lambda(1.0 / 1_500.0)
        .build()
        .unwrap();
    let order = lpt_order(&instance).unwrap();
    let start = young_periodic_schedule(&instance, order.clone()).unwrap();
    for passes in [1, 2, 100] {
        let production = independent_tasks_heuristic(&instance, passes).unwrap();
        let reference = reference_local_search(&instance, start.clone(), passes).unwrap();
        assert_same(&production, &reference);
        assert_ne!(production.schedule.order(), &order[..], "no swap was accepted");
    }
}
