//! Cross-crate integration tests for Proposition 3 / Algorithm 1: the chain
//! dynamic program is optimal, its analytical value is confirmed by
//! simulation, and it dominates the periodic baselines.

use ckpt_bench::testgen::heterogeneous_chain_instance as random_chain_instance;
use ckpt_workflows::core::{brute_force, chain_dp, evaluate, heuristics, Schedule};
use ckpt_workflows::dag::properties;
use ckpt_workflows::simulator::SimulationScenario;

#[test]
fn dp_matches_exhaustive_search_on_random_chains() {
    for seed in 0..10 {
        let inst = random_chain_instance(seed, 7, 1.0 / 3_000.0);
        let dp = chain_dp::optimal_chain_schedule(&inst).unwrap();
        let brute = brute_force::optimal_schedule(&inst).unwrap();
        assert!(
            (dp.expected_makespan - brute.expected_makespan).abs() / brute.expected_makespan
                < 1e-10,
            "seed {seed}: dp {} vs brute {}",
            dp.expected_makespan,
            brute.expected_makespan
        );
    }
}

#[test]
fn dp_dominates_periodic_and_trivial_baselines() {
    for seed in 0..5 {
        for &lambda in &[1e-5, 1e-4, 1e-3] {
            let inst = random_chain_instance(100 + seed, 30, lambda);
            let dp = chain_dp::optimal_chain_schedule(&inst).unwrap();
            let order = properties::as_chain(inst.graph()).unwrap();

            let everywhere = Schedule::checkpoint_everywhere(&inst, order.clone()).unwrap();
            let final_only = Schedule::checkpoint_final_only(&inst, order.clone()).unwrap();
            let young = heuristics::young_periodic_schedule(&inst, order.clone()).unwrap();
            let every3 = heuristics::checkpoint_every_k(&inst, order, 3).unwrap();

            for (name, schedule) in [
                ("everywhere", &everywhere),
                ("final-only", &final_only),
                ("young-periodic", &young),
                ("every-3", &every3),
            ] {
                let value = evaluate::expected_makespan(&inst, schedule).unwrap();
                assert!(
                    dp.expected_makespan <= value + 1e-9,
                    "seed {seed}, lambda {lambda}: DP {} beaten by {name} {value}",
                    dp.expected_makespan
                );
            }
        }
    }
}

#[test]
fn dp_value_is_confirmed_by_simulation() {
    let inst = random_chain_instance(4242, 12, 1.0 / 6_000.0);
    let dp = chain_dp::optimal_chain_schedule(&inst).unwrap();
    let segments = dp.schedule.to_segments(&inst).unwrap();
    let outcome = SimulationScenario::exponential(inst.lambda())
        .with_downtime(inst.downtime())
        .with_trials(20_000)
        .with_seed(9)
        .run(&segments);
    let rel = outcome.makespan.relative_error(dp.expected_makespan);
    assert!(rel < 0.03, "relative error {rel:.4}");
}

#[test]
fn simulated_ranking_agrees_with_analytical_ranking() {
    // The analytical evaluator and the simulator must rank schedules the same
    // way when the gap is meaningful: the DP optimum must simulate at least as
    // fast as the single-final-checkpoint baseline under a harsh failure rate.
    // (Kept small: a no-checkpoint schedule needs e^{λW} attempts on average,
    // so the total work is chosen to keep that factor moderate.)
    let inst = random_chain_instance(777, 5, 1.0 / 2_500.0);
    let order = properties::as_chain(inst.graph()).unwrap();
    let dp = chain_dp::optimal_chain_schedule(&inst).unwrap();
    let final_only = Schedule::checkpoint_final_only(&inst, order).unwrap();

    let simulate = |schedule: &Schedule, seed: u64| {
        let segments = schedule.to_segments(&inst).unwrap();
        SimulationScenario::exponential(inst.lambda())
            .with_downtime(inst.downtime())
            .with_trials(4_000)
            .with_seed(seed)
            .run(&segments)
            .makespan
            .mean
    };
    let sim_dp = simulate(&dp.schedule, 1);
    let sim_final = simulate(&final_only, 1);
    assert!(sim_dp < sim_final, "DP simulated at {sim_dp:.1}, final-only at {sim_final:.1}");
}

#[test]
fn memoized_and_bottom_up_formulations_agree_on_large_chains() {
    let inst = random_chain_instance(31337, 200, 1.0 / 8_000.0);
    let bottom_up = chain_dp::optimal_chain_schedule(&inst).unwrap().expected_makespan;
    let memoized = chain_dp::oracle::optimal_chain_value_memoized(&inst).unwrap();
    assert!((bottom_up - memoized).abs() / bottom_up < 1e-12);
}

#[test]
fn scaling_solvers_agree_on_multi_block_chains() {
    // 5 000 tasks spans several of the blocked kernel's cache-sized blocks
    // (the table dispatch runs it from 1 024 positions up); the two
    // O(n log n) formulations and the pruned quadratic must agree in both a
    // rare-failure and a frequent-failure regime.
    for lambda in [1e-7, 1e-4] {
        let inst = random_chain_instance(7, 5_000, lambda);
        let pruned = chain_dp::optimal_chain_schedule(&inst).unwrap();
        let dc = chain_dp::oracle::optimal_chain_schedule_divide_conquer(&inst).unwrap();
        let order = properties::as_chain(inst.graph()).unwrap();
        let table = evaluate::segment_cost_table(&inst, &order).unwrap();
        let blocked = chain_dp::scalable_placement_on_table_with_scratch(
            &table,
            &mut chain_dp::ChainDpScratch::new(),
        );
        for (name, value) in
            [("divide_conquer", dc.expected_makespan), ("blocked", blocked.expected_makespan)]
        {
            let gap = (value - pruned.expected_makespan).abs() / pruned.expected_makespan;
            assert!(
                gap < 1e-10,
                "λ {lambda}: {name} {value} vs pruned {}",
                pruned.expected_makespan
            );
        }
    }
}

#[test]
fn batched_lambda_sweep_agrees_with_per_rate_planning() {
    use ckpt_workflows::core::analysis;

    let inst = random_chain_instance(11, 40, 1e-4);
    let sweep = analysis::lambda_sweep_with_threads(&inst, 1e-6, 1e-3, 6, 0).unwrap();
    for point in &sweep {
        let solo = chain_dp::optimal_chain_schedule(&inst.with_lambda(point.lambda).unwrap())
            .unwrap()
            .expected_makespan;
        assert!((point.expected_makespan - solo).abs() / solo < 1e-12, "λ {}", point.lambda);
    }
    // Evaluating the optimal schedule of each grid rate at its own rate
    // through the batched fixed-schedule sweep reproduces the optimum.
    let mid = &sweep[3];
    let schedule =
        chain_dp::optimal_chain_schedule(&inst.with_lambda(mid.lambda).unwrap()).unwrap().schedule;
    let fixed = analysis::schedule_lambda_sweep(&inst, &schedule, &[mid.lambda]).unwrap();
    assert!((fixed[0] - mid.expected_makespan).abs() / mid.expected_makespan < 1e-12);
}
