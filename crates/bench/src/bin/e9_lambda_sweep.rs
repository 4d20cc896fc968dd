//! Experiment E9 — batched λ sweeps: how the optimal policy and the fixed
//! baselines degrade as the platform failure rate grows.
//!
//! Sweeps one chain across five decades of platform failure rates with the
//! batched sweep machinery (`ckpt_expectation::sweep::LambdaSweep`): the
//! chain's λ-independent precomputation is shared by every grid point, and
//! each point re-solves Algorithm 1 on a per-rate segment-cost table
//! (`ckpt_core::analysis::lambda_sweep_with_threads`). Against that
//! re-optimised curve the experiment reports
//!
//! * the **fixed** optimal schedule planned at the grid's geometric midpoint
//!   rate, evaluated (not re-optimised) at every grid rate
//!   (`analysis::schedule_lambda_sweep`) — the price of not re-planning as
//!   the platform degrades;
//! * the baselines' curves (`heuristics::baseline_lambda_sweep`): checkpoint
//!   after every task, the single mandatory final checkpoint, and
//!   Young-periodic placement whose period adapts with λ.
//!
//! A second table sweeps platform sizes for a Weibull platform through the
//! §6 exponential-equivalent batch planner
//! (`general_failures::exponential_equivalent_schedules`), which shares the
//! same per-order precomputation across all surrogate rates.
//!
//! The re-optimised sweep's grid points are independent and spread across
//! worker threads (`analysis::lambda_sweep_with_threads`, deterministic
//! contiguous chunks) — asserted below to be bit-identical at any thread
//! count.
//!
//! Run with `cargo run --release -p ckpt-bench --bin e9_lambda_sweep`
//! (`--json` / `--json=PATH` additionally emits the key metrics).

use ckpt_bench::{print_header, random_chain_instance, JsonSummary};
use ckpt_core::{analysis, general_failures, heuristics};
use ckpt_dag::properties;
use ckpt_expectation::sweep::log_lambda_grid;
use ckpt_failure::Weibull;

fn main() {
    let (lambda_min, lambda_max, points) = (1e-7, 1e-2, 11);
    let inst = random_chain_instance(13, 64, 100.0, 1_500.0, 60.0, 90.0, 30.0, 1e-4);
    let order = properties::as_chain(inst.graph()).expect("chain");
    let grid = log_lambda_grid(lambda_min, lambda_max, points).expect("valid grid");

    println!(
        "E9 — λ sweep of a 64-task chain ({} points, λ ∈ [{lambda_min:.0e}, {lambda_max:.0e}]); \
         'fixed' is the optimum planned at λ = {:.2e} and never re-planned\n",
        points,
        grid[points / 2],
    );
    print_header(&[
        ("lambda", 9),
        ("opt ckpts", 10),
        ("optimal", 12),
        ("fixed", 8),
        ("every-task", 11),
        ("final-only", 11),
        ("young", 8),
    ]);

    let sweep = analysis::lambda_sweep_with_threads(&inst, lambda_min, lambda_max, points, 0)
        .expect("chain");
    // The λ-parallel sweep is bit-identical whatever the worker count.
    for threads in [1usize, 3] {
        let re_run =
            analysis::lambda_sweep_with_threads(&inst, lambda_min, lambda_max, points, threads)
                .expect("chain");
        assert_eq!(sweep, re_run, "λ sweep differs at {threads} threads");
    }
    let midpoint = ckpt_core::chain_dp::optimal_chain_schedule(
        &inst.with_lambda(grid[points / 2]).expect("positive rate"),
    )
    .expect("chain");
    let fixed =
        analysis::schedule_lambda_sweep(&inst, &midpoint.schedule, &grid).expect("valid schedule");
    let baselines = heuristics::baseline_lambda_sweep(&inst, &order, &grid).expect("valid order");

    // Ratios span from 1.0 to astronomically bad (final-only on unreliable
    // platforms): switch to scientific notation once fixed-point stops fitting.
    let ratio = |v: f64| if v < 1e4 { format!("{v:.3}") } else { format!("{v:.2e}") };
    for (i, point) in sweep.iter().enumerate() {
        // Normalise everything to the re-optimised optimum at this rate.
        let norm = |v: f64| v / point.expected_makespan;
        println!(
            "{:>9.2e} {:>10} {:>12.4e} {:>8} {:>11} {:>11} {:>8}",
            point.lambda,
            point.checkpoints,
            point.expected_makespan,
            ratio(norm(fixed[i])),
            ratio(norm(baselines[i].everywhere)),
            ratio(norm(baselines[i].final_only)),
            ratio(norm(baselines[i].young)),
        );
    }

    println!(
        "\nExpected shape: every normalised column is >= 1.0; 'fixed' is exactly \
         1.0 at the rate it was planned for and drifts away from it on both \
         sides; 'final-only' explodes as λ grows while 'every-task' converges \
         to 1.0 there; Young tracks the optimum within a few percent.\n"
    );

    // --- §6 batch planning across platform sizes ----------------------------
    let proc_mtbf = 1_000_000.0;
    let law = Weibull::with_mean(0.7, proc_mtbf).expect("valid law");
    let platform_sizes = [1usize, 16, 256, 4_096, 65_536];
    let schedules =
        general_failures::exponential_equivalent_schedules(&inst, &law, &platform_sizes)
            .expect("chain");

    println!(
        "Exponential-equivalent planning across platform sizes (Weibull k = 0.7, \
         per-processor MTBF {proc_mtbf:.0e} s; one shared per-order precomputation):\n"
    );
    print_header(&[("procs", 7), ("surrogate λ", 12), ("ckpts", 6)]);
    for (&p, schedule) in platform_sizes.iter().zip(&schedules) {
        println!("{:>7} {:>12.2e} {:>6}", p, p as f64 / proc_mtbf, schedule.checkpoint_count(),);
    }
    println!(
        "\nExpected shape: the surrogate rate grows linearly with the platform \
         size, so the planned checkpoint count is non-decreasing in it."
    );

    let mut summary = JsonSummary::new("e9_lambda_sweep");
    summary.count("grid_points", points);
    for point in [&sweep[0], &sweep[points / 2], &sweep[points - 1]] {
        let key = format!("lambda_{:.0e}", point.lambda);
        summary
            .metric(format!("{key}_optimal_makespan"), point.expected_makespan)
            .count(format!("{key}_checkpoints"), point.checkpoints);
    }
    summary
        .metric(
            "fixed_vs_optimal_at_max_rate",
            fixed[points - 1] / sweep[points - 1].expected_makespan,
        )
        .metric(
            "young_vs_optimal_at_max_rate",
            baselines[points - 1].young / sweep[points - 1].expected_makespan,
        )
        .count("weibull_max_platform_checkpoints", schedules.last().unwrap().checkpoint_count());
    summary.emit();
}
