//! Experiment E13 — cluster policies under correlated failures: replication,
//! migration and graceful degradation on a fault-injected machine pool.
//!
//! The chain experiments ask *when to checkpoint* on one machine; this one
//! lifts the model to a pool executing a batch of chain jobs whose machines
//! fail both independently (per-machine Exponential) and **together**
//! (Poisson shock bursts striking a random subset of the pool within a
//! configurable burst width, followed by a long repair). Four baseline
//! policies run on identical per-trial failure streams:
//!
//! * `checkpoint-only` — every failure waits out the repair in place;
//! * `always-migrate` — every failure re-queues the job on a healthy machine
//!   (paying a migration overhead);
//! * `replicate-top-2` — the two largest jobs keep a warm replica (inflated
//!   checkpoints, one reserved machine each) and fail over when it survives;
//! * `setlur` — replicate the largest quarter of the batch and checkpoint
//!   those jobs more sparsely (replication substitutes for checkpoints).
//!
//! The burst width is the experiment's x-axis: at width 0 a shock fells its
//! victims simultaneously — a replica bought against the burst dies *with*
//! its primary — while wider bursts stagger the hits and let failover win.
//!
//! Run with `cargo run --release -p ckpt-bench --bin e13_cluster`
//! (`--json` / `--json=PATH` additionally emits the key metrics;
//! `--trace=PATH` dumps one full trial's simulated event timeline as JSONL).

use std::sync::Arc;

use ckpt_adaptive::{ChainSpec, StaticPlan};
use ckpt_bench::{print_header, JsonSummary};
use ckpt_cluster::{
    compare_baselines, run_cluster, run_cluster_monte_carlo, BaselinePolicy, ClusterComparison,
    ClusterConfig, ClusterJob, ClusterRepair, ClusterScenario, ExponentialMachineSource,
};
use ckpt_failure::{Exponential, FailureDistribution, Pcg64, RandomSource, ShockConfig};
use ckpt_simulator::{simulate_policy, ChainTask, ExponentialStream};
use ckpt_telemetry::{DigestSink, JsonlSink, NoopSink, TeeSink};

/// Machines in the pool.
const MACHINES: usize = 6;
/// Jobs in the batch.
const JOBS: usize = 4;
/// Per-machine natural MTBF (rare independent failures).
const NATURAL_MTBF: f64 = 30_000.0;
/// Shock arrival rate (correlated bursts).
const SHOCK_RATE: f64 = 1.0 / 900.0;
/// Probability a shock strikes each machine.
const FAN_OUT: f64 = 0.7;
/// Machine repair interval after any failure.
const REPAIR: f64 = 1_200.0;
/// Burst widths compared (the x-axis of the replication claim).
const BURST_WIDTHS: [f64; 3] = [0.0, 150.0, 1_200.0];
/// Monte-Carlo trials per policy and scenario.
const TRIALS: usize = 600;

/// The failure rate jobs plan their checkpoints for: natural rate plus the
/// shock rate thinned by the fan-out.
const PLANNING_RATE: f64 = 1.0 / NATURAL_MTBF + SHOCK_RATE * FAN_OUT;

fn job_mix() -> Vec<ChainSpec> {
    // Eight heterogeneous chains, ~600-1900 s of work each: enough spread
    // that ranking jobs by size (replicate-top-k, Setlur) is meaningful.
    let mut rng = Pcg64::seed_from_u64(0xE13);
    (0..JOBS)
        .map(|_| {
            let tasks = 8 + (rng.next_u64() % 5) as usize;
            let works: Vec<f64> = (0..tasks).map(|_| 120.0 + rng.next_f64() * 120.0).collect();
            let ckpts: Vec<f64> = (0..tasks).map(|_| 10.0 + rng.next_f64() * 10.0).collect();
            let recs: Vec<f64> = (0..tasks).map(|_| 15.0 + rng.next_f64() * 15.0).collect();
            ChainSpec::new(&works, &ckpts, &recs, 20.0, 5.0).expect("valid chain parameters")
        })
        .collect()
}

fn config() -> ClusterConfig {
    ClusterConfig::default()
        .with_migration_overhead(150.0)
        .expect("valid overhead")
        .with_failover_overhead(10.0)
        .expect("valid overhead")
        .with_replication_checkpoint_factor(1.3)
        .expect("valid factor")
        .with_retry_budget(4)
        .with_backoff(30.0, 240.0)
        .expect("valid backoff")
}

fn scenario(burst_width: f64, threads: usize) -> ClusterScenario {
    let law: Arc<dyn FailureDistribution + Send + Sync> =
        Arc::new(Exponential::from_mtbf(NATURAL_MTBF).expect("valid MTBF"));
    ClusterScenario::new(MACHINES, law, PLANNING_RATE, job_mix())
        .expect("valid scenario")
        .with_shocks(ShockConfig::new(SHOCK_RATE, FAN_OUT, burst_width).expect("valid shocks"))
        .with_repair(ClusterRepair::Fixed(REPAIR))
        .expect("valid repair")
        .with_config(config())
        .with_trials(TRIALS)
        .with_seed(0x5EED13)
        .with_threads(threads)
}

fn baselines() -> Vec<(&'static str, BaselinePolicy)> {
    vec![
        ("checkpoint-only", BaselinePolicy::CheckpointOnly),
        ("always-migrate", BaselinePolicy::AlwaysMigrate),
        ("replicate-top-2", BaselinePolicy::ReplicateTopK { k: 2 }),
        ("setlur", BaselinePolicy::Setlur { replicate_fraction: 0.25, rate_factor: 0.6 }),
    ]
}

fn main() {
    println!(
        "E13 — cluster policies under correlated failures\n\
         ({MACHINES} machines, {JOBS} chain jobs, natural MTBF {NATURAL_MTBF:.0} s per machine,\n\
         shocks every {:.0} s striking each machine with p = {FAN_OUT}, repair {REPAIR:.0} s;\n\
         {TRIALS} paired trials per policy; makespan = completion of the last job)\n",
        1.0 / SHOCK_RATE,
    );
    print_header(&[
        ("burst width", 12),
        ("policy", 16),
        ("makespan", 10),
        ("ci95", 8),
        ("job mean", 10),
        ("wait", 8),
        ("util", 6),
        ("migr", 6),
        ("fails", 6),
    ]);

    let stats_start = ckpt_failure::stats::snapshot();
    let mut summary = JsonSummary::new("e13_cluster");
    summary
        .count("machines", MACHINES)
        .count("jobs", JOBS)
        .count("trials", TRIALS)
        .metric("planning_rate", PLANNING_RATE);

    let mut advantages = Vec::new();
    for &width in &BURST_WIDTHS {
        let cmp = compare_baselines(&scenario(width, 0), &baselines()).expect("cluster run");
        let key = format!("w{width:.0}");
        for entry in &cmp.entries {
            let o = &entry.outcome;
            println!(
                "{:>12.0} {:>16} {:>10.1} {:>8.1} {:>10.1} {:>8.1} {:>5.1}% {:>6.2} {:>6.2}",
                width,
                entry.name,
                o.makespan.mean,
                o.makespan.ci95_half_width,
                o.job_makespan.mean,
                o.waiting.mean,
                100.0 * o.utilisation.mean,
                o.mean_migrations,
                o.mean_failures,
            );
            summary.metric(
                format!("{key}_{}_makespan", entry.name.replace('-', "_")),
                o.makespan.mean,
            );
        }
        println!();
        let migrate = mean_of(&cmp, "always-migrate");
        let replicate = mean_of(&cmp, "replicate-top-2");
        let checkpoint_only = mean_of(&cmp, "checkpoint-only");
        // Claim (i): under correlated failures, mobility strictly beats
        // sitting out the repair.
        assert!(
            migrate < checkpoint_only,
            "width {width}: always-migrate {migrate} must beat checkpoint-only {checkpoint_only}"
        );
        assert!(
            replicate < checkpoint_only,
            "width {width}: replicate-top-2 {replicate} must beat checkpoint-only \
             {checkpoint_only}"
        );
        let advantage = migrate - replicate;
        summary.metric(format!("{key}_replication_advantage"), advantage);
        advantages.push(advantage);
    }

    // Claim (ii): replication's edge over migration widens with the burst
    // width — simultaneous shocks kill the replica with its primary, wide
    // bursts leave it standing as a failover target.
    assert!(
        advantages.windows(2).all(|w| w[0] < w[1]),
        "replication advantage must widen with the burst width: {advantages:?}"
    );
    println!(
        "Replication advantage over migration by burst width: \
         {:.1} / {:.1} / {:.1} s (strictly widening).\n",
        advantages[0], advantages[1], advantages[2],
    );

    let waiting = graceful_degradation_check(&mut summary);
    degenerate_chain_check();
    determinism_check();
    trace_dump_if_requested();

    println!(
        "Acceptance (asserted): at every burst width, always-migrate and\n\
         replicate-top-2 strictly beat checkpoint-only on mean makespan; the\n\
         replication advantage widens strictly with the burst width; full-pool\n\
         shocks only queue jobs (mean queue wait {waiting:.0} s, zero trial errors);\n\
         a single-machine cluster matches the chain engine seed for seed; and\n\
         every comparison is bit-identical at 1/2/3/8 threads."
    );
    // The injector's process-wide counters, as a delta over the whole
    // experiment: both golden-test invocations execute identical work, so
    // the delta is deterministic even though the atomics are cumulative.
    let faults = ckpt_failure::stats::snapshot().since(&stats_start);
    summary
        .count("failure_shocks_total", faults.shocks as usize)
        .count("failure_shock_hits_total", faults.shock_hits as usize)
        .count("failure_repairs_total", faults.repairs as usize);
    summary.emit();
}

fn mean_of(cmp: &ClusterComparison, name: &str) -> f64 {
    cmp.entries
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("missing policy {name}"))
        .outcome
        .makespan
        .mean
}

/// Claim (iii): shocks that strike the whole pool at once leave no healthy
/// machine — jobs must queue and finish after the repair, with zero errors.
fn graceful_degradation_check(summary: &mut JsonSummary) -> f64 {
    let law: Arc<dyn FailureDistribution + Send + Sync> =
        Arc::new(Exponential::from_mtbf(NATURAL_MTBF).expect("valid MTBF"));
    let scenario = ClusterScenario::new(3, law, PLANNING_RATE, job_mix())
        .expect("valid scenario")
        .with_shocks(ShockConfig::new(1.0 / 800.0, 1.0, 0.0).expect("valid shocks"))
        .with_repair(ClusterRepair::Fixed(600.0))
        .expect("valid repair")
        .with_config(config())
        .with_trials(200)
        .with_seed(0x5EED13)
        .with_threads(0);
    let outcome = run_cluster_monte_carlo(&scenario, || Box::new(BaselinePolicy::AlwaysMigrate))
        .expect("full-pool outages must queue jobs, not error");
    assert!(
        outcome.waiting.mean > 0.0,
        "full-pool outages must produce queue waiting, got {}",
        outcome.waiting.mean
    );
    assert!(
        outcome.max_queue_depth > 1,
        "full-pool outages must stack the ready queue, got depth {}",
        outcome.max_queue_depth
    );
    println!(
        "Graceful degradation: 3-machine pool, shocks strike every machine at once\n\
         (width 0, repair 600 s): all {} trials completed, mean queue wait {:.0} s,\n\
         peak queue depth {}.\n",
        outcome.trials, outcome.waiting.mean, outcome.max_queue_depth,
    );
    summary.metric("degradation_mean_waiting", outcome.waiting.mean);
    summary.count("degradation_max_queue_depth", outcome.max_queue_depth);
    outcome.waiting.mean
}

/// Claim (iv): a one-machine cluster over the chain driver's exact stream is
/// the chain engine, bitwise.
fn degenerate_chain_check() {
    let tasks: Vec<ChainTask> = [140.0, 90.0, 210.0, 60.0]
        .iter()
        .map(|&w| ChainTask::new(w, 12.0, 18.0).expect("valid task"))
        .collect();
    let plan = vec![true, false, true, true];
    for seed in 0..25u64 {
        let mut stream = ExponentialStream::new(1.0 / 400.0, seed);
        let mut replay = StaticPlan::new(plan.clone());
        let expected = simulate_policy(&tasks, 18.0, 5.0, &mut replay, &mut stream, &mut NoopSink)
            .expect("chain run");

        let job = ClusterJob::new(tasks.clone(), 18.0, 5.0, plan.clone()).expect("valid job");
        let mut source = ExponentialMachineSource::new(1.0 / 400.0, &[seed]);
        let mut policy = BaselinePolicy::CheckpointOnly;
        let config = ClusterConfig::default();
        let out = run_cluster(&[job], 1, &mut source, &mut policy, &config, &mut NoopSink)
            .expect("cluster run");
        assert_eq!(out.jobs[0].record, expected.record, "seed {seed}");
        assert_eq!(out.jobs[0].checkpoints, expected.checkpoints, "seed {seed}");
        assert_eq!(out.jobs[0].decisions, expected.decisions, "seed {seed}");
    }
    println!(
        "Degeneracy: single-machine cluster vs chain engine over 25 seeds — \
         bitwise identical.\n"
    );
}

/// `--trace=PATH`: replays trial 0 of the middle burst scenario under the
/// replicate-top-2 policy with a JSONL sink attached and writes the full
/// sim-domain event timeline (dispatches, shocks-turned-failures, replica
/// losses, migrations, failovers, completions) to `PATH` — one JSON object
/// per line. A digest sink tees off the same stream, so the reported FNV-1a
/// digest can be compared across runs and machines: the timeline is a pure
/// function of the scenario seed.
fn trace_dump_if_requested() {
    for arg in std::env::args().skip(1) {
        let Some(path) = arg.strip_prefix("--trace=") else { continue };
        let sc = scenario(BURST_WIDTHS[1], 1);
        let mut admission = BaselinePolicy::ReplicateTopK { k: 2 };
        let jobs = sc.build_jobs(&mut admission).expect("job mix");
        let mut injector = sc.trial_injector(0).expect("trial injector");
        let mut policy = BaselinePolicy::ReplicateTopK { k: 2 };
        let file = std::fs::File::create(path)
            .unwrap_or_else(|error| panic!("cannot create trace file {path}: {error}"));
        let mut jsonl = JsonlSink::new(std::io::BufWriter::new(file));
        let mut digest = DigestSink::new();
        let mut tee = TeeSink::new(&mut jsonl, &mut digest);
        run_cluster(&jobs, MACHINES, &mut injector, &mut policy, &config(), &mut tee)
            .expect("traced trial");
        use std::io::Write as _;
        let mut writer = jsonl.finish().expect("flush trace file");
        writer.flush().expect("flush trace file");
        println!(
            "Trace: wrote {} sim-domain events of trial 0 (burst width {}) to {path}\n\
             (timeline digest {}).\n",
            digest.sim_events(),
            BURST_WIDTHS[1],
            digest.hex(),
        );
    }
}

/// Re-runs the middle burst scenario at several worker counts and demands
/// byte-identical per-trial samples for every policy.
fn determinism_check() {
    let reference =
        compare_baselines(&scenario(BURST_WIDTHS[1], 1), &baselines()).expect("cluster run");
    for threads in [2usize, 3, 8] {
        let other = compare_baselines(&scenario(BURST_WIDTHS[1], threads), &baselines())
            .expect("cluster run");
        for (a, b) in reference.entries.iter().zip(&other.entries) {
            assert_eq!(
                a.outcome.samples, b.outcome.samples,
                "policy {} differs at {threads} threads",
                a.name
            );
        }
    }
    println!(
        "Determinism: burst-width {} scenario re-run at 1/2/3/8 threads — bit-identical.\n",
        BURST_WIDTHS[1]
    );
}
