//! Experiment E15 — the telemetry subsystem's two contracts, measured and
//! asserted end to end:
//!
//! 1. **Observation is free of side effects.** Every instrumented engine
//!    run — a planner-service batch stream, a cluster Monte-Carlo, an
//!    adaptive-policy Monte-Carlo — is bitwise identical to its
//!    uninstrumented twin, at 1, 2, 3 and 8 worker threads. Counters,
//!    histograms and trace sinks observe the computation; they never
//!    participate in it.
//! 2. **Observation is cheap.** The default no-op sink is free (≤ 5% over
//!    the untraced engine), because every emission site guards on
//!    `sink.enabled()`. A live trace sink (FNV-1a digest over the serialised
//!    event stream — strictly more work than a ring buffer) costs at most
//!    3× a bare FNV-1a pass over the bytes it digests: building, formatting
//!    and hashing the events is linear in the trace, whatever the engine
//!    does between two events.
//!
//! The deterministic surface (`--json` / `--json=PATH`) carries the service
//! and solver counters, the cluster metric registry's totals and makespan
//! quantiles, the adaptive re-plan counters and the **sim-time trace
//! digest** — all byte-compared across runs by the golden-snapshot suite.
//! Wall-clock measurements live under `timing_` keys.
//!
//! Run with `cargo run --release -p ckpt-bench --bin e15_telemetry`.

use std::sync::Arc;
use std::time::Instant;

use ckpt_adaptive::harness::{compare_policies, EvaluationConfig, TruthModel};
use ckpt_adaptive::ChainSpec;
use ckpt_bench::{print_header, testgen, JsonSummary};
use ckpt_cluster::{
    run_cluster, run_cluster_monte_carlo, BaselinePolicy, ClusterConfig, ClusterPolicy,
    ClusterRepair, ClusterScenario,
};
use ckpt_core::solver_stats;
use ckpt_failure::{Exponential, FailureDistribution, Pcg64, RandomSource, ShockConfig};
use ckpt_service::{PlanInstance, PlanRequest, PlanResponse, Planner, RateBucketing};
use ckpt_telemetry::{
    prometheus_text, DigestSink, JsonlSink, MetricsRegistry, NoopSink, RingBufferSink,
    TelemetrySink,
};

const SEED: u64 = 15;
/// Service stream: shapes, requests, batch size (a compact E14).
const SHAPES: usize = 16;
const REQUESTS: usize = 1_500;
const BATCH: usize = 128;
/// Cluster scenario: pool size, job count, Monte-Carlo trials.
const MACHINES: usize = 6;
const JOBS: usize = 4;
const TRIALS: usize = 120;
const MTBF: f64 = 8_000.0;
/// Overhead measurement: engine runs per timing sample, samples per
/// variant, the asserted ceiling for the no-op sink against the untraced
/// engine, and the asserted ceiling for the live sink's cost against a bare
/// FNV-1a pass over the trace it digests. The measured trial uses its own
/// heavier job mix ([`overhead_job_mix`]), a production-sized trial.
///
/// The live sink is bounded per traced byte, not against the engine: how
/// much engine work lies between two events is the engine's business, and
/// a faster engine must not fail the sink's wall. The hash is the part a
/// digest cannot avoid (FNV-1a is one serial multiply per byte); the
/// ceiling leaves twice as much again for building and formatting events.
const OVERHEAD_JOBS: usize = 3;
const OVERHEAD_MTBF: f64 = 12_000_000.0;
const OVERHEAD_RUNS: usize = 20;
const OVERHEAD_SAMPLES: usize = 7;
const OVERHEAD_CEILING: f64 = 1.05;
const LIVE_HASH_CEILING: f64 = 3.0;
const OVERHEAD_ATTEMPTS: usize = 5;

fn bucketing() -> RateBucketing {
    RateBucketing::log_grid(1e-6, 1e-3, 13).expect("valid grid")
}

/// A Zipf-popular request stream with ~20% mid-run re-plans (E14's shape).
fn service_stream() -> Vec<PlanRequest> {
    let shapes: Vec<PlanInstance> = (0..SHAPES)
        .map(|k| {
            let n = 16 + (k * 29) % 180;
            let problem = testgen::heterogeneous_chain_instance(SEED ^ ((k as u64) << 18), n, 1e-4);
            PlanInstance::from_chain_instance(&problem).expect("chain instance")
        })
        .collect();
    let ranks = testgen::zipf_ranks(SEED, SHAPES, 1.1, REQUESTS);
    let mut rng = Pcg64::seed_from_u64(SEED);
    let rates = [3e-5, 1e-4, 3e-4];
    ranks
        .into_iter()
        .enumerate()
        .map(|(id, rank)| {
            let instance = &shapes[rank];
            let rate = rates[rng.next_bounded(3) as usize] * rng.next_range(0.95, 1.05);
            if instance.len() > 1 && rng.next_bool(0.2) {
                let from = 1 + rng.next_bounded(instance.len() as u64 - 1) as usize;
                PlanRequest::replan(id as u64, instance.clone(), rate, from).expect("valid")
            } else {
                PlanRequest::plan(id as u64, instance.clone(), rate).expect("valid")
            }
        })
        .collect()
}

/// Serves the whole stream on a fresh planner, with `sink` attached.
fn serve_stream(
    requests: &[PlanRequest],
    threads: usize,
    sink: &mut dyn TelemetrySink,
) -> (Vec<PlanResponse>, Planner) {
    let mut planner = Planner::new(bucketing()).with_threads(threads);
    let responses = requests
        .chunks(BATCH)
        .flat_map(|chunk| planner.serve_batch_with_sink(chunk, sink))
        .collect();
    (responses, planner)
}

fn job_mix() -> Vec<ChainSpec> {
    let mut rng = Pcg64::seed_from_u64(0xE15);
    (0..JOBS)
        .map(|_| {
            let tasks = 6 + (rng.next_u64() % 5) as usize;
            let works: Vec<f64> = (0..tasks).map(|_| 120.0 + rng.next_f64() * 120.0).collect();
            ChainSpec::new(&works, &vec![12.0; tasks], &vec![18.0; tasks], 20.0, 5.0)
                .expect("valid chain")
        })
        .collect()
}

fn cluster_scenario(threads: usize) -> ClusterScenario {
    let law: Arc<dyn FailureDistribution + Send + Sync> =
        Arc::new(Exponential::from_mtbf(MTBF).expect("valid MTBF"));
    ClusterScenario::new(MACHINES, law, 1.0 / MTBF, job_mix())
        .expect("valid scenario")
        .with_shocks(ShockConfig::new(1.0 / 1_500.0, 0.6, 120.0).expect("valid shocks"))
        .with_repair(ClusterRepair::Fixed(800.0))
        .expect("valid repair")
        .with_config(
            ClusterConfig::default()
                .with_migration_overhead(90.0)
                .expect("valid overhead")
                .with_replication_checkpoint_factor(1.3)
                .expect("valid factor"),
        )
        .with_trials(TRIALS)
        .with_seed(0x5EED15)
        .with_threads(threads)
}

fn cluster_factory() -> Box<dyn ClusterPolicy> {
    Box::new(BaselinePolicy::ReplicateTopK { k: 1 })
}

/// Long chains (~12,000 tasks each) under a long-MTBF law for the overhead
/// measurement — the paper's production regime (week-long workflows, rare
/// failures).
fn overhead_job_mix() -> Vec<ChainSpec> {
    let mut rng = Pcg64::seed_from_u64(0x0E15);
    (0..OVERHEAD_JOBS)
        .map(|_| {
            let tasks = 12_000 + (rng.next_u64() % 500) as usize;
            let works: Vec<f64> = (0..tasks).map(|_| 120.0 + rng.next_f64() * 120.0).collect();
            ChainSpec::new(&works, &vec![12.0; tasks], &vec![18.0; tasks], 20.0, 5.0)
                .expect("valid chain")
        })
        .collect()
}

fn overhead_scenario() -> ClusterScenario {
    let law: Arc<dyn FailureDistribution + Send + Sync> =
        Arc::new(Exponential::from_mtbf(OVERHEAD_MTBF).expect("valid MTBF"));
    ClusterScenario::new(MACHINES, law, 1.0 / OVERHEAD_MTBF, overhead_job_mix())
        .expect("valid scenario")
        .with_repair(ClusterRepair::Fixed(800.0))
        .expect("valid repair")
        .with_config(
            ClusterConfig::default()
                .with_migration_overhead(90.0)
                .expect("valid overhead")
                .with_replication_checkpoint_factor(1.3)
                .expect("valid factor"),
        )
        .with_seed(0x5EED0E15)
}

/// Best (minimum) of `samples` timing runs of `work`, in seconds per run.
/// The minimum is the standard cost estimator for overhead ratios: scheduler
/// preemption and frequency scaling only ever inflate a sample, so the
/// smallest one is the closest to the code's true cost.
fn min_seconds(samples: usize, runs: usize, mut work: impl FnMut()) -> f64 {
    (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..runs {
                work();
            }
            started.elapsed().as_secs_f64() / runs as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    println!(
        "E15 — deterministic telemetry: metrics, tracing, and the two walls\n\
         (service: {SHAPES} shapes / {REQUESTS} requests in batches of {BATCH};\n\
         cluster: {MACHINES} machines, {JOBS} jobs, {TRIALS} trials; all runs\n\
         repeated at 1/2/3/8 worker threads)\n"
    );
    let mut summary = JsonSummary::new("e15_telemetry");
    summary.count("requests", REQUESTS).count("cluster_trials", TRIALS);

    print_header(&[("wall", 44), ("result", 14)]);

    // --- Wall 1a: service batches, instrumented ≡ uninstrumented ---------
    let requests = service_stream();
    let mut plain_planner = Planner::new(bucketing());
    let plain: Vec<PlanResponse> =
        requests.chunks(BATCH).flat_map(|chunk| plain_planner.serve_batch(chunk)).collect();

    let solver_before = solver_stats::snapshot();
    let mut ring = RingBufferSink::new(64);
    let (live, live_planner) = serve_stream(&requests, 1, &mut ring);
    let solver_delta = solver_stats::snapshot().since(&solver_before);
    assert_eq!(live, plain, "a live sink changed the served plans");
    assert!(ring.events().count() > 0, "the live sink saw no service_batch events");
    for threads in [2usize, 3, 8] {
        let (parallel, _) = serve_stream(&requests, threads, &mut NoopSink);
        assert_eq!(parallel, plain, "service stream diverges at {threads} workers");
    }
    println!("{:>44} {:>14}", "service batches traced vs plain, 1/2/3/8", "bit-identical");

    // The serving counters and the solver's work census for the
    // single-threaded live run are pure functions of the stream.
    let service = live_planner.metrics();
    for key in [
        "service_requests_total",
        "service_cache_hits_total",
        "service_cold_solves_total",
        "service_sweep_solves_total",
        "service_suffix_replans_total",
        "service_coalesced_total",
        "service_work_items_total",
        "service_batches_total",
    ] {
        summary.count(key, service.counter(key) as usize);
    }
    let mut solver_metrics = MetricsRegistry::new();
    solver_delta.record_into(&mut solver_metrics);
    for (name, view) in solver_metrics.iter() {
        if let ckpt_telemetry::MetricView::Counter(value) = view {
            summary.count(name, value as usize);
        }
    }

    // Solver counter totals are thread-invariant: the admission dedup hands
    // every worker layout the same work items.
    for threads in [2usize, 3, 8] {
        let before = solver_stats::snapshot();
        let _ = serve_stream(&requests, threads, &mut NoopSink);
        let delta = solver_stats::snapshot().since(&before);
        assert_eq!(delta, solver_delta, "solver counters diverge at {threads} workers");
    }
    println!("{:>44} {:>14}", "solver work census, 1/2/3/8 workers", "identical");

    // --- Wall 1b: cluster Monte-Carlo and its recorded metrics -----------
    let plain_mc =
        run_cluster_monte_carlo(&cluster_scenario(1), cluster_factory).expect("cluster run");
    let mut reference = MetricsRegistry::new();
    plain_mc.record_into(&mut reference);
    for threads in [2usize, 3, 8] {
        let outcome = run_cluster_monte_carlo(&cluster_scenario(threads), cluster_factory)
            .expect("cluster run");
        let mut recorded = MetricsRegistry::new();
        outcome.record_into(&mut recorded);
        assert_eq!(outcome.samples, plain_mc.samples, "cluster samples diverge at {threads}");
        assert_eq!(recorded, reference, "recorded metrics diverge at {threads} workers");
    }
    println!("{:>44} {:>14}", "cluster MC + recorded metrics, 1/2/3/8", "bit-identical");

    for key in ["cluster_failures_total", "cluster_migrations_total", "cluster_failovers_total"] {
        summary.count(key, reference.counter(key) as usize);
    }
    let makespans = reference.histogram("cluster_makespan").expect("recorded histogram");
    summary.metric("cluster_makespan_p50", makespans.quantile(0.50).expect("non-empty histogram"));
    summary.metric("cluster_makespan_p99", makespans.quantile(0.99).expect("non-empty histogram"));

    // --- Wall 1c: adaptive-policy Monte-Carlo, counters recording --------
    let spec =
        ChainSpec::new(&[600.0; 16], &[45.0; 16], &[70.0; 16], 30.0, 15.0).expect("valid chain");
    let truth = TruthModel::Exponential { lambda: 6.0 / 40_000.0 };
    let planning_rate = 1.0 / 40_000.0;
    let policy_before = ckpt_adaptive::stats::snapshot();
    let reference_cmp = compare_policies(
        &spec,
        planning_rate,
        &truth,
        &EvaluationConfig { trials: 80, seed: 42, threads: 1 },
    )
    .expect("policy comparison");
    let policy_delta = ckpt_adaptive::stats::snapshot().since(&policy_before);
    for threads in [2usize, 3, 8] {
        let before = ckpt_adaptive::stats::snapshot();
        let cmp = compare_policies(
            &spec,
            planning_rate,
            &truth,
            &EvaluationConfig { trials: 80, seed: 42, threads },
        )
        .expect("policy comparison");
        for (a, b) in reference_cmp.results.iter().zip(&cmp.results) {
            assert_eq!(
                a.mean_makespan.to_bits(),
                b.mean_makespan.to_bits(),
                "policy {} diverges at {threads} threads",
                a.policy
            );
        }
        let delta = ckpt_adaptive::stats::snapshot().since(&before);
        assert_eq!(delta, policy_delta, "re-plan counters diverge at {threads} threads");
    }
    println!("{:>44} {:>14}", "policy MC + replan counters, 1/2/3/8", "bit-identical");
    summary.count(
        "policy_adaptive_resolve_replans_total",
        policy_delta.adaptive_resolve_replans as usize,
    );
    summary
        .count("policy_rate_learning_replans_total", policy_delta.rate_learning_replans as usize);

    // --- Wall 2: trace digest, byte-deterministic -------------------------
    let sc = cluster_scenario(1);
    let mut admission = cluster_factory();
    let jobs = sc.build_jobs(admission.as_mut()).expect("job mix");
    drop(admission);
    let traced_trial = |sink: &mut dyn TelemetrySink| {
        let mut injector = sc.trial_injector(0).expect("trial injector");
        let mut policy = cluster_factory();
        run_cluster(&jobs, MACHINES, &mut injector, policy.as_mut(), sc.config(), sink)
            .expect("traced trial")
    };
    let mut digest_a = DigestSink::new();
    let traced_outcome = traced_trial(&mut digest_a);
    let mut digest_b = DigestSink::new();
    let _ = traced_trial(&mut digest_b);
    assert_eq!(digest_a.hex(), digest_b.hex(), "the sim-time trace digest is not reproducible");
    let mut untraced_injector = sc.trial_injector(0).expect("trial injector");
    let mut untraced_policy = cluster_factory();
    let untraced = run_cluster(
        &jobs,
        MACHINES,
        &mut untraced_injector,
        untraced_policy.as_mut(),
        sc.config(),
        &mut NoopSink,
    )
    .expect("untraced trial");
    assert_eq!(traced_outcome.makespan, untraced.makespan, "tracing changed the trial");
    println!("{:>44} {:>14}", "sim-time trace digest, two runs", "byte-equal");
    summary.text("sim_trace_digest", &digest_a.hex());
    summary.count("sim_trace_events", digest_a.sim_events() as usize);

    // --- Exposition formats ----------------------------------------------
    let exposition = prometheus_text(&reference);
    let lines = exposition.lines().count();
    assert!(
        exposition.contains("# TYPE cluster_trials_total counter"),
        "missing counter exposition"
    );
    assert!(exposition.contains("cluster_makespan_bucket{le="), "missing histogram exposition");
    println!("{:>44} {:>14}", "prometheus exposition (lines)", lines);
    summary.count("prometheus_lines", lines);

    // --- Overhead: no-op sink ~free, live sink ≤ 3× its hash -------------
    let overhead = measure_overhead();
    println!("{:>44} {:>13.1}%", "no-op sink overhead", 100.0 * (overhead.noop - 1.0));
    println!("{:>44} {:>13.1}%", "live digest-sink overhead", 100.0 * (overhead.live - 1.0));
    println!("{:>44} {:>13.2}x", "live digest sink / FNV-1a of its trace", overhead.per_hash);
    summary.metric("timing_noop_overhead_ratio", overhead.noop);
    summary.metric("timing_live_overhead_ratio", overhead.live);
    summary.metric("timing_live_hash_ratio", overhead.per_hash);
    summary.count("overhead_trace_bytes", overhead.trace_bytes);

    println!(
        "\nAcceptance (asserted): service batches, cluster Monte-Carlo and the\n\
         adaptive-policy study are bitwise identical instrumented vs\n\
         uninstrumented at 1/2/3/8 threads; the recorded registries and the\n\
         solver/replan counters are thread-invariant; the sim-time trace digest\n\
         is byte-stable across runs; the no-op sink costs ≤ {:.0}% over the\n\
         untraced engine and a live digest sink ≤ {LIVE_HASH_CEILING:.0}× a bare FNV-1a pass\n\
         over its trace (release builds).",
        100.0 * (OVERHEAD_CEILING - 1.0),
    );
    summary.emit();
}

struct OverheadRatios {
    /// No-op sink over untraced.
    noop: f64,
    /// Live digest sink over untraced (reported, not asserted).
    live: f64,
    /// The live sink's cost over untraced, divided by the cost of a bare
    /// FNV-1a pass over the trial's JSONL trace.
    per_hash: f64,
    /// The JSONL bytes the live sink digests per trial.
    trace_bytes: usize,
}

/// FNV-1a over `bytes` — the digest [`DigestSink`] folds its JSONL stream
/// into, as the bare loop the live sink's cost is measured against.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash: u64, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Times the cluster engine three ways over the same trial — untraced,
/// no-op sink, live digest sink — and a bare FNV-1a pass over the trial's
/// JSONL trace, and returns the ratios. The engine has one entry, so the
/// untraced run *is* the no-op-sink run: the `noop` ratio times the same
/// code twice and reads the measurement's noise floor.
///
/// The trial is [`overhead_scenario`]'s. Wall-clock ratios on shared CI
/// hardware are noisy; each variant takes the minimum of
/// [`OVERHEAD_SAMPLES`] interleaved samples of [`OVERHEAD_RUNS`] runs, and
/// the assertions (release builds only) retry up to [`OVERHEAD_ATTEMPTS`]
/// times before failing, so a single scheduler hiccup cannot fail CI while
/// a real regression still does.
fn measure_overhead() -> OverheadRatios {
    let sc = overhead_scenario();
    let mut admission = cluster_factory();
    let jobs = sc.build_jobs(admission.as_mut()).expect("overhead job mix");
    drop(admission);
    let (sc, jobs) = (&sc, &jobs[..]);
    let trial = |sink: &mut dyn TelemetrySink| {
        let mut injector = sc.trial_injector(0).expect("trial injector");
        let mut policy = cluster_factory();
        let outcome =
            run_cluster(jobs, MACHINES, &mut injector, policy.as_mut(), sc.config(), sink)
                .expect("overhead trial");
        std::hint::black_box(outcome.makespan);
    };
    // The bytes the live sink digests: the trial's JSONL trace.
    let mut jsonl = JsonlSink::new(Vec::new());
    trial(&mut jsonl);
    let trace = jsonl.finish().expect("an in-memory trace cannot fail");
    let mut digest = DigestSink::new();
    trial(&mut digest);
    assert_eq!(fnv1a(&trace), digest.digest(), "the digest sink hashes exactly the JSONL trace");

    let mut ratios = OverheadRatios {
        noop: f64::NAN,
        live: f64::NAN,
        per_hash: f64::NAN,
        trace_bytes: trace.len(),
    };
    for attempt in 1..=OVERHEAD_ATTEMPTS {
        let untraced = min_seconds(OVERHEAD_SAMPLES, OVERHEAD_RUNS, || trial(&mut NoopSink));
        let noop = min_seconds(OVERHEAD_SAMPLES, OVERHEAD_RUNS, || trial(&mut NoopSink));
        let live = min_seconds(OVERHEAD_SAMPLES, OVERHEAD_RUNS, || {
            let mut digest = DigestSink::new();
            trial(&mut digest);
            std::hint::black_box(digest.digest());
        });
        let hash = min_seconds(OVERHEAD_SAMPLES, OVERHEAD_RUNS, || {
            std::hint::black_box(fnv1a(std::hint::black_box(&trace)));
        });
        ratios = OverheadRatios {
            noop: noop / untraced,
            live: live / untraced,
            per_hash: (live - untraced) / hash,
            trace_bytes: trace.len(),
        };
        let within = ratios.noop <= OVERHEAD_CEILING && ratios.per_hash <= LIVE_HASH_CEILING;
        if within || cfg!(debug_assertions) {
            return ratios;
        }
        eprintln!(
            "overhead attempt {attempt}/{OVERHEAD_ATTEMPTS}: noop {:.3}, live/hash {:.2} — retrying",
            ratios.noop, ratios.per_hash,
        );
    }
    assert!(
        ratios.noop <= OVERHEAD_CEILING,
        "the no-op sink costs more than {:.0}% over the untraced engine: ratio {:.3}",
        100.0 * (OVERHEAD_CEILING - 1.0),
        ratios.noop,
    );
    assert!(
        ratios.per_hash <= LIVE_HASH_CEILING,
        "the live digest sink costs {:.2}× a bare FNV-1a pass over its trace (ceiling {:.0}×)",
        ratios.per_hash,
        LIVE_HASH_CEILING,
    );
    ratios
}
