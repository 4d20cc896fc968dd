//! `perfbench` — one workload of the benchmark in one process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--mode run|setup|trace]
//!           [--size full|tiny] [--trace-dir <dir>]
//! ```
//!
//! * `run`: set up, run the timed phase, check every output, print the
//!   end-to-end metrics;
//! * `setup`: set up only and print `setup_s` (`run.py` repeats set-up in
//!   separate processes and reports the median);
//! * `trace`: set up, run the calls once untraced and once with a span
//!   around each public library call, print the per-layer self-time table
//!   and the per-layer metrics, and write the spans as JSONL.
//!
//! A run makes a fixed number of calls, derived from `--seconds` and the
//! workload's nominal call rate — never from the measured speed — so counts
//! and memory are the same for the same seed. The last line of stdout is
//! one JSON object; `run.py` turns it into the benchmark's result.

mod measure;
mod plan_large;
mod plan_mixed;
mod rng;
mod serve_zipf;
mod simulate_engines;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ckpt_adaptive::stats::AdaptiveStatsSnapshot;
use ckpt_core::solver_stats::SolverStatsSnapshot;
use ckpt_failure::stats::FailureStatsSnapshot;

use measure::{cpu_seconds, median, micros, peak_rss_mb, quantile};
use trace::{LayerTime, Tracer};

pub const WORKLOADS: [&str; 4] = ["plan-large", "plan-mixed", "serve-zipf", "simulate-engines"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Seconds-long sizes for the smoke test.
    Tiny,
}

/// What one timed call did.
pub struct Outcome {
    /// Work done, in the workload's unit (`ops_per_s` counts these).
    pub units: u64,
    /// Digest of the call's result, compared with the set-up pass's.
    pub digest: u64,
    /// Wall time of the library call itself.
    pub latency: Duration,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The process-wide library counters, read around a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub solver: SolverStatsSnapshot,
    pub adaptive: AdaptiveStatsSnapshot,
    pub failure: FailureStatsSnapshot,
}

impl Counters {
    pub fn now() -> Self {
        Counters {
            solver: ckpt_core::solver_stats::snapshot(),
            adaptive: ckpt_adaptive::stats::snapshot(),
            failure: ckpt_failure::stats::snapshot(),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            solver: self.solver.since(&earlier.solver),
            adaptive: self.adaptive.since(&earlier.adaptive),
            failure: self.failure.since(&earlier.failure),
        }
    }
}

/// What a workload's per-layer metrics are computed from: the traced pass's
/// self-time table and counter deltas.
pub struct LayerContext<'a> {
    pub table: &'a BTreeMap<&'static str, LayerTime>,
    pub counters: Counters,
}

impl LayerContext<'_> {
    pub fn layer(&self, name: &str) -> LayerTime {
        self.table.get(name).copied().unwrap_or_default()
    }
}

pub trait Workload {
    /// Distinct calls; call `k` repeats slot `k % cycle_len()`.
    fn cycle_len(&self) -> usize;
    /// Calls per second on the reference host (2 vCPUs); sets how many
    /// calls a run of `--seconds` makes.
    fn nominal_calls_per_s(&self) -> f64;
    fn unit_name(&self) -> &'static str;
    /// Timed call `k`; with a tracer, records a span around each public
    /// call it makes, under call id `call`.
    fn call(&mut self, k: usize, trace: Option<(&Tracer, u64)>) -> Result<Outcome, String>;
    /// The set-up pass's digest for `slot`.
    fn reference(&self, slot: usize) -> u64;
    /// The output oracles, run after the timed phase: the slots whose
    /// reference result is wrong, with the reason.
    fn oracles(&self) -> Vec<(usize, String)>;
    fn layer_metrics(&self, ctx: &LayerContext) -> Vec<Metric>;
    /// Called before the traced pass, to reset per-pass accumulators.
    fn begin_traced_pass(&mut self) {}
}

fn setup(
    workload: &str,
    seed: u64,
    size: Size,
    workers: usize,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "plan-large" => Box::new(plan_large::PlanLarge::setup(seed, size, workers)?),
        "plan-mixed" => Box::new(plan_mixed::PlanMixed::setup(seed, size, workers)?),
        "serve-zipf" => Box::new(serve_zipf::ServeZipf::setup(seed, size, workers)?),
        "simulate-engines" => {
            Box::new(simulate_engines::SimulateEngines::setup(seed, size, workers)?)
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// One pass of timed calls, split into windows of whole cycles.
pub struct Pass {
    pub calls: usize,
    pub cycle: usize,
    /// Calls per latency window: whole cycles, at least `MIN_WINDOW_CALLS`
    /// of them when the pass is long enough.
    pub window: usize,
    pub units: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per call: latency of the library call, units done, and the pass
    /// clock when the call's bookkeeping ended.
    pub latencies_us: Vec<f64>,
    pub call_units: Vec<u64>,
    pub ends_s: Vec<f64>,
    /// Calls that errored, returned a non-finite value or did not match
    /// their reference, with the reason.
    pub failures: Vec<(usize, String)>,
}

/// A window must hold enough calls for its p90 to have ten beyond it.
const MIN_WINDOW_CALLS: usize = 100;

/// The end-to-end figures of a pass, each a median over windows so that a
/// burst of host noise in one window does not move it: throughput over
/// single cycles (each does the same work), latency percentiles over
/// latency windows.
pub struct Summary {
    pub ops_per_s: f64,
    pub call_p50_us: f64,
    pub call_p90_us: f64,
}

impl Pass {
    pub fn busy_ratio(&self, workers: usize) -> f64 {
        self.cpu_s / (self.wall_s * workers as f64)
    }

    pub fn summary(&self) -> Summary {
        let mut ops = Vec::new();
        for first in (0..self.calls).step_by(self.cycle) {
            let last = (first + self.cycle).min(self.calls);
            let started = if first == 0 { 0.0 } else { self.ends_s[first - 1] };
            let units: u64 = self.call_units[first..last].iter().sum();
            ops.push(units as f64 / (self.ends_s[last - 1] - started));
        }
        let (mut p50, mut p90) = (Vec::new(), Vec::new());
        for window in self.latencies_us.chunks(self.window) {
            p50.push(quantile(window, 0.5));
            p90.push(quantile(window, 0.9));
        }
        Summary { ops_per_s: median(&ops), call_p50_us: median(&p50), call_p90_us: median(&p90) }
    }
}

/// Calls per window: the fewest whole cycles holding `MIN_WINDOW_CALLS`.
fn window_calls(cycle: usize) -> usize {
    MIN_WINDOW_CALLS.div_ceil(cycle) * cycle
}

fn timed_pass(w: &mut dyn Workload, calls: usize, window: usize, tracer: Option<&Tracer>) -> Pass {
    let cycle = w.cycle_len();
    let mut pass = Pass {
        calls,
        cycle,
        window,
        units: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        latencies_us: Vec::with_capacity(calls),
        call_units: Vec::with_capacity(calls),
        ends_s: Vec::with_capacity(calls),
        failures: Vec::new(),
    };
    let cpu_started = cpu_seconds();
    let started = Instant::now();
    for k in 0..calls {
        let (latency, units) = match w.call(k, tracer.map(|t| (t, k as u64 + 1))) {
            Ok(outcome) => {
                if outcome.digest != w.reference(k % cycle) {
                    pass.failures.push((k, "result differs from the set-up pass".into()));
                }
                (micros(outcome.latency), outcome.units)
            }
            Err(e) => {
                pass.failures.push((k, e));
                (f64::NAN, 0)
            }
        };
        pass.latencies_us.push(latency);
        pass.call_units.push(units);
        pass.units += units;
        pass.ends_s.push(started.elapsed().as_secs_f64());
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass.cpu_s = cpu_seconds() - cpu_started;
    pass
}

/// Failed calls: the pass's own failures plus every call whose slot's
/// reference an oracle rejected.
fn failed_calls(pass: &Pass, cycle: usize, bad_slots: &[(usize, String)]) -> usize {
    let mut failed = vec![false; pass.calls];
    for &(k, _) in &pass.failures {
        failed[k] = true;
    }
    let mut bad_slot = vec![false; cycle];
    for &(slot, _) in bad_slots {
        bad_slot[slot] = true;
    }
    (0..pass.calls).filter(|&k| failed[k] || bad_slot[k % cycle]).count()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: String,
    size: Size,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        mode: "run".into(),
        size: Size::Full,
        trace_dir: PathBuf::from(".bench_trace"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--mode" => args.mode = value()?,
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("unknown size `{other}`")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !["run", "setup", "trace"].contains(&args.mode.as_str()) {
        return Err(format!("unknown mode `{}`", args.mode));
    }
    Ok(args)
}

/// A JSON object with numbers written at full precision.
#[derive(Default)]
struct JsonObject(String);

impl JsonObject {
    fn raw(&mut self, key: &str, raw: &str) -> &mut Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        let _ = write!(self.0, "{sep}\"{key}\":{raw}");
        self
    }

    fn num(&mut self, key: &str, value: f64) -> &mut Self {
        if value.is_finite() {
            self.raw(key, &format!("{value:?}"))
        } else {
            self.raw(key, "null")
        }
    }

    fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, &format!("\"{value}\""))
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn main() {
    let process_started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workers = ckpt_core::parallel::effective_threads(0);
    let mut w = match setup(&args.workload, args.seed, args.size, workers) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let setup_s = process_started.elapsed().as_secs_f64();

    let mut json = JsonObject::default();
    json.text("workload", &args.workload).text("mode", &args.mode).int("workers", workers as u64);
    json.int("seed", args.seed).num("setup_s", setup_s);
    if args.mode == "setup" {
        println!("{}", json.finish());
        return;
    }

    let cycle = w.cycle_len();
    // Traced passes feed only the per-layer figures, so their windows are
    // single cycles; untraced ones report percentiles per window.
    let window = match (args.size, args.mode.as_str()) {
        (Size::Full, "run") => window_calls(cycle),
        _ => cycle,
    };
    let calls = match args.size {
        Size::Tiny => 2 * cycle,
        Size::Full => {
            let wanted = args.seconds * w.nominal_calls_per_s() / window as f64;
            wanted.round().max(1.0) as usize * window
        }
    };
    let untraced = timed_pass(w.as_mut(), calls, window, None);
    let rss = peak_rss_mb();
    let summary = untraced.summary();

    let (traced, counters, spans) = if args.mode == "trace" {
        w.begin_traced_pass();
        let tracer = Tracer::new();
        let before = Counters::now();
        let traced = timed_pass(w.as_mut(), calls, window, Some(&tracer));
        let counters = Counters::now().since(&before);
        (Some(traced), counters, tracer.into_spans())
    } else {
        (None, Counters::default(), Vec::new())
    };

    let bad_slots = w.oracles();
    let mut failed = failed_calls(&untraced, cycle, &bad_slots);
    let mut attempted = untraced.calls;
    if let Some(traced) = &traced {
        failed += failed_calls(traced, cycle, &bad_slots);
        attempted += traced.calls;
    }
    for (k, reason) in
        untraced.failures.iter().chain(traced.iter().flat_map(|t| &t.failures)).take(5)
    {
        println!("  FAILED call {k}: {reason}");
    }
    for (slot, reason) in &bad_slots {
        println!("  FAILED oracle on slot {slot}: {reason}");
    }

    println!(
        "{}: seed {}, {} workers, {} calls in windows of {} (cycle {}), {} {} per pass",
        args.workload,
        args.seed,
        workers,
        calls,
        window,
        cycle,
        untraced.units,
        w.unit_name()
    );
    println!(
        "  setup {:.3} s  peak rss {:.1} MiB  {:.1} ops/s  call p50 {:.1} us  p90 {:.1} us  \
         busy {:.3}  failed {failed}/{attempted}",
        setup_s,
        rss,
        summary.ops_per_s,
        summary.call_p50_us,
        summary.call_p90_us,
        untraced.busy_ratio(workers),
    );
    json.int("calls", calls as u64).int("attempted", attempted as u64).int("failed", failed as u64);
    json.num("peak_rss_mb", rss)
        .num("ops_per_s", summary.ops_per_s)
        .num("call_p50_us", summary.call_p50_us)
        .num("call_p90_us", summary.call_p90_us)
        .num("busy_ratio", untraced.busy_ratio(workers));

    if let Some(traced) = traced {
        let table = trace::self_times(&spans);
        trace::print_table(&args.workload, &table, (traced.wall_s * 1e9) as u64);
        let path = args.trace_dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("  {} spans written to {}", spans.len(), path.display());
        let ctx = LayerContext { table: &table, counters };
        let mut metrics = w.layer_metrics(&ctx);
        metrics.push(Metric::new(
            "core.parallel.busy_ratio",
            untraced.busy_ratio(workers),
            "ratio",
        ));
        let overhead = 1.0 - traced.summary().ops_per_s / summary.ops_per_s;
        metrics.push(Metric::new("trace.overhead", overhead, "ratio"));
        let mut layers = JsonObject::default();
        for m in &metrics {
            println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
            let mut entry = JsonObject::default();
            entry.num("value", m.value).text("unit", m.unit);
            layers.raw(&format!("{}.{}", args.workload, m.name), &entry.finish());
        }
        json.raw("layers", &layers.finish());
    }
    println!("{}", json.finish());
}
