//! Golden-snapshot tests of the `--json` machine-readable summaries
//! (ISSUE 5 satellite): each experiment binary with a JSON surface is run
//! twice, its emitted object is parsed, the schema keys CI tooling depends
//! on are asserted present and non-null, and the two runs must agree
//! **byte for byte** on every non-timing metric — so the machine-readable
//! surface cannot silently drift (a renamed key, a lost metric, a
//! nondeterministic value).
//!
//! Gated to the `--release` CI pass: the binaries replay full experiments
//! (e10's 10⁴-task reference table build, e12's Monte-Carlo regret study),
//! far too slow under a debug build.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Runs `binary --json=PATH`, asserting success, and returns the emitted
/// single-line JSON object.
fn run_with_json(binary: &str, tag: &str) -> String {
    let path: PathBuf = std::env::temp_dir().join(format!("ckpt_{tag}.json"));
    let status = Command::new(binary)
        .arg(format!("--json={}", path.display()))
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {binary}: {e}"));
    assert!(status.success(), "{binary} exited with {status}");
    let json = std::fs::read_to_string(&path).expect("summary file written");
    let _ = std::fs::remove_file(&path);
    json.trim_end().to_string()
}

/// Length of the quoted JSON string at the start of `s` (including both
/// quotes), honouring the writer's backslash escapes.
fn quoted_string_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    assert_eq!(bytes.first(), Some(&b'"'), "expected a quoted string: {s}");
    let mut i = 1;
    loop {
        match bytes.get(i) {
            Some(b'\\') => i += 2,
            Some(b'"') => return i + 1,
            Some(_) => i += 1,
            None => panic!("unterminated string in: {s}"),
        }
    }
}

/// A minimal parser for the writer's flat `{"key":value}` shape
/// (`JsonSummary` emits escaped keys/strings and bare numbers): returns the
/// key → raw-value map in insertion order (BTreeMap for lookup; insertion
/// order is compared via the key vectors across runs).
fn parse_flat_object(json: &str) -> BTreeMap<String, String> {
    assert!(json.starts_with('{') && json.ends_with('}'), "not an object: {json}");
    let mut fields = BTreeMap::new();
    let mut rest = &json[1..json.len() - 1];
    while !rest.is_empty() {
        rest = rest.strip_prefix(',').unwrap_or(rest);
        let key_len = quoted_string_len(rest);
        let key = &rest[1..key_len - 1];
        let after = rest[key_len..].strip_prefix(':').expect("missing colon");
        let value_end = if after.starts_with('"') {
            quoted_string_len(after)
        } else {
            after.find(',').unwrap_or(after.len())
        };
        fields.insert(key.to_string(), after[..value_end].to_string());
        rest = &after[value_end..];
    }
    fields
}

/// The shared schema contract: run twice, parse, assert determinism, the
/// experiment name, and the presence of every expected non-null key.
/// Keys starting with one of `timing_prefixes` carry wall-clock
/// measurements: they must exist in both runs but their values are
/// legitimately nondeterministic and are excluded from the byte
/// comparison.
fn assert_summary_schema(
    binary: &str,
    experiment: &str,
    expected_keys: &[String],
    timing_prefixes: &[&str],
) {
    let first = run_with_json(binary, &format!("{experiment}_a"));
    let second = run_with_json(binary, &format!("{experiment}_b"));

    let fields = parse_flat_object(&first);
    let fields_again = parse_flat_object(&second);
    let keys: Vec<&String> = fields.keys().collect();
    let keys_again: Vec<&String> = fields_again.keys().collect();
    assert_eq!(keys, keys_again, "{experiment}: key set differs across two runs");
    for (key, value) in &fields {
        if timing_prefixes.iter().any(|p| key.starts_with(p)) {
            continue;
        }
        assert_eq!(
            Some(value),
            fields_again.get(key),
            "{experiment}: value of `{key}` differs across two runs"
        );
    }
    assert_eq!(
        fields.get("experiment").map(String::as_str),
        Some(format!("\"{experiment}\"").as_str()),
        "{experiment}: wrong experiment tag"
    );
    for key in expected_keys {
        let value =
            fields.get(key).unwrap_or_else(|| panic!("{experiment}: missing summary key `{key}`"));
        assert_ne!(value, "null", "{experiment}: key `{key}` is null");
        assert!(!value.is_empty(), "{experiment}: key `{key}` is empty");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs release experiment binaries (see CI)")]
fn e9_json_summary_schema_and_determinism() {
    let keys: Vec<String> = ["grid_points".to_string()]
        .into_iter()
        .chain(["1e-7", "3e-5", "1e-2"].iter().flat_map(|rate| {
            [format!("lambda_{rate}_optimal_makespan"), format!("lambda_{rate}_checkpoints")]
        }))
        .chain(["fixed_vs_optimal_at_max_rate".to_string()])
        .collect();
    assert_summary_schema(env!("CARGO_BIN_EXE_e9_lambda_sweep"), "e9_lambda_sweep", &keys, &[]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs release experiment binaries (see CI)")]
fn e10_json_summary_schema_and_determinism() {
    let mut keys: Vec<String> = Vec::new();
    for tasks in [102usize, 1_002, 10_000] {
        keys.push(format!("table_build_speedup_{tasks}_tasks"));
    }
    for scenario in ["chain_64", "fork_join_16", "fork_join_48", "layered_5x8", "layered_deep"] {
        for model in ["per-last-task", "live-set-sum", "live-set-max"] {
            keys.push(format!("gain_pct_{scenario}_{model}"));
        }
    }
    assert_summary_schema(
        env!("CARGO_BIN_EXE_e10_order_search"),
        "e10_order_search",
        &keys,
        &["table_build_speedup_"],
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs release experiment binaries (see CI)")]
fn e11_json_summary_schema_and_determinism() {
    let mut keys: Vec<String> = vec!["planning_rate".to_string(), "trials".to_string()];
    for scenario in ["true_rate", "rate_4x", "rate_10x", "weibull_10x", "trace_8x"] {
        for policy in
            ["clairvoyant", "static_plan", "periodic_young", "adaptive_resolve", "rate_learning"]
        {
            keys.push(format!("{scenario}_{policy}_makespan"));
        }
        keys.push(format!("{scenario}_horizon_exceeded_trials"));
    }
    assert_summary_schema(env!("CARGO_BIN_EXE_e11_adaptive"), "e11_adaptive", &keys, &[]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs release experiment binaries (see CI)")]
fn e12_json_summary_schema_and_determinism() {
    let mut keys: Vec<String> =
        vec!["planning_rate".to_string(), "trials".to_string(), "tasks".to_string()];
    for scenario in ["true_rate", "rate_4x", "rate_10x", "weibull_8x"] {
        for policy in ["clairvoyant", "dag_static", "dag_adaptive_resolve", "dag_relinearise"] {
            keys.push(format!("{scenario}_{policy}_makespan"));
        }
        keys.push(format!("{scenario}_relinearise_reorders"));
        keys.push(format!("{scenario}_horizon_exceeded_trials"));
    }
    keys.push("policy_dag_relinearisations_total".to_string());
    assert_summary_schema(env!("CARGO_BIN_EXE_e12_dag_adaptive"), "e12_dag_adaptive", &keys, &[]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs release experiment binaries (see CI)")]
fn e13_json_summary_schema_and_determinism() {
    let mut keys: Vec<String> = vec![
        "machines".to_string(),
        "jobs".to_string(),
        "trials".to_string(),
        "planning_rate".to_string(),
        "degradation_mean_waiting".to_string(),
        "degradation_max_queue_depth".to_string(),
        "failure_shocks_total".to_string(),
        "failure_shock_hits_total".to_string(),
        "failure_repairs_total".to_string(),
    ];
    for width in ["w0", "w150", "w1200"] {
        for policy in ["checkpoint_only", "always_migrate", "replicate_top_2", "setlur"] {
            keys.push(format!("{width}_{policy}_makespan"));
        }
        keys.push(format!("{width}_replication_advantage"));
    }
    assert_summary_schema(env!("CARGO_BIN_EXE_e13_cluster"), "e13_cluster", &keys, &[]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs release experiment binaries (see CI)")]
fn e16_json_summary_schema_and_determinism() {
    // E16 is pure analytic planning (no Monte-Carlo, no wall-clock keys):
    // every metric — the exhaustive-wall gap, the slot-monotonicity curve
    // and the λ-sweep gains — must be byte-identical between two runs.
    let keys: Vec<String> = [
        "exhaustive_max_gap",
        "exhaustive_candidates",
        "collapse_bitwise_checks_passed",
        "slots_0_makespan",
        "slots_4_makespan",
        "slots_8_makespan",
        "slots_8_improvement",
        "slots_8_fast_checkpoints",
        "sweep_points",
        "sweep_gain_at_min_lambda",
        "sweep_gain_at_mid_lambda",
        "sweep_gain_at_max_lambda",
        "sweep_fast_checkpoints_at_max_lambda",
        "sweep_total_checkpoints_at_max_lambda",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    assert_summary_schema(env!("CARGO_BIN_EXE_e16_storage"), "e16_storage", &keys, &[]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs release experiment binaries (see CI)")]
fn e14_json_summary_schema_and_determinism() {
    // The `timing_` keys carry wall-clock throughput/latency measurements;
    // everything else — the serving counters, the cache census and the
    // payload digest (total served makespan, checkpoint count) — must be
    // byte-identical between runs.
    let keys: Vec<String> = [
        "shapes",
        "hot_shapes",
        "requests",
        "batch",
        "cache_hits",
        "cold_solves",
        "sweep_solves",
        "suffix_replans",
        "cached_orders",
        "cached_plans",
        "timing_plans_per_sec",
        "total_expected_makespan",
        "checkpoints_served",
        "timing_p50_latency_us",
        "timing_p99_latency_us",
        "hot_requests",
        "hot_distinct_plans",
        "timing_hit_per_sec",
        "timing_cold_per_sec",
        "timing_hit_speedup",
        "big_n",
        "replan_tail",
        "timing_full_solve_ms",
        "timing_replan_us",
        "timing_replan_speedup",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    assert_summary_schema(env!("CARGO_BIN_EXE_e14_service"), "e14_service", &keys, &["timing_"]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs release experiment binaries (see CI)")]
fn e15_json_summary_schema_and_determinism() {
    // E15 is the telemetry subsystem's own wall: the service/solver/cluster
    // counters, the makespan quantiles, the re-plan counters and — above
    // all — the sim-time trace digest must be byte-identical between two
    // runs. Only the `timing_` overhead ratios are wall-clock.
    let keys: Vec<String> = [
        "requests",
        "cluster_trials",
        "service_requests_total",
        "service_cache_hits_total",
        "service_cold_solves_total",
        "service_sweep_solves_total",
        "service_suffix_replans_total",
        "service_coalesced_total",
        "service_work_items_total",
        "service_batches_total",
        "solver_dp_positions_total",
        "solver_dp_candidates_total",
        "solver_dp_prune_breaks_total",
        "solver_full_solves_total",
        "solver_prefix_trials_total",
        "solver_suffix_solves_total",
        "solver_suffix_reused_positions_total",
        "solver_li_chao_inserts_total",
        "solver_li_chao_node_visits_total",
        "cluster_failures_total",
        "cluster_migrations_total",
        "cluster_failovers_total",
        "cluster_makespan_p50",
        "cluster_makespan_p99",
        "policy_adaptive_resolve_replans_total",
        "policy_rate_learning_replans_total",
        "sim_trace_digest",
        "sim_trace_events",
        "prometheus_lines",
        "overhead_trace_bytes",
        "timing_noop_overhead_ratio",
        "timing_live_overhead_ratio",
        "timing_live_hash_ratio",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    assert_summary_schema(
        env!("CARGO_BIN_EXE_e15_telemetry"),
        "e15_telemetry",
        &keys,
        &["timing_"],
    );
}
