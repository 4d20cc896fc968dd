//! Smoke check of the benchmark: every workload at its tiny size, traced,
//! twice per seed at two seeds. Every call and every oracle must pass, and
//! the two runs of a seed must report identical work counts.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["plan-large", "plan-mixed", "serve-zipf", "simulate-engines"];

/// The last stdout line of one tiny traced run.
fn run(workload: &str, seed: u64) -> String {
    let trace_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--mode", "trace", "--size", "tiny", "--trace-dir"])
        .arg(&trace_dir)
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}{}", String::from_utf8_lossy(&out.stderr));
    stdout.lines().last().expect("a result line").to_string()
}

/// The integer after `"key":` in a flat JSON line.
fn field(json: &str, key: &str) -> u64 {
    let start = json.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
    let digits: String = json[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("an integer")
}

/// Every per-layer metric whose unit is `count`, as `name=value` strings.
fn counts(json: &str) -> Vec<String> {
    const TAIL: &str = ",\"unit\":\"count\"}";
    json.match_indices(TAIL)
        .map(|(end, _)| {
            let head = &json[..end];
            let value_at = head.rfind("{\"value\":").expect("a value");
            let name_at = head[..value_at - 2].rfind('"').expect("a name");
            format!("{}={}", &head[name_at + 1..value_at - 2], &head[value_at + 9..])
        })
        .collect()
}

#[test]
fn every_workload_passes_its_oracles_with_repeatable_counts() {
    for workload in WORKLOADS {
        for seed in [1, 2] {
            let first = run(workload, seed);
            let second = run(workload, seed);
            assert!(field(&first, "attempted") > 0, "{workload}: no calls");
            assert_eq!(field(&first, "failed"), 0, "{workload} seed {seed}: {first}");
            assert_eq!(field(&second, "failed"), 0, "{workload} seed {seed}: {second}");
            let counts_first = counts(&first);
            assert!(!counts_first.is_empty(), "{workload}: no counts in {first}");
            assert_eq!(counts_first, counts(&second), "{workload} seed {seed}: counts differ");
        }
    }
}
