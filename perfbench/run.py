#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs
the workload in processes of its own:

* `--trace 0`: one measured run plus SETUP_REPEATS - 1 set-up-only runs;
  `setup_s` is the median of all of them. The metrics are the end-to-end
  ones of BENCHMARK.json.
* `--trace 1`: every workload, one process each, runs its calls untraced and
  then traced, prints its per-layer self-time table and writes its spans to
  `.bench_trace/`. The metrics are the per-layer ones of BENCHMARK.json.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["plan-large", "plan-mixed", "serve-zipf", "simulate-engines"]
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "call_p50_us": "us",
    "call_p90_us": "us",
}
# Set-up is the noisiest phase (short, and partly serial), so every run
# sets up this many times, each in a fresh process, and reports the median.
SETUP_REPEATS = 5
# In a traced run each workload's passes get this share of --seconds.
TRACE_SHARE = 1 / 6
# Every run must end within 180 s of the build.
DEADLINE_S = 170


def fail(message):
    sys.stderr.write(f"run.py: {message}\n")
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    built = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
    if built.returncode != 0:
        sys.stderr.write(built.stdout)
        fail("building perfbench failed")
    return os.path.join(target, "release", "perfbench")


def child(binary, workload, seed, seconds, mode, deadline):
    """Runs one perfbench process; returns its JSON line, echoing the rest."""
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--mode", mode, "--trace-dir", ".bench_trace"]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail(f"out of time before {workload} ({mode})")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{workload} ({mode}) did not finish in time")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload} ({mode}) exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def untraced(binary, workload, seed, seconds, deadline):
    setups = [child(binary, workload, seed, seconds, "setup", deadline)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    run = child(binary, workload, seed, seconds, "run", deadline)
    setups.append(run["setup_s"])
    run["setup_s"] = statistics.median(setups)
    print(f"{workload}: {run['workers']} workers; setup_s median of {SETUP_REPEATS} processes "
          f"({', '.join(f'{s:.3f}' for s in setups)})")
    metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END.items()}
    return run["attempted"], run["failed"], metrics


def traced(binary, seed, seconds, deadline):
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        run = child(binary, workload, seed, seconds * TRACE_SHARE, "trace", deadline)
        attempted += run["attempted"]
        failed += run["failed"]
        metrics.update(run["layers"])
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        attempted, failed, metrics = traced(binary, args.seed, args.seconds, deadline)
    else:
        attempted, failed, metrics = untraced(binary, args.workload, args.seed, args.seconds,
                                              deadline)
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
