#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the library and the
benchmark binary from source into $CARGO_TARGET_DIR (default .bench_build).
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
The exit code is non-zero when a correctness check fails, and the
benchmark prints no result when it cannot build or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time


def deadline_s(seconds, trace):
    """Time allowed for the measured run (the build comes before it): the
    set-up plus a margin over the work of --seconds, which a traced run
    does twice, the second time with the single-threaded replay."""
    return 60.0 + 4.0 * seconds * (1 + 2 * trace)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures and builds the benchmark (incrementally after the first
    run); returns the binary path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", bench_dir, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "--target", "carol_perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(3)
    return os.path.join(cmake_dir, "carol_perfbench")


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown(not-a-git-checkout)"
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_metrics(root, trace):
    path = os.path.join(root, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_determinism(build_dir, binary, args, values):
    """Values that must repeat exactly for a seed: compared against the
    first run of the same binary, workload, seed and length in this
    checkout."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    cache_dir = os.path.join(build_dir, "determinism", build_id)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(
        cache_dir, f"{args.workload}-seed{args.seed}-s{args.seconds}.json")
    mismatches = []
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        for key in sorted(set(earlier) & set(values)):
            if earlier[key] != values[key]:
                mismatches.append(
                    f"{key}: {values[key]} differs from an earlier run's "
                    f"{earlier[key]}")
        merged = dict(earlier)
        merged.update({k: v for k, v in values.items() if k not in earlier})
    else:
        merged = values
    with open(path, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(bench_dir, build_dir)
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", commit_of(root)]
    start = time.monotonic()
    deadline = deadline_s(args.seconds, args.trace)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=deadline)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {deadline:.0f} s")
        return 4
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark binary failed with exit code {proc.returncode}")
        return 5
    result = json.loads(lines[-1])
    deterministic = {}
    for line in lines[:-1]:
        if line.startswith("PERFBENCH_DETERMINISTIC "):
            deterministic = json.loads(line.split(" ", 1)[1])
        else:
            print(line)

    problems = check_determinism(build_dir, binary, args, deterministic)
    expected = declared_metrics(root, args.trace)
    if sorted(result["metrics"]) != sorted(expected):
        problems.append("metrics differ from BENCHMARK.json: got "
                        f"{sorted(result['metrics'])}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
    print(f"run: {time.monotonic() - start:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
