#!/usr/bin/env python3
"""Builds and runs the PEACE benchmark driver (perfbench/src).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds the
driver, with the repository's libraries from src/, into the directory named by
CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
The driver's standard output is passed through; its last line is the JSON
result, which this script checks against BENCHMARK.json before exiting 0.

--self-check makes a minimal-length run of every workload on two seeds, traced
and untraced, and checks that each prints every metric of BENCHMARK.json with
its unit and no failed operation; then it runs each workload with one verdict
expected the wrong way round and checks that the failure is reported.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures once, then builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no PEACE sources under {ROOT}/src; run from a full checkout")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "peace_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "peace_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(binary, workload, seed, seconds, trace, flip=False):
    """Runs one workload; returns (stdout text, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "run")]
    if flip:
        cmd.append("--flip-verdict")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return proc.stdout, json.loads(lines[-1])


def check_result(spec, result, trace):
    """Problems with one result line, as a list of strings."""
    problems = []
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        problems.append(f"result keys {sorted(result)} != {sorted(keys)}")
        return problems
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing metric {m['name']}")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')} "
                            f"!= {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if not trace:
        for name, entry in got.items():
            if not entry["value"] > 0:
                problems.append(f"{name} is {entry['value']}, must be > 0")
    if result["attempted"] < 1:
        problems.append("no operation attempted")
    return problems


def self_check(binary, spec):
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        for seed in (1, 2):
            for trace in (0, 1):
                _, result = run_driver(binary, w, seed, 1, trace)
                problems = check_result(spec, result, trace)
                if result["failed"] != 0 or not result["correct"]:
                    problems.append(f"{result['failed']} failed operations")
                status = "ok" if not problems else "; ".join(problems)
                print(f"self-check {w} seed {seed} trace {trace}: {status}")
                ok = ok and not problems
        _, result = run_driver(binary, w, 1, 1, 0, flip=True)
        caught = result["failed"] >= 1 and not result["correct"]
        print(f"self-check {w} wrong expected verdict: "
              f"{'reported' if caught else 'NOT reported'}")
        ok = ok and caught
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.self_check:
        return self_check(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    text, result = run_driver(binary, args.workload, args.seed, seconds,
                              args.trace)
    problems = check_result(spec, result, args.trace)
    if problems:
        sys.stderr.write(text)
        fail("; ".join(problems))
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
