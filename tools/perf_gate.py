#!/usr/bin/env python3
"""Same-machine timing gate: a change against its parent commit.

    python3 tools/perf_gate.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two checkouts, e.g. the change and a
`git worktree add` of its parent. In each, the script runs

    python3 perfbench/run.py --workload admission --seconds 1 --trace 1

which builds the repo benchmark into that checkout's own .bench_build. One
untimed round builds both sides; then PAIRS rounds run one side after the
other, alternating which goes first, so slow drift on a shared host lands on
both. The gate covers the paper's headline costs (§V.C): group signing, single
and batched verification, a router's pooled batch and the revocation-list
scan. It fails when the change's fastest run of any of them is more than BOUND
slower than the parent's fastest run: a shared host's slow spells only add
time, so each side's fastest run is its steadiest estimate of the code's own
cost. The ratio of medians is printed beside it.

Exit status: 0 pass, 1 a headline cost regressed, 2 usage or run error.
"""

import json
import os
import statistics
import subprocess
import sys
import time

# On a shared 4-core host whose speed flips between two modes ~1.5x apart,
# 42 pairs of one commit against itself: single pairs differed by up to 1.7x,
# and the fastest runs of the two sides agreed within 0.3%. Resampling 9 of
# those pairs, the ratio of medians passed 1.25 on some metric in 29% of
# draws, the ratio of fastest runs in 0.4%.
PAIRS = 9
BOUND = 0.25
RUN_ARGS = ["--workload", "admission", "--seconds", "1", "--trace", "1"]
# Each is a time per operation (lower is better) from the admission result.
METRICS = (
    "groupsig.sign_ms",              # one group signature
    "groupsig.verify_ms",            # one prepared verification
    "groupsig.batch_per_sig_ms",     # randomized batch verify, per signature
    "router.batch_per_request_ms",   # M.2 batch on the 4-thread pool
    "groupsig.scan_per_token_ms",    # URL scan, per revoked token
)


def fail(message):
    print(f"perf_gate: {message}", file=sys.stderr)
    sys.exit(2)


def run(checkout):
    """One admission run in `checkout`; returns {metric: value}."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # build inside the checkout
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *RUN_ARGS],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"perfbench failed in {checkout} (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"] != 0 or not result["correct"]:
        fail(f"{result['failed']} failed operations in {checkout}")
    return {m: result["metrics"][m]["value"] for m in METRICS}


def main():
    if len(sys.argv) != 3:
        fail("usage: perf_gate.py PARENT_DIR CHANGE_DIR")
    sides = {"parent": sys.argv[1], "change": sys.argv[2]}
    for path in sides.values():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            fail(f"{path} is not a checkout with perfbench/run.py")

    start = time.monotonic()
    for path in sides.values():
        run(path)  # builds; its timings are discarded
    samples = {side: {m: [] for m in METRICS} for side in sides}
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            for m, value in run(sides[side]).items():
                samples[side][m].append(value)
        print(f"perf_gate: pair {i + 1}/{PAIRS} done", file=sys.stderr)

    regressed = []
    print(f"{'metric (fastest run)':30} {'parent':>9} {'change':>9} "
          f"{'ratio':>7} {'median ratio':>13}")
    for m in METRICS:
        parent, change = samples["parent"][m], samples["change"][m]
        ratio = min(change) / min(parent)
        median_ratio = statistics.median(change) / statistics.median(parent)
        verdict = ""
        if ratio > 1 + BOUND:
            regressed.append(m)
            verdict = f"  REGRESSED (> {1 + BOUND:.2f})"
        print(f"{m:30} {min(parent):9.3f} {min(change):9.3f} {ratio:7.3f} "
              f"{median_ratio:13.3f}{verdict}")
    print(f"perf_gate: {PAIRS} pairs in {time.monotonic() - start:.0f} s; "
          + (f"FAILED: {', '.join(regressed)}" if regressed else "passed"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
