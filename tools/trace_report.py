#!/usr/bin/env python3
"""Summarize (and validate) PEACE telemetry exports.

Usage:
    tools/trace_report.py TRACE.json [--metrics METRICS.json] [--validate]

TRACE.json is the Chrome trace_event file written by
`metro_mesh_day --trace=...` (or any harness draining obs::Tracer);
a ".jsonl" path is instead read as the streaming/JSONL format (one event
object per line — `metro_city --trace=...` or `--jsonl=...` output, and
any rotated `.jsonl.N` segment). METRICS.json is the registry snapshot
from `--metrics=...`.

Default mode prints a human summary: per-span-name durations and crypto-op
attribution (pairings, Miller loops, final exponentiations, G2Prepared
builds, MSM work), async handshake latencies on the simulator clock, and
instant-event counts. With --validate it also checks both files against
the schemas documented in docs/OBSERVABILITY.md §5 and, given --metrics
from the same run, that each discrete mesh event left as many trace
instants as its counter counts; it exits non-zero on any violation — the CI gate for the
telemetry artifacts.
"""

import argparse
import json
import sys
from collections import defaultdict

CRYPTO_KEYS = (
    "pairings",
    "miller_loops",
    "final_exps",
    "g2_prepared",
    "msm_calls",
    "msm_terms",
    "gt_pows",
)

METRICS_SCHEMA = "peace.metrics.v1"

# Each discrete mesh event records one trace instant per occurrence its
# counter counts (the event table in src/mesh/network.cpp).
EVENT_COUNTERS = {
    "mesh.retransmit": "mesh.retransmissions",
    "mesh.handshake_timeout": "mesh.handshake_timeouts",
    "mesh.rekey": "mesh.rekeys",
    "mesh.failover": "mesh.failovers",
}


def fail(msg):
    print(f"trace_report: VALIDATION FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_trace(doc):
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("trace: top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("trace: traceEvents must be an array")
    for i, e in enumerate(events):
        where = f"trace event #{i}"
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(f"{where}: missing '{key}'")
        ph = e["ph"]
        if ph not in ("X", "i", "b", "e", "M"):
            fail(f"{where}: unknown phase {ph!r}")
        if ph != "M" and "ts" not in e:
            fail(f"{where}: missing 'ts'")
        if ph == "X" and "dur" not in e:
            fail(f"{where}: duration span without 'dur'")
        if ph in ("b", "e") and "id" not in e:
            fail(f"{where}: async event without 'id'")
        for k, v in e.get("args", {}).items():
            if not isinstance(v, (int, str)):
                fail(f"{where}: arg {k!r} is not an integer or string")
    # Async begin/end events must pair up per (cat, id, name).
    open_spans = defaultdict(int)
    for e in events:
        key = (e.get("cat"), e.get("id"), e["name"])
        if e["ph"] == "b":
            open_spans[key] += 1
        elif e["ph"] == "e":
            open_spans[key] -= 1
            if open_spans[key] < 0:
                fail(f"trace: async end without begin for {key}")
    dangling = {k: n for k, n in open_spans.items() if n > 0}
    if dangling:
        # A run ending mid-handshake truncates spans — legitimate, not a
        # schema violation.
        print(f"trace_report: note: {len(dangling)} async span(s) still "
              "open at end of trace", file=sys.stderr)


def validate_metrics(doc):
    if doc.get("schema") != METRICS_SCHEMA:
        fail(f"metrics: schema must be {METRICS_SCHEMA!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"metrics: missing '{section}' object")
    for name, v in doc["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(f"metrics: counter {name!r} is not a non-negative integer")
    for name, v in doc["gauges"].items():
        if not isinstance(v, int):
            fail(f"metrics: gauge {name!r} is not an integer")
    for name, h in doc["histograms"].items():
        for key in ("count", "sum_us", "p50_us", "p90_us", "p95_us", "p99_us"):
            if key not in h:
                fail(f"metrics: histogram {name!r} missing '{key}'")
        total = 0
        for b in h.get("buckets", []):
            if "le_us" not in b or "count" not in b:
                fail(f"metrics: histogram {name!r} has a malformed bucket")
            total += b["count"]
        if h.get("buckets") and total != h["count"]:
            fail(f"metrics: histogram {name!r} bucket counts sum to {total}, "
                 f"count says {h['count']}")


def validate_event_counts(events, metrics):
    seen = defaultdict(int)
    for e in events:
        if e.get("ph") == "i":
            seen[e["name"]] += 1
    for instant, counter in EVENT_COUNTERS.items():
        want = metrics["counters"].get(counter, 0)
        if seen[instant] != want:
            fail(f"trace holds {seen[instant]} {instant!r} instants but "
                 f"metrics count {counter} = {want}")


def span_table(events):
    rows = defaultdict(lambda: {"n": 0, "dur": 0, **{k: 0 for k in CRYPTO_KEYS}})
    for e in events:
        if e["ph"] != "X":
            continue
        row = rows[e["name"]]
        row["n"] += 1
        row["dur"] += e.get("dur", 0)
        for k in CRYPTO_KEYS:
            row[k] += e.get("args", {}).get(k, 0)
    return rows


def async_latencies(events):
    begins = {}
    latencies = defaultdict(list)
    for e in events:
        key = (e.get("cat"), e.get("id"), e["name"])
        if e["ph"] == "b":
            begins[key] = e["ts"]
        elif e["ph"] == "e" and key in begins:
            latencies[e["name"]].append(e["ts"] - begins.pop(key))
    return latencies


def is_jsonl_path(path):
    # A rotated streaming segment is "<base>.jsonl.<n>".
    parts = path.rsplit(".", 2)
    return path.endswith(".jsonl") or (
        len(parts) == 3 and parts[1] == "jsonl" and parts[2].isdigit())


def load_jsonl(path):
    """Reads a streamed JSONL trace into the Chrome-format dict shape."""
    events = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                fail(f"jsonl line {lineno}: {exc}")
    return {"traceEvents": events}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace",
                    help="Chrome trace_event JSON (--trace output), or a "
                         ".jsonl streaming trace (one event per line)")
    ap.add_argument("--metrics", help="metrics registry JSON (--metrics output)")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check the files; non-zero exit on violation")
    args = ap.parse_args()

    if is_jsonl_path(args.trace):
        trace = load_jsonl(args.trace)
    else:
        with open(args.trace) as f:
            trace = json.load(f)
    metrics = None
    if args.metrics:
        with open(args.metrics) as f:
            metrics = json.load(f)

    if args.validate:
        validate_trace(trace)
        if metrics is not None:
            validate_metrics(metrics)
            validate_event_counts(trace["traceEvents"], metrics)
        print("trace_report: validation ok")

    events = [e for e in trace["traceEvents"] if e.get("ph") != "M"]
    print(f"== spans ({sum(1 for e in events if e['ph'] == 'X')} events)")
    rows = span_table(events)
    header = f"{'span':<18}{'n':>5}{'total ms':>10}{'mean ms':>9}"
    header += "".join(f"{k:>13}" for k in CRYPTO_KEYS)
    print(header)
    for name in sorted(rows, key=lambda n: -rows[n]["dur"]):
        r = rows[name]
        mean = r["dur"] / r["n"] / 1000 if r["n"] else 0.0
        line = f"{name:<18}{r['n']:>5}{r['dur'] / 1000:>10.1f}{mean:>9.2f}"
        line += "".join(f"{r[k]:>13}" for k in CRYPTO_KEYS)
        print(line)

    lat = async_latencies(events)
    if lat:
        print("\n== handshakes (simulator clock)")
        for name, xs in sorted(lat.items()):
            xs.sort()
            print(f"{name:<18}{len(xs):>5} done, "
                  f"median {xs[len(xs) // 2] / 1000:.0f} ms, "
                  f"max {xs[-1] / 1000:.0f} ms")

    instants = defaultdict(int)
    for e in events:
        if e["ph"] == "i":
            instants[e["name"]] += 1
    if instants:
        print("\n== events")
        for name, n in sorted(instants.items()):
            print(f"{name:<24}{n:>6}")

    if metrics is not None:
        print("\n== metrics")
        interesting = [k for k in metrics["counters"]
                       if k.split(".")[0] in ("curve", "router", "user",
                                              "mesh", "revocation", "pool",
                                              "metro", "metro_city")]
        for name in interesting:
            print(f"{name:<32}{metrics['counters'][name]:>12}")
        for name, h in metrics["histograms"].items():
            print(f"{name:<32}{h['count']:>6} samples, "
                  f"p50 {h['p50_us'] / 1000:.1f} ms, "
                  f"p99 {h['p99_us'] / 1000:.1f} ms")


if __name__ == "__main__":
    main()
