#!/usr/bin/env python3
"""Coverage audit: lists the src/ functions that no run of the system reaches.

    python3 tools/coverage_audit.py [--build-dir DIR]

Run from anywhere inside a checkout. The script configures two build trees
with `--coverage -O0` in CMAKE_CXX_FLAGS: the top-level project (only the
examples are built) and perfbench/CMakeLists.txt. It runs the set below,
collects `gcov --json-format` output from every .gcda of both trees and
prints each function under src/ of which no line ran in either tree, minus
ALLOW below. The run set is what CI and the benchmark exercise:

  * metro_mesh_day, plain and --chaos, with CI's telemetry flags;
  * metro_city with metro-smoke's flags (both bursts, trace rotation);
  * recovery_drill drill-out 3;
  * quickstart, audit_trail, dos_defense, membership_renewal;
  * the four perfbench workloads at --seconds 1, --trace 0 and --trace 1.

The tier-1 tests are deliberately not in the set: the audit looks for code
that only tests reach. "Unreached" is judged from line counts, not gcov's
per-function counts, which miss lambdas whose lines ran. -fkeep-inline-
functions makes every inline function of a compiled header visible, called
or not; a template member that nothing instantiates stays invisible.
src/baseline (the paper's comparison schemes, EXPERIMENTS.md E4/E9) is linked
only by tests and bench/, so no run compiles it.

The report is informational: the exit status is non-zero only when a build,
a run or gcov fails. Allow-list entries that match no unreached function are
printed as stale.
"""

import argparse
import concurrent.futures
import fnmatch
import json
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
# -fkeep-inline-functions emits every inline function, called or not, so an
# unused one shows up with zero counts; it also emits inline library code
# that references symbols no program links, which --gc-sections drops.
FLAGS = "--coverage -O0 -fkeep-inline-functions -ffunction-sections"
LINK_FLAGS = "-Wl,--gc-sections"
RUN_TIMEOUT_S = 900
JOBS = min(4, os.cpu_count() or 1)

EXAMPLES = [
    ["metro_mesh_day", "--trace=metro_trace.json",
     "--metrics=metro_metrics.json", "--jsonl=metro_trace.jsonl"],
    ["metro_mesh_day", "--chaos", "--trace=chaos_trace.json",
     "--metrics=chaos_metrics.json"],
    ["metro_city", "--users=2000", "--cohort=8", "--shards=4", "--waves=2",
     "--trace=metro_city_trace.jsonl", "--trace-rotate=300000",
     "--metrics=metro_city_metrics.json", "--health=metro_city_health.json",
     "--forgery-burst", "--revoked-burst"],
    ["recovery_drill", "drill-out", "3"],
    ["quickstart"],
    ["audit_trail"],
    ["dos_defense"],
    ["membership_renewal"],
]
WORKLOADS = ["connect", "admission", "revocation_churn", "metro_day"]

# (source file under src/, fnmatch pattern on gcov's demangled name, reason).
# Every entry names what keeps the function and the test or bench row that
# uses it; docs/ARCHITECTURE.md §1 lists the oracles.
ORACLES = [
    ("src/crypto/poly1305.cpp", "peace::crypto::Poly1305::mac(*",
     "one-shot MAC: RFC 8439 vector oracle of the incremental AEAD path "
     "(Poly1305.Rfc8439Vector, Poly1305.IncrementalMatchesOneShot)"),
    ("src/curve/bn254.cpp", "peace::curve::gl[vs]_decompose(*",
     "BigInt-division split, oracle of the fixed-point round-off "
     "(CurveSpeedTest.DecompositionsMatchExactRoundOff)"),
    ("src/curve/bn254.cpp", "peace::curve::g1_endo(*",
     "endomorphism, oracle of the GLV ladder "
     "(CurveSpeedTest.EndoMapsActAsEigenvalues)"),
    ("src/curve/bn254.cpp", "peace::curve::g2_psi(*",
     "endomorphism, oracle of the GLS ladder "
     "(CurveSpeedTest.EndoMapsActAsEigenvalues)"),
    ("src/curve/pairing.cpp", "peace::curve::final_exponentiation_generic(*",
     "generic final exponentiation, oracle of the hard-part chain "
     "(PairingTest.HardPartChainMatchesGenericPath)"),
    ("src/curve/pairing.cpp", "peace::curve::*pow_bigint(*",
     "the generic final exponentiation's power "
     "(PairingTest.HardPartChainMatchesGenericPath)"),
    ("src/curve/pairing.cpp", "peace::curve::pairing_reference(*",
     "Tate pairing, oracle of the optimal ate "
     "(PairingTest.ConsistentWithTateReference)"),
    ("src/curve/pairing.cpp", "peace::curve::untwist(*",
     "the Tate reference's twist map (PairingTest.UntwistedPointOnCurve)"),
    ("src/math/fp12.hpp", "peace::math::Fp12::operator[+-](*",
     "ring operations of the Tate reference and TowerTest.Fp12RingLaws"),
    ("src/math/fp12.hpp", "peace::math::Fp12::pow(*",
     "generic GT power, oracle of the pairing's bilinearity "
     "(CurveSpeedTest.OptimalAteMatchesReferenceTate)"),
    ("src/math/fp12.hpp", "peace::math::Fp12::mul_by_line_eager(*",
     "eager tower, oracle of the lazy line product "
     "(CurveSpeedTest.LazyMulByLineMatchesEager)"),
    ("src/math/fp2.hpp", "peace::math::Fp2::mul_eager(*",
     "eager tower, oracle of the lazy Fp2 product "
     "(CurveSpeedTest.LazyFp2MulMatchesEager)"),
    ("src/math/u256.hpp", "peace::math::*_u128(*",
     "__int128 carry forms, oracle of the intrinsics "
     "(U256.CarryPrimitivesMatchU128Oracle)"),
    ("src/math/u256.hpp", "peace::math::operator>=(*",
     "comparison the tests' reference arithmetic uses (U256.Cmp)"),
    ("src/math/bigint.cpp", "peace::math::BigInt::*",
     "BigInt parts of the RSA-1024 baseline (src/baseline, EXPERIMENTS.md "
     "E9) and the GLV division oracle (bigint_test)"),
    ("src/math/bigint.hpp", "peace::math::*BigInt*",
     "BigInt parts of the RSA-1024 baseline and the GLV division oracle "
     "(bigint_test)"),
    ("src/groupsig/groupsig.cpp",
     "peace::groupsig::verify_proof(peace::groupsig::GroupPublicKey const&*",
     "unprepared proof check, oracle of the prepared and batched checks "
     "(BatchVerifyTest, GroupSigTest)"),
    ("src/groupsig/groupsig.cpp",
     "peace::groupsig::matches_token(peace::groupsig::GroupPublicKey const&*",
     "per-token Eq.3, oracle of the batched scan "
     "(ScanTest.BatchedScanMatchesPerTokenReference)"),
]
PROTOCOL_PATHS = [
    ("src/groupsig/groupsig.cpp",
     "peace::groupsig::EpochRevocationIndex::remove_token(*",
     "URL-delta removal: without it a removed entry still revokes "
     "(RevokeSystemTest.EpochIndexDropsTokensAUrlDeltaRemoves)"),
    ("src/peace/session.cpp", "peace::proto::Session::*mac(*",
     "MAC-only data authentication, PAPER.md row 11, measured in "
     "EXPERIMENTS.md E6 (bench_session_hybrid; SessionTest.MacPath)"),
]
EWMA = ("read only by the HealthMonitor EWMA rule, which no run's traffic "
        "trips (HealthMonitorTest.EwmaRuleFiresOnDeviationNotOnBaseline)")
COMPILE_TIME = "constexpr table or check that only the compiler evaluates"
COMPILE_TIME_PATTERNS = ["peace::*field_table(*", "*rows_distinct<*",
                         "*ops_in_enum_order()", "*counters_in_enum_order()"]
FAULT = ("fault path: runs only on a runaway simulator, a damaged log or a "
         "resync (SimulatorTest, MetroTest.EventBudgetExhaustionNamesShard, "
         "PersistTest, RevokeSystemTest)")
FAULT_PATTERNS = [
    ("src/mesh/simulator.cpp", "*Simulator::throw_budget_exhausted(*"),
    ("src/peace/persist/store.cpp", "*orphan_segment(*"),
    ("src/peace/persist/wal.cpp", "peace::persist::wal_damage_name(*"),
    ("src/peace/revoke/store.hpp", "peace::revoke::needs_resync(*"),
]
OBSERVER = ("accessor or control that tests read or steer state through "
            "(metro_test, mesh_test, chaos_test, simulator_test, obs_test, "
            "health_test, persist_test, revoke_test, reliability_test, "
            "session_test, setup_test, roles_test, rotation_test)")
OBSERVED = {
    "src/mesh/metro.cpp": ["set_shard_link_blocked", "user_in_transit"],
    "src/mesh/metro.hpp": ["shard_count", "shard", "user_count", "config"],
    "src/mesh/network.cpp": ["router_is_down", "user", "position",
                             "move_user", "rekey", "backbone_hops_to_ap",
                             "serving_router", "user_ids"],
    "src/mesh/network.hpp": ["user_count"],
    "src/mesh/shard.hpp": ["config", "sim", "net"],
    "src/mesh/simulator.cpp": ["run_all"],
    "src/mesh/simulator.hpp": ["pending", "event_budget"],
    "src/obs/health.hpp": ["alerts_dropped", "alerts"],
    "src/obs/metrics.cpp": ["reset"],
    "src/obs/metrics.hpp": ["reset"],
    "src/obs/sec_event.cpp": ["current_shard", "sec_event_count"],
    "src/obs/stream_sink.hpp": ["events_written", "rotations"],
    "src/obs/trace.cpp": ["op_count", "streaming"],
    "src/obs/window.hpp": ["rate_per_s", "merge"],
    "src/groupsig/groupsig.hpp": ["reset"],
    "src/peace/bounded_map.hpp": ["size"],
    "src/peace/entities.hpp": ["stored_credentials", "url_needs_compaction"],
    "src/peace/persist/control.cpp": ["gm"],
    "src/peace/persist/control.hpp": ["no", "ttp", "recovery_report"],
    "src/peace/revoke/shared.cpp": ["state_hash"],
    "src/peace/revoke/store.hpp": ["state_hash"],
    "src/peace/router.hpp": ["id", "certificate", "session_count",
                             "replay_cache_size"],
    "src/peace/session.hpp": ["advance_send_seq"],
    "src/peace/user.cpp": ["enrolled_groups"],
    "src/peace/user.hpp": ["verify_ops", "pending_access_size",
                           "pending_peer_size", "resend_cache_size",
                           "current_url"],
}
ALLOW = (ORACLES + PROTOCOL_PATHS
         + [("*", p, COMPILE_TIME) for p in COMPILE_TIME_PATTERNS]
         + [(f, p, FAULT) for f, p in FAULT_PATTERNS]
         + [("src/obs/window.hpp", "peace::obs::WindowStats::options()*",
             EWMA)]
         + [(f, f"*::{n}(*", OBSERVER)
            for f, names in OBSERVED.items() for n in names])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check(cmd, **kw):
    proc = subprocess.run(cmd, **kw)
    if proc.returncode != 0:
        log("coverage_audit: failed: " + " ".join(cmd))
        sys.exit(1)
    return proc


def build(tree, source, targets):
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        check(["cmake", "-S", source, "-B", tree, "-DCMAKE_BUILD_TYPE=Debug",
               "-DCMAKE_CXX_FLAGS=" + FLAGS,
               "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS],
              stdout=subprocess.DEVNULL)
    check(["cmake", "--build", tree, "-j", str(JOBS), "--target", *targets],
          stdout=subprocess.DEVNULL)


def clear_counts(tree):
    for dirpath, _, files in os.walk(tree):
        for f in files:
            if f.endswith(".gcda"):
                os.remove(os.path.join(dirpath, f))


def run_all(top, bench, work):
    cmds = [[os.path.join(top, "examples", args[0]), *args[1:]]
            for args in EXAMPLES]
    driver = os.path.join(bench, "peace_perfbench")
    for w in WORKLOADS:
        for trace in ("0", "1"):
            cmds.append([driver, "--workload", w, "--seed", "1", "--seconds",
                         "1", "--trace", trace, "--work-dir",
                         os.path.join(work, f"perfbench-{w}-{trace}")])

    def run(cmd):
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return cmd, proc

    failed = False
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for cmd, proc in pool.map(run, cmds):
            name = " ".join([os.path.basename(cmd[0]), *cmd[1:4]])
            log(f"  ran {name}: exit {proc.returncode}")
            if proc.returncode != 0:
                log(proc.stderr[-2000:])
                failed = True
    if failed:
        log("coverage_audit: a run failed")
        sys.exit(1)


def gcov_docs(tree):
    """Yields one gcov JSON document per .gcda file in the tree."""
    for dirpath, _, files in os.walk(tree):
        gcdas = sorted(f for f in files if f.endswith(".gcda"))
        if not gcdas:
            continue
        # --stdout keeps both trees' outputs for the same source apart.
        proc = check(["gcov", "--json-format", "--stdout", *gcdas],
                     cwd=dirpath, stdout=subprocess.PIPE,
                     stderr=subprocess.DEVNULL, text=True)
        for line in proc.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def collect(trees):
    """Returns (ran lines per file, functions per file) over all trees."""
    ran = defaultdict(set)
    funcs = defaultdict(dict)
    for tree in trees:
        for doc in gcov_docs(tree):
            for f in doc["files"]:
                path = os.path.normpath(os.path.join(
                    doc["current_working_directory"], f["file"]))
                if not path.startswith(SRC):
                    continue
                rel = os.path.relpath(path, ROOT)
                for line in f["lines"]:
                    if line["count"] > 0:
                        ran[rel].add(line["line_number"])
                    funcs[rel].setdefault("lines", set()).add(
                        line["line_number"])
                for fn in f["functions"]:
                    key = (fn["start_line"], fn["end_line"])
                    funcs[rel].setdefault("fns", {})[key] = (
                        fn["demangled_name"])
    return ran, funcs


def unreached(ran, funcs):
    """Functions none of whose instrumented lines ran.

    A function nested in another (a lambda) is part of that function's body:
    reported with it when it is unreached, a branch of it otherwise. A
    defaulted member has no body of its own, so gcov has no line to count
    for it.
    """
    found = []
    for rel, info in funcs.items():
        lines = info.get("lines", set())
        spans = info.get("fns", {})
        with open(os.path.join(ROOT, rel)) as f:
            source = f.read().splitlines()
        for (start, end), name in spans.items():
            if any((s, e) != (start, end) and s <= start and end <= e
                   for s, e in spans):
                continue
            if start == end and "= default" in source[start - 1]:
                continue
            body = {n for n in lines if start <= n <= end}
            if body and not body & ran[rel]:
                found.append((rel, start, end, name, len(body)))
    return sorted(found)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".coverage_build"))
    args = parser.parse_args()

    top = os.path.join(args.build_dir, "top")
    bench = os.path.join(args.build_dir, "perfbench")
    work = os.path.join(args.build_dir, "run")
    os.makedirs(work, exist_ok=True)
    log("coverage_audit: building")
    build(top, ROOT, [a[0] for a in EXAMPLES])
    build(bench, os.path.join(ROOT, "perfbench"), ["peace_perfbench"])
    clear_counts(top)
    clear_counts(bench)
    log("coverage_audit: running")
    run_all(top, bench, work)
    log("coverage_audit: reading counts")
    ran, funcs = collect([top, bench])

    used = set()
    report = []
    for rel, start, end, name, size in unreached(ran, funcs):
        hit = next((i for i, (f, pat, _) in enumerate(ALLOW)
                    if f in (rel, "*") and fnmatch.fnmatchcase(name, pat)),
                   None)
        if hit is None:
            report.append(f"{rel}:{start}-{end} ({size} lines) {name}")
        else:
            used.add(hit)
    for line in report:
        print(line)
    for i, (f, pat, _) in enumerate(ALLOW):
        if i not in used:
            print(f"stale allow-list entry: {f} {pat}")
    print(f"coverage_audit: {len(report)} unreached src/ functions outside "
          f"the allow-list ({len(used)} of {len(ALLOW)} entries used)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
