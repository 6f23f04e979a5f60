#!/usr/bin/env python3
"""Perf regression gate over the BENCH_perf.json trajectory.

Runs a smoke-sized pass of the gate benchmarks and fails (exit 1) when any
of them regressed by more than --threshold (default 25%) against the
checked-in baseline rows in BENCH_perf.json.

Gate rows (time-per-op, lower is better):
  BM_Matmul/128              blocked GEMM kernel
  BM_GnnInference            one latency-model forward
  BM_SimulatorEventThroughput  30 simulated seconds of online_boutique
  BM_FleetBatchedPlanThroughput/1  8-tenant fleet step with the tenants
                             coalesced into one block-diagonal solve_batch
                             (DESIGN.md 3.13), single-threaded (the /8 row
                             is ungated: on a single-core CI box 8 workers
                             just contend for one core, so its wall clock
                             reads flat-to-slower vs /1 by design)
  BM_ForecastStep            one forecast-gated control tick (observe +
                             predict + scale)
  BM_SurrogatePlanThroughput/1  one two-tier plan (surrogate descent + one
                             full-GNN verification forward), single-threaded
                             (DESIGN.md 3.14; the /8 row is ungated, same
                             single-core caveat as the fleet rows)
  BM_SurrogateDistill        one admission-sized distillation pass (sample
                             teacher + fit MLP + validate)

Caveat: CI containers are typically pinned to a single core and share it
with the rest of the job, so absolute timings are noisy — observed drift
on a shared box is +/-30% over minutes, which would trip a single-shot
25% gate on pure luck. Smoke mode therefore runs the gate binary
--repeats times (default 3) and compares the per-row MINIMUM against the
baseline: the min is the standard noise-robust timing statistic (load
spikes only ever make code slower), and a real regression shifts the min
too. Each pass stays short (--benchmark_min_time well below the library
default) and the 25% threshold is deliberately loose — this gate catches
order-of-magnitude mistakes (a kernel falling off its fast path, an
accidental O(n^2)), not single-digit drift. Refresh the baseline by
running bench_perf_micro in full and committing the rewritten
BENCH_perf.json.

Usage:
  scripts/bench_check.py [--build-dir build] [--baseline BENCH_perf.json]
                         [--threshold 0.25] [--min-time 0.05] [--repeats 3]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

GATES = [
    "BM_Matmul/128",
    "BM_GnnInference",
    "BM_SimulatorEventThroughput",
    "BM_FleetBatchedPlanThroughput/1",
    "BM_ForecastStep",
    "BM_SurrogatePlanThroughput/1",
    "BM_SurrogateDistill",
]

# ns per unit, for rows whose units differ between baseline and fresh runs.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    # The top-level "meta" object (machine and build) holds no rows.
    for row in doc.get("results", []):
        unit = row.get("unit", "ns")
        if unit in UNIT_NS:
            rows[row["name"]] = row["value"] * UNIT_NS[unit]
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline", default="BENCH_perf.json")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional regression (0.25 = +25%%)")
    ap.add_argument("--min-time", default="0.05",
                    help="benchmark_min_time seconds per gate row (smoke); "
                         "plain double, no 's' suffix (older benchmark libs "
                         "reject the suffixed form)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="smoke passes per gate; the per-row minimum is "
                         "compared (noise-robust: contention only slows)")
    args = ap.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = os.path.join(repo, args.build_dir, "bench", "bench_perf_micro")
    baseline_path = os.path.join(repo, args.baseline)
    if not os.path.exists(binary):
        print(f"bench_check: missing {binary} (build first)", file=sys.stderr)
        return 2
    if not os.path.exists(baseline_path):
        print(f"bench_check: missing baseline {baseline_path}", file=sys.stderr)
        return 2
    baseline = load_rows(baseline_path)
    missing = [g for g in GATES if g not in baseline]
    if missing:
        print(f"bench_check: baseline lacks rows {missing}", file=sys.stderr)
        return 2

    # Wall-clock benchmarks carry a "/real_time" suffix in their instance
    # name (the suffix is stripped from the emitted rows, but the filter
    # matches the suffixed form).
    bench_filter = "^(" + "|".join(GATES) + ")(/real_time)?$"
    fresh = {}
    for _ in range(max(1, args.repeats)):
        with tempfile.TemporaryDirectory() as tmp:
            env = dict(os.environ)
            env["GRAF_BENCH_OUT"] = tmp
            subprocess.run(
                [binary,
                 f"--benchmark_filter={bench_filter}",
                 f"--benchmark_min_time={args.min_time}"],
                check=True, env=env, cwd=tmp,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for name, ns in load_rows(
                    os.path.join(tmp, "BENCH_perf.json")).items():
                fresh[name] = min(ns, fresh.get(name, float("inf")))

    failed = False
    for gate in GATES:
        if gate not in fresh:
            print(f"bench_check: FAIL {gate}: no fresh measurement",
                  file=sys.stderr)
            failed = True
            continue
        base_ns, new_ns = baseline[gate], fresh[gate]
        ratio = new_ns / base_ns if base_ns > 0 else float("inf")
        verdict = "ok" if ratio <= 1.0 + args.threshold else "FAIL"
        print(f"bench_check: {verdict} {gate}: {new_ns:.0f}ns vs "
              f"baseline {base_ns:.0f}ns ({ratio:.2f}x baseline)")
        if verdict == "FAIL":
            failed = True
    if failed:
        print(f"bench_check: regression beyond +{args.threshold:.0%}; see "
              "docstring for the single-core noise caveat before trusting "
              "a marginal failure", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
