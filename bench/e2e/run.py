#!/usr/bin/env python3
"""End-to-end GRAF benchmark: build graf_e2e, run workloads, report metrics.

    python3 bench/e2e/run.py [--workload W] [--seed N] [--trace [0|1]]
    python3 bench/e2e/run.py --repeat K [--json OUT]      # median + quartiles
    python3 bench/e2e/run.py --compare BASE.json NEW.json # apply the bounds
    python3 bench/e2e/run.py --smoke                      # every metric, tiny sizes

Builds bench/e2e (the repository's build plus the driver) under
$CARGO_TARGET_DIR, or .bench_build at the repository root, then runs each
workload in its own process with GRAF_THREADS=1. Prints one
`workload metric value unit` line per metric and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics (end-to-end
metrics untraced, per-layer metrics with --trace). See bench/e2e/README.md.

--seconds (default: run_seconds in BENCHMARK.json) sets the run length, and
with it every metric; it is part of the benchmark's command-line interface,
is recorded in the results' meta block, and --compare refuses two files run
at different lengths.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# One worker thread: on a shared VM a second pool thread waits on the host
# to schedule a second vCPU, which made run-to-run timings two to four times
# less steady (see README.md, "Why one thread").
THREADS = "1"
RUN_TIMEOUT_S = 170

# Seed sanity: the shape each workload is meant to have, as (info key,
# lowest, highest). Keys a run does not report are skipped.
SANITY = {
    "cached-fleet": [("plan_cache.hit_ratio", 0.9, None), ("miss_tick_share", 0.02, 0.05)],
    "miss-full": [("solves_per_push", 0.75, None)],
    "miss-surrogate": [("surrogate.escalation_ratio", None, 0.1)],
    "surge-sim": [("slo_violation_pct", 0.5, 20.0), ("healthy_plan_changes.min", 3, None)],
}
# Traced runs: on every replayed step the replayed layer spans sum to at
# most 1.1 times the step's span.
SANITY_TRACED = [("replay.ratio.max", None, 1.1)]
# Benchmark settings two result files must share to be compared (build
# flags may differ: a change to them is a change under test).
RUN_SETTINGS = ("seconds", "smoke", "GRAF_THREADS")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir(sanitize):
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return base / ("e2e" if sanitize == "OFF" else "e2e-" + sanitize)


def build(bdir, sanitize):
    """Configure and build graf_e2e; returns the binary path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: the graf sources (src/) are not next to bench/e2e; nothing to build")
        return None
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(bdir), "-j", jobs, "--target", "graf_e2e"]]
    # Configure once; the build step re-runs CMake when a CMakeLists changes.
    if not (bdir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release",
                         "-DGRAF_SANITIZE=" + sanitize])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return None
    return bdir / "graf_e2e"


def cmake_cache(bdir):
    cache = {}
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def meta_block(bdir, seed, seconds, smoke):
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    # The ceiling keeps git from searching above the checkout, which need
    # not be a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    try:
        flags = (bdir / "cxx_flags.txt").read_text().strip()
    except OSError:
        flags = "unknown"
    return {
        "nproc": os.cpu_count(),
        "GRAF_THREADS": int(THREADS),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": flags,
        "native": cache.get("GRAF_NATIVE", ""),
        "sanitizer": cache.get("GRAF_SANITIZE", "OFF"),
        "compiler": version,
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }


def run_one(binary, workload, seed, seconds, trace, smoke, spans):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, GRAF_THREADS=THREADS)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log(f"run.py: {workload} seed {seed} printed no result (exit {p.returncode})")
        return None
    result = json.loads(lines[-1])
    result["exit"] = p.returncode
    result["trace"] = trace
    return result


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_metrics(result, names):
    """Every metric BENCHMARK.json names is present and finite."""
    missing = [n for n in names
               if n not in result["metrics"] or not finite(result["metrics"][n]["value"])]
    if missing:
        log(f"run.py: {result['workload']}: missing or non-finite metrics: {', '.join(missing)}")
    return not missing


def sanity(result):
    """Print the workload's seed-sanity conditions; never fails the run."""
    for key, lo, hi in SANITY.get(result["workload"], []) + SANITY_TRACED:
        value = result["info"].get(key)
        if value is None:
            continue
        ok = (lo is None or value >= lo) and (hi is None or value <= hi)
        bounds = f"[{'' if lo is None else lo}, {'' if hi is None else hi}]"
        log(f"sanity {result['workload']} seed {result['seed']} {key} {value:.4g} "
            f"in {bounds}: {'ok' if ok else 'OUT OF RANGE'}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(spec, base_path, new_path):
    """Apply BENCHMARK.json's bounds to two result files, per workload."""
    def load(path):
        with open(path) as f:
            results = json.load(f)
        out = {}
        for r in results["runs"]:
            if r.get("trace"):
                continue
            for name, m in r["metrics"].items():
                out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
        return results["meta"], out

    (base_meta, base), (new_meta, new) = load(base_path), load(new_path)
    differ = [k for k in RUN_SETTINGS if base_meta.get(k) != new_meta.get(k)]
    if differ:
        for k in differ:
            log(f"run.py: {k} differs: {base_meta.get(k)!r} in {base_path}, "
                f"{new_meta.get(k)!r} in {new_path}")
        log("run.py: refusing to compare runs made with different settings")
        return 2
    regressions = 0
    print(f"{'workload':16} {'metric':26} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            a, b = base[workload].get(m["name"]), new[workload].get(m["name"])
            if not a or not b:
                continue
            med_a, med_b = quartiles(a)[1], quartiles(b)[1]
            spread = 0.0
            for values, med in ((a, med_a), (b, med_b)):
                q1, _, q3 = quartiles(values)
                spread = max(spread, (q3 - q1) / abs(med) if med else 0.0)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
            all_better = (max(b) < min(a)) if m["better"] == "lower" else (min(b) > max(a))
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -m["bound"] or all_better:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"{workload:16} {m['name']:26} {med_a:12.6g} {med_b:12.6g} "
                  f"{100 * (med_b - med_a) / med_a if med_a else 0:+7.2f}% "
                  f"{100 * spread:6.2f}% {100 * m['bound']:5.1f}%  {verdict}")
    return 1 if regressions else 0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds); "
                         "recorded in the meta block")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                    help="traced run: per-layer metrics and a spans file")
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds N..N+K-1")
    ap.add_argument("--json", type=Path, help="results file (default: in the build directory)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), type=Path)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, traced and untraced: check every metric is produced")
    ap.add_argument("--binary", type=Path, help="use this graf_e2e instead of building one")
    ap.add_argument("--sanitize", choices=["address", "thread"],
                    help="sanitizer build: correctness only, timings withheld")
    args = ap.parse_args()

    if args.compare:
        return compare(spec, *args.compare)

    sanitize = args.sanitize or "OFF"
    bdir = build_dir(sanitize)
    binary = args.binary or build(bdir, sanitize)
    if binary is None:
        return 2
    bdir = Path(binary).resolve().parent
    seconds = args.seconds or (0.3 if args.smoke else float(spec["run_seconds"]))
    meta = meta_block(bdir, args.seed, seconds, args.smoke)
    timings = meta["sanitizer"] == "OFF"
    if not timings:
        log("run.py: sanitizer build: reporting correctness only, no timings")

    workloads = [args.workload] if args.workload else names
    traces = [0, 1] if args.smoke else [args.trace]
    jobs = [(w, args.seed + r, trace) for r in range(max(1, args.repeat))
            for trace in traces for w in workloads]

    def job(j):
        w, seed, trace = j
        spans = bdir / f"spans-{w}-seed{seed}.json"
        return run_one(binary, w, seed, seconds, trace, args.smoke, spans)

    # Timed runs go one at a time; the smoke times nothing and runs two.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        runs = list(pool.map(job, jobs))
    if any(r is None for r in runs):
        return 1

    correct = True
    for result in runs:
        listed = [m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]]
        correct &= result["correct"] and result["exit"] == 0 and check_metrics(result, listed)
        if not args.smoke:
            sanity(result)

    out_path = args.json or bdir / "e2e-results.json"
    with open(out_path, "w") as f:
        json.dump({"meta": meta, "runs": runs}, f, indent=1)
    log(f"run.py: results written to {out_path}")

    # Per-metric lines; with several runs, median and quartiles.
    groups = {}
    for result in runs:
        listed = {m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]}
        for name, m in result["metrics"].items():
            if name in listed:
                groups.setdefault((result["workload"], name), (m["unit"], []))[1].append(m["value"])
    summary = {}
    for (w, name), (unit, values) in groups.items():
        q1, med, q3 = quartiles(values)
        if timings:
            if len(values) > 1:
                print(f"{w} {name} {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})")
            else:
                print(f"{w} {name} {med:.10g} {unit}")
        key = name if len(workloads) == 1 else f"{w}.{name}"
        summary[key] = {"value": med, "unit": unit}

    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": summary if timings else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
