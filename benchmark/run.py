#!/usr/bin/env python3
"""The repository benchmark: builds pier_bench and runs the PIER workloads.

  python3 benchmark/run.py                  # every workload: table + out/results.json
  python3 benchmark/run.py --trace          # ... plus traced runs and per-layer metrics
  python3 benchmark/run.py --smoke          # tiny sizes, all workloads and the trace
                                            # path; fails unless every output is correct
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                            # one workload; the last stdout line is one
                                            # JSON object (end-to-end metrics with
                                            # --trace 0, per-layer metrics with --trace 1)
  python3 benchmark/run.py compare A B      # A, B: results files or directories of them

Each repetition is a fresh pier_bench process (same seed, so the same inputs and
the same virtual-time results); repetitions continue until --seconds of wall time
have passed, with at least MIN_REPS. Wall-clock metrics are medians over the
repetitions; virtual-time metrics must be identical in all of them, which checks
determinism. Only the Python standard library is used.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["ingest", "snapshot", "continuous", "lookup"]
MIN_REPS = 3
RUN_TIMEOUT_S = 170  # one workload's repetitions together, build excluded

# Every end-to-end metric pier_bench reports, by the name it reports it under:
# (unit, better, group, BENCHMARK.json name it stands for on its workload, or
# its own regression bound when it has no BENCHMARK.json counterpart).
METRICS = {
    "setup_s": ("s", "lower", "wall", "setup_s"),
    "mem_peak_mb": ("MB", "lower", "wall", "mem_peak_mb"),
    "tuples_per_s": ("1/s", "higher", "wall", 0.10),
    "queries_per_s": ("1/s", "higher", "wall", 0.10),
    "visible_p50_ms": ("ms", "lower", "virtual", "latency_p50_ms"),
    "visible_p99_ms": ("ms", "lower", "virtual", "latency_p99_ms"),
    "first_answer_p50_ms": ("ms", "lower", "virtual", 0.05),
    "last_answer_p50_ms": ("ms", "lower", "virtual", "latency_p50_ms"),
    "last_answer_p99_ms": ("ms", "lower", "virtual", "latency_p99_ms"),
    "alert_p50_ms": ("ms", "lower", "virtual", "latency_p50_ms"),
    "alert_p99_ms": ("ms", "lower", "virtual", "latency_p99_ms"),
    "window_p50_ms": ("ms", "lower", "virtual", 0.05),
    "window_p99_ms": ("ms", "lower", "virtual", 0.05),
    "ingest_drain_ms": ("ms", "lower", "virtual", 0.10),
    "net_mb": ("MB", "lower", "virtual", "net_mb"),
    "net_msgs": ("count", "lower", "virtual", "net_msgs"),
    "recall": ("ratio", "higher", "virtual", "recall"),
    "error_rate": ("ratio", "lower", "virtual", 0.0),
}

# Checks on a traced run: spans must cover the timed phase, and the bench's
# own answer callbacks must stay small next to the simulation they ride in.
MIN_TRACE_COVERAGE = 0.95
MAX_CALLBACK_SHARE = 0.05


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build ------------------------------------------------------------------------


def build():
    """Configure (once) and build pier_bench in Release; returns the binary."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "pier_bench"
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", "-Wno-dev"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target", "pier_bench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:] + r.stderr[-4000:])
            if cmd is steps[0] and len(steps) == 2:
                shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("benchmark build failed: " + " ".join(cmd))
    return build_dir / "pier_bench"


# --- Running ----------------------------------------------------------------------


def run_once(binary, workload, seed, smoke, deadline, trace_out=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"pier_bench {workload} ran past the {RUN_TIMEOUT_S} s limit")
    if r.returncode != 0:
        log(r.stderr[-4000:])
        sys.exit(f"pier_bench {workload} exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"pier_bench {workload} printed nothing")
    return json.loads(lines[-1])


def run_workload(binary, workload, seed, seconds, traced, smoke):
    """Repeat fresh processes; with `traced`, alternate untraced and traced."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"{workload}.trace.json"
    plain, with_trace = [], []
    min_reps = 1 if smoke or traced else MIN_REPS
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    while True:
        plain.append(run_once(binary, workload, seed, smoke, deadline))
        if traced:
            with_trace.append(
                run_once(binary, workload, seed, smoke, deadline, trace_file))
        if len(plain) >= min_reps and time.monotonic() - start >= seconds:
            break
    return summarize(plain, with_trace)


def summarize(plain, with_trace):
    first = plain[0]
    errors = list(first["errors"])
    for r in plain + with_trace:
        if r["virtual"] != first["virtual"]:
            errors.append("virtual-time metrics differ between runs of one seed")
            break
    metrics = {}
    for name, (unit, better, group, _) in METRICS.items():
        values = [r[group][name][0] for r in plain if name in r[group]]
        if not values:
            continue
        metrics[name] = {
            "value": statistics.median(values),
            "unit": unit,
            "better": better,
            "samples": first[group][name][1],
            "reps": values,
        }
    recall = metrics["recall"]["value"]
    if recall != 1:
        errors.append(f"recall {recall} != 1")
    if first["failed"]:
        errors.append(f"{first['failed']} of {first['attempted']} operations failed")
    result = {
        "correct": not errors,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "errors": errors,
        "metrics": metrics,
    }
    if with_trace:
        result.update(summarize_trace(plain, with_trace, errors))
        result["correct"] = not errors
    return result


def summarize_trace(plain, with_trace, errors):
    spec = load_spec()
    layers = {}
    for name in with_trace[0]["layer"]:
        layers[name] = statistics.median(r["layer"][name] for r in with_trace)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        errors.append("traced run lacks per-layer metrics: " + ", ".join(missing))
    coverage = min(r["trace"]["timed_coverage"] for r in with_trace)
    if coverage < MIN_TRACE_COVERAGE:
        errors.append(f"spans cover only {coverage:.1%} of the timed phase")
    share = max(r["trace"]["on_tuple_share_of_run"] for r in with_trace)
    if share >= MAX_CALLBACK_SHARE:
        errors.append(f"bench callbacks take {share:.1%} of runtime.run")
    traced_s = statistics.median(r["wall"]["timed_s"][0] for r in with_trace)
    plain_s = statistics.median(r["wall"]["timed_s"][0] for r in plain)
    return {
        "layers": layers,
        "trace_checks": {
            "timed_coverage": coverage,
            "callback_share_of_run": share,
            "virtual_identical": all(r["virtual"] == plain[0]["virtual"]
                                     for r in with_trace),
            "tracing_overhead": traced_s / plain_s - 1,
            "spans": with_trace[0]["trace"]["spans"],
        },
    }


def result_line(result, traced):
    """The one-line result of a single-workload run: the per-layer metrics
    (traced) or the end-to-end metrics (untraced) BENCHMARK.json lists."""
    spec = load_spec()
    out = {}
    if traced:
        for m in spec["per_layer"]:
            out[m["name"]] = {"value": result["layers"].get(m["name"]),
                              "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            source = next((v for k, v in result["metrics"].items()
                           if METRICS[k][3] == m["name"]), None)
            out[m["name"]] = {"value": source and source["value"], "unit": m["unit"]}
    missing = [k for k, v in out.items() if v["value"] is None]
    correct = result["correct"] and not missing
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


# --- Printing ---------------------------------------------------------------------


def fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_table(results):
    print(f"{'workload':<11} {'metric':<22} {'unit':<6} {'value':>14} {'samples':>8}")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:<11} {name:<22} {m['unit']:<6} {fmt(m['value']):>14} "
                  f"{m['samples']:>8}")
        status = "ok" if res["correct"] else "FAILED: " + "; ".join(res["errors"])
        print(f"{workload:<11} {'outputs':<22} {'':<6} {status:>14}")


def print_layers(results):
    for workload, res in results.items():
        if "layers" not in res:
            continue
        checks = res["trace_checks"]
        print(f"\n{workload}: traced run — spans cover {checks['timed_coverage']:.1%} "
              f"of the timed phase, callbacks {checks['callback_share_of_run']:.2%} "
              f"of runtime.run, tracing overhead {checks['tracing_overhead']:+.1%}, "
              f"virtual metrics identical: {checks['virtual_identical']}")
        for name, v in res["layers"].items():
            print(f"  {name:<34} {fmt(v):>14}")


# --- compare ------------------------------------------------------------------------


def load_results(path):
    """One results.json, or every *.json in a directory (one set of runs each)."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        with open(f) as fh:
            data = json.load(fh)
        if "workloads" in data:
            runs.append(data["workloads"])
    if not runs:
        sys.exit(f"no results in {path}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a_path, b_path):
    """Per metric and workload: each side's median and quartiles, the share of
    (A[i], B[i]) pairs B won, and a verdict. B regresses when its median is
    worse than A's by more than the bound; a metric whose run-to-run spread in
    A is wider than the bound is unresolved unless every B run beats every A
    run."""
    end_to_end = {m["name"]: m for m in load_spec()["end_to_end"]}
    a_runs, b_runs = load_results(a_path), load_results(b_path)
    print(f"A: {a_path} ({len(a_runs)} runs)   B: {b_path} ({len(b_runs)} runs)")
    print(f"{'workload':<11} {'metric':<20} {'A median [q1, q3]':<38} "
          f"{'B median [q1, q3]':<38} {'B won':<6} verdict")
    regressions = 0
    for workload in WORKLOADS:
        names = [n for n in METRICS if all(n in r.get(workload, {}).get("metrics", {})
                                           for r in a_runs + b_runs)]
        for name in names:
            better, alias = METRICS[name][1], METRICS[name][3]
            bound = end_to_end[alias]["bound"] if isinstance(alias, str) else alias
            a = [r[workload]["metrics"][name]["value"] for r in a_runs]
            b = [r[workload]["metrics"][name]["value"] for r in b_runs]
            aq, bq = quartiles(a), quartiles(b)
            sign = 1 if better == "higher" else -1
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            base = abs(aq[1]) or 1.0  # a zero median compares absolutely
            worse = sign * (aq[1] - bq[1]) / base  # > 0: B is worse
            spread = (aq[2] - aq[0]) / base
            if spread > bound:
                if all(sign * (y - x) > 0 for x in a for y in b):
                    verdict = "better (every B run beats every A run)"
                else:
                    verdict = f"unresolved (A spread {spread:.1%} > bound {bound:.1%})"
            elif worse > bound:
                verdict = f"REGRESSION ({worse:.1%} worse > bound {bound:.1%})"
                regressions += 1
            else:
                verdict = (f"ok (B {worse:.1%} worse)" if worse > 0 else
                           f"ok (B {-worse:.1%} better)")
            side = lambda q: f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"
            print(f"{workload:<11} {name:<20} {side(aq):<38} {side(bq):<38} "
                  f"{f'{wins}/{len(pairs)}':<6} {verdict}")
    return 1 if regressions else 0


# --- main -----------------------------------------------------------------------------


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A B")
        return compare(argv[1], argv[2])

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="results file (default benchmark/out/results.json)")
    args = ap.parse_args(argv)
    traced = args.trace == "1" or args.smoke  # smoke covers the trace path too
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.smoke else load_spec()["run_seconds"]

    binary = build()
    if args.workload:
        res = run_workload(binary, args.workload, args.seed, seconds, traced,
                           args.smoke)
        print_table({args.workload: res})
        if traced:
            print_layers({args.workload: res})
        print(json.dumps(result_line(res, traced)))
        return 0

    started = time.monotonic()
    results = {}
    for w in WORKLOADS:
        log(f"running {w} ...")
        results[w] = run_workload(binary, w, args.seed, seconds, traced, args.smoke)
    print_table(results)
    print_layers(results)
    out = Path(args.out) if args.out else HERE / "out" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
                   "traced": traced, "workloads": results}, f, indent=1)
    elapsed = time.monotonic() - started
    print(f"\nresults: {out} ({elapsed:.1f} s)")
    ok = all(r["correct"] for r in results.values())
    if args.smoke and not ok:
        print("smoke FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
