"""Benchmark runner for kktools.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Runs one workload (or all four, one after another) in fresh Python
processes started one at a time; see README.md in this directory for the
workloads and metrics.  Untraced, it prints every end-to-end metric with its
unit, median, quartiles and sample count; traced, every per-layer metric.
Each run writes a results record with provenance to .perfbench-out/ at the
root of the checkout.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every operation was answered correctly, 1 when one was not, and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
from child import REFERENCE_CALIBRATION_S, ROOT

WORKLOADS = ("battery", "deficit-sweeps", "point-queries", "antichain-pairs")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("query_p50_ms", "ms"), ("query_p99_ms", "ms"))
MIN_CHILDREN = 3      # measuring children per run, each with 1/3 of the time
SETUP_SAMPLES = 15    # set-ups per run, topped up by children that only set up
CHILD_TIMEOUT = 170   # seconds
SCRATCH = os.path.join(ROOT, ".perfbench-out")


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def spawn(workload: str, seed: int, budget: float, trace: int):
    """Run one child; returns (set-up seconds, the child's result)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
           "--workload", workload, "--seed", str(seed), "--budget", str(budget),
           "--trace", str(trace), "--scratch", SCRATCH]
    t0 = time.perf_counter()
    # Unbuffered, so the ready line leaves the rest of the output in the pipe
    # for communicate().
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            bufsize=0)
    try:
        ready = proc.stdout.readline().decode()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} child exited with code {proc.returncode}")
    return setup_s, json.loads(out.decode().strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values) -> dict:
    """Median, quartiles and count.  The quartiles are those of
    statistics.quantiles(values, n=4), by which spreads are judged."""
    values = list(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: children until `seconds` are spent, at least
    MIN_CHILDREN, then set-up-only children up to SETUP_SAMPLES set-ups."""
    children = []
    start = time.perf_counter()
    while True:
        children.append(spawn(workload, seed, seconds / MIN_CHILDREN, 0))
        spent = time.perf_counter() - start
        if len(children) >= MIN_CHILDREN and \
                spent + spent / len(children) > seconds:
            break
    measuring = len(children)
    while len(children) < SETUP_SAMPLES:
        children.append(spawn(workload, seed, 0, 0))
    # Set-up is scaled by the child's first calibration, run right after it.
    setups = [s * REFERENCE_CALIBRATION_S / r["calibration_s"]
              for s, r in children]
    results = [r for _, r in children[:measuring]]
    walls = [w for r in results for w in r["walls"]]
    if not walls:
        errors = [e for r in results for e in r["errors"]][:3]
        raise BenchError(f"{workload}: no repetition completed: {errors}")
    # Per repetition: the median and 99th percentile of its call latencies.
    per_rep = [calls for r in results for calls in r["latencies_ms"]]
    raw = {"setup_s": summary([s for s, _ in children]),
           "wall_s": summary([w for r in results for w in r["raw_walls"]]),
           "calibration_s": summary([r["calibration_s"] for _, r in children])}
    dist = {
        "setup_s": summary(setups),
        "wall_s": summary(walls),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in results]),
        "query_p50_ms": summary([quantile(calls, 0.5) for calls in per_rep]),
        "query_p99_ms": summary([quantile(calls, 0.99) for calls in per_rep]),
    }
    return {"metrics": {name: {"unit": unit, **dist[name]}
                        for name, unit in END_TO_END},
            "raw": raw, "children": results}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def trace_run(workload: str, seed: int) -> dict:
    """One traced run: a single child, fixed work."""
    _, result = spawn(workload, seed, 0, 1)
    values = result["trace"]
    missing = set(tracing.metric_names()) ^ set(values)
    if missing:
        raise BenchError(f"traced metrics differ from the list: {sorted(missing)}")
    return {"metrics": {name: {"unit": per_layer_unit(name), "value": values[name]}
                        for name in tracing.metric_names()},
            "children": [result], "spans": result["spans"]}


def print_table(workload: str, run: dict, trace: int) -> None:
    print(f"== {workload} ({'traced' if trace else 'untraced'})")
    if trace:
        for name, m in run["metrics"].items():
            print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
        return
    print(f"  {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>6s}")
    for name, m in run["metrics"].items():
        print(f"  {name:14s} {m['unit']:5s} {m['median']:>12.6g} {m['q1']:>12.6g} "
              f"{m['q3']:>12.6g} {m['n']:>6d}")
    for name, m in run["raw"].items():
        print(f"  {'raw ' + name:20s} {m['median']:>12.6g} {m['q1']:>12.6g} "
              f"{m['q3']:>12.6g} {m['n']:>6d}")
    ops = run["ops"]
    print(f"  {'error_rate':14s} {'1':5s} {ops['error_rate']:>12.6g} "
          f"(failed {ops['failed']} of {ops['attempted']} ops)")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run = trace_run(workload, seed) if trace else measure(workload, seed, seconds)
    children = run.pop("children")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    run["ops"] = {"attempted": attempted, "failed": failed,
                  "error_rate": failed / attempted if attempted else 1.0}
    run["errors"] = [e for c in children for e in c["errors"]][:10]
    run["provenance"] = {**children[0]["provenance"], "nproc": os.cpu_count(),
                         "git_commit": git_commit(), "seed": seed}
    run.update(workload=workload, seconds=seconds, trace=trace)
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, f"record-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
    print_table(workload, run, trace)
    for err in run["errors"]:
        print(f"  error: {err}")
    print(f"  record: {path}")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kktools", "__init__.py")):
        print(f"no kktools sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        # Warm-up, not measured: compiles the package's bytecode once.
        subprocess.run([sys.executable, "-c", "import kktools"], env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT)
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    field = "value" if args.trace else "median"
    metrics = {}
    for name, run in runs.items():
        prefix = "" if len(runs) == 1 else f"{name}."
        for metric, m in run["metrics"].items():
            metrics[prefix + metric] = {"value": m[field], "unit": m["unit"]}
    attempted = sum(r["ops"]["attempted"] for r in runs.values())
    failed = sum(r["ops"]["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
