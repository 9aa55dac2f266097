"""Repeat the benchmark over several seeds and summarise the runs.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload, runs run.py untraced once per seed (seeds 1..RUNS) for
BENCHMARK.json's run_seconds, then once traced (seed 1).  Each end-to-end
metric is summarised over the runs by run.summary (median and quartiles)
plus the spread (q3 - q1) / median, and so are the raw set-up, wall and
calibration times; the traced run gives one per-layer table.  The summary
goes to --out, and a table of medians and spreads to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from run import WORKLOADS, summary

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SECONDS = json.load(_fh)["run_seconds"]


def run_bench(workload: str, seed: int, trace: int) -> dict:
    """One run of run.py: its last-line result, with the record's provenance
    and raw (unscaled) times added."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = os.path.join(os.path.dirname(HERE), ".perfbench-out",
                          f"record-{workload}-seed{seed}-trace{trace}.json")
    with open(record, encoding="utf-8") as fh:
        rec = json.load(fh)
    result["provenance"] = rec["provenance"]
    result["raw"] = {name: m["median"] for name, m in rec.get("raw", {}).items()}
    return result


def summarise(values: list[float]) -> dict:
    s = summary(values)
    return {**s, "spread": (s["q3"] - s["q1"]) / s["median"], "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)
    out = {"seconds": SECONDS, "runs": RUNS, "workloads": {}}
    for workload in WORKLOADS:
        results = [run_bench(workload, seed, 0) for seed in range(1, RUNS + 1)]
        metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        for name, m in metrics.items():
            m["unit"] = results[0]["metrics"][name]["unit"]
            print(f"{workload:16s} {name:14s} median {m['median']:12.6g} "
                  f"{m['unit']:3s} spread {m['spread']:.3f}", flush=True)
        traced = run_bench(workload, 1, 1)
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "raw": {name: summarise([r["raw"][name] for r in results])
                    for name in results[0]["raw"]},
            "ops": {"attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results)},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        out["provenance"] = results[0]["provenance"]
        out["provenance"].pop("seed", None)
    prov = out["provenance"]
    out["label"] = (f"{prov['backend']} backend, {prov['nproc']} cores "
                    f"({platform.processor() or platform.machine()}), "
                    f"Python {prov['python']}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
