"""Tests of the benchmark itself (not of kktools).

    python3 -m pytest perfbench/tests -q

Each test starts run.py in subprocesses, so the suite takes about 90 s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, seed: int = 3, trace: int = 0, root: str = ROOT):
    """Run the benchmark command; returns (exit code, last-line result)."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    return proc.returncode, json.loads(last)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, result = bench(workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_names_match_the_spec():
    assert tracing.metric_names() == [m["name"] for m in SPEC["per_layer"]]
    code, result = bench("point-queries", trace=1)
    assert code == 0 and result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_wrong_answer_fails_the_run(tmp_path):
    """A wrapper installed into a copy of the package that returns
    kappa(r, m) + 1 must show up as failed operations and a non-zero exit."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    with open(tmp_path / "src" / "kktools" / "__init__.py", "a",
              encoding="utf-8") as fh:
        fh.write("\n_right_kappa = kappa\n\n\n"
                 "def kappa(r, m):\n    return _right_kappa(r, m) + 1\n")
    code, result = bench("point-queries", root=str(tmp_path))
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    with open(tmp_path / ".perfbench-out" / "record-point-queries-seed3-trace0.json",
              encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["ops"]["error_rate"] > 0


def test_no_sources_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, result = bench("battery", root=str(tmp_path))
    assert code != 0 and result == {}


def test_spans_nest_and_self_times_add_up():
    code, result = bench("antichain-pairs", trace=1)
    assert code == 0
    header, cols = tracing.read_spans(
        os.path.join(ROOT, ".perfbench-out", "spans-antichain-pairs.bin"))
    layers = header["layers"]
    name, parent, start, end = (cols[c] for c in tracing.SPAN_COLUMNS)
    assert header["count"] == len(start) > 1
    assert parent[0] == -1 and layers[name[0]] == tracing.ROOT
    for i in range(1, len(start)):
        p = parent[i]
        assert 0 <= p < i
        assert start[p] <= start[i] <= end[i] <= end[p]
        assert layers[name[i]] != layers[name[p]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = metrics["bench.self_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-6)


@pytest.mark.parametrize("workload", ["point-queries", "antichain-pairs"])
def test_counts_repeat_for_a_seed(workload):
    counted = [name for name in tracing.metric_names()
               if name.endswith(".calls") or name in tracing.COUNTERS
               or name == "trace.spans"]
    runs = []
    for _ in range(2):
        code, result = bench(workload, seed=11, trace=1)
        assert code == 0
        runs.append({k: result["metrics"][k]["value"] for k in counted})
    assert runs[0] == runs[1]
    assert runs[0]["binomials.calls"] > 0


def test_sweep_called_inside_its_layer_is_timed():
    """verify_conjecture51 calls check_conjecture51 from inside the kappa
    layer, so no span opens for it; its time must be counted all the same."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kktools
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root():
            kktools.verify_conjecture51(6)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert 0 < metrics["check.check_conjecture51.s"] \
        <= metrics["check.verify_conjecture51.s"]
