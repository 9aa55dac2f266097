"""One child process of the benchmark, started by run.py.

It imports kktools (timed on its own, as cli.import_s), makes the workload's
inputs, prints ``ready`` and then measures:

* untraced (``--trace 0``): repetitions of the workload until ``--budget``
  seconds are spent, at least one unless the budget is 0.  A calibration
  loop runs before the first repetition and after each one, and every time
  is also reported scaled to the reference machine's speed;
* traced (``--trace 1``): one untraced repetition, then one repetition with
  the tracer installed, so the work, and every count, is fixed by the seed.

Every repetition's outputs are checked after its timed call.  The last line
on standard output is one JSON object with the samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Seconds the calibration loop takes on the reference machine (2-core Xeon
# VM, Python 3.11); times are reported at that machine's speed.
REFERENCE_CALIBRATION_S = 0.010


def _cascade_terms(m: int, r: int) -> int:
    terms = 0
    i = r
    while m > 0:
        a = i
        while math.comb(a + 1, i) <= m:
            a += 1
        m -= math.comb(a, i)
        terms += 1
        i -= 1
    return terms


@dataclass(frozen=True)
class _Item:
    """A small frozen record, normalised on construction like kktools'
    Subset."""

    elements: tuple
    ground_n: int

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        if elems != self.elements:
            object.__setattr__(self, "elements", elems)


def _calibration_loop() -> int:
    """Fixed work of the kinds kktools does, written apart from it: greedy
    binomial cascades, bitmask shadows collected in a set, and small frozen
    records built, deduplicated and sorted."""
    total = sum(_cascade_terms(m * 977, 6) for m in range(0, 3000, 10))
    for _ in range(3):
        seen = set()
        for m in range(1 << 10):
            x = m
            while x:
                low = x & -x
                seen.add(m ^ low)
                x ^= low
        total += len(seen)
    items = [_Item((i % 7, i % 5 + 7, i % 3 + 12), 20) for i in range(1500)]
    return total + len(sorted(set(items), key=lambda item: item.elements))


def calibrate() -> float:
    """Median seconds of three calibration loops, with the collector off so
    the library's heap does not slow them."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times)[1]


def provenance(kktools) -> dict:
    backend = getattr(kktools, "backend_name", None)
    return {
        "kktools_version": getattr(kktools, "__version__", None),
        "python": platform.python_version(),
        "backend": backend() if callable(backend) else backend,
    }


class Tally:
    """Operations attempted and failed, with the first few error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int, errors) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors += list(errors)[:max(0, 5 - len(self.errors))]


def run_once(wl, tally: Tally):
    """One timed repetition, checked afterwards.  Returns (seconds, latency of
    each call in ms), or (seconds, None) when the repetition raised."""
    t0 = time.perf_counter()
    try:
        outputs, latencies = wl.run()
    except Exception as exc:  # counted as a failed operation, reported below
        tally.add(1, 1, [f"{type(exc).__name__}: {exc}"])
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    tally.add(*wl.check(outputs))
    return wall, latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import kktools
    import_s = time.perf_counter() - t0
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(kktools.__file__).startswith(src):
        print(f"kktools imported from {kktools.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    print("ready", flush=True)

    tally = Tally()
    walls: list[float] = []
    raw_walls: list[float] = []
    latencies: list[list[float]] = []
    result = {"import_s": import_s, "provenance": provenance(kktools)}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        import tracing
        wall, _ = run_once(wl, tally)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.root():
                outputs, _ = wl.run()
        except Exception as exc:  # counted as a failed operation
            outputs = None
            tally.add(1, 1, [f"traced: {type(exc).__name__}: {exc}"])
        finally:
            tracer.uninstall()
        if outputs is not None:
            tally.add(*wl.check(outputs))
        metrics = tracer.metrics()
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / wall
        spans_path = os.path.join(
            args.scratch, f"spans-{args.workload}.bin")
        tracer.write(spans_path)
        result.update(trace=metrics, spans=spans_path, untraced_wall_s=wall)
    else:
        # Each repetition is scaled by the calibration loops run just before
        # and just after it.
        before = result["calibration_s"] = calibrate()
        start = time.perf_counter()
        while args.budget > 0:
            wall, calls = run_once(wl, tally)
            if calls is None:
                break
            after = calibrate()
            scale = 2 * REFERENCE_CALIBRATION_S / (before + after)
            before = after
            if not raw_walls:
                # after one repetition, so it does not grow with the count
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            raw_walls.append(wall)
            walls.append(wall * scale)
            latencies.append([ms * scale for ms in calls])
            spent = time.perf_counter() - start
            if spent + spent / len(walls) > args.budget:
                break
    result.update(walls=walls, raw_walls=raw_walls, latencies_ms=latencies,
                  peak_rss_mb=peak_kb / 1024, attempted=tally.attempted,
                  failed=tally.failed, errors=tally.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
