"""Layer tracing for the benchmark, installed from outside the library.

`Tracer.install` wraps the public functions and class methods of each
kktools module and rebinds every reference to them inside the package, so
calls made by the library itself pass through the wrappers too.  A wrapper
opens a span only where control crosses into a different layer; calls inside
one layer run straight through.  Counters that measure work (masks through
the kernels, table rows, subsets built, ...) count every call, crossing or
not, and so does the timer of each sweep (`SWEEPS`).  `uninstall` puts the
original objects back.

Spans live in flat arrays (name, parent, start, end) and are written out once
the traced run ends; the name table gives each name's layer.  Span 0 is the
benchmark's own root span: its self time is the time spent in the
benchmark's code, so the self times of all spans add up to the root's
duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter

# Module of kktools -> layer name.  The kernels are reached through
# `_backend`, which only re-exports the functions of one of these two modules.
LAYER_OF_MODULE = {
    "kktools.cli": "cli",
    "kktools.report": "report",
    "kktools.squashed": "squashed",
    "kktools.binomials": "binomials",
    "kktools.shadows": "shadows",
    "kktools.kappa": "kappa",
    "kktools.antichains": "antichains",
    "kktools._pure": "kernels",
    "kktools._speedups": "kernels",
}
LAYERS = ("cli", "report", "squashed", "binomials", "shadows", "kappa",
          "antichains", "kernels")
ROOT = "bench"

# The sweeps whose total time is reported as check.<name>.s.  Every call is
# timed, also one made from inside the sweep's own layer, which opens no span.
# A fixed list, so the set of metric names does not depend on the library
# version.
SWEEPS = (
    "verify_d_identities", "verify_kkt", "verify_lieby_duality",
    "verify_clements_minimality", "verify_prop22", "verify_thm23",
    "verify_prop24", "verify_lemma38", "verify_conjecture51",
    "check_conjecture51", "verify_extremal_constructions",
    "verify_thm25_brute", "verify_thm26_structure", "sperner_max_check",
)

SPAN_COLUMNS = ("name_id", "parent", "start", "end")

COUNTERS = ("kernels.masks_in", "kernels.masks_out", "kappa.table_builds",
            "kappa.table_rows", "squashed.subsets_built",
            "squashed.mask_reads", "antichains.pairs_scanned",
            "antichains.enumerations")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = ["cli.import_s"]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    names += list(COUNTERS)
    names += [f"check.{sweep}.s" for sweep in SWEEPS]
    names += ["bench.self_s", "trace.wall_s", "trace.spans",
              "trace.overhead_ratio"]
    return names


class Tracer:
    """Spans and counters for one traced run of one workload."""

    def __init__(self):
        self.span_names: list[str] = []
        self.span_layers: list[str] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.sweep_s = dict.fromkeys(SWEEPS, 0.0)
        self._stack = [-1]
        self._layer_stack = [ROOT]
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- spans ---------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.span_names)
            self.span_names.append(name)
            self.span_layers.append(layer)
        return self._name_ids[key]

    def _open(self, name_id: int, layer: str) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self._layer_stack.append(layer)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._layer_stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The root span, around the traced work."""
        idx = self._open(self._intern(ROOT, ROOT), ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str, name: str, counting=None):
        name_id = self._intern(name, layer)
        layer_stack = self._layer_stack
        inner = functools.partial(counting, fn) if counting else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer_stack[-1] == layer:
                return inner(*args, **kwargs)
            idx = self._open(name_id, layer)
            try:
                return inner(*args, **kwargs)
            finally:
                self._close(idx)

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- counters ------------------------------------------------------

    def _counting(self, layer: str, name: str):
        """The counting (or timing) hook for one function, or None."""
        counts = self.counts
        if name in SWEEPS:
            sweep_s = self.sweep_s

            def sweep(fn, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sweep_s[name] += time.perf_counter() - t0
            return sweep
        if layer == "kernels":
            def kernel(fn, *args, **kwargs):
                result = fn(*args, **kwargs)
                counts["kernels.masks_in"] += len(args[0])
                # scan_pairs returns (best, hits); the others return lists
                out = result[1] if isinstance(result, tuple) else result
                counts["kernels.masks_out"] += len(out)
                return result
            return kernel
        if name == "KappaTable.build":
            def build(fn, *args, **kwargs):
                table = fn(*args, **kwargs)
                counts["kappa.table_builds"] += 1
                counts["kappa.table_rows"] += len(table.kappa)
                return table
            return build
        if name == "Subset.__init__":
            def built(fn, *args, **kwargs):
                counts["squashed.subsets_built"] += 1
                return fn(*args, **kwargs)
            return built
        if name == "Subset.mask":
            def read(fn, *args, **kwargs):
                counts["squashed.mask_reads"] += 1
                return fn(*args, **kwargs)
            return read
        if name == "enumerate_antichains":
            def enumerate_(fn, *args, **kwargs):
                info = getattr(fn, "cache_info", None)
                before = info().misses if info else 0
                result = fn(*args, **kwargs)
                counts["antichains.enumerations"] += \
                    info().misses - before if info else 1
                return result
            return enumerate_
        if name == "brute_force_max":
            def scan(fn, *args, **kwargs):
                result = fn(*args, **kwargs)
                n = args[0] if args else kwargs["n"]
                # the untraced enumeration, already cached by this call
                families = self._originals["enumerate_antichains"](n)
                counts["antichains.pairs_scanned"] += len(families) ** 2
                return result
            return scan
        return None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == "kktools" or name.startswith("kktools."))}
        replace: dict[int, object] = {}
        for mod_name, layer in LAYER_OF_MODULE.items():
            mod = modules.get(mod_name)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod_name:
                    self._wrap_class(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == mod_name:
                    self._originals[attr] = obj
                    replace[id(obj)] = self._wrap(obj, layer, attr,
                                                  self._counting(layer, attr))
        # Rebind every reference, including names imported into other modules.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None:
                    self._set(mod, attr, new)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{cls.__name__}.{attr}"
            counting = self._counting(layer, name)
            if isinstance(obj, property) and obj.fget is not None:
                new = property(self._wrap(obj.fget, layer, name, counting))
            elif isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(obj.__func__, layer, name, counting))
            elif callable(obj):
                new = self._wrap(obj, layer, name, counting)
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, target, attr: str, new) -> None:
        # vars(), not getattr(): a class must get back its raw classmethod
        # or property object
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, new)

    def uninstall(self) -> None:
        for target, attr, old in reversed(self._undo):
            setattr(target, attr, old)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self time and calls, counters, and per-sweep totals."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(1, n):
            child[self.parent[i]] += dur[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for i in range(n):
            nid = self.name_id[i]
            layer = self.span_layers[nid]
            if layer == ROOT:
                out["bench.self_s"] = dur[i] - child[i]
                continue
            out[f"{layer}.self_s"] += dur[i] - child[i]
            out[f"{layer}.calls"] += 1
        for key in COUNTERS:
            out[key] = self.counts[key]
        for sweep, total in self.sweep_s.items():
            out[f"check.{sweep}.s"] = total
        out["trace.wall_s"] = dur[0]
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """Write the spans: one JSON header line, then the columns as raw
        native arrays in the header's order (see `read_spans`)."""
        header = {"names": self.span_names, "layers": self.span_layers,
                  "count": len(self.start),
                  "columns": [[col, getattr(self, col).typecode]
                              for col in SPAN_COLUMNS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in SPAN_COLUMNS:
                getattr(self, col).tofile(fh)


def read_spans(path) -> tuple[dict, dict[str, array]]:
    """The header and the columns of a spans file written by Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for col, typecode in header["columns"]:
            columns[col] = array(typecode)
            columns[col].fromfile(fh, header["count"])
    return header, columns
