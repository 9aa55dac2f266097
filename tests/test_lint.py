"""Source-level rules for the library code."""

import ast
import inspect
import re
from pathlib import Path

from kktools import _backend, _pure

SRC = Path(__file__).resolve().parents[1] / "src" / "kktools"


def test_library_has_no_bare_asserts():
    # `python -O` strips assert statements, so a library check must raise
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_compiled_kernels_mirror_the_pure_signatures():
    # The compiled module is not built everywhere, so its signatures are read
    # from the Cython source: each kernel there needs a pure twin with the
    # same parameter names, and the backend must expose it.
    source = (SRC / "_speedups.pyx").read_text(encoding="utf-8")
    kernels = re.findall(r"^def (\w+)\(([^)]*)\):", source, flags=re.M)
    assert kernels
    for name, params in kernels:
        want = [p.split("=")[0].split()[-1] for p in params.split(",") if p.strip()]
        pure = getattr(_pure, name, None)
        assert pure is not None, f"_pure lacks {name}"
        assert list(inspect.signature(pure).parameters) == want, name
        assert callable(getattr(_backend, name, None)), f"_backend lacks {name}"
