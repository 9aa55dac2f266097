"""Source-level rules for the library code."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import kktools

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


def test_verify_all_gives_the_golden_report_under_optimize():
    # the run-time side of the rule above: with asserts stripped by -O,
    # `verify all` still gives tests/data/verify_all.json apart from elapsed_ms
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "kktools", "verify", "all", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    payload.pop("elapsed_ms")
    golden = Path(__file__).parent / "data" / "verify_all.json"
    assert json.dumps(payload, indent=2) + "\n" == golden.read_text()


def test_every_exported_name_resolves_and_the_list_is_sorted():
    # a function deleted from a module must not stay in __all__
    missing = [name for name in kktools.__all__ if not hasattr(kktools, name)]
    assert missing == []
    assert kktools.__all__ == sorted(set(kktools.__all__))


def _names_a_cache(node) -> bool:
    """True for `cache`, `lru_cache`, `functools.cache`, ... and calls of them."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def test_enumeration_holds_the_only_cross_call_cache():
    # the benchmark clears the enumerate_antichains cache before each
    # repetition, as a CLI process starts cold; any other cache that
    # outlives a call would make repetitions warm.  Caches built inside a
    # function (one per call) are fine.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(_names_a_cache(d) for d in node.decorator_list):
                        found.append(f"{path.name}:{node.name}")
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                        node.value is not None and \
                        any(isinstance(sub, ast.Call) and _names_a_cache(sub)
                            for sub in ast.walk(node.value)):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == ["antichains.py:enumerate_antichains"]
