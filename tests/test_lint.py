"""Source-level rules for the library code."""

import ast
import dataclasses
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


def _library_trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _called_name(node):
    """The name a call goes to: `f` for f(...) and mod.f(...), else None."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_integer_type_test_lives_in_the_checker_only():
    # isinstance(x, int) and int.__instancecheck__ accept bools; the one
    # type test is binomials._check_int's `type(value) is int`
    found = []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "isinstance" \
                    and any(isinstance(sub, ast.Name) and sub.id == "int"
                            for arg in node.args[1:] for sub in ast.walk(arg)):
                found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "__instancecheck__" \
                    and getattr(node.value, "id", None) == "int":
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_check_int_is_defined_once_and_called_per_argument():
    # _check_int(op, name, value, lo, hi, even): one argument per call, its
    # bounds in the call, never the old keyword form _check_int(op, n=n)
    defined, keyword_form = [], []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_check_int":
                defined.append(name)
            elif isinstance(node, ast.Call) and _called_name(node) == "_check_int" and (
                    len(node.args) < 3
                    or any(k.arg not in ("lo", "hi", "even") for k in node.keywords)):
                keyword_form.append(f"{name}:{node.lineno}")
    assert defined == ["binomials.py"]
    assert keyword_form == []


def test_binomials_catches_no_type_error():
    # the arguments are checked before math.comb runs, not re-raised after
    tree = ast.parse((SRC / "binomials.py").read_text(encoding="utf-8"))
    caught = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              and any(isinstance(sub, ast.Name) and sub.id == "TypeError"
                      for sub in ast.walk(node.type))]
    assert caught == []


def test_subsets_are_built_through_init_only():
    # perfbench's squashed.subsets_built counter and the tests' build counts
    # wrap Subset.__init__, so no Subset may come from a bare __new__:
    # neither Subset.__new__(...) nor object.__new__(Subset), nor a __new__
    # inside the class
    found = []
    for name, tree in _library_trees():
        in_subset = {id(node) for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) and cls.name == "Subset"
                     for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__new__" \
                    and id(node) in in_subset:
                found.append(f"{name}:{node.lineno}")
            if not (isinstance(node, ast.Call) and _called_name(node) == "__new__"):
                continue
            names = {sub.id for part in (node.func, *node.args)
                     for sub in ast.walk(part) if isinstance(sub, ast.Name)}
            if "Subset" in names or id(node) in in_subset:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_set_family_holds_masks_only():
    # a family is its masks and ground set; Subset members are built on
    # each read of .members, which only squashed.py makes
    assert [f.name for f in dataclasses.fields(kktools.SetFamily)] == ["_masks", "ground_n"]
    readers = [f"{name}:{node.lineno}" for name, tree in _library_trees()
               if name != "squashed.py" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "members"]
    assert readers == []


def test_kappa_table_stays_out_of_the_other_modules():
    # the Thm 2.5 path reads its m off a cascade (kappa._least_minimizer);
    # only kappa.py, the CLI's kappa-table command and the exports use tables
    found = [f"{name}:{node.lineno}" for name, tree in _library_trees()
             if name not in ("kappa.py", "cli.py", "__init__.py")
             for node in ast.walk(tree)
             if getattr(node, "id", None) == "KappaTable"
             or getattr(node, "attr", None) == "KappaTable"
             or isinstance(node, ast.ImportFrom)
             and any(alias.name == "KappaTable" for alias in node.names)]
    assert found == []
