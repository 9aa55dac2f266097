"""What `import kktools` loads: the kappa names eagerly, the antichain and
CLI names on first use.  Each case runs in a fresh interpreter, since the
test session has loaded every module already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


LEAVES = "[m for m in ('kktools.antichains', 'kktools.cli') if m in sys.modules]"


def test_a_kappa_caller_loads_neither_antichains_nor_cli():
    assert run_python(f"""
import sys, kktools
kktools.verify_prop22(3)
print({LEAVES})
kktools.theorem25_bound(6, 3)
print({LEAVES})
kktools.main
print({LEAVES})
""").splitlines() == ["[]", "['kktools.antichains']",
                      "['kktools.antichains', 'kktools.cli']"]


@pytest.mark.parametrize("first", ["kappa", "theorem25_bound", "main",
                                   "ExtremalConstruction", "antichains", "cli"])
def test_kappa_is_the_function_in_any_access_order(first):
    # the submodule kktools.kappa is loaded eagerly, before the function is
    # bound over it, so loading a leaf later does not rebind the name
    assert run_python(f"""
import inspect, kktools
from kktools import {first}
import kktools.antichains, kktools.cli
print(inspect.isfunction(kktools.kappa), kktools.kappa.__module__, kktools.kappa(2, 5))
""") == "True kktools.kappa -1"


def test_lazy_names_are_the_modules_own_and_stay_bound():
    assert run_python("""
import importlib, kktools
for name, module in kktools._LAZY.items():
    value = getattr(kktools, name)
    assert name in kktools.__all__, name
    assert value is getattr(importlib.import_module("kktools." + module), name), name
    assert vars(kktools)[name] is value, name
print(len(kktools._LAZY))
""") == "16"


def test_dir_covers_all_before_any_leaf_loads():
    assert run_python(f"""
import sys, kktools
print(sorted(set(kktools.__all__) - set(dir(kktools))), {LEAVES})
""") == "[] []"


def test_an_unknown_name_raises_attribute_error():
    assert run_python(f"""
import sys, kktools
try:
    kktools.no_such_name
except AttributeError as exc:
    print(exc)
print(hasattr(kktools, "backend_name"), {LEAVES})
""").splitlines() == ["module 'kktools' has no attribute 'no_such_name'",
                      "False []"]


def test_star_import_binds_every_name():
    assert run_python("""
import kktools
names = {}
exec("from kktools import *", names)
print([n for n in kktools.__all__ if names.get(n) is not getattr(kktools, n)])
""") == "[]"
