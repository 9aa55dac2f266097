"""Source-level rules for the library code."""

import ast
from pathlib import Path

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
