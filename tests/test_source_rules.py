"""Rules on the package source, checked on its syntax tree."""

import ast
from pathlib import Path

import dualfix

SRC = Path(dualfix.__file__).parent


def test_no_bare_assert_in_the_package():
    # Invariants must survive ``python -O``, which strips assert statements;
    # raise an exception instead.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
