"""Source-level guards over the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "svlab"


def test_no_assert_statements():
    # python -O strips assert, so no check in the package may use it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
