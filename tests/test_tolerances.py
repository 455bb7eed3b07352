"""Every number that decides a verdict lives in `qmaplab.tolerances`."""
from __future__ import annotations

import ast
from pathlib import Path

import qmaplab

_PACKAGE = Path(qmaplab.__file__).parent


def _small_floats(path: Path):
    """(line, value) of every float constant with 0 < |value| <= 1e-3 in
    the module at `path`."""
    return [(node.lineno, node.value) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) <= 1e-3]


def test_no_tolerance_literal_outside_the_table():
    table = _PACKAGE / "tolerances.py"
    stray = [f"{path.name}:{line}: {value!r}"
             for path in sorted(_PACKAGE.glob("*.py")) if path != table
             for line, value in _small_floats(path)]
    assert stray == []
    # a leaf, so that every module can import it without a cycle
    tree = ast.parse(table.read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
