"""Every number that decides a verdict lives in `qmaplab.tolerances`."""
from __future__ import annotations

import ast
from pathlib import Path

import qmaplab

_PACKAGE = Path(qmaplab.__file__).parent
# dead code that only perfbench's tracer keeps alive; its stopping defaults
# decide no verdict
_EXEMPT = {("optimize.py", "nelder_mead_max")}


def _small_floats(path: Path):
    """(line, value, enclosing function) of every float constant with
    0 < |value| <= 1e-3 in the module at `path`."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) <= 1e-3):
            found.append((node.lineno, node.value, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_tolerance_literal_outside_the_table():
    table = _PACKAGE / "tolerances.py"
    stray = [f"{path.name}:{line}: {value!r}"
             for path in sorted(_PACKAGE.glob("*.py")) if path != table
             for line, value, function in _small_floats(path)
             if (path.name, function) not in _EXEMPT]
    assert stray == []
    # a leaf, so that every module can import it without a cycle
    tree = ast.parse(table.read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
