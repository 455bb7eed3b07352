"""Every number that decides a verdict lives in `qmaplab.tolerances`."""
from __future__ import annotations

import ast
from pathlib import Path

import qmaplab
from qmaplab import tolerances

_PACKAGE = Path(qmaplab.__file__).parent
_README = Path(__file__).parent.parent / "README.md"


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


def test_readme_tolerance_table_matches_the_module():
    text = _README.read_text(encoding="utf-8")
    rows = []
    for line in text[text.index("| name | value | decides |"):].splitlines()[2:]:
        if not line.strip().startswith("|"):
            break
        name, value, _ = (cell.strip() for cell in line.strip().strip("|").split("|", 2))
        rows.append((name.strip("`"), value))
    constants = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    # one row per constant, each naming a constant and giving its value
    assert sorted(name for name, _ in rows) == sorted(constants)
    assert {name: float(value) for name, value in rows} == constants


# `1.0 + tol` as `ast.unparse` writes it, in either order
_ONE_PLUS_TOL = {"1.0 + tol", "1 + tol", "tol + 1.0", "tol + 1"}


def _inlined_rules(path: Path) -> list:
    """(line, rule) of every `x >= -tol` (or `-tol <= x`) and every
    `1.0 + tol` in the module at `path`; docstrings are not code, so they
    never match, nor does the strict `bound < -tol` of a dual certificate."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            found += [(node.lineno, "inside") for left, op, right in zip(sides, node.ops, sides[1:])
                      if (type(op), ast.unparse(right)) == (ast.GtE, "-tol")
                      or (type(op), ast.unparse(left)) == (ast.LtE, "-tol")]
        elif isinstance(node, ast.BinOp) and ast.unparse(node) in _ONE_PLUS_TOL:
            found.append((node.lineno, "exceeds"))
    return found


def test_each_threshold_rule_is_written_once():
    # the domain rule lives in `tolerances.inside` and the hazard rule in
    # `tolerances.exceeds`; a restatement elsewhere could drift from them
    table = _PACKAGE / "tolerances.py"
    assert sorted(rule for _, rule in _inlined_rules(table)) == ["exceeds", "inside"]
    stray = [f"{path.name}:{line}: {rule}"
             for path in sorted(_PACKAGE.glob("*.py")) if path != table
             for line, rule in _inlined_rules(path)]
    assert stray == []
    assert tolerances.inside(0.0, 0.0) and not tolerances.inside(-1e-9, 0.0)
    assert tolerances.exceeds(1.0 + 2e-9, 1e-9) and not tolerances.exceeds(1.0, 0.0)
