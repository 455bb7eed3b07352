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
