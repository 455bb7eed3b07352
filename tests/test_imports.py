"""Every import in the package is read: an unused one hides what a module
really depends on, and outlives the code that needed it."""
from __future__ import annotations

import ast
from pathlib import Path

import qmaplab

_PACKAGE = Path(qmaplab.__file__).parent


def _unused_imports(source: str) -> list:
    """(line, name) of each name an import binds that the module never
    reads, except on an import marked `# noqa: F401`; the strings of
    `__all__` count as reads, and `from __future__` binds nothing."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [(node.lineno, bound) for bound in
                   (alias.asname or alias.name.split(".")[0] for alias in node.names) if bound not in read]
    return sorted(unused)


def test_no_unused_import_in_the_package():
    found = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(_PACKAGE.glob("*.py"))}
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_the_scan_finds_an_unused_import():
    assert _unused_imports("import os\nimport sys\nsys.exit(0)\n") == [(1, "os")]
    assert _unused_imports("import os.path as p\nimport numpy.linalg\n") == [(1, "p"), (2, "numpy")]
    assert _unused_imports("from .x import (\n    a,\n    b,\n)\n__all__ = ['a']\n") == [(1, "b")]
    assert _unused_imports("from __future__ import annotations\nfrom .x import a  # noqa: F401\n") == []
    # a name only a docstring mentions is not read
    assert _unused_imports('import math\n"""math.pi"""\n') == [(1, "math")]
