"""Every import in the package is read: an unused one hides what a module
really depends on, and outlives the code that needed it.  And the CLI
imports nothing at start that no run uses: every CLI run pays its import."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_the_cli_imports_nothing_a_run_does_not_use():
    """`import qmaplab.cli`, in a fresh interpreter after numpy, loads
    neither dataclasses nor argparse (only `main` parses flags) nor signal
    (only an interrupted emit kills its child), and defers none of the
    modules a command's run calls into."""
    code = ("import sys; import numpy; before = set(sys.modules); import qmaplab.cli; "
            "print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(_PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    added = set(ast.literal_eval(proc.stdout))
    assert added & {"dataclasses", "argparse", "signal"} == set()
    assert {"qmaplab.checks", "qmaplab.floatrepr", "qmaplab.feasibility"} <= added


def test_no_run_imports_numpy_ma(tmp_path):
    """`np.unique`'s first call imports numpy.ma (7-15 ms): every bundled
    scenario, and a hazard whose s axis is longer than one chunk (the long
    axis path of `cli._lookup`), runs in a fresh interpreter without it."""
    code = """if True:
        import json, os, sys
        from qmaplab import cli
        scenarios, out = sys.argv[1:]
        for name in sorted(os.listdir(scenarios)):
            assert cli.run(os.path.join(scenarios, name), out_dir=os.path.join(out, name)) == 0
        grid = {"axis": "s", "start": 0, "stop": 1, "count": cli._CHUNK_ROWS + 5}
        path = os.path.join(out, "long.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": "hazard", "state": {"q": 0.5}, "grid": grid}, fh)
        assert cli.run(path, out_dir=os.path.join(out, "long")) == 0
        print(len(os.listdir(out)), "numpy.ma" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(_PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    scenarios = _PACKAGE.parent.parent / "scenarios"
    proc = subprocess.run([sys.executable, "-c", code, str(scenarios), str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["10", "False"]
