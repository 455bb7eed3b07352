"""Every public name is documented and used, and every stub is one a
benchmark pin still needs."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import qmaplab
from test_readme import _library_example

_PACKAGE = Path(qmaplab.__file__).parent
_ROOT = Path(__file__).parent.parent


def _traced() -> set:
    """`perfbench/tracing.TRACED`, read from the source as data, without
    importing the tracer."""
    tree = ast.parse((_ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    return {name for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if getattr(target, "id", None) == "TRACED"
            for name in ast.literal_eval(node.value)}


def _raises_only_not_implemented(fn: ast.FunctionDef) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _stubs() -> list:
    """"module.function" (or "module.Class.method") of every function in
    the package whose body only raises NotImplementedError."""
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _raises_only_not_implemented(child):
                        found.append(f"{prefix}{child.name}")
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def test_every_stub_is_pinned_by_the_tracer():
    stubs = _stubs()
    # the scan sees the known stubs
    assert {"dynamics.evolve_mean_values", "reduced.ReducedMap.apply",
            "conjunction.sigma2_conjunction", "pauli.min_eigenvalue",
            "optimize.golden_section_max"} <= set(stubs)
    assert [name for name in stubs if name not in _traced()] == []


def test_every_public_name_appears_in_the_readme():
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in qmaplab.__all__
            if not re.search(rf"(?<![\w.]){re.escape(name)}\b", text)] == []


def _used_names(tree: ast.AST, skip: str = "") -> set:
    """Every name read (a bare name or an attribute) in `tree`, except
    inside the definition of `skip`."""
    used = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip:
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                used.add(child.id)
            elif isinstance(child, ast.Attribute):
                used.add(child.attr)
            visit(child)

    visit(tree)
    return used


def test_every_public_name_is_used_in_the_package_or_the_library_example():
    """A public name some module calls, outside its own definition, or one
    the README's library example calls; `__init__` only re-exports."""
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(_PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    example = _used_names(ast.parse(_library_example()))
    unused = [name for name in qmaplab.__all__ if name not in example
              and not any(name in _used_names(tree, skip=name) for tree in modules)]
    assert unused == []
