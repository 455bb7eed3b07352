"""The README's library example runs as written and gives the values its
comments state, and its scenario schema agrees with `cli.FIELDS` and
`cli.COMMANDS`."""
from __future__ import annotations

import ast
import math
import os
import re

import numpy as np

from qmaplab.cli import COMMANDS, FIELDS
from qmaplab.tolerances import DEFAULT_TOL, inside

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _library_example() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_gives_the_values_its_comments_state():
    """Run the block statement by statement; the value of each bare
    expression is kept under its source text."""
    source = _library_example()
    namespace: dict = {}
    shown = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), README, "eval")
            shown[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), README, "exec"), namespace)
    magnitudes = shown["magnitudes"]
    assert np.abs(magnitudes - [1.0, 0.5 + math.sqrt(0.5)]).max() < 1e-12
    assert np.abs(shown["trajectory[1]"] - [0.0, 0.5 + math.sqrt(0.5), 0.0]).max() < 1e-12
    assert shown["first_unphysical_n(0.6, 0.2)"] == 16
    assert abs(shown["worst[-1]"] - math.sqrt(1.04)) < 1e-12 and shown["worst[-1]"] > 1.0
    margin = shown["slipped_domain_check(0.6, 0.2, n=15)"]
    assert margin == 0.0 and inside(margin, DEFAULT_TOL)
    best = shown["best"]
    assert abs(best - (1 - math.sqrt(1.17)) / 4) < 1e-12
    assert best < 0


def _schema_section() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text[text.index("### Scenario schema"):text.index("### Commands and CSV columns")]


def _schema_row(command: str, spec) -> list:
    """The README table's row of one command, written from its spec."""
    paths = [path for path in spec.fields if path not in ("tol", "seed")]
    state = [path.partition(".")[2] for path in paths if path.startswith("state.")]
    keys = "`a` or `q`" if "a" in state else ", ".join(f"`{key}`" for key in state)
    either = f"`{spec.either[0]}` or axis `{spec.either[1]}`" if spec.either else ""
    return [f"`{command}`",
            ", ".join(dict.fromkeys(path.partition(".")[0] for path in paths)),
            keys + (", on the slice" if spec.on_slice else ""),
            ", ".join(f"`{axis}`" for axis in spec.axes),
            either + "".join(f"; `{path}` required" for path in spec.required),
            "" if spec.n_min is None else f"`n >= {spec.n_min}`"]


def test_readme_schema_table_equals_the_commands():
    section = _schema_section()
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.strip().startswith("| `")]
    assert rows == [_schema_row(command, spec) for command, spec in COMMANDS.items()]
    # "Every command also takes `tol` and `seed`", and reads each path by FIELDS
    for spec in COMMANDS.values():
        assert spec.fields[-2:] == ("tol", "seed") and set(spec.fields) <= set(FIELDS)


def test_readme_schema_example_names_every_field():
    """The example object's keys are the command, every `FIELDS` path's
    parts and a grid's own keys, which `_parse_grids` reads."""
    example = re.search(r"```json\n(.*?)```", _schema_section(), re.S).group(1)
    keys = set(re.findall(r'"(\w+)":', example))
    parts = {part for path in FIELDS for part in path.split(".")}
    assert keys == {"command", "axis", "start", "stop", "count"} | parts

