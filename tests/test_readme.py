"""The README's library example runs as written and gives the values its
comments state."""
from __future__ import annotations

import ast
import math
import os
import re

import numpy as np

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
