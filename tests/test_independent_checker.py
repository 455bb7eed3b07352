"""Generated benchmark scenarios, run through `cli.run` and read back by the
benchmark's own checker, which recomputes every output from the scenario
with its own closed forms and imports nothing from the program."""
from __future__ import annotations

import importlib.util
import json
import os

import pytest

from qmaplab.cli import run

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _perfbench(name: str):
    """A module of `perfbench/`, loaded by path under its own name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check, workloads = _perfbench("check"), _perfbench("workloads")


@pytest.mark.parametrize("workload, seeds", [
    ("small-scenarios", (1, 2)), ("sweep-200k", (3,)), ("domain-map", (4,)),
    ("validate", (5, 6))])
def test_generated_workloads_pass_the_independent_checker(tmp_path, monkeypatch, workload, seeds):
    # a 41 x 101 sweep, past one 4,096-row chunk, so its second half comes
    # from the forked child; the small scenarios and the 9 x 9 map keep their sizes
    monkeypatch.setattr(workloads, "SWEEP_Q_COUNT", 41)
    monkeypatch.setattr(workloads, "SWEEP_S_COUNT", 101)
    for seed in seeds:
        for name, scenario, path in workloads.write(workload, seed, str(tmp_path / str(seed))):
            out = str(tmp_path / str(seed) / name)
            assert run(path, out_dir=out) == 0, name
            rows, problems = check.check(scenario, out)
            assert rows > 0 and problems == [], (name, problems)


@pytest.mark.parametrize("name", ["domain_map", "growth", "slippage", "validate"])
def test_bundled_scenarios_pass_the_independent_checker(tmp_path, name):
    # the bundled scenarios whose numbers the checker reads; the other four
    # give angles as strings ("pi/4"), which it does not parse
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        scenario = json.load(fh)
    assert run(path, out_dir=str(tmp_path)) == 0
    rows, problems = check.check(scenario, str(tmp_path))
    assert rows > 0 and problems == [], problems
