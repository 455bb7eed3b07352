"""Scenario runner: schema validation, CSV output, determinism."""
from __future__ import annotations

import copy
import csv
import errno
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qmaplab import checks, cli, conjunction, reduced
from qmaplab.cli import Body, ScenarioError, emit_csv, load_scenario, main, parse_angle, run
from qmaplab.conjunction import _sigma2_legs, conjunct, greedy_extremal_growth
from qmaplab.dynamics import rotate
from qmaplab.floatrepr import CROSSOVER
from qmaplab.slippage import slip_state, slipped_domain_check
from qmaplab.tolerances import inside

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def write_scenario(tmp_path, payload: dict, name: str = "scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- angles

@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", math.pi),
        ("pi/4", math.pi / 4),
        ("2pi/3", 2 * math.pi / 3),
        ("-pi/6", -math.pi / 6),
        ("0.5pi", 0.5 * math.pi),
        ("3*pi/2", 3 * math.pi / 2),
        (1.25, 1.25),
        (2, 2.0),
    ],
)
def test_parse_angle(text, expected):
    assert abs(parse_angle(text, "x") - expected) < 1e-15


@pytest.mark.parametrize("bad", ["", "two pi", "pi/0", "4", True, None, [1]])
def test_parse_angle_rejects(bad):
    with pytest.raises(ScenarioError):
        parse_angle(bad, "x")


# ---------------------------------------------------------------- schema

def _hazard_payload() -> dict:
    return {
        "command": "hazard",
        "state": {"q": "pi/4"},
        "grid": {"axis": "s", "start": 0, "stop": "pi/2", "count": 11},
    }


def test_load_scenario_roundtrip(tmp_path):
    sc = load_scenario(write_scenario(tmp_path, _hazard_payload()))
    assert sc.command == "hazard"
    assert abs(sc.q - math.pi / 4) < 1e-15
    assert sc.grids[0].count == 11
    assert sc.a is None and sc.c1 is None  # hazard reads q itself


def test_load_scenario_expands_the_state(tmp_path):
    q = parse_angle("pi/5", "q")
    sc = load_scenario(write_scenario(tmp_path, {"command": "growth", "state": {"q": "pi/5"},
                                                 "n": 3}))
    assert (sc.a.tolist(), sc.c1, sc.c2) == ([0.0, math.cos(q), 0.0], math.sin(q), 0.0)
    sc = load_scenario(write_scenario(tmp_path, {"command": "evolve", "state": {"a": [0, 1, 0]},
                                                 "grid": {"axis": "t", "start": 0, "stop": 1,
                                                          "count": 2}}))
    assert (sc.c1, sc.c2) == (0.0, 0.0)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("command"),
        lambda p: p.update(command="explode"),
        lambda p: p.update(extra=1),
        lambda p: p["state"].update(beta=2),
        lambda p: p["state"].update(a=[0, 1, 0]),  # hazard takes q only
        lambda p: p["state"].update(c1=0.4),
        lambda p: p["grid"].update(count=1),
        lambda p: p["grid"].update(count="many"),
        lambda p: p["grid"].update(start=2, stop=1),
        lambda p: p["grid"].update(axis="sideways"),
        lambda p: p.update(n=3),  # hazard does not use n
        lambda p: p.update(tol=-1e-3),
        lambda p: p.update(seed=-1),
        lambda p: p.update(seed=1.5),
    ],
)
def test_malformed_scenarios_rejected(tmp_path, mutate):
    payload = _hazard_payload()
    mutate(payload)
    path = write_scenario(tmp_path, payload)
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_malformed_scenario_exits_1_without_output(tmp_path):
    payload = _hazard_payload()
    payload["extra"] = 1
    path = write_scenario(tmp_path, payload)
    out = tmp_path / "out"
    assert run(path, out_dir=str(out)) == 1
    assert not out.exists()


def test_non_json_scenario_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(str(path), out_dir=str(tmp_path / "out")) == 1


def test_subcommand_must_match_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, _hazard_payload())
    assert main(["growth", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_conjunct_requires_steps_xor_grid(tmp_path):
    payload = {
        "command": "conjunct",
        "state": {"q": "pi/4"},
        "schedule": {"t": "pi/4", "steps": [0.5]},
        "grid": {"axis": "s", "start": 0, "stop": 1, "count": 5},
    }
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, payload))


@pytest.mark.parametrize("payload,field", [
    ({"command": "growth", "state": {"a": [0, 0.5, 0], "c1": 0.2, "c2": 0.4}, "n": 3},
     "state.c2"),
    ({"command": "slippage", "state": {"c1": 0.2, "c2": 0.4}, "n": 3,
      "grid": {"axis": "a2", "start": -1, "stop": 1, "count": 5}}, "state.c2"),
    ({"command": "slippage", "state": {"c1": 0.2}, "n": 3,
      "grid": [{"axis": "a2", "start": -1, "stop": 1, "count": 5},
               {"axis": "c1", "start": 0, "stop": 0.5, "count": 3}]}, "state.c1"),
], ids=["growth-c2", "slippage-c2", "slippage-c1-twice"])
def test_ignored_state_fields_rejected(tmp_path, payload, field, capsys):
    _assert_exit_1_nothing_written(tmp_path, payload, field, capsys)


def test_zero_c2_still_accepted_on_the_slice(tmp_path):
    payload = {"command": "growth", "state": {"a": [0, 0.6, 0], "c1": 0.2, "c2": 0}, "n": 3}
    assert run(write_scenario(tmp_path, payload), out_dir=str(tmp_path / "out")) == 0


@pytest.mark.parametrize("payload,field", [
    ({"command": "evolve", "state": {"q": 0.5},
      "grid": {"axis": "t", "start": 0, "stop": 1, "count": 10**12}}, "grid[0].count"),
    ({"command": "hazard", "grid": [{"axis": "q", "start": 0, "stop": 1, "count": 3},
                                    {"axis": "s", "start": 0, "stop": 1, "count": 10**20}]},
     "grid[1].count"),
    ({"command": "growth", "state": {"q": 0.5}, "n": 10**30}, "scenario.n"),
    ({"command": "slippage", "state": {"c1": 0.2}, "n": 10**8,
      "grid": {"axis": "a2", "start": -1, "stop": 1, "count": 5}}, "scenario.n"),
    ({"command": "domain-map", "grid": [{"axis": "a2", "start": -1, "stop": 1, "count": 4000},
                                        {"axis": "c1", "start": -1, "stop": 1, "count": 3000}]},
     "grid[0].count"),
], ids=["evolve", "hazard", "growth", "slippage", "domain-map"])
def test_work_over_row_budget_rejected(tmp_path, payload, field, capsys):
    _assert_exit_1_nothing_written(tmp_path, payload, field, capsys)


def test_row_budget_admits_its_limit(tmp_path):
    payload = {"command": "slippage", "state": {"c1": 0.2}, "n": cli.ROW_BUDGET // 2,
               "grid": {"axis": "a2", "start": -1, "stop": 1, "count": 2}}
    assert load_scenario(write_scenario(tmp_path, payload)).n == cli.ROW_BUDGET // 2
    payload["n"] += 1
    with pytest.raises(ScenarioError, match="budget"):
        load_scenario(write_scenario(tmp_path, payload))


def test_trajectory_rows_count_against_the_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ROW_BUDGET", 3)
    payload = {"command": "conjunct", "state": {"q": 0.5},
               "schedule": {"t": 0.5, "steps": [0.1, 0.2]}}
    assert run(write_scenario(tmp_path, payload), out_dir=str(tmp_path / "at-limit")) == 0
    payload["schedule"]["steps"].append(0.3)  # four legs, four rows
    _assert_exit_1_nothing_written(tmp_path, payload, "error: schedule.steps:", capsys)


_S_GRID = {"axis": "s", "start": 0, "stop": 1, "count": 5}


def _grid(axis: str) -> dict:
    return {**_S_GRID, "axis": axis}


# one malformed payload per rule of a command's spec, with the path its message starts with
@pytest.mark.parametrize("payload,path", [
    ({"state": {"q": 0.5}}, "scenario.command"),
    ({**_hazard_payload(), "n": 3}, "scenario.n"),
    ({**_hazard_payload(), "state": {"a": [0, 1, 0]}}, "state.a"),
    ({"command": "slippage", "state": {"q": 0.5}, "n": 2, "grid": _grid("a2")}, "state.q"),
    ({"command": "evolve", "grid": _grid("t")}, "state"),
    ({"command": "evolve", "state": {"a": [0, 1, 0], "q": 0.5}, "grid": _grid("t")}, "state"),
    ({"command": "conjunct", "state": {"q": 0.5, "c2": 0}, "schedule": {"t": 1, "steps": [1]}},
     "state.c2"),
    ({"command": "conjunct", "state": {"q": 0.5}, "grid": _S_GRID}, "schedule.t"),
    ({"command": "conjunct", "state": {"q": 0.5}, "schedule": {"t": 1}}, "schedule.steps"),
    ({"command": "conjunct", "state": {"q": 0.5}, "schedule": {"t": 1, "steps": []},
      "grid": _S_GRID}, "schedule.steps"),
    ({"command": "hazard", "state": {"q": 0.5}, "grid": [_S_GRID, _grid("q")]}, "state.q"),
    ({"command": "slippage", "n": 2, "grid": _grid("a2")}, "state.c1"),
    ({"command": "evolve", "state": {"q": 0.5}}, "grid"),
    ({"command": "domain-map", "grid": _grid("a2")}, "grid"),
    ({"command": "hazard", "state": {"q": 0.5}, "grid": [_S_GRID, _grid("t")]}, "grid[1].axis"),
    ({"command": "conjunct", "state": {"q": 0.5}, "schedule": {"t": 1, "steps": [1]},
      "grid": _grid("t")}, "grid[0].axis"),
    ({"command": "hazard", "state": {"q": 0.5}, "grid": [_S_GRID, _S_GRID]}, "grid[1].axis"),
    ({"command": "hazard", "state": {"q": 0.5}, "grid": {"axis": "s", "start": 0, "stop": 1}},
     "grid[0].count"),
    ({"command": "growth", "state": {"q": 0.5}}, "scenario.n"),
    ({"command": "slippage", "state": {"c1": 0.2}, "n": 0, "grid": _grid("a2")}, "scenario.n"),
    ({"command": "growth", "state": {"a": [0, 0.5, 0.1]}, "n": 2}, "state.a"),
    ({"command": "slippage", "state": {"c1": 0.2, "c2": 0.1}, "n": 2, "grid": _grid("a2")},
     "state.c2"),
], ids=["command", "unused-field", "unread-state-key", "unread-q", "no-state", "a-and-q",
        "q-and-c2", "required", "either-neither", "empty-steps", "either-both", "either-c1",
        "axis-t", "axis-c1", "extra-axis", "extra-axis-conjunct", "duplicate-axis",
        "grid-field", "n-missing", "n-min", "slice-a", "slice-c2"])
def test_each_spec_rule_names_its_field_path(tmp_path, payload, path, capsys):
    _assert_exit_1_nothing_written(tmp_path, payload, f"error: {path}:", capsys)


def test_growth_rejects_off_slice_state(tmp_path):
    payload = {"command": "growth", "state": {"a": [0.1, 0.5, 0], "c1": 0.2}, "n": 3}
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, payload))


# every exit-1 message of the parser, one malformed payload per branch, in
# full: (payload, or a file's text, or None for a missing file; run's keyword
# arguments; the message after "error: ")
_H = _hazard_payload()
_E = {"command": "evolve", "state": {"a": [0, 1, 0]}, "grid": _grid("t")}
_C = {"command": "conjunct", "state": {"q": 0.5}, "schedule": {"t": 1, "steps": [1]}}
_G = {"command": "growth", "state": {"q": 0.5}, "n": 2}
_S = {"command": "slippage", "state": {"c1": 0.2}, "n": 2, "grid": _grid("a2")}
_D = {"command": "domain-map", "grid": [_grid("a2"), _grid("c1")]}
_EXIT_1_MESSAGES = [
    # parse_angle
    ({**_C, "schedule": {"t": True, "steps": [1]}}, {},
     "schedule.t: expected a number or pi-string, got True"),
    ({**_H, "state": {"q": "two pi"}}, {},
     "state.q: cannot parse angle 'two pi' (use e.g. \"pi/4\")"),
    ({**_C, "schedule": {"t": 1, "steps": ["pi/0"]}}, {},
     "schedule.steps[0]: zero divisor in angle 'pi/0'"),
    ({**_H, "grid": {**_S_GRID, "start": "9" * 400 + "pi"}}, {},
     "grid[0].start: expected a finite number"),
    ({**_H, "grid": {**_S_GRID, "stop": "9" * 160 + "pi"}}, {},
     "grid[0].stop: magnitude above 1e+150"),
    ({**_H, "state": {"q": [1]}}, {}, "state.q: expected a number or pi-string, got list"),
    # _require_number, _require_tol, _require_int, _require_seed
    ({**_S, "state": {"c1": "0.2"}}, {}, "state.c1: expected a number, got str"),
    ({**_E, "state": {"a": [0, True, 0]}}, {}, "state.a[1]: expected a number, got bool"),
    ({**_E, "state": {"a": [10**400, 0, 0]}}, {}, "state.a[0]: expected a finite number"),
    ({**_E, "state": {"a": [0, 1, 0], "c2": math.nan}}, {}, "state.c2: expected a finite number"),
    ({**_S, "state": {"c1": 1e151}}, {}, "state.c1: magnitude above 1e+150"),
    ({**_H, "tol": "1e-9"}, {}, "scenario.tol: expected a number, got str"),
    ({**_H, "tol": -1}, {}, "scenario.tol: must be >= 0"),
    ({**_G, "n": 2.5}, {}, "scenario.n: expected an integer, got float"),
    ({**_H, "seed": True}, {}, "scenario.seed: expected an integer, got bool"),
    ({**_H, "seed": -1}, {}, "scenario.seed: must be >= 0"),
    # the keys of each level, and of each command
    ({**_E, "x": 1}, {}, "scenario.x: not accepted here (allowed: command, state, grid, tol, seed)"),
    ({**_C, "x": 1}, {},
     "scenario.x: not accepted here (allowed: command, state, schedule, grid, tol, seed)"),
    ({**_H, "n": 3}, {}, "scenario.n: not accepted here (allowed: command, state, grid, tol, seed)"),
    ({**_G, "x": 1}, {}, "scenario.x: not accepted here (allowed: command, state, n, tol, seed)"),
    ({**_D, "x": 1}, {}, "scenario.x: not accepted here (allowed: command, grid, tol, seed)"),
    ({**_S, "x": 1}, {},
     "scenario.x: not accepted here (allowed: command, state, grid, n, tol, seed)"),
    ({"command": "validate", "state": {}}, {},
     "scenario.state: not accepted here (allowed: command, tol, seed)"),
    ({**_E, "state": {"a": [0, 1, 0], "b": 1}}, {},
     "state.b: not accepted here (allowed: a, q, c1, c2)"),
    ({**_H, "state": {"a": [0, 1, 0]}}, {}, "state.a: not accepted here (allowed: q)"),
    ({**_S, "state": {"q": 0.5}}, {}, "state.q: not accepted here (allowed: c1, c2)"),
    ({**_C, "schedule": {"t": 1, "steps": [1], "s": 1}}, {},
     "schedule.s: not accepted here (allowed: t, steps)"),
    ({**_H, "grid": {**_S_GRID, "step": 1}}, {},
     "grid[0].step: not accepted here (allowed: axis, start, stop, count)"),
    # the state and the schedule
    ({**_E, "state": 5}, {}, "state: expected an object"),
    ({**_E, "state": {"a": [0, 1]}}, {}, "state.a: expected a list of three numbers"),
    ({**_E, "state": {"a": "0 1 0"}}, {}, "state.a: expected a list of three numbers"),
    ({**_C, "schedule": [1]}, {}, "schedule: expected an object"),
    ({**_C, "schedule": {"t": 1, "steps": []}}, {}, "schedule.steps: expected a non-empty list"),
    ({**_C, "schedule": {"t": 1, "steps": 1}}, {}, "schedule.steps: expected a non-empty list"),
    # _parse_grids
    ({**_H, "grid": 5}, {}, "grid[0]: expected an object"),
    ({**_H, "grid": [_S_GRID, 5]}, {}, "grid[1]: expected an object"),
    ({**_H, "grid": {"axis": "s", "start": 0, "stop": 1}}, {}, "grid[0].count: required"),
    ({**_H, "grid": {**_S_GRID, "axis": "x"}}, {}, "grid[0].axis: expected one of t, s, q, a2, c1"),
    ({**_H, "grid": {**_S_GRID, "axis": 3}}, {}, "grid[0].axis: expected one of t, s, q, a2, c1"),
    ({**_H, "grid": [_S_GRID, _S_GRID]}, {}, "grid[1].axis: duplicate axis 's'"),
    ({**_H, "grid": {**_S_GRID, "count": 1}}, {}, "grid[0].count: must be >= 2, got 1"),
    ({**_H, "grid": {**_S_GRID, "count": "5"}}, {}, "grid[0].count: expected an integer, got str"),
    ({**_H, "grid": {**_S_GRID, "start": 1, "stop": 1}}, {}, "grid[0]: start must be < stop"),
    # load_scenario: the file, the command and each rule of a command's spec
    (None, {}, "scenario: cannot read file: [Errno 2] No such file or directory: {path!r}"),
    ("{not json", {}, "scenario: not valid JSON: {json}"),
    ("[1]", {}, "scenario: expected a JSON object"),
    ({"state": {"q": 0.5}}, {},
     "scenario.command: expected one of evolve, conjunct, hazard, growth, domain-map, slippage, "
     "validate"),
    ({**_E, "command": "Evolve"}, {},
     "scenario.command: expected one of evolve, conjunct, hazard, growth, domain-map, slippage, "
     "validate"),
    ({**_E, "state": {"a": [0, 1, 0], "q": 0.5}}, {}, "state: give exactly one of 'a' or 'q'"),
    ({**_E, "state": {"c1": 0.5}}, {}, "state: give exactly one of 'a' or 'q'"),
    ({**_G, "state": {"a": None}}, {}, "state: give exactly one of 'a' or 'q'"),
    ({**_G, "state": {"q": 0.5, "c1": 0.1}}, {},
     "state.c1: the q shorthand fixes c1 = sin q and c2 = 0"),
    ({**_G, "state": {"q": 0.5, "c2": 0}}, {},
     "state.c2: the q shorthand fixes c1 = sin q and c2 = 0"),
    ({**_C, "schedule": {"steps": [1]}}, {}, "schedule.t: required"),
    ({**_C, "schedule": {"t": 1}}, {},
     "schedule.steps: give exactly one of schedule.steps or a grid with axis 's'"),
    ({**_H, "state": {"q": None}}, {},
     "state.q: give exactly one of state.q or a grid with axis 'q'"),
    ({**_H, "grid": [_S_GRID, _grid("q")]}, {},
     "state.q: give exactly one of state.q or a grid with axis 'q'"),
    ({**_S, "state": {}}, {}, "state.c1: give exactly one of state.c1 or a grid with axis 'c1'"),
    ({**_E, "grid": []}, {}, "grid: axis 't' is required"),
    ({**_D, "grid": [_grid("a2")]}, {}, "grid: axis 'c1' is required"),
    ({**_H, "grid": [_S_GRID, _grid("t")]}, {}, "grid[1].axis: hazard takes no 't' axis"),
    ({**_C, "grid": _grid("t")}, {}, "grid[0].axis: conjunct takes no 't' axis"),
    ({"command": "growth", "state": {"q": 0.5}}, {},
     "scenario.n: growth requires an integer n >= 0"),
    ({**_S, "n": 0}, {}, "scenario.n: slippage requires an integer n >= 1"),
    ({**_G, "state": {"a": [0, 0.5, 0], "c2": 0.1}}, {},
     "state.c2: growth runs on the slice c2 = 0"),
    ({**_G, "state": {"a": [0.1, 0.5, 0]}}, {}, "state.a: growth runs on the slice a = [0, a2, 0]"),
    ({**_E, "grid": {**_grid("t"), "count": 10**12}}, {},
     "grid[0].count: the run would write 1000000000000 rows, over the budget of 10000000"),
    ({**_S, "n": 10**7}, {},
     "scenario.n: the run would write 50000000 rows, over the budget of 10000000"),
    # run: the subcommand and the flags
    (_H, {"command": "growth"},
     "scenario.command: 'hazard', but the 'growth' subcommand was invoked"),
    (_H, {"tol": math.nan}, "--tol: expected a finite number"),
    (_H, {"tol": -1e-3}, "--tol: must be >= 0"),
    (_H, {"seed": -1}, "--seed: must be >= 0"),
]


@pytest.mark.parametrize("payload,flags,message", _EXIT_1_MESSAGES)
def test_every_exit_1_message_in_full(tmp_path, capsys, payload, flags, message):
    path = tmp_path / "scenario.json"
    if isinstance(payload, dict):
        path.write_text(json.dumps(payload), encoding="utf-8")
    elif payload is not None:
        path.write_text(payload, encoding="utf-8")
    if "{json}" in message:
        with pytest.raises(ValueError) as exc:
            json.loads(payload)
        message = message.format(json=exc.value)
    out = tmp_path / "out"
    assert run(str(path), out_dir=str(out), **flags) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: " + message.format(path=str(path)) + "\n"


# ---------------------------------------------------------------- emit_csv

def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(["alpha", "beta"], Body.up_front(np.array([]), np.array([])), str(path))
    assert path.read_bytes() == b"alpha,beta\n"


def test_emit_csv_float_round_trip(tmp_path):
    path = tmp_path / "floats.csv"
    values = [0.1 + 0.2, 1 / 3, math.pi, -0.0, 1e-17]
    emit_csv(["x"], Body.up_front(np.array(values)), str(path))
    lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
    for text, value in zip(lines, values):
        assert float(text) == value


def test_emit_csv_cell_types(tmp_path):
    path = tmp_path / "cells.csv"
    emit_csv(["a", "b", "c", "d"], Body.up_front(["1"], np.array([True]), np.array([0.5]),
                                                 ["x"]), str(path))
    assert path.read_text(encoding="utf-8").split("\n")[1] == "1,true,0.5,x"


# ---------------------------------------------------------------- commands

def test_evolve_uncorrelated_follows_closed_form(tmp_path):
    payload = {
        "command": "evolve",
        "state": {"a": [0.3, -0.2, 0.4], "c1": 0, "c2": 0},
        "grid": {"axis": "t", "start": 0, "stop": "2pi", "count": 50},
    }
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    rows = np.genfromtxt(out / "evolve.csv", delimiter=",", names=True)
    # with zero initial correlations the (1, 2) components scale by cos t
    expected = np.sqrt((0.3**2 + 0.2**2) * np.cos(rows["t"]) ** 2 + 0.4**2)
    assert np.abs(rows["norm_a"] - expected).max() < 1e-12
    assert rows["norm_a"].max() <= math.sqrt(0.3**2 + 0.2**2 + 0.4**2) + 1e-12


def test_evolve_axis3_state_norm_constant(tmp_path):
    payload = {
        "command": "evolve",
        "state": {"a": [0, 0, 0.8], "c1": 0, "c2": 0},
        "grid": {"axis": "t", "start": 0, "stop": "2pi", "count": 50},
    }
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    rows = np.genfromtxt(out / "evolve.csv", delimiter=",", names=True)
    assert np.abs(rows["norm_a"] - 0.8).max() < 1e-12


def test_evolve_echoes_initial_values_at_t_zero(tmp_path):
    payload = {
        "command": "evolve",
        "state": {"a": [0.125, -0.75, 0.5], "c1": 0.25, "c2": -0.5},
        "grid": {"axis": "t", "start": 0, "stop": 1, "count": 2},
    }
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    first = (out / "evolve.csv").read_text().split("\n")[1].split(",")
    assert first[:6] == ["0.0", "0.125", "-0.75", "0.5", "0.25", "-0.5"]


def test_evolve_keeps_the_sign_of_a_given_zero_correlation(tmp_path):
    # at t = 0, c1' = c1 - a2 sin 0 and c2' = c2 + a1 sin 0 keep the sign
    # of a zero c1 or c2 for a2 >= 0 and a1 <= 0
    a = [-0.125, 0.75, 0.5]
    payload = {"command": "evolve", "state": {"a": a, "c1": -0.0, "c2": -0.0},
               "grid": {"axis": "t", "start": 0, "stop": 1, "count": 2}}
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    first = (out / "evolve.csv").read_text().split("\n")[1].split(",")
    expected = rotate(np.array(a), -0.0, -0.0, 0.0)
    assert first[4:6] == list(map(repr, map(float, expected[3:]))) == ["-0.0", "-0.0"]


def test_conjunct_sweep_matches_stated_maximum(tmp_path):
    out = tmp_path / "out"
    assert run(os.path.join(SCENARIOS, "conjunct_sweep.json"), out_dir=str(out)) == 0
    rows = np.genfromtxt(out / "conjunct.csv", delimiter=",", names=True)
    conj = rows["sigma2_conjunction"]
    # grid maximum approximates sqrt(1 + sin^2 q) = sqrt(1.5) at tan s = sin q
    assert abs(conj.max() - math.sqrt(1.5)) < 1e-4
    # above 1 from the first interior point up to the sign change, then below
    above = conj > 1.0
    s_zero = 2 * math.atan(math.sin(math.pi / 4))
    for s, flag in zip(rows["s"], above):
        if 0 < s < s_zero - 1e-9:
            assert flag
        elif s > s_zero + 1e-9:
            assert not flag
    summary = json.loads((out / "summary.json").read_text())
    assert summary["first_hazard_s"] is not None


def test_conjunct_trajectory_reports_hazard(tmp_path):
    out = tmp_path / "out"
    assert run(os.path.join(SCENARIOS, "conjunct_trajectory.json"), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["first_unphysical_step"] == 1
    assert summary["worst_margin"] < 0
    rows = np.genfromtxt(out / "conjunct.csv", delimiter=",", names=True)
    # exact path never leaves the ball; frozen-map path does
    assert rows["exact_norm"].max() <= 1 + 1e-12
    assert rows["conj_norm"].max() > 1


def test_first_hazard_fires_only_past_one_plus_tol():
    edge = 1.0 + 1e-9  # fl(1 + tol) itself does not exceed
    assert cli._first_hazard(np.array([1.0, edge, math.nextafter(edge, 2.0)]), 1e-9) == 2
    assert cli._first_hazard(np.array([1.0, edge]), 1e-9) is None


def test_both_conjunct_summaries_read_first_hazard(tmp_path, monkeypatch):
    calls = []

    def spy(magnitudes, tol):
        calls.append((np.array(magnitudes), tol))
        return 0  # neither scenario's true first hazard

    monkeypatch.setattr(cli, "_first_hazard", spy)
    for name, key, column in (("conjunct_trajectory.json", "first_unphysical_step", "conj_norm"),
                              ("conjunct_sweep.json", "first_hazard_s", "norm_conjunction")):
        calls.clear()
        payload = json.loads(pathlib.Path(SCENARIOS, name).read_text()) | {"tol": 1e-7}
        out = tmp_path / key
        assert run(write_scenario(tmp_path, payload, name), out_dir=str(out)) == 0
        rows = np.genfromtxt(out / "conjunct.csv", delimiter=",", names=True)
        summary = json.loads((out / "summary.json").read_text())
        assert summary[key] == rows[rows.dtype.names[0]][0]  # step 0, or the first s
        assert np.array_equal(np.concatenate([m for m, _ in calls]), rows[column])
        assert {tol for _, tol in calls} == {1e-7}


def test_growth_summary_known_failure_index(tmp_path):
    out = tmp_path / "out"
    assert run(os.path.join(SCENARIOS, "growth.json"), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["first_unphysical_n"] == 16
    assert summary["max_safe_repetitions"] == 15
    rows = np.genfromtxt(out / "growth.csv", delimiter=",", names=True)
    mags = rows["magnitude"]
    assert abs(mags[-1] - math.sqrt(0.36 + 21 * 0.04)) < 1e-12


def test_growth_unbounded_marker(tmp_path):
    payload = {"command": "growth", "state": {"a": [0, 0.5, 0], "c1": 0}, "n": 2}
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["first_unphysical_n"] is None
    assert summary["max_safe_repetitions"] == "inf"


def test_hazard_deterministic_and_unit_at_join(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    path = os.path.join(SCENARIOS, "hazard.json")
    assert run(path, out_dir=str(out1), seed=7) == 0
    assert run(path, out_dir=str(out2), seed=7) == 0
    assert (out1 / "hazard.csv").read_bytes() == (out2 / "hazard.csv").read_bytes()
    rows = np.genfromtxt(out1 / "hazard.csv", delimiter=",", names=True)
    assert rows["s"][0] == 0.0
    assert rows["sigma2_exact"][0] == 1.0
    assert rows["sigma2_conjunction"][0] == 1.0


def test_hazard_q_grid(tmp_path):
    payload = {
        "command": "hazard",
        "grid": [
            {"axis": "q", "start": "pi/6", "stop": "pi/3", "count": 3},
            {"axis": "s", "start": 0, "stop": 1, "count": 5},
        ],
    }
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    rows = np.genfromtxt(out / "hazard.csv", delimiter=",", names=True)
    assert len(rows) == 15
    assert len(set(rows["q"])) == 3


def test_hazard_flags_a_negative_excursion(tmp_path):
    # on the slice |a| = |sigma2|: sigma2 below -1 - tol leaves the ball too
    payload = {"command": "hazard", "state": {"q": "pi/4"},
               "grid": {"axis": "s", "start": "pi/2", "stop": 3.8, "count": 101}}
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    rows = np.genfromtxt(out / "hazard.csv", delimiter=",", names=True)
    summary = json.loads((out / "summary.json").read_text())
    assert rows["sigma2_conjunction"].max() <= 1.0  # never above 1 + tol
    assert (rows["margin_conjunction"] < -1e-9).sum() == 30
    assert rows["sigma2_conjunction"].min() < -1.2247
    assert summary["max_sigma2_conjunction"] == rows["sigma2_conjunction"].max()
    assert summary["hazard"] is True


@pytest.mark.parametrize("q", [0.0, *np.random.default_rng(50).uniform(-3, 3, 5).tolist()])
def test_hazard_is_even_under_negating_q_and_s(tmp_path, q):
    """The edge state a2 = cos q, c1 = sin q is frozen over the legs q and
    s, so sigma2_conjunction is `_fold` of cos q over (cos q, sin q) and then
    (cos s, sin s): leg 1 gives v = cos q cos q + sin q sin q, leg 2
    v cos s + sin q sin s.  cos is even and sin odd, bit for bit, and a sign
    change is exact, so under (q, s) -> (-q, -s) leg 1 gives
    cos q cos q + (-sin q)(-sin q) and leg 2 v cos s + (-sin q)(-sin s):
    every product keeps its bits.  sigma2_exact = cos s is even as well.  So
    on an s grid symmetric about 0 with exact steps, row i of the run at q is
    row n - 1 - i of the run at -q in every column but q and s, and the two
    summaries are equal."""
    runs = []
    for sign in (1, -1):
        payload = {"command": "hazard", "state": {"q": sign * q},
                   "grid": {"axis": "s", "start": -2, "stop": 2, "count": 17}}
        (tmp_path / str(sign)).mkdir()
        got, summary = _run_and_read(tmp_path / str(sign), payload, "hazard.csv")
        runs.append(([line.split(",") for line in got.decode().splitlines()[1:]], summary))
    (rows, summary), (mirrored, mirrored_summary) = runs
    assert len(rows) == len(mirrored) == 17
    for row, other in zip(rows, reversed(mirrored)):
        assert (float(row[0]), float(row[1])) == (-float(other[0]), -float(other[1]))
        assert row[2:] == other[2:]
    assert summary == mirrored_summary


def test_hazard_exact_columns_stay_in_the_ball(tmp_path):
    # sigma2_exact = cos s for every q: no rounding of q + s pushes it past 1
    payload = {"command": "hazard", "grid": [
        {"axis": "q", "start": 0.01, "stop": 1.56, "count": 400},
        {"axis": "s", "start": 0, "stop": "pi", "count": 101}]}
    got, _ = _run_and_read(tmp_path, payload, "hazard.csv")
    rows = [line.split(",") for line in got.decode().splitlines()[1:]]
    assert len(rows) == 400 * 101
    assert all(abs(float(row[2])) <= 1.0 and float(row[4]) >= 0.0 for row in rows)
    at_zero = [row for row in rows if row[1] == "0.0"]
    assert len(at_zero) == 400
    assert all(row[2] == "1.0" and row[4] == "0.0" for row in at_zero)
    # the frozen map's own arithmetic keeps its rounding past 1
    assert any(row[3] == "1.0000000000000002" for row in at_zero)


def test_slippage_rows(tmp_path):
    payload = {
        "command": "slippage",
        "state": {"c1": 0.3},
        "grid": {"axis": "a2", "start": -1, "stop": 1, "count": 5},
        "n": 2,
    }
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    rows = np.genfromtxt(out / "slippage.csv", delimiter=",", names=True)
    assert len(rows) == 10  # two n values x five a2 values
    # slipped value always satisfies the check it was projected onto
    for row in rows:
        n, a2s = int(row["n"]), row["a2_slipped"]
        assert a2s**2 + (n + 1) * 0.3**2 <= 1 + 1e-9


def _growth_and_slippage(tmp_path, a2: float, c1: float, n: int, **tol) -> tuple:
    """growth's rows and summary and slippage's rows for one slice state,
    both through `run`; slippage takes the a2 grid (-a2, a2), whose rows
    share each margin."""
    growth = {"command": "growth", "state": {"a": [0, a2, 0], "c1": c1}, "n": n, **tol}
    slippage = {"command": "slippage", "state": {"c1": c1}, "n": n, **tol,
                "grid": {"axis": "a2", "start": -a2, "stop": a2, "count": 2}}
    tables = {}
    for payload in (growth, slippage):
        name = payload["command"]
        out = tmp_path / name
        assert run(write_scenario(tmp_path, payload, f"{name}.json"), out_dir=str(out)) == 0
        with open(out / f"{name}.csv", newline="", encoding="utf-8") as fh:
            tables[name] = list(csv.DictReader(fh))
    summary = json.loads((tmp_path / "growth" / "summary.json").read_text())
    return tables["growth"], summary, tables["slippage"]


def _assert_slippage_reads_growth(growth: list, slippage: list) -> None:
    """Each slippage row at n reads growth row n: margin 1 - magnitude, and
    inside exactly where the magnitude does not exceed 1 + tol."""
    assert len(slippage) == 2 * (len(growth) - 1)
    for row in slippage:
        grown = growth[int(row["n"])]
        assert float(row["margin"]) == 1.0 - float(grown["magnitude"]), row
        assert (row["inside"] == "true") == (grown["exceeds_unit"] == "false"), row


def test_growth_and_slippage_agree_at_tol_0(tmp_path):
    # row 14's magnitude rounds to 1.0; slippage read margin -2.2e-16 there
    # when it rounded the slice law its own way
    growth, summary, slippage = _growth_and_slippage(
        tmp_path, 0.6583168927883031, 0.19435686569976618, 14, tol=0)
    assert (growth[14]["magnitude"], growth[14]["exceeds_unit"]) == ("1.0", "false")
    assert summary["max_safe_repetitions"] == 14
    _assert_slippage_reads_growth(growth, slippage)
    assert [row["margin"] for row in slippage[-2:]] == ["0.0", "0.0"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="growth flags M > 1 + tol and slippage 1 - M < -tol, which part "
                   "where M = fl(1 + tol): the FOUND line on the default tol in CHANGES.md")
def test_growth_and_slippage_agree_at_the_default_tol(tmp_path):
    growth, _, slippage = _growth_and_slippage(tmp_path, 0.500000002, 0.5, 2)
    if float(growth[2]["magnitude"]) != 1.0 + 1e-9:  # a real failure, not the expected one
        pytest.fail("row 2's magnitude is no longer fl(1 + 1e-9)")
    _assert_slippage_reads_growth(growth, slippage)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="growth's summary tests a2² + (n+1)c1² > 1 + BOUNDARY_EPS whatever "
                   "tol is, its CSV M > 1 + tol (ROADMAP item 9); perfbench/check.py restates "
                   "both rules, so the fix waits for a change to the benchmark")
def test_growth_summary_agrees_with_its_csv(tmp_path):
    payload = {"command": "growth", "state": {"a": [0, math.sqrt(5e-10), 0], "c1": 0.1}, "n": 120}
    got, summary = _run_and_read(tmp_path, payload, "growth.csv")
    rows = list(csv.DictReader(got.decode().splitlines()))
    if rows[99]["magnitude"] != "1.00000000025":  # a real failure, not the expected one
        pytest.fail("row 99's magnitude no longer reads 1.00000000025")
    first = next(int(row["k"]) for row in rows if row["exceeds_unit"] == "true")
    assert summary["first_unphysical_n"] == first
    assert summary["max_safe_repetitions"] == first - 1


def test_domain_map_small_grid(tmp_path):
    payload = {
        "command": "domain-map",
        "grid": [
            {"axis": "a2", "start": -0.9, "stop": 0.9, "count": 4},
            {"axis": "c1", "start": -0.9, "stop": 0.9, "count": 4},
        ],
        "seed": 0,
    }
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["disagreements"] == 0
    rows = np.genfromtxt(out / "domain_map.csv", delimiter=",", names=True)
    assert len(rows) == 16


def test_validate_scenario_passes(tmp_path):
    out = tmp_path / "out"
    assert run(os.path.join(SCENARIOS, "validate.json"), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] == 0
    assert summary["passed"] >= 6


def test_validate_check_at_its_bound_exits_2(tmp_path, monkeypatch, capsys):
    # a check passes only strictly below its bound; a count fails at 1
    name, metric, _, bound = checks.slice_vs_sup_norm_verdicts(1e-9)
    monkeypatch.setattr(checks, "slice_vs_sup_norm_verdicts",
                        lambda tol: (name, metric, bound, bound))
    out = tmp_path / "out"
    assert run(os.path.join(SCENARIOS, "validate.json"), out_dir=str(out)) == 2
    assert json.loads((out / "summary.json").read_text())["failed"] == 1
    rows = (out / "validate.csv").read_text().splitlines()
    assert f"{name},false,{metric}={bound}" in rows
    assert sum(row.split(",")[1] == "true" for row in rows[1:]) == 5
    assert "1 check(s) failed" in capsys.readouterr().err


def test_validate_one_failed_count_exits_2(tmp_path, monkeypatch):
    # a counting check fails at a count of one, with its own bound
    name, metric, _, bound = checks.slice_vs_sup_norm_verdicts(1e-9)
    monkeypatch.setattr(checks, "slice_vs_sup_norm_verdicts", lambda tol: (name, metric, 1, bound))
    out = tmp_path / "out"
    assert run(os.path.join(SCENARIOS, "validate.json"), out_dir=str(out)) == 2
    assert json.loads((out / "summary.json").read_text())["failed"] == 1
    assert f"{name},false,{metric}=1" in (out / "validate.csv").read_text().splitlines()


def _nan_first(kernel):
    """The kernel with its first discrepancy-bearing value replaced by NaN."""
    def spy(*args, **kwargs):
        out = kernel(*args, **kwargs)
        if isinstance(out, tuple):  # sup_norm_grid: (sup, t_best)
            return (np.r_[np.nan, out[0][1:]], *out[1:])
        return np.r_[np.nan, out[1:]]
    return spy


@pytest.mark.parametrize("kernel,check,spy", [
    ("crosscheck", "mean_values_vs_unitary,false,max_discrepancy", _nan_first),
    ("sup_norm_grid", "sup_norm_closed_vs_grid,false,max_rel_err", _nan_first),
    ("brute_force_max", "greedy_vs_brute_force,false,max_abs_err",
     lambda kernel: lambda a2, c1, n, grid_points: np.full(np.shape(a2), np.nan)),
])
def test_validate_nan_discrepancy_fails_its_check(tmp_path, monkeypatch, kernel, check, spy):
    # Python's max drops NaN, so a NaN discrepancy once read as a pass
    monkeypatch.setattr(checks, kernel, spy(getattr(checks, kernel)))
    out = tmp_path / "out"
    assert run(os.path.join(SCENARIOS, "validate.json"), out_dir=str(out)) == 2
    assert json.loads((out / "summary.json").read_text())["failed"] == 1
    assert f"{check}=nan" in (out / "validate.csv").read_text().splitlines()


def test_domain_map_oracle_disagreement_exits_2(tmp_path, monkeypatch, capsys):
    original = checks.feasibility_search
    payload = {"command": "domain-map", "grid": [
        {"axis": "a2", "start": -1, "stop": 1, "count": 5},
        {"axis": "c1", "start": -1, "stop": 1, "count": 5}]}
    # a wrong answer is caught even where 4 x it lies in the boundary band:
    # the origin's slice margin is 1
    for answer in (-0.25, -1e-4):
        def flipped(a, c1, c2, answer=answer):  # the oracle answers "outside" at the origin
            values, witness = original(a, c1, c2)
            origin = ~np.any(a, axis=0) & (c1 == 0.0)
            assert origin.sum() == 1  # one batched call covers the whole grid
            return np.where(origin, answer, values), witness

        monkeypatch.setattr(checks, "feasibility_search", flipped)
        out = tmp_path / f"out{answer}"
        assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 2
        assert json.loads((out / "summary.json").read_text())["disagreements"] >= 1
        assert (out / "domain_map.csv").exists()
        assert "disagreement" in capsys.readouterr().err


# sha256 of every output file of every bundled scenario, run with its own
# seed and tol; any change to a bundled output must update this table on purpose
BUNDLED_DIGESTS = {
    "conjunct_sweep.json": {
        "conjunct.csv": "121820373f0d9654a07347c5dc4d55b3a4fafb4efc1e9370ce2e857e32b9dbeb",
        "summary.json": "f641f48cbe51fa00a47a14d619a761acb3f0de9b6eb7fe81090ad38004a037cd",
    },
    "conjunct_trajectory.json": {
        "conjunct.csv": "cb3e2e3fafcfe314853fffcfa970621ec809613415e823b3b7d55bc376496b8e",
        "summary.json": "3da23d8f3ecbe18912cb93a64861100e348164c1b6f211cae066453c1d5a8be4",
    },
    "domain_map.json": {
        "domain_map.csv": "712992676d04001a2e14da7cbed83ef12c27755db09274e74e36ab6a4f3d42b9",
        "summary.json": "4dd043188b2348e89daf321540b457c8fe6caeb198652e14b8e2b4e5c977a5ec",
    },
    "evolve.json": {
        "evolve.csv": "57f4593b8ede1e17570bd126299e01f5f728ee4ca51d2a2eb02703622fa54cbc",
        "summary.json": "1cfd19ae2a1e591c9f55654c5bffa3cee73a96675f430e0a5f24407050069459",
    },
    "growth.json": {
        "growth.csv": "395770e4d41515c6b1e851967fdbcf0aa9f36f61de12e2af5de67ddf11b0dec9",
        "summary.json": "9f6df0b5c60f89c1045fa6b22a12aa7b97cdd129e28cdb8d63ca644bbe6ed544",
    },
    "hazard.json": {
        "hazard.csv": "88371d00c0e5e95355360e2369b887fb017f0311f27f806739ce23da13ca5dff",
        "summary.json": "345b7591158699f31036b7c8680a36c0a71d41286fce35fa0509af33da162ec2",
    },
    "slippage.json": {
        "slippage.csv": "773dad6f61072824ba4503c09335ac6c364cc773960fa2158296024e2dd9194b",
        "summary.json": "e4331e141ad0f9c5b039a5b5ef175d81f85a8ed644998d5189c7fd0e1d4bbe57",
    },
    "validate.json": {
        "validate.csv": "3282d38985068b191ce07f5ca58681bee6ee6e1a011978afb1112bbdb97366a5",
        "summary.json": "5aaadf245ae0034821fd48bd5c5e3a6b677300790efec567780a589743c1f729",
    },
}


def _bundled_digests(out_dir) -> dict:
    """Each bundled scenario's output digests, run into out_dir / name, so
    one failing comparison names every output that moved."""
    digests = {}
    for name in BUNDLED_DIGESTS:
        out = out_dir / name
        assert run(os.path.join(SCENARIOS, name), out_dir=str(out)) == 0, name
        digests[name] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    return digests


def test_bundled_scenarios_byte_identical(tmp_path):
    assert sorted(os.listdir(SCENARIOS)) == sorted(BUNDLED_DIGESTS)
    assert _bundled_digests(tmp_path) == BUNDLED_DIGESTS


# sha256 of validate.csv and summary.json of `validate` at seeds 0-3, tol 1e-9
VALIDATE_SEED_DIGESTS = {
    0: ("3282d38985068b191ce07f5ca58681bee6ee6e1a011978afb1112bbdb97366a5",
        "5aaadf245ae0034821fd48bd5c5e3a6b677300790efec567780a589743c1f729"),
    1: ("997600eb6ecc9610db86a8311bf3c42e9bd8f7efd87200a103ae58b069b7e1a1",
        "e091b93fc6e70b3a320311fb068f09192d40414dea109596ab74212780a521f3"),
    2: ("511297a5cbcdd9a18bf7520d1bc705ef3db645f03322a67528c2c88a59311519",
        "56ed0bea74fbd2a6b2641af22e569b7ab6f8cecb92d244d3d741097a9d7871ca"),
    3: ("6b6fe16bea794608efcb721383a85f0a49563b444230c48c60d2d706be05168e",
        "08a9c3168b7b74bbeb732c5ad323c22ebf48a80a28cda3a5732da37829beb3e9"),
}


@pytest.mark.parametrize("seed", sorted(VALIDATE_SEED_DIGESTS))
def test_validate_seeds_byte_identical(tmp_path, seed):
    out = tmp_path / "out"
    payload = {"command": "validate", "seed": seed, "tol": 1e-9}
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("validate.csv", "summary.json"))
    assert digests == VALIDATE_SEED_DIGESTS[seed]


def test_main_runs_hazard(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["hazard", "--scenario", os.path.join(SCENARIOS, "hazard.json"),
                 "--out", str(out)])
    assert code == 0
    assert (out / "hazard.csv").exists()
    assert (out / "summary.json").exists()


# ---------------------------------------------------------------- array programs

def _reference_csv(header: list[str], rows: list[list]) -> bytes:
    """CSV text built row by row, each cell formatted on its own."""
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        return repr(float(v))
    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _run_and_read(tmp_path, payload: dict, csv_name: str) -> tuple[bytes, dict]:
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    return (out / csv_name).read_bytes(), summary


def _hazard_row_by_row(q_values, s_values) -> tuple[bytes, list]:
    """The hazard CSV and its rows, one row at a time in Python floats."""
    assert np.cos(s_values).tolist() == list(map(math.cos, s_values.tolist()))
    rows = []
    for q in q_values.tolist():
        for s in s_values.tolist():
            # the exact edge state turns rigidly on its circle
            exact = math.cos(s)
            conj = _sigma2_legs(math.cos(q), math.sin(q), (q, s))
            rows.append([q, s, exact, conj, 1.0 - abs(exact), 1.0 - abs(conj)])
    header = ["q", "s", "sigma2_exact", "sigma2_conjunction", "margin_exact", "margin_conjunction"]
    return _reference_csv(header, rows), rows


def test_hazard_grid_matches_row_by_row(tmp_path):
    payload = {"command": "hazard", "grid": [
        {"axis": "q", "start": 0.05, "stop": 1.5, "count": 7},
        {"axis": "s", "start": -0.4, "stop": "3pi/2", "count": 501}]}
    got, summary = _run_and_read(tmp_path, payload, "hazard.csv")
    expected, rows = _hazard_row_by_row(np.linspace(0.05, 1.5, 7),
                                        np.linspace(-0.4, 3 * math.pi / 2, 501))
    assert got == expected
    assert summary["max_sigma2_conjunction"] == max(row[3] for row in rows)
    assert summary["rows"] == 7 * 501


@pytest.mark.parametrize("q_count,s_count", [(1, 23), (9, 13), (4, 5)])
def test_hazard_axes_longer_than_a_chunk_match_row_by_row(tmp_path, monkeypatch, q_count,
                                                          s_count):
    """With 5-row chunks, an axis longer than a chunk is tabled chunk by
    chunk, by its distinct indices: a run along s within one q, one that
    wraps into the next q, and a q axis of 9 values.  One q (1 x 23) is the
    state's q; 4 x 5 is a short axis tabled once."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 5)
    monkeypatch.setattr(cli, "_fork_is_quiet", lambda: False)
    q_values, s_values = np.linspace(0.05, 1.5, q_count), np.linspace(-0.4, 4.0, s_count)
    grid = [{"axis": "s", "start": -0.4, "stop": 4.0, "count": s_count}]
    if q_count == 1:
        payload = {"command": "hazard", "state": {"q": 0.05}, "grid": grid}
    else:
        payload = {"command": "hazard",
                   "grid": [{"axis": "q", "start": 0.05, "stop": 1.5, "count": q_count}, *grid]}
    got, summary = _run_and_read(tmp_path, payload, "hazard.csv")
    assert got == _hazard_row_by_row(q_values, s_values)[0]
    assert summary["rows"] == q_count * s_count


def test_evolve_grid_matches_row_by_row(tmp_path):
    rng = np.random.default_rng(31)
    a, (c1, c2) = rng.uniform(-0.6, 0.6, 3).tolist(), rng.uniform(-0.6, 0.6, 2).tolist()
    payload = {"command": "evolve", "state": {"a": a, "c1": c1, "c2": c2},
               "grid": {"axis": "t", "start": -3, "stop": 40, "count": 2001}}
    got, summary = _run_and_read(tmp_path, payload, "evolve.csv")
    rows = []
    for t in np.linspace(-3, 40, 2001).tolist():
        a1, a2, a3, c1_t, c2_t = rotate(a, c1, c2, t)
        rows.append([t, a1, a2, a3, c1_t, c2_t, np.linalg.norm([a1, a2, a3])])
    assert got == _reference_csv(["t", "a1", "a2", "a3", "c1", "c2", "norm_a"], rows)
    assert summary["rows"] == 2001


def test_conjunct_sweep_matches_row_by_row(tmp_path):
    rng = np.random.default_rng(37)
    a, (c1, c2) = rng.uniform(-0.6, 0.6, 3).tolist(), rng.uniform(-0.6, 0.6, 2).tolist()
    t = 0.7
    payload = {"command": "conjunct", "state": {"a": a, "c1": c1, "c2": c2},
               "schedule": {"t": t}, "grid": {"axis": "s", "start": -1, "stop": 9, "count": 2001}}
    got, summary = _run_and_read(tmp_path, payload, "conjunct.csv")
    # the frozen map as the exact rotation with (c1, c2) held: t, then s
    first_leg = rotate(a, c1, c2, t)[:3]
    rows = []
    for s in np.linspace(-1, 9, 2001).tolist():
        conj = np.array(rotate(first_leg, c1, c2, s)[:3])
        exact = np.array(rotate(a, c1, c2, t + s)[:3])
        norm_exact, norm_conj = np.linalg.norm(exact), np.linalg.norm(conj)
        rows.append([s, exact[1], conj[1], norm_exact, norm_conj,
                     1.0 - norm_exact, 1.0 - norm_conj])
    header = ["s", "sigma2_exact", "sigma2_conjunction", "norm_exact", "norm_conjunction",
              "margin_exact", "margin_conjunction"]
    assert got == _reference_csv(header, rows)
    best = max(rows, key=lambda row: row[2])  # first of equal maxima, as a scan keeps
    assert summary["max_sigma2_conjunction"] == best[2]
    assert summary["argmax_s"] == best[0]
    assert summary["first_hazard_s"] == next(
        (row[0] for row in rows if row[4] > 1.0 + 1e-9), None)


@pytest.mark.parametrize("seed", [41, 43])
def test_conjunct_trajectory_matches_row_by_row(tmp_path, seed):
    rng = np.random.default_rng(seed)
    a, (c1, c2) = rng.uniform(-0.6, 0.6, 3).tolist(), rng.uniform(-0.6, 0.6, 2).tolist()
    t, steps = float(rng.uniform(-1, 2)), rng.uniform(-2, 3, 200).tolist()
    payload = {"command": "conjunct", "state": {"a": a, "c1": c1, "c2": c2},
               "schedule": {"t": t, "steps": steps}}
    got, summary = _run_and_read(tmp_path, payload, "conjunct.csv")
    # the per-step loop the trajectory mode ran before it became one rotate call
    durations = [t, *steps]
    magnitudes, trajectory = conjunct(c1, c2, a, durations)
    rows = []
    cumulative = 0.0
    for k, duration in enumerate(durations):
        cumulative += duration
        exact = np.array(rotate(a, c1, c2, cumulative)[:3])
        conj_a = trajectory[k]
        rows.append([k, duration, cumulative, conj_a[0], conj_a[1], conj_a[2], magnitudes[k],
                     exact[0], exact[1], exact[2], float(np.linalg.norm(exact))])
    header = ["step", "duration", "cumulative_time", "conj_a1", "conj_a2", "conj_a3", "conj_norm",
              "exact_a1", "exact_a2", "exact_a3", "exact_norm"]
    assert got == _reference_csv(header, rows)
    assert summary["first_unphysical_step"] == next(
        (k for k, m in enumerate(magnitudes) if m > 1.0 + 1e-9), None)
    assert summary["worst_margin"] == 1.0 - float(magnitudes.max())
    assert summary["max_magnitude"] == float(magnitudes.max())
    assert summary["rows"] == 201


def test_slippage_grid_matches_row_by_row(tmp_path):
    payload = {"command": "slippage", "n": 4, "grid": [
        {"axis": "a2", "start": -1.05, "stop": 1.05, "count": 31},
        {"axis": "c1", "start": -0.6, "stop": 0.6, "count": 7}]}
    got, _ = _run_and_read(tmp_path, payload, "slippage.csv")
    rows = []
    for n in range(1, 5):
        for a2 in np.linspace(-1.05, 1.05, 31).tolist():
            for c1 in np.linspace(-0.6, 0.6, 7).tolist():
                margin = slipped_domain_check(a2, c1, n)
                rows.append([n, a2, c1, inside(margin, 1e-9), margin, slip_state(a2, c1, n)])
    assert got == _reference_csv(["n", "a2", "c1", "inside", "margin", "a2_slipped"], rows)


def test_slippage_projects_at_the_default_tol_whatever_the_run_tol(tmp_path):
    # 1.8e-10 past the boundary: outside at tol 0, yet within DEFAULT_TOL,
    # so `slip_state` keeps a2 (the grid -a2, a2 shares one margin)
    a2 = math.sqrt(0.82) + 2e-10
    payload = {"command": "slippage", "state": {"c1": 0.3}, "n": 1, "tol": 0,
               "grid": {"axis": "a2", "start": -a2, "stop": a2, "count": 2}}
    got, _ = _run_and_read(tmp_path, payload, "slippage.csv")
    rows = list(csv.DictReader(got.decode().splitlines()))
    assert [float(row["a2"]) for row in rows] == [-a2, a2]
    for row in rows:
        assert row["inside"] == "false"
        assert float(row["margin"]) == pytest.approx(-1.8e-10, rel=0.02)
        assert row["a2_slipped"] == row["a2"]


def test_hazard_grid_calls_each_kernel_o1_times(tmp_path, monkeypatch):
    calls = {"rotate": 0, "_fold": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    payload = {"command": "hazard", "grid": [
        {"axis": "q", "start": 0.1, "stop": 1.4, "count": 6},
        {"axis": "s", "start": 0, "stop": 2, "count": 50}]}
    assert run(write_scenario(tmp_path, payload), out_dir=str(tmp_path / "out")) == 0
    assert calls["rotate"] <= 1
    assert calls["_fold"] <= 1


def _count_calls(monkeypatch, module, names) -> dict:
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_validate_calls_each_kernel_o1_times(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, checks, ("sup_norm_grid", "sup_norm_over_time",
                                               "in_compatibility_domain", "compat_slice_check",
                                               "feasibility_search", "certified", "crosscheck",
                                               "brute_force_max"))
    payload = {"command": "validate", "seed": 5}
    assert run(write_scenario(tmp_path, payload), out_dir=str(tmp_path / "out")) == 0
    # per-point loops made 500, 500, 40,401, 40,522, 121, 121, 1000 and 20 calls
    assert calls["sup_norm_grid"] == calls["sup_norm_over_time"] == 1
    assert calls["in_compatibility_domain"] == 1
    assert calls["compat_slice_check"] <= 2
    assert calls["feasibility_search"] == calls["certified"] == 1
    assert calls["crosscheck"] == 1
    assert calls["brute_force_max"] == 4  # one for each number of reuses, n = 0..3
    # neither oracle searches: the sup-norm grid takes one parabolic step and
    # the brute-force legs a closed form
    assert "golden_section_max" not in vars(reduced)
    assert "golden_section_max" not in vars(conjunction)


def test_domain_map_calls_each_kernel_o1_times(tmp_path, monkeypatch):
    # one call of each per chunk of rows: 63 rows in chunks of 10
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 10)
    monkeypatch.setattr(cli, "_fork_is_quiet", lambda: False)  # count every chunk here
    calls = _count_calls(monkeypatch, checks, ("in_compatibility_domain", "compat_slice_check",
                                               "feasibility_search"))
    points, search = [], checks.feasibility_search

    def recorded(*args):
        values, witness = search(*args)
        points.append(np.size(values))
        return values, witness

    monkeypatch.setattr(checks, "feasibility_search", recorded)
    payload = {"command": "domain-map", "grid": [
        {"axis": "a2", "start": -1, "stop": 1, "count": 9},
        {"axis": "c1", "start": -1, "stop": 1, "count": 7}]}
    assert run(write_scenario(tmp_path, payload), out_dir=str(tmp_path / "out")) == 0
    # the oracle's per-point loop made 63 calls
    assert calls == {"in_compatibility_domain": 7, "compat_slice_check": 7,
                     "feasibility_search": 7}
    # the row chunk is the oracle's one memory bound: no call takes more points
    assert sum(points) == 63 and max(points) <= cli._CHUNK_ROWS


# ---------------------------------------------------------------- input boundary

def _assert_exit_1_nothing_written(tmp_path, payload: dict, field: str, capsys) -> None:
    out = tmp_path / "out"
    assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 1
    assert not out.exists()
    assert field in capsys.readouterr().err


def test_infinite_correlation_rejected_with_field_path(tmp_path, capsys):
    payload = {"command": "evolve", "state": {"a": [0, 0.5, 0], "c1": math.inf, "c2": 0},
               "grid": {"axis": "t", "start": 0, "stop": 1, "count": 5}}
    assert "Infinity" in json.dumps(payload)  # the file carries the JSON extension literal
    _assert_exit_1_nothing_written(tmp_path, payload, "state.c1", capsys)


def test_nan_bloch_component_rejected_with_field_path(tmp_path, capsys):
    payload = {"command": "growth", "state": {"a": [0, math.nan, 0], "c1": 0.2}, "n": 3}
    assert "NaN" in json.dumps(payload)
    _assert_exit_1_nothing_written(tmp_path, payload, "state.a[1]", capsys)


@pytest.mark.parametrize("payload,field", [
    ({"command": "evolve", "state": {"a": [1e308, 1e308, 0], "c1": 0, "c2": 0},
      "grid": {"axis": "t", "start": 0, "stop": 1, "count": 5}}, "state.a[0]"),
    ({"command": "slippage", "state": {"c1": 1e200}, "n": 2,
      "grid": {"axis": "a2", "start": -1, "stop": 1, "count": 5}}, "state.c1"),
    ({"command": "evolve", "state": {"a": [0, 0.5, 0], "c1": 0, "c2": -1.0000001e150},
      "grid": {"axis": "t", "start": 0, "stop": 1, "count": 5}}, "state.c2"),
    ({"command": "domain-map", "grid": [{"axis": "a2", "start": -1e155, "stop": 1, "count": 3},
                                        {"axis": "c1", "start": -1, "stop": 1, "count": 3}]},
     "grid[0].start"),
    ({"command": "domain-map", "grid": [{"axis": "a2", "start": -1, "stop": 1, "count": 3},
                                        {"axis": "c1", "start": -1, "stop": 1e155, "count": 3}]},
     "grid[1].stop"),
    ({"command": "hazard", "state": {"q": 0.5},
      "grid": {"axis": "s", "start": -1e308, "stop": 1e308, "count": 5}}, "grid[0].start"),
    ({"command": "hazard", "grid": [{"axis": "q", "start": 0, "stop": 2e150, "count": 3},
                                    {"axis": "s", "start": 0, "stop": 1, "count": 3}]},
     "grid[0].stop"),
    ({"command": "growth", "state": {"q": -1e200}, "n": 3}, "state.q"),
    ({"command": "conjunct", "state": {"q": 0.5}, "schedule": {"t": 1e151, "steps": [1]}},
     "schedule.t"),
    ({"command": "conjunct", "state": {"q": 0.5}, "schedule": {"t": 1, "steps": [1, 1e308]}},
     "schedule.steps[1]"),
    ({"command": "evolve", "state": {"q": 0.5},
      "grid": {"axis": "t", "start": 0, "stop": 1e300, "count": 3}}, "grid[0].stop"),
], ids=["a", "c1", "c2", "a2-start", "c1-stop", "s-start", "q-stop", "q", "t", "steps", "t-stop"])
def test_overflowing_values_rejected_with_field_path(tmp_path, payload, field, capsys):
    # past the limit a square or norm overflows: a traceback, or inf/nan rows
    _assert_exit_1_nothing_written(tmp_path, payload, field, capsys)


def test_values_at_the_magnitude_limit_run_clean(tmp_path):
    big = cli.MAX_MAGNITUDE
    payloads = [
        ("domain_map.csv", {"command": "domain-map", "grid": [
            {"axis": "a2", "start": -big, "stop": big, "count": 3},
            {"axis": "c1", "start": -big, "stop": big, "count": 3}]}),
        ("slippage.csv", {"command": "slippage", "state": {"c1": -big}, "n": 3,
                          "grid": {"axis": "a2", "start": -big, "stop": big, "count": 3}}),
        ("evolve.csv", {"command": "evolve", "state": {"a": [big, -big, big], "c1": big, "c2": big},
                        "grid": {"axis": "t", "start": 0, "stop": 1, "count": 3}}),
        # every angle at the limit
        ("evolve.csv", {"command": "evolve", "state": {"q": -big},
                        "grid": {"axis": "t", "start": -big, "stop": big, "count": 3}}),
        ("hazard.csv", {"command": "hazard", "grid": [
            {"axis": "q", "start": -big, "stop": big, "count": 3},
            {"axis": "s", "start": -big, "stop": big, "count": 3}]}),
        ("conjunct.csv", {"command": "conjunct", "state": {"q": big},
                          "schedule": {"t": -big, "steps": [big, big, -big]}}),
        ("conjunct.csv", {"command": "conjunct", "state": {"a": [big, big, -big], "c1": big,
                                                           "c2": -big},
                          "schedule": {"t": big},
                          "grid": {"axis": "s", "start": -big, "stop": big, "count": 3}}),
        ("growth.csv", {"command": "growth", "state": {"q": big}, "n": 3}),
    ]
    for i, (name, payload) in enumerate(payloads):
        out = tmp_path / str(i)
        assert run(write_scenario(tmp_path, payload), out_dir=str(out)) == 0
        text = (out / name).read_text()
        assert "inf" not in text and "nan" not in text


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10**400, "9" * 400 + "pi"],
                         ids=["inf", "-inf", "nan", "huge-int", "huge-pi-string"])
def test_non_finite_angles_rejected(bad):
    with pytest.raises(ScenarioError, match="finite"):
        parse_angle(bad, "x")


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
def test_bad_tol_flag_exits_1_without_output(tmp_path, tol, capsys):
    out = tmp_path / "out"
    assert run(os.path.join(SCENARIOS, "hazard.json"), out_dir=str(out), tol=tol) == 1
    assert not out.exists()
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command,seed", [("validate", "-1"), ("hazard", "-5")])
def test_negative_seed_flag_exits_1_without_output(tmp_path, command, seed, capsys):
    out = tmp_path / "out"
    argv = [command, "--scenario", os.path.join(SCENARIOS, f"{command}.json"),
            "--out", str(out), "--seed", seed]
    assert main(argv) == 1
    assert not out.exists()
    assert "--seed" in capsys.readouterr().err


def test_write_failure_leaves_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.json").mkdir(parents=True)  # the summary cannot be written
    assert run(os.path.join(SCENARIOS, "hazard.json"), out_dir=str(out)) == 1
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    assert (out / "summary.json").is_dir()
    assert "cannot write output" in capsys.readouterr().err


# ---------------------------------------------------------------- split emit

def _fork_spy(monkeypatch) -> list:
    """Count os.fork calls in this process; the fork itself still happens."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _serial_csv(header, columns) -> bytes:
    """The reference: one row at a time, each cell formatted on its own."""
    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        return repr(float(value))
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# from Python 3.12 on, a process with other OS threads writes serially
_needs_split = pytest.mark.skipif(not cli._fork_is_quiet(), reason="os.fork would warn here")


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 13])
def test_split_emit_equals_serial(tmp_path, monkeypatch, n):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    forks = _fork_spy(monkeypatch)
    rng = np.random.default_rng(n)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    floats[0] = -0.0
    columns = (floats, floats > 0, list(map(str, range(n))), [f"text{i}" for i in range(n)],
               [repr(floats[1])] * n)
    header = ["x", "positive", "k", "label", "axis"]
    path = tmp_path / "split.csv"
    assert emit_csv(header, Body.up_front(*columns), str(path)) is None
    assert path.read_bytes() == _serial_csv(header, columns)
    # the same rows as a body whose partial summary is the row ranges it was
    # computed in: they come back folded in row order, across the fork too
    whole = Body.up_front(*columns)
    body = cli.Body(n, lambda lo, hi: (whole.chunk(lo, hi)[0], [(lo, hi)]),
                    lambda left, right: left + right)
    ranges = emit_csv(header, body, str(tmp_path / "body.csv"))
    assert (tmp_path / "body.csv").read_bytes() == _serial_csv(header, columns)
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == n and all(hi - lo <= 3 for lo, hi in ranges)
    assert len(forks) == 2 * cli._fork_is_quiet()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["body.csv", "split.csv"]
    _no_child_left()


def test_each_chunk_formats_its_floats_in_one_call(tmp_path, monkeypatch):
    """`evolve`'s six float columns reach `float_reprs` together, one call a
    chunk, and the text is what one call per column wrote."""
    scenario = os.path.join(SCENARIOS, "evolve.json")
    run(scenario, out_dir=str(tmp_path / "whole"))
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 50)
    monkeypatch.setattr(cli, "_fork_is_quiet", lambda: False)  # every chunk in this process
    sizes, reprs = [], cli.float_reprs
    monkeypatch.setattr(cli, "float_reprs", lambda values: sizes.append(len(values))
                        or reprs(values))
    assert run(scenario, out_dir=str(tmp_path / "chunked")) == 0
    assert sizes == [6 * 50] * 4 + [6 * 1]  # ceil(201 / 50) calls
    for name in ("evolve.csv", "summary.json"):
        assert ((tmp_path / "chunked" / name).read_bytes()
                == (tmp_path / "whole" / name).read_bytes())


def test_floats_that_cross_over_together_write_repr(tmp_path):
    """Float columns each below `CROSSOVER` but over it together take the
    array path, beside bool, int and text columns; every cell is still
    `float.__repr__` of its value."""
    n = 100
    assert n < CROSSOVER < 3 * n
    rng = np.random.default_rng(33)
    special = [0.0, -0.0, 1e-5, 1e16, np.nan, np.inf, -np.inf, 1e-4, 0.1, 2.5e15]
    drawn = rng.normal(size=n) * 10.0 ** rng.integers(-6, 18, size=n)
    drawn[:len(special)] = special
    grid = np.linspace(0.0, 2 * np.pi, n)
    rounded = np.round(rng.uniform(-1, 1, size=n), 3)
    columns = (grid, drawn > 0, list(map(repr, range(n))), drawn, [f"t{i}" for i in range(n)],
               rounded)
    header = ["grid", "positive", "k", "drawn", "label", "rounded"]
    path = tmp_path / "mixed.csv"
    emit_csv(header, Body.up_front(*columns), str(path))
    assert path.read_bytes() == _serial_csv(header, columns)


# one payload per streamed command, each a few chunks of 7 rows and a ragged last one
_GRID_PAYLOADS = {
    "evolve": {"command": "evolve", "state": {"a": [0.3, -0.5, 0.2], "c1": 0.4, "c2": -0.1},
               "grid": {"axis": "t", "start": -1, "stop": 7, "count": 53}},
    # sigma2 = a2' cos s with cos s rounding to 1 on the whole grid: every row
    # ties for the maximum, across every chunk and both halves
    "conjunct-tie": {"command": "conjunct", "state": {"a": [0.1, 0.6, 0.2], "c1": 0, "c2": 0},
                     "schedule": {"t": 0.3},
                     "grid": {"axis": "s", "start": -1e-9, "stop": 1e-9, "count": 40}},
    # the first hazard lies past the first chunk
    "conjunct-hazard": {"command": "conjunct", "state": {"q": "pi/4"}, "schedule": {"t": 0.6},
                        "grid": {"axis": "s", "start": -1.8, "stop": 3, "count": 61}},
    # an s axis longer than a chunk: its columns are formatted chunk by chunk
    "hazard": {"command": "hazard", "grid": [
        {"axis": "q", "start": 0.1, "stop": 1.4, "count": 3},
        {"axis": "s", "start": 0, "stop": 3.8, "count": 17}]},
    "domain-map": {"command": "domain-map", "grid": [
        {"axis": "a2", "start": -1.1, "stop": 1.1, "count": 8},
        {"axis": "c1", "start": -1.1, "stop": 1.1, "count": 9}]},
    "slippage": {"command": "slippage", "n": 3, "grid": [
        {"axis": "a2", "start": -1.05, "stop": 1.05, "count": 11},
        {"axis": "c1", "start": -0.6, "stop": 0.6, "count": 3}]},
    # each chunk, the forked child's included, is the closed form of its rows
    "growth": {"command": "growth", "state": {"a": [0, 0.6, 0], "c1": 0.2}, "n": 40},
}


def _outputs(tmp_path, name: str, payload: dict) -> dict:
    out = tmp_path / name
    assert run(write_scenario(tmp_path, payload, f"{name}.json"), out_dir=str(out)) == 0
    return {f.name: f.read_bytes() for f in out.iterdir()}


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
@pytest.mark.parametrize("command", list(_GRID_PAYLOADS))
def test_chunked_grid_commands_equal_one_chunk(tmp_path, monkeypatch, command, forked):
    if forked and not cli._fork_is_quiet():
        pytest.skip("os.fork would warn here")
    payload = _GRID_PAYLOADS[command]
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 10**9)
    whole = _outputs(tmp_path, "whole", payload)
    summary = json.loads(whole["summary.json"])
    assert summary["rows"] % 7 and summary["rows"] > 14
    if command == "conjunct-tie":
        conj = np.genfromtxt(tmp_path / "whole" / "conjunct.csv", delimiter=",", names=True)
        assert len(set(conj["sigma2_conjunction"])) == 1
        assert summary["argmax_s"] == -1e-9
    if command == "conjunct-hazard":
        assert summary["first_hazard_s"] > np.linspace(-1.8, 3, 61)[7]
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    if not forked:
        monkeypatch.setattr(cli, "_fork_is_quiet", lambda: False)
    forks = _fork_spy(monkeypatch)
    chunked = _outputs(tmp_path, "chunked", payload)
    assert chunked == whole
    assert len(forks) == forked
    _no_child_left()
    if command == "hazard":
        # the exact columns depend on s alone: each q block repeats one
        # block of cells, cos s and 1 - |cos s|
        lines = chunked["hazard.csv"].decode().splitlines()[1:]
        blocks = [[line.split(",")[2::2] for line in lines[i:i + 17]]
                  for i in range(0, len(lines), 17)]
        cos = [float(np.cos(s)) for s in np.linspace(0, 3.8, 17)]
        assert blocks == [[[repr(c), repr(1.0 - abs(c))] for c in cos]] * 3


@pytest.mark.parametrize("start,stop,count", [
    (0.0, 1.0, 2), (-1e150, 1e150, 2), (-1e150, 1e150, 1001), (-0.3, 2.9, 4097),
    (0.0, 5e-324, 7), (-5e-324, 1e-323, 1000), (0.0, 1e-310, 3), (1.0, 1.0 + 2**-52, 5),
    (-math.pi, 2 * math.pi, 200_001),
])
def test_grid_values_from_indices_equal_linspace(start, stop, count):
    grid = cli.Grid("t", start, stop, count)
    expected = np.linspace(start, stop, count)
    got = grid.at(np.arange(count))
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    index = np.random.default_rng(count).integers(0, count, 50)
    assert np.array_equal(grid.at(index), expected[index])


def test_bundled_scenarios_split_give_the_goldens(tmp_path, monkeypatch):
    """Each bundled body is below `_CHUNK_ROWS`; a small constant computes
    every grid command in chunks of 3 rows and sends every body through the
    forked half, then through one process."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    forks, quiet = _fork_spy(monkeypatch), cli._fork_is_quiet()
    for forked in (True, False):
        if not forked:
            monkeypatch.setattr(cli, "_fork_is_quiet", lambda: False)
        out = tmp_path / str(forked)
        out.mkdir()
        assert _bundled_digests(out) == BUNDLED_DIGESTS, f"forked={forked}"
    assert len(forks) == len(BUNDLED_DIGESTS) * quiet
    _no_child_left()


def _traced_peaks(tmp_path, monkeypatch, payloads: list) -> list:
    """Peak traced memory of a one-process run of each payload."""
    monkeypatch.setattr(cli, "_fork_is_quiet", lambda: False)
    peaks = []
    for i, payload in enumerate(payloads):
        path = write_scenario(tmp_path, payload, f"{i}.json")
        tracemalloc.start()
        try:
            assert run(path, out_dir=str(tmp_path / str(i))) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_memory_stays_bounded_as_the_grid_grows(tmp_path, monkeypatch):
    """Peak traced memory of a one-process hazard run at 20k and at 200k
    rows: one chunk of rows at a time, so the two peaks stay within 1 MB."""
    peaks = _traced_peaks(tmp_path, monkeypatch, [
        {"command": "hazard", "grid": [
            {"axis": "q", "start": 0.02, "stop": 1.55, "count": q_count},
            {"axis": "s", "start": 0, "stop": 2.0, "count": 1001}]}
        for q_count in (20, 200)])
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


def test_growth_memory_stays_bounded_as_n_grows(tmp_path, monkeypatch):
    """Peak traced memory of a one-process growth run at n = 20k and at
    200k: the closed form streams one chunk of rows at a time, so the two
    peaks stay within 1 MB."""
    peaks = _traced_peaks(tmp_path, monkeypatch, [
        {"command": "growth", "state": {"a": [0, 0.6, 0], "c1": 0.2}, "n": n}
        for n in (20_000, 200_000)])
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


def test_growth_chunks_out_of_row_order_give_the_same_rows(tmp_path):
    """Each growth chunk is the closed form of its own rows and keeps no
    state, so any order, and the same chunk again, gives the same rows,
    those of `greedy_extremal_growth`."""
    sc = load_scenario(write_scenario(tmp_path, _GRID_PAYLOADS["growth"]))
    ranges = [(0, 7), (7, 14), (14, 30), (30, 41)]
    body = cli.COMMANDS["growth"].runner(sc)[1]
    in_order = [body.chunk(lo, hi) for lo, hi in ranges]
    body = cli.COMMANDS["growth"].runner(sc)[1]
    for i in (3, 1, 0, 2, 2, 1, 3):  # forward past rows, back, and the same chunk again
        columns, partial = body.chunk(*ranges[i])
        assert columns[0] == in_order[i][0][0]
        for got, expected in zip(columns[1:], in_order[i][0][1:]):
            assert np.array_equal(got, expected) and got.dtype == expected.dtype
        assert partial == in_order[i][1] == columns[2][-1]
    magnitudes, durations = greedy_extremal_growth(0.6, 0.2, 40)
    assert np.array_equal(np.concatenate([columns[1] for columns, _ in in_order]), durations)
    assert np.array_equal(np.concatenate([columns[2] for columns, _ in in_order]), magnitudes)


def test_every_runner_returns_a_body():
    """One row protocol: on its bundled scenario each command's runner
    returns a `Body`, whose chunk gives one column per header name."""
    commands = set()
    for name in sorted(BUNDLED_DIGESTS):
        sc = load_scenario(os.path.join(SCENARIOS, name))
        header, rows, _ = cli.COMMANDS[sc.command].runner(sc)
        assert type(rows) is Body, name
        columns, _ = rows.chunk(0, len(rows))
        assert type(columns) is tuple and len(columns) == len(header), name
        commands.add(sc.command)
    assert commands == set(cli.COMMANDS)


def test_serial_where_fork_is_missing_or_would_warn(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    columns = (np.linspace(0.0, 1.0, 11), list(map(str, range(11))))
    expected = _serial_csv(["x", "k"], columns)
    # before 3.12 the fork never warns; from 3.12 on it warns in a process
    # running other OS threads
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with monkeypatch.context() as m:
            m.setattr(sys, "version_info", (3, 11, 9, "final", 0))
            assert cli._fork_is_quiet()
            m.setattr(sys, "version_info", (3, 12, 0, "final", 0))
            m.setattr(os, "fork", lambda: pytest.fail("forked"))
            assert not cli._fork_is_quiet()
            emit_csv(["x", "k"], Body.up_front(*columns), str(tmp_path / "threads.csv"))
    finally:
        release.set()
        thread.join(timeout=10)
    monkeypatch.delattr(os, "fork")
    emit_csv(["x", "k"], Body.up_front(*columns), str(tmp_path / "no_fork.csv"))
    for name in ("threads.csv", "no_fork.csv"):
        assert (tmp_path / name).read_bytes() == expected


@_needs_split
@pytest.mark.parametrize("how", ["format", "open"])
def test_child_failure_exits_1_and_leaves_nothing(tmp_path, monkeypatch, capsys, how):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    out = tmp_path / "out"
    out.mkdir()
    part = out / f"hazard.csv.{os.getpid()}.tmp.part"
    if how == "open":  # the child cannot create its file
        part.mkdir()
    else:  # the disk fills while the child formats; this process's half is written
        parent, cells = os.getpid(), cli._cells

        def full_disk(column):
            if os.getpid() != parent:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return cells(column)

        monkeypatch.setattr(cli, "_cells", full_disk)
    assert run(os.path.join(SCENARIOS, "hazard.json"), out_dir=str(out)) == 1
    assert "error: cannot write output" in capsys.readouterr().err
    # only the directory the test made in the part file's place
    assert [p.name for p in out.iterdir()] == ([part.name] if how == "open" else [])
    _no_child_left()


@_needs_split
def test_child_compute_error_is_raised_not_a_write_failure(tmp_path, monkeypatch, capsys):
    """A compute error in the child's half is raised here as it would be in
    one process, not reported as output that cannot be written."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    parent, kernel = os.getpid(), cli._fold
    monkeypatch.setattr(cli, "_fold", lambda *args: kernel(*args)
                        if os.getpid() == parent else 1 / 0)
    out = tmp_path / "out"
    with pytest.raises(ZeroDivisionError):
        run(os.path.join(SCENARIOS, "hazard.json"), out_dir=str(out))
    assert "cannot write output" not in capsys.readouterr().err
    assert list(out.iterdir()) == []
    _no_child_left()


@_needs_split
def test_interrupt_before_waitpid_kills_and_reaps_the_child(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    parent = os.getpid()

    def cells(column):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(20)  # the child would outlive the run unless killed
        raise RuntimeError("not killed")

    monkeypatch.setattr(cli, "_cells", cells)
    out = tmp_path / "out"
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(os.path.join(SCENARIOS, "hazard.json"), out_dir=str(out))
    assert time.monotonic() - t0 < 10
    assert list(out.iterdir()) == []
    _no_child_left()


_FORK_BESIDE_BLAS = """
import os, sys
import numpy as np
from qmaplab import cli
np.linalg.eigvalsh(np.eye(200) + 1.0)  # the BLAS and LAPACK pools are up
scenario, out = sys.argv[1:]
cli._CHUNK_ROWS = 10**9
assert cli.run(scenario, os.path.join(out, "whole")) == 0
cli._CHUNK_ROWS = 64
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
quiet = cli._fork_is_quiet()
assert cli.run(scenario, os.path.join(out, "chunked")) == 0
print(len(forks), int(quiet))
"""


def test_streamed_domain_map_forks_beside_an_unpinned_openblas(tmp_path):
    """The child of a streamed domain-map calls matmul and eigvalsh.  In a
    fresh interpreter with OpenBLAS's thread count left to its default, the
    run must finish, fork once where the fork is quiet, and write what one
    chunk writes."""
    payload = {"command": "domain-map", "grid": [
        {"axis": "a2", "start": -1.1, "stop": 1.1, "count": 41},
        {"axis": "c1", "start": -1.1, "stop": 1.1, "count": 39}]}
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _FORK_BESIDE_BLAS,
                           write_scenario(tmp_path, payload), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    forks, quiet = map(int, done.stdout.split())
    assert forks == quiet
    for name in ("domain_map.csv", "summary.json"):
        assert (tmp_path / "chunked" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_main_parses_the_scenario_once(tmp_path, monkeypatch):
    loads = []
    original = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda path: loads.append(path) or original(path))
    path = os.path.join(SCENARIOS, "hazard.json")
    assert main(["hazard", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
    assert loads == [path]


# ---------------------------------------------------------------- property test

_KEYS = st.sampled_from(["command", "state", "schedule", "grid", "a", "q", "c1", "c2", "t",
                         "steps", "axis", "start", "stop", "count", "n", "tol", "seed", "x"])
_ATOMS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 10**30, 1e150, -0.0,
                     "pi", "-2pi/3", "9" * 160 + "pi", "pi/0", "s", "hazard", None, True]),
    st.integers(-1000, 1000),  # small, so that no example writes many rows
    st.floats(-10, 10),
)
_JSON = st.recursive(_ATOMS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=6)


# validate reads only seed and tol, and one pass takes about 0.3 s
_BUNDLED = [json.loads(pathlib.Path(SCENARIOS, name).read_text(encoding="utf-8"))
            for name in sorted(set(os.listdir(SCENARIOS)) - {"validate.json"})]


def _paths(node, prefix=()):
    """Every key path into a JSON value, below its root."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,)
            yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_scenarios(draw):
    """A bundled scenario with one or two values replaced or keys deleted."""
    payload = copy.deepcopy(draw(st.sampled_from(_BUNDLED)))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(payload))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        else:  # a leaf becomes an atom, an object or list any JSON value
            parent[path[-1]] = draw(_JSON if isinstance(parent[path[-1]], (dict, list))
                                    else _ATOMS)
    return payload


def _no_constant(name):
    raise AssertionError(f"summary.json holds {name}")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.one_of(_mutated_scenarios(), st.dictionaries(_KEYS, _JSON, max_size=4)))
def _run_is_total(payload):
    # tempfile, not tmp_path: a function-scoped fixture is shared by every example
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(pathlib.Path(tmp), payload)
        out = pathlib.Path(tmp, "out")
        code = run(path, out_dir=str(out))
        assert code in (0, 1, 2)
        if code == 1:
            assert not out.exists()
        if code == 0:
            summary = (out / "summary.json").read_text(encoding="utf-8")
            csv = (out / json.loads(summary)["csv"]).read_text(encoding="utf-8")
            json.loads(summary, parse_constant=_no_constant)
            assert not {"nan", "inf", "-inf"} & set(csv.replace("\n", ",").split(","))


def test_run_never_raises_and_exit_1_writes_nothing():
    # Hypothesis caches the constants it mines from source files under its
    # home directory, ./.hypothesis by default: keep that out of the checkout
    with tempfile.TemporaryDirectory() as home:
        set_hypothesis_home_dir(home)
        try:
            _run_is_total()
        finally:
            set_hypothesis_home_dir(None)
