"""Generated benchmark scenarios, run through `cli.run` and read back by the
benchmark's own checker, which recomputes every output from the scenario
with its own closed forms and imports nothing from the program."""
from __future__ import annotations

import importlib.util
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qmaplab.cli import COMMANDS, FIELDS, run

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


# ---------------------------------------------------------------- valid scenarios

# angle strings the program parses, with the values they stand for
_PI_STRINGS = {"pi/4": math.pi / 4, "-pi/6": -math.pi / 6, "2pi/3": 2 * math.pi / 3,
               "pi": math.pi, "-0.5pi": -0.5 * math.pi, "3*pi/2": 1.5 * math.pi}
# numbers of magnitude up to 1.5 only, the edges 0 and +-1 among them: the
# checker's EXACT is an absolute 1e-12, which rounding alone exceeds at
# magnitudes far above 1
_NUMBERS = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.5, 1.5))
# one angle in ten a pi-string, so most payloads stay readable by the checker
_ANGLES = st.integers(0, 9).flatmap(
    lambda k: st.sampled_from(list(_PI_STRINGS)) if k == 0 else st.floats(-7.0, 7.0))
# the checker's `_first_unphysical_n` counts n in floats, where (n + 1) c1^2
# rounds once n passes about 1e14: for 0 < |c1| < 1e-7 it can miss the
# program's count (13 of 300 draws in 1e-8 to 1e-7, 114 of 300 in 1e-9 to
# 1e-8, off by up to 127), and below about 1e-10 it does not halt (24 of 200
# draws in 1e-11 to 1e-10), so growth there gets the exit-0 check only
_TINY_C1 = 1e-7


def _radians(angle) -> float:
    return _PI_STRINGS[angle] if isinstance(angle, str) else angle


@st.composite
def _grid(draw, axis: str) -> dict:
    ends = st.lists(_ANGLES if axis in ("t", "s", "q") else _NUMBERS, min_size=2, max_size=2,
                    unique_by=_radians)
    start, stop = sorted(draw(ends), key=_radians)
    return {"axis": axis, "start": start, "stop": stop, "count": draw(st.integers(2, 9))}


# the strategy of each `FIELDS` entry: (draw, the command's spec) -> a value
_VALUES = {
    "state.a": lambda draw, spec: ([0.0, draw(_NUMBERS), 0.0] if spec.on_slice
                                   else draw(st.lists(_NUMBERS, min_size=3, max_size=3))),
    "state.q": lambda draw, spec: draw(_ANGLES),
    "state.c1": lambda draw, spec: draw(_NUMBERS),
    "state.c2": lambda draw, spec: 0.0 if spec.on_slice else draw(_NUMBERS),
    "schedule.t": lambda draw, spec: draw(_ANGLES),
    "schedule.steps": lambda draw, spec: draw(st.lists(_ANGLES, min_size=1, max_size=5)),
    "grid": lambda draw, spec: [draw(_grid(axis)) for axis in spec.axes],
    "n": lambda draw, spec: draw(st.integers(spec.n_min, spec.n_min + 20)),
    "tol": lambda draw, spec: draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-3))),
    "seed": lambda draw, spec: draw(st.integers(0, 2**32)),
}


@st.composite
def _valid_scenarios(draw) -> dict:
    """A valid scenario of any command in `COMMANDS`, from its spec: every
    field it accepts drawn by the field's strategy, or left out where the
    spec allows."""
    command = draw(st.sampled_from(list(COMMANDS)))
    spec = COMMANDS[command]
    given = {path: draw(st.booleans()) for path in spec.fields}
    if "state.a" in spec.fields:  # the state in full, or as the shorthand q
        full = given["state.a"]
        given.update({"state.q": not full, "state.c1": full and given["state.c1"],
                      "state.c2": full and given["state.c2"]})
    given.update(dict.fromkeys(spec.required, True))
    if spec.either:  # the field, or the grid axis
        field, axis = spec.either
        spec = spec._replace(axes=spec.axes + ((axis,) if not given[field] else ()))
    if "grid" in given:  # given when the command takes an axis
        given["grid"] = bool(spec.axes)
    if "n" in given:  # required, at least n_min
        given["n"] = True
    payload = {"command": command}
    for path in (path for path in spec.fields if given[path]):
        group, _, key = path.rpartition(".")
        (payload.setdefault(group, {}) if group else payload)[key] = _VALUES[path](draw, spec)
    return payload


def _unchecked(payload: dict):
    """Why the checker cannot read this payload's outputs, or None."""
    if any(isinstance(angle, str) for angle in _angles(payload)):
        return "it does not parse pi-string angles"
    c1 = check._edge_state(payload["state"])[1] if payload["command"] == "growth" else 0.0
    if 0 < abs(c1) < _TINY_C1:
        return "its _first_unphysical_n miscounts or does not halt for a tiny nonzero c1"
    return None


def _angles(payload: dict):
    yield payload.get("state", {}).get("q")
    schedule = payload.get("schedule", {})
    yield from [schedule.get("t"), *schedule.get("steps", [])]
    for grid in check._grids(payload).values():
        yield from (grid["start"], grid["stop"])


_EDGES = [
    {"command": "growth", "state": {"a": [0.0, 1.0, 0.0], "c1": 0.0}, "n": 3, "tol": 0.0},
    {"command": "growth", "state": {"a": [0.0, -1.0, 0.0], "c1": 0.5}, "n": 3, "tol": 0.0},
    {"command": "domain-map", "tol": 0.0, "grid": [
        {"axis": "a2", "start": -1.0, "stop": 1.0, "count": 5},
        {"axis": "c1", "start": 0.0, "stop": 1.0, "count": 3}]},
    {"command": "slippage", "state": {"c1": 0.0}, "n": 2, "tol": 0.0,
     "grid": {"axis": "a2", "start": -1.0, "stop": 1.0, "count": 5}},
    {"command": "evolve", "state": {"a": [0.0, 1.0, 0.0]}, "tol": 0.0,
     "grid": {"axis": "t", "start": 0.0, "stop": 1.0, "count": 5}},
]


# the columns the checker bounds by the scenario's tol (not by its EXACT), by
# CSV layout
_TOL_BOUNDED = {"evolve": {"a1", "a2", "a3", "c1", "c2"},
                "conjunct-sweep": {"sigma2_exact", "norm_exact"},
                "conjunct-trajectory": {"exact_a1", "exact_a2", "exact_a3"},
                "hazard": {"sigma2_exact"}, "growth": {"duration"}}


def _less_found(payload: dict, out: str, code: int, problems: list) -> tuple:
    """The exit status and the checker's problems, less those of the three
    disagreements pinned by `test_found_disagreements` below."""
    tol = payload.get("tol", check.DEFAULT_TOL)
    if payload["command"] == "domain-map" and tol > check.BOUNDARY_BAND / 4 and code == 2:
        code, problems = 0, [p for p in problems if not p.startswith("summary.disagreements:")]
    if tol < check.EXACT:  # tighter than rounding, 0 among them
        problems = [p for p in problems
                    if p.partition(":")[0] not in _TOL_BOUNDED.get(check.shape(payload), ())]
    if "summary.hazard: True != False" in problems:
        sigma2 = check.Table(os.path.join(out, "hazard.csv"), check.COLUMNS["hazard"], [])
        if sigma2["sigma2_conjunction"].min() < -1.0 - tol:  # a negative excursion
            problems.remove("summary.hazard: True != False")
    return code, problems


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_valid_scenarios())
def _valid_scenarios_pass(payload):
    # tempfile, not tmp_path: a function-scoped fixture is shared by every example
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out = os.path.join(tmp, "out")
        code = run(path, out_dir=out)
        problems = check.check(payload, out)[1] if code in (0, 2) and not _unchecked(payload) else []
        assert _less_found(payload, out, code, problems) == (0, []), (payload, code, problems)


for _edge in _EDGES:
    _valid_scenarios_pass = example(_edge)(_valid_scenarios_pass)


def test_valid_scenarios_exit_0_and_pass_the_independent_checker():
    """Drawn valid scenarios of every command, with the edges c1 = 0,
    |a2| = 1 and tol = 0 given as explicit examples.  The checker reads
    each run's outputs except where `_unchecked` says why it cannot: a
    pi-string angle, or growth with 0 < |c1| < 1e-7."""
    assert set(_VALUES) == set(FIELDS)  # a strategy for every field
    # Hypothesis caches the constants it mines from source files under its
    # home directory, ./.hypothesis by default: keep that out of the checkout
    with tempfile.TemporaryDirectory() as home:
        set_hypothesis_home_dir(home)
        try:
            _valid_scenarios_pass()
        finally:
            set_hypothesis_home_dir(None)


def _pinned(payload: dict, reason: str):
    return pytest.param(payload, marks=pytest.mark.xfail(strict=True, reason=reason))


# disagreements that valid scenarios reach: random draws of the strategy
# above found each (6,000 draws, 68 cases).  The property test sets them
# aside (`_less_found`); each is pinned here until it is mended
@pytest.mark.parametrize("payload", [
    _pinned({"command": "hazard", "state": {"q": 4.0},
             "grid": {"axis": "s", "start": 2.0, "stop": 3.0, "count": 3}},
            "the checker's hazard is the signed maximum past 1 + tol; the program flags "
            "|sigma2|, so a negative excursion reads true"),
    _pinned({"command": "conjunct", "state": {"a": [-1.0, 1.0, -1.0], "c1": 1.0},
             "schedule": {"t": 1.0}, "grid": {"axis": "s", "start": 0.0, "stop": 1.0, "count": 2},
             "tol": 0.0},
            "the checker bounds norm_exact by the scenario's tol: below its EXACT (1e-12), "
            "0 among them, it asks for the bits of its own formula, one ulp away"),
    _pinned({"command": "growth", "state": {"q": 2.00001}, "n": 16, "tol": 0.0},
            "the checker bounds duration by the scenario's tol: below its EXACT (1e-12), "
            "0 among them, it asks for the bits of its own formula, one ulp away"),
    _pinned({"command": "domain-map", "tol": 1e-3, "grid": [
        {"axis": "a2", "start": 1.0, "stop": 1.002, "count": 2},
        {"axis": "c1", "start": 0.0, "stop": 1e-4, "count": 2}]},
            "the program exits 2: for tol above a quarter of the 1e-3 boundary band the slice "
            "verdict (margin >= -tol) and the oracle's (margin / 4 >= -tol) part outside it"),
], ids=["hazard-negative-excursion", "conjunct-tol-0", "growth-tol-0", "domain-map-tol-1e-3"])
def test_found_disagreements(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = str(tmp_path / "out")
    assert run(str(path), out_dir=out) == 0
    rows, problems = check.check(payload, out)
    assert rows > 0 and problems == [], problems
