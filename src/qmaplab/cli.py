"""Scenario runner: JSON scenarios in, CSV trajectories and JSON summaries out.

A scenario file selects exactly one command and supplies its parameters::

    {
      "command": "hazard",
      "state":    {"a": [x, y, z] | null, "q": number | "pi/4" | null,
                   "c1": number, "c2": number},
      "schedule": {"t": number | "pi/4", "steps": [number | string, ...]},
      "grid":     {"axis": "t|s|q|a2|c1", "start": ..., "stop": ..., "count": int},
      "n": int, "tol": number, "seed": int
    }

"grid" may be one object or a list of them.  Angle-valued fields (q, t,
steps, grid start/stop) accept rational multiples of pi as strings such as
"pi/4", "2pi/3" or "-pi/6"; all angles are radians.  Every command uses a
fixed subset of the fields; supplying a field a command does not use is an
error, as is any unknown field name or wrongly typed value (exit status 1,
no output written).  Exit status 2 flags an internal validation failure
(oracle disagreement above tolerance) after the report files are written.

Commands: evolve, conjunct, hazard, growth, domain-map, slippage, validate.
Columns of each CSV are documented in the README.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from typing import Any, Optional

import numpy as np

from . import checks
from .conjunction import (
    ConjunctionSchedule,
    conjunct,
    first_unphysical_n,
    greedy_extremal_growth,
    sigma2_conjunction,
)
from .dynamics import MeanValueState, rotate
from .dynamics import evolve_mean_values  # noqa: F401  no longer called; perfbench traces this binding
from .pauli import DEFAULT_TOL
from .reduced import ReducedMap
from .slippage import max_safe_repetitions, slip_state, slipped_domain_check

COMMANDS = ("evolve", "conjunct", "hazard", "growth", "domain-map", "slippage", "validate")

# most CSV rows one run may write; checked before any compute (the largest
# benchmark workload writes 200,200)
ROW_BUDGET = 10**7

_PI_PATTERN = re.compile(r"^\s*([+-]?)\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


class ScenarioError(Exception):
    """Raised for any malformed scenario file; reported with exit status 1."""


def parse_angle(value: Any, where: str) -> float:
    """Accept a finite number or a rational-multiple-of-pi string."""
    if isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a number or pi-string, got {value!r}")
    if isinstance(value, (int, float)):
        return _require_number(value, where)
    if isinstance(value, str):
        m = _PI_PATTERN.match(value)
        if not m:
            raise ScenarioError(f"{where}: cannot parse angle {value!r} (use e.g. \"pi/4\")")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        divisor = float(m.group(3)) if m.group(3) else 1.0
        if divisor == 0.0:
            raise ScenarioError(f"{where}: zero divisor in angle {value!r}")
        return _require_number(sign * coeff * math.pi / divisor, where)
    raise ScenarioError(f"{where}: expected a number or pi-string, got {type(value).__name__}")


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: expected a finite number")
    return value


def _require_tol(value: Any, where: str) -> float:
    tol = _require_number(value, where)
    if tol < 0:
        raise ScenarioError(f"{where}: must be >= 0")
    return tol


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _require_seed(value: Any, where: str) -> int:
    seed = _require_int(value, where)
    if seed < 0:
        raise ScenarioError(f"{where}: must be >= 0")
    return seed


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{where}: unknown field {key!r} (allowed: {', '.join(allowed)})")


@dataclasses.dataclass
class Grid:
    axis: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclasses.dataclass
class Scenario:
    command: str
    a: Optional[np.ndarray] = None
    q: Optional[float] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    t: Optional[float] = None
    steps: tuple[float, ...] = ()
    grids: tuple[Grid, ...] = ()
    n: Optional[int] = None
    tol: Optional[float] = None
    seed: Optional[int] = None

    def grid(self, axis: str) -> Optional[Grid]:
        hits = [g for g in self.grids if g.axis == axis]
        return hits[0] if hits else None


def _parse_state(raw: Any) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError("state: expected an object")
    _check_keys(raw, ("a", "q", "c1", "c2"), "state")
    out: dict = {}
    if raw.get("a") is not None:
        a = raw["a"]
        if not isinstance(a, list) or len(a) != 3:
            raise ScenarioError("state.a: expected a list of three numbers")
        out["a"] = np.array([_require_number(x, f"state.a[{i}]") for i, x in enumerate(a)])
    if raw.get("q") is not None:
        out["q"] = parse_angle(raw["q"], "state.q")
    if "c1" in raw:
        out["c1"] = _require_number(raw["c1"], "state.c1")
    if "c2" in raw:
        out["c2"] = _require_number(raw["c2"], "state.c2")
    return out


def _parse_schedule(raw: Any) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError("schedule: expected an object")
    _check_keys(raw, ("t", "steps"), "schedule")
    out: dict = {}
    if "t" in raw:
        out["t"] = parse_angle(raw["t"], "schedule.t")
    if "steps" in raw:
        if not isinstance(raw["steps"], list):
            raise ScenarioError("schedule.steps: expected a list")
        out["steps"] = tuple(parse_angle(s, f"schedule.steps[{i}]")
                             for i, s in enumerate(raw["steps"]))
    return out


def _parse_grids(raw: Any) -> tuple[Grid, ...]:
    entries = raw if isinstance(raw, list) else [raw]
    grids = []
    for i, g in enumerate(entries):
        where = f"grid[{i}]"
        if not isinstance(g, dict):
            raise ScenarioError(f"{where}: expected an object")
        _check_keys(g, ("axis", "start", "stop", "count"), where)
        for key in ("axis", "start", "stop", "count"):
            if key not in g:
                raise ScenarioError(f"{where}: missing field {key!r}")
        axis = g["axis"]
        if not isinstance(axis, str) or axis not in ("t", "s", "q", "a2", "c1"):
            raise ScenarioError(f"{where}.axis: expected one of t, s, q, a2, c1")
        start = parse_angle(g["start"], f"{where}.start")
        stop = parse_angle(g["stop"], f"{where}.stop")
        count = _require_int(g["count"], f"{where}.count")
        if count < 2:
            raise ScenarioError(f"{where}.count: must be >= 2, got {count}")
        if not start < stop:
            raise ScenarioError(f"{where}: start must be < stop")
        grids.append(Grid(axis=axis, start=start, stop=stop, count=count))
    axes = [g.axis for g in grids]
    if len(set(axes)) != len(axes):
        raise ScenarioError("grid: duplicate axis")
    return tuple(grids)


# fields each command accepts beyond "command"
_FIELDS_BY_COMMAND = {
    "evolve": ("state", "grid", "tol", "seed"),
    "conjunct": ("state", "schedule", "grid", "tol", "seed"),
    "hazard": ("state", "grid", "tol", "seed"),
    "growth": ("state", "n", "tol", "seed"),
    "domain-map": ("grid", "tol", "seed"),
    "slippage": ("state", "grid", "n", "tol", "seed"),
    "validate": ("tol", "seed"),
}


def load_scenario(path: str) -> Scenario:
    """Parse and strictly validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: expected a JSON object")
    if "command" not in raw:
        raise ScenarioError("scenario: missing required field 'command'")
    command = raw["command"]
    if not isinstance(command, str) or command not in COMMANDS:
        raise ScenarioError(f"scenario.command: expected one of {', '.join(COMMANDS)}")

    allowed = _FIELDS_BY_COMMAND[command] + ("command",)
    _check_keys(raw, allowed, f"scenario ({command})")

    sc = Scenario(command=command)
    if "state" in raw:
        state = _parse_state(raw["state"])
        sc.a = state.get("a")
        sc.q = state.get("q")
        sc.c1 = state.get("c1")
        sc.c2 = state.get("c2")
    if "schedule" in raw:
        sched = _parse_schedule(raw["schedule"])
        sc.t = sched.get("t")
        sc.steps = sched.get("steps", ())
    if "grid" in raw:
        sc.grids = _parse_grids(raw["grid"])
    if "n" in raw:
        sc.n = _require_int(raw["n"], "scenario.n")
    if "tol" in raw:
        sc.tol = _require_tol(raw["tol"], "scenario.tol")
    if "seed" in raw:
        sc.seed = _require_seed(raw["seed"], "scenario.seed")

    _validate_for_command(sc)
    return sc


def _slice_params(sc: Scenario) -> tuple[float, float]:
    """(a2, c1) for commands restricted to the slice a = (0, a2, 0), c2 = 0."""
    if sc.q is not None:
        return math.cos(sc.q), math.sin(sc.q)
    if sc.a[0] != 0.0 or sc.a[2] != 0.0:
        raise ScenarioError("state.a: this command needs the slice form [0, a2, 0]")
    return float(sc.a[1]), float(sc.c1 if sc.c1 is not None else 0.0)


def _validate_for_command(sc: Scenario) -> None:
    cmd = sc.command
    if cmd in ("evolve", "conjunct", "growth"):
        if (sc.a is None) == (sc.q is None):
            raise ScenarioError(f"{cmd}: state needs exactly one of 'a' or 'q'")
        if sc.q is not None and (sc.c1 is not None or sc.c2 is not None):
            raise ScenarioError(f"{cmd}: the q shorthand fixes c1 = sin q and c2 = 0")
    if cmd in ("growth", "slippage") and sc.c2:
        raise ScenarioError(f"state.c2: {cmd} runs on the slice c2 = 0")
    if cmd == "evolve":
        if len(sc.grids) != 1 or sc.grids[0].axis != "t":
            raise ScenarioError("evolve: exactly one grid with axis 't' is required")
    elif cmd == "conjunct":
        if sc.t is None:
            raise ScenarioError("conjunct: schedule.t is required")
        has_steps = len(sc.steps) > 0
        s_grid = sc.grid("s")
        if has_steps == (s_grid is not None):
            raise ScenarioError("conjunct: give either schedule.steps or a grid with axis 's'")
        if s_grid is not None and len(sc.grids) != 1:
            raise ScenarioError("conjunct: only the 's' grid is allowed")
    elif cmd == "hazard":
        if sc.a is not None or sc.c1 is not None or sc.c2 is not None:
            raise ScenarioError("hazard: runs on edge states; give q (scalar or grid), not a/c1/c2")
        q_grid = sc.grid("q")
        if (sc.q is None) == (q_grid is None):
            raise ScenarioError("hazard: give exactly one of state.q or a grid with axis 'q'")
        if sc.grid("s") is None:
            raise ScenarioError("hazard: a grid with axis 's' is required")
        if len(sc.grids) != (1 if q_grid is None else 2):
            raise ScenarioError("hazard: only the 'q' and 's' grid axes are allowed")
    elif cmd == "growth":
        if sc.n is None or sc.n < 0:
            raise ScenarioError("growth: n >= 0 is required")
        if sc.a is not None:
            _slice_params(sc)  # rejects off-slice a
    elif cmd == "domain-map":
        if sc.grid("a2") is None or sc.grid("c1") is None or len(sc.grids) != 2:
            raise ScenarioError("domain-map: grids with axes 'a2' and 'c1' are required")
    elif cmd == "slippage":
        if sc.n is None or sc.n < 1:
            raise ScenarioError("slippage: n >= 1 is required")
        if sc.a is not None or sc.q is not None:
            raise ScenarioError("slippage: state carries only c1 here")
        if sc.grid("a2") is None:
            raise ScenarioError("slippage: a grid with axis 'a2' is required")
        if (sc.grid("c1") is None) == (sc.c1 is None):
            raise ScenarioError("state.c1: slippage takes c1 from the state or a grid axis, "
                                "exactly one")
        extra = [g.axis for g in sc.grids if g.axis not in ("a2", "c1")]
        if extra:
            raise ScenarioError(f"slippage: unsupported grid axes {extra}")
    factors = [(f"grid[{i}].count", g.count) for i, g in enumerate(sc.grids)]
    if cmd in ("growth", "slippage"):
        factors.append(("scenario.n", sc.n + 1 if cmd == "growth" else sc.n))
    rows = math.prod(count for _, count in factors)
    if rows > ROW_BUDGET:
        where = max(factors, key=lambda factor: factor[1])[0]
        raise ScenarioError(f"{where}: the run would write {rows} rows, over the budget "
                            f"of {ROW_BUDGET}")


class Columns:
    """Column-major CSV body: per column a float or bool ndarray, or a list of
    formatted cells (`_axis`, or text).  len() is the row count."""

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])


def _axis(values, inner: int = 1, outer: int = 1) -> list[str]:
    """Cells of a grid axis in row order: each value formatted once (str of
    an int, repr of a float), repeated `inner` times, and the whole block
    repeated `outer` times."""
    cells = np.array(list(map(repr, np.asarray(values).tolist())), dtype=object)
    return np.repeat(cells, inner).tolist() * outer


def _cells(column) -> list[str]:
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype == bool:
        return np.where(column, "true", "false").tolist()
    return list(map(float.__repr__, column.tolist()))  # exactly repr(float)


# rows formatted and written per chunk, so no whole-file text is held in memory
_CHUNK_ROWS = 1 << 15


def emit_csv(header: list[str], rows: Columns, path: str) -> None:
    """Stream `rows` to `path` as UTF-8, LF-terminated CSV, column by column;
    floats keep their exact round-trip form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(rows), _CHUNK_ROWS):
            chunk = [_cells(column[lo:lo + _CHUNK_ROWS]) for column in rows.columns]
            fh.write("\n".join(map(",".join, zip(*chunk))) + "\n")


def _norms(a1, a2, a3) -> np.ndarray:
    """|a| per row, bit for bit np.linalg.norm of each row: a stacked (1x3)(3x1)
    matmul takes the same dot product; norm(axis=1) rounds differently."""
    a = np.stack(np.broadcast_arrays(a1, a2, a3), axis=-1)
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _initial_mean_state(sc: Scenario) -> MeanValueState:
    if sc.q is not None:
        return MeanValueState(a=[0.0, math.cos(sc.q), 0.0], c1=math.sin(sc.q), c2=0.0)
    return MeanValueState(a=sc.a, c1=sc.c1 or 0.0, c2=sc.c2 or 0.0)


def _run_evolve(sc: Scenario, tol: float, seed: int) -> tuple[list, Columns, dict]:
    m0 = _initial_mean_state(sc)
    t = sc.grids[0].values()
    a1, a2, a3, c1, c2 = rotate(m0.a, m0.c1, m0.c2, t)
    header = ["t", "a1", "a2", "a3", "c1", "c2", "norm_a"]
    rows = Columns(t, a1, a2, _axis([a3], inner=t.size), c1, c2, _norms(a1, a2, a3))
    return header, rows, {"rows": len(rows)}


def _run_conjunct(sc: Scenario, tol: float, seed: int) -> tuple[list, Columns, dict]:
    m0 = _initial_mean_state(sc)
    c1, c2 = m0.c1, m0.c2
    s_grid = sc.grid("s")
    if s_grid is None:
        # trajectory mode: explicit schedule, frozen-map vs exact side by side
        sched = ConjunctionSchedule(t=sc.t, steps=sc.steps)
        report = conjunct(c1, c2, m0.a, sched, tol=tol)
        header = [
            "step", "duration", "cumulative_time",
            "conj_a1", "conj_a2", "conj_a3", "conj_norm",
            "exact_a1", "exact_a2", "exact_a3", "exact_norm",
        ]
        # the exact state after leg k: one rotation by the durations summed left to right
        cumulative = np.array(list(itertools.accumulate(sched.durations)))
        exact = rotate(m0.a, c1, c2, cumulative)[:3]
        conj = report.trajectory.T
        rows = Columns(_axis(range(cumulative.size)), np.array(sched.durations), cumulative,
                       *conj, report.magnitudes,
                       exact[0], exact[1], _axis([exact[2]], inner=cumulative.size),
                       _norms(*exact))
        summary = {
            "first_unphysical_step": report.first_unphysical_step,
            "worst_margin": report.worst_margin,
            "max_magnitude": float(report.magnitudes.max()),
            "rows": len(rows),
        }
        return header, rows, summary

    # sweep mode: one reuse of duration s over a grid
    s = s_grid.values()
    first_leg = ReducedMap(c1, c2, sc.t).apply(m0.a)
    conj = ReducedMap(c1, c2, s).apply(first_leg)
    exact = rotate(m0.a, c1, c2, sc.t + s)[:3]
    norm_conj, norm_exact = _norms(*conj), _norms(*exact)
    header = ["s", "sigma2_exact", "sigma2_conjunction",
              "norm_exact", "norm_conjunction", "margin_exact", "margin_conjunction"]
    rows = Columns(s, exact[1], conj[1], norm_exact, norm_conj, 1.0 - norm_exact, 1.0 - norm_conj)
    argmax = int(np.argmax(conj[1]))
    hazards = np.flatnonzero(norm_conj > 1.0 + tol)
    summary = {
        "max_sigma2_conjunction": float(conj[1][argmax]),
        "argmax_s": float(s[argmax]),
        "first_hazard_s": float(s[hazards[0]]) if hazards.size else None,
        "rows": len(rows),
    }
    return header, rows, summary


def _run_hazard(sc: Scenario, tol: float, seed: int) -> tuple[list, Columns, dict]:
    q_grid = sc.grid("q")
    q = np.array([sc.q]) if q_grid is None else q_grid.values()
    s = sc.grid("s").values()
    # rows run over s within each q: q down the first axis, s along the second
    qq, ss = q[:, None], s[None, :]
    a2, c1 = np.cos(qq), np.sin(qq)
    exact = rotate((0.0, a2, 0.0), c1, 0.0, qq + ss)[1].ravel()
    conj = sigma2_conjunction(a2, c1, qq, ss).ravel()
    header = ["q", "s", "sigma2_exact", "sigma2_conjunction", "margin_exact", "margin_conjunction"]
    rows = Columns(_axis(q, inner=s.size), _axis(s, outer=q.size),
                   exact, conj, 1.0 - np.abs(exact), 1.0 - np.abs(conj))
    max_conj = float(conj.max())
    summary = {
        "max_sigma2_conjunction": max_conj,
        "hazard": bool(max_conj > 1.0 + tol),
        "rows": len(rows),
    }
    return header, rows, summary


def _run_growth(sc: Scenario, tol: float, seed: int) -> tuple[list, Columns, dict]:
    a2, c1 = _slice_params(sc)
    magnitudes, sched = greedy_extremal_growth(a2, c1, sc.n)
    header = ["k", "duration", "magnitude", "exceeds_unit"]
    rows = Columns(_axis(range(sc.n + 1)), np.array(sched.durations), magnitudes,
                   magnitudes > 1.0 + tol)
    first = first_unphysical_n(a2, c1)
    safe = max_safe_repetitions(a2, c1)
    summary = {
        "first_unphysical_n": first,
        "max_safe_repetitions": None if safe is None else (str(safe) if safe == math.inf else safe),
        "final_magnitude": float(magnitudes[-1]),
        "rows": len(rows),
    }
    return header, rows, summary


def _run_domain_map(sc: Scenario, tol: float, seed: int) -> tuple[list, Columns, dict]:
    a2_values = sc.grid("a2").values()
    c1_values = sc.grid("c1").values()
    sl, sup, best, near_boundary, agree = checks.three_way_agreement(a2_values, c1_values, tol)
    header = ["a2", "c1", "slice_margin", "supnorm_margin", "oracle_margin",
              "near_boundary", "agree"]
    rows = Columns(_axis(a2_values, inner=c1_values.size), _axis(c1_values, outer=a2_values.size),
                   sl.margin, sup.margin, best, near_boundary, agree)
    summary = {
        "points": len(rows),
        "near_boundary": int(near_boundary.sum()),
        "disagreements": int((~near_boundary & ~agree).sum()),
        "rows": len(rows),
    }
    return header, rows, summary


def _run_slippage(sc: Scenario, tol: float, seed: int) -> tuple[list, Columns, dict]:
    a2_values = sc.grid("a2").values()
    c1_grid = sc.grid("c1")
    c1_values = np.array([sc.c1]) if c1_grid is None else c1_grid.values()
    n_values = range(1, sc.n + 1)
    # rows run over c1 within a2 within n: one array axis each
    n = np.array(n_values)[:, None, None]
    a2, c1 = a2_values[None, :, None], c1_values[None, None, :]
    verdict = slipped_domain_check(a2, c1, n, tol=tol)
    slipped = slip_state(np.stack(np.broadcast_arrays(0.0, a2, 0.0)), c1, n)
    header = ["n", "a2", "c1", "inside", "margin", "a2_slipped"]
    rows = Columns(
        _axis(n_values, inner=a2.size * c1.size),
        _axis(a2_values, inner=c1.size, outer=len(n_values)),
        _axis(c1_values, outer=len(n_values) * a2.size),
        verdict.inside.ravel(), verdict.margin.ravel(), slipped[1].ravel(),
    )
    return header, rows, {"max_n": sc.n, "rows": len(rows)}


def _run_validate(sc: Scenario, tol: float, seed: int) -> tuple[list, Columns, dict]:
    """Oracle cross-check suites; any failed check flips the exit status to 2."""
    names, metrics, values, bounds = zip(*checks.validate_suite(np.random.default_rng(seed), tol))
    # compared as Python numbers: an integer count stays exact
    passed = [value < bound for value, bound in zip(values, bounds)]
    details = [f"{metric}={value:.3e}" if isinstance(value, float) else f"{metric}={value}"
               for metric, value in zip(metrics, values)]
    rows = Columns(list(names), np.array(passed), details)
    failed = passed.count(False)
    summary = {"passed": len(rows) - failed, "failed": failed, "rows": len(rows)}
    return ["check", "passed", "detail"], rows, summary


_RUNNERS = {
    "evolve": _run_evolve,
    "conjunct": _run_conjunct,
    "hazard": _run_hazard,
    "growth": _run_growth,
    "domain-map": _run_domain_map,
    "slippage": _run_slippage,
    "validate": _run_validate,
}


def run(scenario_path: str, out_dir: str = ".", seed: Optional[int] = None,
        tol: Optional[float] = None, *, command: Optional[str] = None) -> int:
    """Execute a scenario file; returns the process exit status.

    Flag values win over scenario fields; defaults are seed 0, tol 1e-9.
    With `command`, the scenario must be of that command.  Both files are
    written to temporary names in `out_dir` and moved into place with
    os.replace once both are complete: a failing run (exit 1) leaves nothing.
    """
    try:
        sc = load_scenario(scenario_path)
        if command is not None and sc.command != command:
            raise ScenarioError(f"scenario file has command {sc.command!r} but the "
                                f"{command!r} subcommand was invoked")
        effective_tol = _require_tol(tol, "--tol") if tol is not None else (
            sc.tol if sc.tol is not None else DEFAULT_TOL)
        effective_seed = _require_seed(seed, "--seed") if seed is not None else (
            sc.seed if sc.seed is not None else 0)
        header, rows, summary = _RUNNERS[sc.command](sc, effective_tol, effective_seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    csv_name = sc.command.replace("-", "_") + ".csv"
    summary = {
        "command": sc.command,
        "csv": csv_name,
        "seed": effective_seed,
        "tol": effective_tol,
        **summary,
    }
    # the summary moves last: once it is in place, the CSV is complete
    targets = [os.path.join(out_dir, name) for name in (csv_name, "summary.json")]
    temps = [f"{path}.{os.getpid()}.tmp" for path in targets]
    moved = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        emit_csv(header, rows, temps[0])
        with open(temps[1], "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for temp, path in zip(temps, targets):
            os.replace(temp, path)
            moved.append(path)
    except BaseException as exc:
        for path in temps + moved:
            with contextlib.suppress(OSError):
                os.remove(path)
        if not isinstance(exc, OSError):
            raise
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1

    if sc.command == "validate" and summary["failed"] > 0:
        print(f"validate: {summary['failed']} check(s) failed", file=sys.stderr)
        return 2
    if sc.command == "domain-map" and summary["disagreements"] > 0:
        print(f"domain-map: {summary['disagreements']} oracle disagreement(s) outside "
              f"the boundary band", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmaplab",
        description="Reduced-map reuse stress lab: run a JSON scenario and emit CSV + summary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run a '{command}' scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--tol", type=float, default=None, help="override the scenario tolerance")
    args = parser.parse_args(argv)
    return run(args.scenario, out_dir=args.out, seed=args.seed, tol=args.tol,
               command=args.command)


if __name__ == "__main__":
    sys.exit(main())
