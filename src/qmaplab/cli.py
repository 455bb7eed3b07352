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
import dataclasses
import json
import math
import os
import re
import sys
from typing import Any, Optional

import numpy as np

from .conjunction import (
    ConjunctionSchedule,
    brute_force_max,
    conjunct,
    first_unphysical_n,
    greedy_extremal_growth,
    sigma2_conjunction,
)
from .dynamics import MeanValueState, crosscheck, evolve_mean_values
from .feasibility import dual_certificate, feasibility_search
from .pauli import (
    DEFAULT_TOL,
    TwoQubitState,
    density_from_params,
    min_eigenvalue,
    params_from_density,
)
from .reduced import (
    ReducedMap,
    compat_slice_check,
    in_compatibility_domain,
    sup_norm_grid,
    sup_norm_over_time,
)
from .slippage import max_safe_repetitions, slip_state, slipped_domain_check

COMMANDS = ("evolve", "conjunct", "hazard", "growth", "domain-map", "slippage", "validate")

# width of the boundary strip excluded from oracle agreement verdicts
BOUNDARY_BAND = 1e-3

_PI_PATTERN = re.compile(r"^\s*([+-]?)\s*(\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


class ScenarioError(Exception):
    """Raised for any malformed scenario file; reported with exit status 1."""


def parse_angle(value: Any, where: str) -> float:
    """Accept a plain number or a rational-multiple-of-pi string."""
    if isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a number or pi-string, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        m = _PI_PATTERN.match(value)
        if not m:
            raise ScenarioError(f"{where}: cannot parse angle {value!r} (use e.g. \"pi/4\")")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        divisor = float(m.group(3)) if m.group(3) else 1.0
        if divisor == 0.0:
            raise ScenarioError(f"{where}: zero divisor in angle {value!r}")
        return sign * coeff * math.pi / divisor
    raise ScenarioError(f"{where}: expected a number or pi-string, got {type(value).__name__}")


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {type(value).__name__}")
    return float(value)


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


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
        out["a"] = np.array([_require_number(x, "state.a") for x in a])
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
        out["steps"] = tuple(parse_angle(s, "schedule.steps") for s in raw["steps"])
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
    except json.JSONDecodeError as exc:
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
        tol = _require_number(raw["tol"], "scenario.tol")
        if tol < 0:
            raise ScenarioError("scenario.tol: must be >= 0")
        sc.tol = tol
    if "seed" in raw:
        seed = _require_int(raw["seed"], "scenario.seed")
        if seed < 0:
            raise ScenarioError("scenario.seed: must be >= 0")
        sc.seed = seed

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
        if sc.grid("c1") is None and sc.c1 is None:
            raise ScenarioError("slippage: give c1 as a state field or a grid axis")
        extra = [g.axis for g in sc.grids if g.axis not in ("a2", "c1")]
        if extra:
            raise ScenarioError(f"slippage: unsupported grid axes {extra}")


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip representation
    return str(value)


def emit_csv(header: list[str], rows: list[list], path: str) -> None:
    """Write rows as UTF-8, LF-terminated CSV; floats keep exact round-trip form."""
    lines = [",".join(header)]
    lines += [",".join(_format_cell(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _initial_mean_state(sc: Scenario) -> MeanValueState:
    if sc.q is not None:
        return MeanValueState(a=[0.0, math.cos(sc.q), 0.0], c1=math.sin(sc.q), c2=0.0)
    return MeanValueState(a=sc.a, c1=sc.c1 or 0.0, c2=sc.c2 or 0.0)


def _run_evolve(sc: Scenario, tol: float, seed: int) -> tuple[list, list, dict]:
    m0 = _initial_mean_state(sc)
    header = ["t", "a1", "a2", "a3", "c1", "c2", "norm_a"]
    rows = []
    for t in sc.grids[0].values():
        m = evolve_mean_values(m0, float(t))
        rows.append([t, m.a[0], m.a[1], m.a[2], m.c1, m.c2, float(np.linalg.norm(m.a))])
    return header, rows, {"rows": len(rows)}


def _run_conjunct(sc: Scenario, tol: float, seed: int) -> tuple[list, list, dict]:
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
        rows = []
        cumulative = 0.0
        for k, duration in enumerate(sched.durations):
            cumulative += duration
            exact = evolve_mean_values(m0, cumulative)
            conj_a = report.trajectory[k]
            rows.append([
                k, duration, cumulative,
                conj_a[0], conj_a[1], conj_a[2], report.magnitudes[k],
                exact.a[0], exact.a[1], exact.a[2], float(np.linalg.norm(exact.a)),
            ])
        summary = {
            "first_unphysical_step": report.first_unphysical_step,
            "worst_margin": report.worst_margin,
            "max_magnitude": float(report.magnitudes.max()),
            "rows": len(rows),
        }
        return header, rows, summary

    # sweep mode: one reuse of duration s over a grid
    header = ["s", "sigma2_exact", "sigma2_conjunction",
              "norm_exact", "norm_conjunction", "margin_exact", "margin_conjunction"]
    rows = []
    first_leg = ReducedMap(c1, c2, sc.t).apply(m0.a)
    max_conj, argmax_s, first_hazard_s = -np.inf, None, None
    for s in s_grid.values():
        s = float(s)
        conj_a = ReducedMap(c1, c2, s).apply(first_leg)
        exact = evolve_mean_values(m0, sc.t + s)
        norm_conj = float(np.linalg.norm(conj_a))
        norm_exact = float(np.linalg.norm(exact.a))
        rows.append([s, exact.a[1], conj_a[1], norm_exact, norm_conj,
                     1.0 - norm_exact, 1.0 - norm_conj])
        if conj_a[1] > max_conj:
            max_conj, argmax_s = conj_a[1], s
        if first_hazard_s is None and norm_conj > 1.0 + tol:
            first_hazard_s = s
    summary = {
        "max_sigma2_conjunction": float(max_conj),
        "argmax_s": argmax_s,
        "first_hazard_s": first_hazard_s,
        "rows": len(rows),
    }
    return header, rows, summary


def _run_hazard(sc: Scenario, tol: float, seed: int) -> tuple[list, list, dict]:
    q_grid = sc.grid("q")
    q_values = [sc.q] if q_grid is None else [float(v) for v in q_grid.values()]
    s_values = [float(v) for v in sc.grid("s").values()]
    header = ["q", "s", "sigma2_exact", "sigma2_conjunction", "margin_exact", "margin_conjunction"]
    rows = []
    max_conj = -np.inf
    for q in q_values:
        a2, c1 = math.cos(q), math.sin(q)
        m0 = MeanValueState(a=[0.0, a2, 0.0], c1=c1, c2=0.0)
        for s in s_values:
            exact = evolve_mean_values(m0, q + s).a[1]
            conj = sigma2_conjunction(a2, c1, q, s)
            rows.append([q, s, exact, conj, 1.0 - abs(exact), 1.0 - abs(conj)])
            max_conj = max(max_conj, conj)
    summary = {
        "max_sigma2_conjunction": float(max_conj),
        "hazard": bool(max_conj > 1.0 + tol),
        "rows": len(rows),
    }
    return header, rows, summary


def _run_growth(sc: Scenario, tol: float, seed: int) -> tuple[list, list, dict]:
    a2, c1 = _slice_params(sc)
    magnitudes, sched = greedy_extremal_growth(a2, c1, sc.n)
    header = ["k", "duration", "magnitude", "exceeds_unit"]
    rows = []
    for k, (duration, mag) in enumerate(zip(sched.durations, magnitudes)):
        rows.append([k, duration, float(mag), bool(mag > 1.0 + tol)])
    first = first_unphysical_n(a2, c1)
    safe = max_safe_repetitions(a2, c1)
    summary = {
        "first_unphysical_n": first,
        "max_safe_repetitions": None if safe is None else (str(safe) if safe == math.inf else safe),
        "final_magnitude": float(magnitudes[-1]),
        "rows": len(rows),
    }
    return header, rows, summary


def _run_domain_map(sc: Scenario, tol: float, seed: int) -> tuple[list, list, dict]:
    a2_values = sc.grid("a2").values()
    c1_values = sc.grid("c1").values()
    header = ["a2", "c1", "slice_margin", "supnorm_margin", "oracle_margin",
              "near_boundary", "agree"]
    rows = []
    disagreements = 0
    near = 0
    for a2 in a2_values:
        for c1 in c1_values:
            a2, c1 = float(a2), float(c1)
            sl = compat_slice_check(a2, c1, tol=tol)
            sup = in_compatibility_domain(c1, 0.0, [0.0, a2, 0.0], tol=tol)
            best, _ = feasibility_search([0.0, a2, 0.0], c1, 0.0)
            near_boundary = abs(sl.margin) <= BOUNDARY_BAND or abs(4.0 * best) <= BOUNDARY_BAND
            oracle_inside = best >= -tol
            agree = (sl.inside == sup.inside == oracle_inside)
            rows.append([a2, c1, sl.margin, sup.margin, best, near_boundary, agree])
            if near_boundary:
                near += 1
            elif not agree:
                disagreements += 1
    summary = {
        "points": len(rows),
        "near_boundary": near,
        "disagreements": disagreements,
        "rows": len(rows),
    }
    return header, rows, summary


def _run_slippage(sc: Scenario, tol: float, seed: int) -> tuple[list, list, dict]:
    a2_values = [float(v) for v in sc.grid("a2").values()]
    c1_grid = sc.grid("c1")
    c1_values = [float(sc.c1)] if c1_grid is None else [float(v) for v in c1_grid.values()]
    header = ["n", "a2", "c1", "inside", "margin", "a2_slipped"]
    rows = []
    for n in range(1, sc.n + 1):
        for a2 in a2_values:
            for c1 in c1_values:
                verdict = slipped_domain_check(a2, c1, n, tol=tol)
                slipped = slip_state([0.0, a2, 0.0], c1, n)
                rows.append([n, a2, c1, verdict.inside, verdict.margin, float(slipped[1])])
    return header, rows, {"max_n": sc.n, "rows": len(rows)}


def _oracle_answer_certified(a, c1: float, c2: float, value: float,
                             witness: TwoQubitState, tol: float) -> bool:
    """Audit one feasibility answer.  Inside (value >= -tol): the witness is
    physical and carries (a, c1, c2).  Outside: the dual certificate W is PSD
    with unit trace and no component on a free parameter, and
    tr(W rho_witness) < -tol, which bounds every extension's min eigenvalue."""
    rho = density_from_params(witness)
    if value >= -tol:
        return bool(
            min_eigenvalue(rho) >= -1e-9
            and np.abs(witness.a - np.asarray(a)).max() < 1e-10
            and abs(witness.T[0, 0] - c1) < 1e-10
            and abs(witness.T[1, 0] - c2) < 1e-10
        )
    w = dual_certificate(a, c1, c2)
    if abs(np.trace(w) - 1.0) > 1e-12 or min_eigenvalue(w) < -1e-12:
        return False
    back = params_from_density(w)
    free = np.concatenate((back.b, back.T[:, 1:].ravel(), back.T[2:, 0]))
    return bool(np.abs(free).max() <= 1e-12 and np.trace(w @ rho).real < -tol)


def _run_validate(sc: Scenario, tol: float, seed: int) -> tuple[list, list, dict]:
    """Oracle cross-check suites; any failed check flips the exit status to 2."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, bool, str]] = []

    # closed-form evolution vs unitary conjugation
    worst = 0.0
    for _ in range(1000):
        s = TwoQubitState(a=rng.uniform(-1, 1, 3), b=rng.uniform(-1, 1, 3),
                          T=rng.uniform(-1, 1, (3, 3)))
        worst = max(worst, crosscheck(s, float(rng.uniform(0, 4 * math.pi))))
    checks.append(("mean_values_vs_unitary", worst < 1e-12, f"max_discrepancy={worst:.3e}"))

    # closed-form supremum vs dense grid
    worst = 0.0
    for _ in range(500):
        a = rng.uniform(-1, 1, 3)
        c1, c2 = rng.uniform(-1, 1, 2)
        sup_closed, _ = sup_norm_over_time(c1, c2, a)
        sup_grid, _ = sup_norm_grid(c1, c2, a, points=20_000)
        worst = max(worst, abs(sup_closed - sup_grid) / max(sup_closed, 1e-12))
    checks.append(("sup_norm_closed_vs_grid", worst < 1e-9, f"max_rel_err={worst:.3e}"))

    # greedy growth vs brute-force grid maximization
    worst = 0.0
    for n in range(4):
        for _ in range(5):
            a2, c1 = rng.uniform(-1, 1, 2)
            mags, _ = greedy_extremal_growth(a2, c1, n)
            worst = max(worst, abs(mags[-1] - brute_force_max(a2, c1, n, grid_points=64)))
    checks.append(("greedy_vs_brute_force", worst < 1e-6, f"max_abs_err={worst:.3e}"))

    # slice check vs sup-over-time verdicts on a dense analytic grid
    mismatches = 0
    for a2 in np.linspace(-1.2, 1.2, 201):
        for c1 in np.linspace(-1.2, 1.2, 201):
            sl = compat_slice_check(float(a2), float(c1), tol=tol)
            if abs(sl.margin) <= 1e-9:
                continue
            sup = in_compatibility_domain(float(c1), 0.0, [0.0, float(a2), 0.0], tol=tol)
            if sl.inside != sup.inside:
                mismatches += 1
    checks.append(("slice_vs_sup_norm_verdicts", mismatches == 0, f"mismatches={mismatches}"))

    # feasibility oracle vs the analytic slice condition, with certificate audit
    disagreements = 0
    witness_bad = 0
    values = np.linspace(-1.0, 1.0, 11)
    for a2 in values:
        for c1 in values:
            a2, c1 = float(a2), float(c1)
            sl = compat_slice_check(a2, c1, tol=tol)
            best, witness = feasibility_search([0.0, a2, 0.0], c1, 0.0)
            if not _oracle_answer_certified([0.0, a2, 0.0], c1, 0.0, best, witness, tol):
                witness_bad += 1
            if abs(sl.margin) <= BOUNDARY_BAND or abs(4.0 * best) <= BOUNDARY_BAND:
                continue
            if (best >= -tol) != sl.inside:
                disagreements += 1
    checks.append(("oracle_vs_slice_verdicts", disagreements == 0, f"disagreements={disagreements}"))
    checks.append(("oracle_witness_soundness", witness_bad == 0, f"bad_witnesses={witness_bad}"))

    header = ["check", "passed", "detail"]
    rows = [[name, passed, detail] for name, passed, detail in checks]
    failed = sum(1 for _, passed, _ in checks if not passed)
    summary = {"passed": len(checks) - failed, "failed": failed, "rows": len(rows)}
    return header, rows, summary


_RUNNERS = {
    "evolve": _run_evolve,
    "conjunct": _run_conjunct,
    "hazard": _run_hazard,
    "growth": _run_growth,
    "domain-map": _run_domain_map,
    "slippage": _run_slippage,
    "validate": _run_validate,
}


def run(scenario_path: str, out_dir: str = ".",
        seed: Optional[int] = None, tol: Optional[float] = None) -> int:
    """Execute a scenario file; returns the process exit status.

    Flag values win over scenario fields; defaults are seed 0, tol 1e-9.
    All rows are computed before anything is written, so a failing scenario
    leaves no partial output.
    """
    try:
        sc = load_scenario(scenario_path)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    effective_tol = tol if tol is not None else (sc.tol if sc.tol is not None else DEFAULT_TOL)
    effective_seed = seed if seed is not None else (sc.seed if sc.seed is not None else 0)

    try:
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
    try:
        os.makedirs(out_dir, exist_ok=True)
        emit_csv(header, rows, os.path.join(out_dir, csv_name))
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
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

    try:
        sc = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if sc.command != args.command:
        print(f"error: scenario file has command {sc.command!r} but the "
              f"{args.command!r} subcommand was invoked", file=sys.stderr)
        return 1
    return run(args.scenario, out_dir=args.out, seed=args.seed, tol=args.tol)


if __name__ == "__main__":
    sys.exit(main())
