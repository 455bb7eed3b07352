"""Independent output checker for the benchmark's scenarios.

Every expected value is recomputed here from the scenario JSON with the
closed forms of the model; nothing is imported from the program.  A check
returns the list of problems it found, empty when the CSV and summary of the
run are correct.  `tol` is the scenario tolerance (1e-9 unless the scenario
sets it); `EXACT` bounds quantities that only rounding separates from their
closed form.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

DEFAULT_TOL = 1e-9
EXACT = 1e-12
BOUNDARY_BAND = 1e-3  # the program's documented boundary strip for domain-map verdicts
GROWTH_BOUNDARY_EPS = 1e-12  # first_unphysical_n counts a sum exceeding 1 only past this

COLUMNS = {
    "evolve": "t a1 a2 a3 c1 c2 norm_a",
    "conjunct-sweep": "s sigma2_exact sigma2_conjunction norm_exact norm_conjunction "
                      "margin_exact margin_conjunction",
    "conjunct-trajectory": "step:int duration cumulative_time conj_a1 conj_a2 conj_a3 conj_norm "
                           "exact_a1 exact_a2 exact_a3 exact_norm",
    "hazard": "q s sigma2_exact sigma2_conjunction margin_exact margin_conjunction",
    "growth": "k:int duration magnitude exceeds_unit:bool",
    "domain-map": "a2 c1 slice_margin supnorm_margin oracle_margin near_boundary:bool agree:bool",
    "slippage": "n:int a2 c1 inside:bool margin a2_slipped",
    "validate": "check:str passed:bool detail:str",
}

# validate: check name -> (detail key, bound); a check passes when value < bound,
# or value == 0 for the counting checks (bound None)
VALIDATE_CHECKS = {
    "mean_values_vs_unitary": ("max_discrepancy", 1e-12),
    "sup_norm_closed_vs_grid": ("max_rel_err", 1e-9),
    "greedy_vs_brute_force": ("max_abs_err", 1e-6),
    "slice_vs_sup_norm_verdicts": ("mismatches", None),
    "oracle_vs_slice_verdicts": ("disagreements", None),
    "oracle_witness_soundness": ("bad_witnesses", None),
}


class Table:
    """A parsed CSV: typed columns by name plus the row count."""

    def __init__(self, path: str, spec: str, problems: list[str]):
        self.cols: dict[str, np.ndarray] = {}
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        if not text.endswith("\n") or "\r" in text:
            problems.append(f"{os.path.basename(path)}: not LF-terminated")
        lines = text.rstrip("\n").split("\n")
        fields = [f.split(":") + ["float"] for f in spec.split()]
        names = [f[0] for f in fields]
        if lines[0].split(",") != names:
            problems.append(f"header {lines[0]!r} != {','.join(names)!r}")
            self.rows = 0
            return
        rows = [line.split(",") for line in lines[1:]]
        self.rows = len(rows)
        if any(len(r) != len(names) for r in rows):
            problems.append("ragged rows")
            return
        for i, (name, kind) in enumerate((f[0], f[1]) for f in fields):
            cells = [r[i] for r in rows]
            if kind == "float":
                values = np.array(cells, dtype=float)
                # floats must be written in their shortest round-trip form
                bad = sum(a != repr(b) for a, b in zip(cells, values.tolist()))
                if bad:
                    problems.append(f"{name}: {bad} cell(s) not in shortest round-trip form")
            elif kind == "int":
                values = np.array([int(c) for c in cells], dtype=np.int64)
            elif kind == "bool":
                if any(c not in ("true", "false") for c in cells):
                    problems.append(f"{name}: cell not true/false")
                values = np.array([c == "true" for c in cells], dtype=bool)
            else:
                values = np.array(cells, dtype=object)
            self.cols[name] = values

    def __getitem__(self, name: str) -> np.ndarray:
        return self.cols[name]


def _aligned(problems: list[str], name: str, got, want):
    got, want = np.asarray(got), np.asarray(want)
    if want.ndim and got.shape != want.shape:
        problems.append(f"{name}: {got.size} rows, want {want.size}")
        return None
    return np.broadcast_arrays(got, want)


def _close(problems: list[str], name: str, got, want, bound: float) -> None:
    pair = _aligned(problems, name, np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    if pair is None:
        return
    got, want = pair
    err = np.abs(got - want)
    bad = ~(err <= bound)  # NaN counts as a mismatch
    if bad.any():
        first = int(np.argmax(bad))
        problems.append(f"{name}: {int(bad.sum())} row(s) off by more than {bound:g}, "
                        f"first at row {first} (got {got[first]!r}, want {want[first]!r})")


def _equal(problems: list[str], name: str, got, want) -> None:
    pair = _aligned(problems, name, got, want)
    if pair is None:
        return
    got, want = pair
    bad = got != want
    if bad.any():
        first = int(np.argmax(bad))
        problems.append(f"{name}: {int(bad.sum())} row(s) differ, first at row {first} "
                        f"(got {got[first]!r}, want {want[first]!r})")


def _same(problems: list[str], name: str, got, want, bound: float = 0.0) -> None:
    """Scalar summary field against its expected value."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not abs(got - want) <= bound:
            problems.append(f"summary.{name}: {got!r} != {want!r}")
    elif got != want or type(got) is not type(want):
        problems.append(f"summary.{name}: {got!r} != {want!r}")


def _linspace(grid: dict) -> np.ndarray:
    return np.linspace(float(grid["start"]), float(grid["stop"]), int(grid["count"]))


def _grids(scenario: dict) -> dict[str, dict]:
    raw = scenario.get("grid", [])
    return {g["axis"]: g for g in (raw if isinstance(raw, list) else [raw])}


def _edge_state(state: dict) -> tuple[np.ndarray, float, float]:
    """(a, c1, c2) of a state given as q shorthand or explicit a/c1/c2."""
    if state.get("q") is not None:
        q = float(state["q"])
        return np.array([0.0, math.cos(q), 0.0]), math.sin(q), 0.0
    return (np.array(state["a"], dtype=float), float(state.get("c1") or 0.0),
            float(state.get("c2") or 0.0))


def _rotate(a: np.ndarray, c1: float, c2: float, t):
    """Exact mean values after duration t: the pairs (a1, c2), (a2, c1) rotate."""
    ct, st = np.cos(t), np.sin(t)
    return (a[0] * ct - c2 * st, a[1] * ct + c1 * st, np.full_like(ct, a[2]),
            c1 * ct - a[1] * st, c2 * ct + a[0] * st)


def _check_evolve(sc: dict, tab: Table, tol: float, p: list[str]) -> dict:
    a, c1, c2 = _edge_state(sc["state"])
    t = _linspace(_grids(sc)["t"])
    _close(p, "t", tab["t"], t, EXACT)
    a1, a2, a3, c1t, c2t = _rotate(a, c1, c2, tab["t"])
    for name, want in (("a1", a1), ("a2", a2), ("a3", a3), ("c1", c1t), ("c2", c2t)):
        _close(p, name, tab[name], want, tol)
    _close(p, "norm_a", tab["norm_a"],
           np.sqrt(tab["a1"] ** 2 + tab["a2"] ** 2 + tab["a3"] ** 2), EXACT)
    return {"rows": len(t)}


def _check_conjunct_sweep(sc: dict, tab: Table, tol: float, p: list[str]) -> dict:
    a, c1, c2 = _edge_state(sc["state"])
    t = float(sc["schedule"]["t"])
    s = _linspace(_grids(sc)["s"])
    _close(p, "s", tab["s"], s, EXACT)
    s = tab["s"]
    # frozen map reused: first leg t, second leg s, both with the time-0 (c1, c2)
    leg1 = (a[0] * math.cos(t) - c2 * math.sin(t), a[1] * math.cos(t) + c1 * math.sin(t))
    conj = (leg1[0] * np.cos(s) - c2 * np.sin(s), leg1[1] * np.cos(s) + c1 * np.sin(s))
    exact = _rotate(a, c1, c2, t + s)
    _close(p, "sigma2_exact", tab["sigma2_exact"], exact[1], tol)
    _close(p, "sigma2_conjunction", tab["sigma2_conjunction"], conj[1], EXACT)
    _close(p, "norm_exact", tab["norm_exact"],
           np.sqrt(exact[0] ** 2 + exact[1] ** 2 + a[2] ** 2), tol)
    norm_conj = np.sqrt(conj[0] ** 2 + conj[1] ** 2 + a[2] ** 2)
    _close(p, "norm_conjunction", tab["norm_conjunction"], norm_conj, EXACT)
    _close(p, "margin_exact", tab["margin_exact"], 1.0 - tab["norm_exact"], EXACT)
    _close(p, "margin_conjunction", tab["margin_conjunction"], 1.0 - tab["norm_conjunction"], EXACT)
    col = tab["sigma2_conjunction"]
    hazard = np.nonzero(tab["norm_conjunction"] > 1.0 + tol)[0]
    return {"rows": len(s), "max_sigma2_conjunction": float(col.max()),
            "argmax_s": float(s[int(np.argmax(col))]),
            "first_hazard_s": float(s[hazard[0]]) if hazard.size else None}


def _check_conjunct_trajectory(sc: dict, tab: Table, tol: float, p: list[str]) -> dict:
    a, c1, c2 = _edge_state(sc["state"])
    durations = [float(sc["schedule"]["t"])] + [float(x) for x in sc["schedule"]["steps"]]
    _equal(p, "step", tab["step"], np.arange(len(durations)))
    _close(p, "duration", tab["duration"], durations, 0.0)
    _close(p, "cumulative_time", tab["cumulative_time"], np.cumsum(durations), EXACT)
    conj, v = [], a
    for d in durations:
        v = np.array([v[0] * math.cos(d) - c2 * math.sin(d), v[1] * math.cos(d) + c1 * math.sin(d),
                      v[2]])
        conj.append(v)
    conj = np.array(conj)
    exact = _rotate(a, c1, c2, tab["cumulative_time"])
    for i in range(3):
        _close(p, f"conj_a{i + 1}", tab[f"conj_a{i + 1}"], conj[:, i], EXACT)
        _close(p, f"exact_a{i + 1}", tab[f"exact_a{i + 1}"], exact[i], tol)
    mags = np.linalg.norm(conj, axis=1)
    _close(p, "conj_norm", tab["conj_norm"], mags, EXACT)
    _close(p, "exact_norm", tab["exact_norm"],
           np.sqrt(tab["exact_a1"] ** 2 + tab["exact_a2"] ** 2 + tab["exact_a3"] ** 2), EXACT)
    exceed = np.nonzero(tab["conj_norm"] > 1.0 + tol)[0]
    return {"rows": len(durations), "max_magnitude": float(tab["conj_norm"].max()),
            "worst_margin": 1.0 - float(tab["conj_norm"].max()),
            "first_unphysical_step": int(exceed[0]) if exceed.size else None}


def _check_hazard(sc: dict, tab: Table, tol: float, p: list[str]) -> dict:
    grids = _grids(sc)
    q = _linspace(grids["q"]) if "q" in grids else np.array([float(sc["state"]["q"])])
    s = _linspace(grids["s"])
    if tab.rows != q.size * s.size:
        p.append(f"rows: {tab.rows} != q_count x s_count = {q.size * s.size}")
        return {"rows": q.size * s.size}
    _close(p, "q", tab["q"], np.repeat(q, s.size), EXACT)
    _close(p, "s", tab["s"], np.tile(s, q.size), EXACT)
    q, s = tab["q"], tab["s"]
    # edge states: cos q cos(q+s) + sin q sin(q+s) == cos s
    _close(p, "sigma2_exact", tab["sigma2_exact"], np.cos(s), tol)
    want = np.cos(q) * np.cos(q) * np.cos(s) + np.sin(q) * (np.sin(q) * np.cos(s) + np.sin(s))
    _close(p, "sigma2_conjunction", tab["sigma2_conjunction"], want, EXACT)
    _close(p, "margin_exact", tab["margin_exact"], 1.0 - np.abs(tab["sigma2_exact"]), EXACT)
    _close(p, "margin_conjunction", tab["margin_conjunction"],
           1.0 - np.abs(tab["sigma2_conjunction"]), EXACT)
    peak = float(tab["sigma2_conjunction"].max())
    return {"rows": tab.rows, "max_sigma2_conjunction": peak, "hazard": peak > 1.0 + tol}


def _first_unphysical_n(a2: float, c1: float):
    """Smallest n >= 0 with a2^2 + (n+1) c1^2 > 1 (+ boundary guard), None if c1 == 0."""
    if c1 * c1 < 1e-300:
        return None
    n = max(0, math.floor((1.0 + GROWTH_BOUNDARY_EPS - a2 * a2) / (c1 * c1)) - 2)
    while not a2 * a2 + (n + 1) * c1 * c1 > 1.0 + GROWTH_BOUNDARY_EPS:
        n += 1
    return n


def _check_growth(sc: dict, tab: Table, tol: float, p: list[str]) -> dict:
    a, c1, _ = _edge_state(sc["state"])
    a2, n = float(a[1]), int(sc["n"])
    k = np.arange(n + 1)
    _equal(p, "k", tab["k"], k)
    # growth law M_k^2 = a2^2 + (k+1) c1^2, each leg at s = atan2(c1, M_{k-1})
    mags = np.sqrt(a2 * a2 + (k + 1) * c1 * c1)
    _close(p, "magnitude", tab["magnitude"], mags, EXACT)
    prev = np.concatenate(([a2], mags[:-1]))
    _close(p, "duration", tab["duration"], np.arctan2(c1, prev) % (2 * math.pi), tol)
    _equal(p, "exceeds_unit", tab["exceeds_unit"], tab["magnitude"] > 1.0 + tol)
    first = _first_unphysical_n(a2, c1)
    if first is None:
        safe = "inf"
    else:
        safe = None if first <= 1 else first - 1
    return {"rows": n + 1, "first_unphysical_n": first, "max_safe_repetitions": safe,
            "final_magnitude": float(tab["magnitude"][-1])}


def _check_domain_map(sc: dict, tab: Table, tol: float, p: list[str]) -> dict:
    grids = _grids(sc)
    a2, c1 = _linspace(grids["a2"]), _linspace(grids["c1"])
    if tab.rows != a2.size * c1.size:
        p.append(f"rows: {tab.rows} != {a2.size * c1.size}")
        return {"rows": a2.size * c1.size}
    _close(p, "a2", tab["a2"], np.repeat(a2, c1.size), EXACT)
    _close(p, "c1", tab["c1"], np.tile(c1, a2.size), EXACT)
    margin = 1.0 - np.hypot(tab["a2"], tab["c1"])
    _close(p, "slice_margin", tab["slice_margin"], margin, EXACT)
    _close(p, "supnorm_margin", tab["supnorm_margin"], margin, EXACT)
    # the best extension's minimum eigenvalue is a quarter of the slice margin
    _close(p, "oracle_margin", tab["oracle_margin"], margin / 4.0, EXACT)
    near = (np.abs(tab["slice_margin"]) <= BOUNDARY_BAND) | (np.abs(4.0 * tab["oracle_margin"])
                                                             <= BOUNDARY_BAND)
    _equal(p, "near_boundary", tab["near_boundary"], near)
    inside = [tab[c] >= -tol for c in ("slice_margin", "supnorm_margin", "oracle_margin")]
    agree = (inside[0] == inside[1]) & (inside[1] == inside[2])
    _equal(p, "agree", tab["agree"], agree)
    return {"rows": tab.rows, "points": tab.rows, "near_boundary": int(near.sum()),
            "disagreements": 0}


def _check_slippage(sc: dict, tab: Table, tol: float, p: list[str]) -> dict:
    grids = _grids(sc)
    a2 = _linspace(grids["a2"])
    c1 = _linspace(grids["c1"]) if "c1" in grids else np.array([float(sc["state"]["c1"])])
    n_max = int(sc["n"])
    n, a2g, c1g = (x.ravel() for x in np.meshgrid(np.arange(1, n_max + 1), a2, c1, indexing="ij"))
    if tab.rows != n.size:
        p.append(f"rows: {tab.rows} != {n.size}")
        return {"rows": n.size}
    _equal(p, "n", tab["n"], n)
    _close(p, "a2", tab["a2"], a2g, EXACT)
    _close(p, "c1", tab["c1"], c1g, EXACT)
    a2g, c1g = tab["a2"], tab["c1"]
    # n reuses survive iff a2^2 + (n+1) c1^2 <= 1; unsafe a2 shrinks radially onto it
    margin = 1.0 - np.sqrt(a2g ** 2 + (n + 1) * c1g ** 2)
    _close(p, "margin", tab["margin"], margin, EXACT)
    _equal(p, "inside", tab["inside"], tab["margin"] >= -tol)
    edge = np.copysign(np.sqrt(np.maximum(0.0, 1.0 - (n + 1) * c1g ** 2)), a2g)
    # the projection keeps a2 under the default tolerance, whatever the scenario's
    safe = tab["margin"] >= -DEFAULT_TOL
    _close(p, "a2_slipped", tab["a2_slipped"], np.where(safe, a2g, edge), EXACT)
    return {"rows": n.size, "max_n": n_max}


def _check_validate(sc: dict, tab: Table, tol: float, p: list[str]) -> dict:
    names = list(tab["check"]) if tab.rows else []
    if names != list(VALIDATE_CHECKS):
        p.append(f"checks {names} != {list(VALIDATE_CHECKS)}")
        return {"rows": len(VALIDATE_CHECKS)}
    for name, passed, detail in zip(names, tab["passed"], tab["detail"]):
        key, bound = VALIDATE_CHECKS[name]
        label, _, raw = detail.partition("=")
        value = float(raw) if label == key else math.nan
        ok = value < bound if bound is not None else value == 0
        if not (passed and ok):
            p.append(f"validate check {name} failed: passed={passed}, {detail}")
    return {"rows": len(names), "passed": len(names), "failed": 0}


_CHECKS = {
    "evolve": _check_evolve,
    "conjunct-sweep": _check_conjunct_sweep,
    "conjunct-trajectory": _check_conjunct_trajectory,
    "hazard": _check_hazard,
    "growth": _check_growth,
    "domain-map": _check_domain_map,
    "slippage": _check_slippage,
    "validate": _check_validate,
}


def shape(scenario: dict) -> str:
    """Key of the CSV layout a scenario produces."""
    command = scenario["command"]
    if command == "conjunct":
        return "conjunct-sweep" if "grid" in scenario else "conjunct-trajectory"
    return command


def check(scenario: dict, out_dir: str) -> tuple[int, list[str]]:
    """Check one run's outputs; returns (CSV rows, problems found)."""
    problems: list[str] = []
    command = scenario["command"]
    tol = float(scenario.get("tol", DEFAULT_TOL))
    csv_name = command.replace("-", "_") + ".csv"
    try:
        tab = Table(os.path.join(out_dir, csv_name), COLUMNS[shape(scenario)], problems)
        expected = _CHECKS[shape(scenario)](scenario, tab, tol, problems) if tab.cols else {}
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return 0, problems
    if "rows" in expected and expected["rows"] != tab.rows:
        problems.append(f"csv rows: {tab.rows} != {expected['rows']}")
    expected.update({"command": command, "csv": csv_name, "seed": scenario.get("seed", 0),
                     "tol": tol})
    for key, want in expected.items():
        if key not in summary:
            problems.append(f"summary.{key}: missing")
        else:
            _same(problems, key, summary[key], want, EXACT)
    return tab.rows, problems
