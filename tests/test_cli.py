"""Scenario runner: schema validation, CSV output, determinism."""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pytest

from qmaplab import checks, cli
from qmaplab.cli import Columns, ScenarioError, emit_csv, load_scenario, main, parse_angle, run
from qmaplab.conjunction import ConjunctionSchedule, conjunct, sigma2_conjunction
from qmaplab.dynamics import MeanValueState, evolve_mean_values
from qmaplab.reduced import ReducedMap
from qmaplab.slippage import slip_state, slipped_domain_check

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


def test_growth_rejects_off_slice_state(tmp_path):
    payload = {"command": "growth", "state": {"a": [0.1, 0.5, 0], "c1": 0.2}, "n": 3}
    with pytest.raises(ScenarioError):
        load_scenario(write_scenario(tmp_path, payload))


# ---------------------------------------------------------------- emit_csv

def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(["alpha", "beta"], Columns(np.array([]), np.array([])), str(path))
    assert path.read_bytes() == b"alpha,beta\n"


def test_emit_csv_float_round_trip(tmp_path):
    path = tmp_path / "floats.csv"
    values = [0.1 + 0.2, 1 / 3, math.pi, -0.0, 1e-17]
    emit_csv(["x"], Columns(np.array(values)), str(path))
    lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
    for text, value in zip(lines, values):
        assert float(text) == value


def test_emit_csv_cell_types(tmp_path):
    path = tmp_path / "cells.csv"
    emit_csv(["a", "b", "c", "d"], Columns(cli._axis([1]), np.array([True]), np.array([0.5]),
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


def test_domain_map_oracle_disagreement_exits_2(tmp_path, monkeypatch, capsys):
    original = checks.feasibility_search
    payload = {"command": "domain-map", "grid": [
        {"axis": "a2", "start": -1, "stop": 1, "count": 5},
        {"axis": "c1", "start": -1, "stop": 1, "count": 5}]}
    # a wrong answer is caught even where 4 x it lies in the boundary band:
    # the origin's slice margin is 1
    for answer in (-0.25, -1e-4):
        def flipped(a, c1, c2, answer=answer):  # the oracle answers "outside" at the origin
            value, witness = original(a, c1, c2)
            return (answer if not np.any(a) and c1 == 0.0 else value), witness

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
        "domain_map.csv": "dc7dac0f228280d118917e149b792a7655571a1e3018d2741565d190f1163fdd",
        "summary.json": "4dd043188b2348e89daf321540b457c8fe6caeb198652e14b8e2b4e5c977a5ec",
    },
    "evolve.json": {
        "evolve.csv": "57f4593b8ede1e17570bd126299e01f5f728ee4ca51d2a2eb02703622fa54cbc",
        "summary.json": "1cfd19ae2a1e591c9f55654c5bffa3cee73a96675f430e0a5f24407050069459",
    },
    "growth.json": {
        "growth.csv": "8b15e18f400e8e7eed1cb4ae48844414c19d76b9d47c6e070dc33b72c537c98c",
        "summary.json": "9f6df0b5c60f89c1045fa6b22a12aa7b97cdd129e28cdb8d63ca644bbe6ed544",
    },
    "hazard.json": {
        "hazard.csv": "f381d89b33f766e21bb8682a17e8e90cc3a62ba2973a0ca87c207b9b7c89f2d3",
        "summary.json": "a8c5260fd872226cd9e36dad210a751279c2c13ab29bb3a75e6412d5d8e31ac5",
    },
    "slippage.json": {
        "slippage.csv": "e663d60e3fcbe007493d24aea332092817dcddd7bfbe5a8955ff104525f52cdf",
        "summary.json": "e4331e141ad0f9c5b039a5b5ef175d81f85a8ed644998d5189c7fd0e1d4bbe57",
    },
    "validate.json": {
        "validate.csv": "e239369be4f1e31d3cb33e4eceebe6dfa4ce8cc29eecb7821ab7fdbbc64abfe9",
        "summary.json": "5aaadf245ae0034821fd48bd5c5e3a6b677300790efec567780a589743c1f729",
    },
}


def test_bundled_scenarios_byte_identical(tmp_path):
    assert sorted(os.listdir(SCENARIOS)) == sorted(BUNDLED_DIGESTS)
    for name, expected in BUNDLED_DIGESTS.items():
        out = tmp_path / name
        assert run(os.path.join(SCENARIOS, name), out_dir=str(out)) == 0, name
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert digests == expected, name


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


def test_hazard_grid_matches_row_by_row(tmp_path):
    payload = {"command": "hazard", "grid": [
        {"axis": "q", "start": 0.05, "stop": 1.5, "count": 7},
        {"axis": "s", "start": -0.4, "stop": "3pi/2", "count": 501}]}
    got, summary = _run_and_read(tmp_path, payload, "hazard.csv")
    rows = []
    for q in np.linspace(0.05, 1.5, 7).tolist():
        m0 = MeanValueState(a=[0.0, math.cos(q), 0.0], c1=math.sin(q), c2=0.0)
        for s in np.linspace(-0.4, 3 * math.pi / 2, 501).tolist():
            exact = evolve_mean_values(m0, q + s).a[1]
            conj = sigma2_conjunction(math.cos(q), math.sin(q), q, s)
            rows.append([q, s, exact, conj, 1.0 - abs(exact), 1.0 - abs(conj)])
    header = ["q", "s", "sigma2_exact", "sigma2_conjunction", "margin_exact", "margin_conjunction"]
    assert got == _reference_csv(header, rows)
    assert summary["max_sigma2_conjunction"] == max(row[3] for row in rows)
    assert summary["rows"] == 7 * 501


def test_evolve_grid_matches_row_by_row(tmp_path):
    rng = np.random.default_rng(31)
    a, (c1, c2) = rng.uniform(-0.6, 0.6, 3).tolist(), rng.uniform(-0.6, 0.6, 2).tolist()
    payload = {"command": "evolve", "state": {"a": a, "c1": c1, "c2": c2},
               "grid": {"axis": "t", "start": -3, "stop": 40, "count": 2001}}
    got, summary = _run_and_read(tmp_path, payload, "evolve.csv")
    m0 = MeanValueState(a=a, c1=c1, c2=c2)
    rows = []
    for t in np.linspace(-3, 40, 2001).tolist():
        m = evolve_mean_values(m0, t)
        rows.append([t, *m.a, m.c1, m.c2, np.linalg.norm(m.a)])
    assert got == _reference_csv(["t", "a1", "a2", "a3", "c1", "c2", "norm_a"], rows)
    assert summary["rows"] == 2001


def test_conjunct_sweep_matches_row_by_row(tmp_path):
    rng = np.random.default_rng(37)
    a, (c1, c2) = rng.uniform(-0.6, 0.6, 3).tolist(), rng.uniform(-0.6, 0.6, 2).tolist()
    t = 0.7
    payload = {"command": "conjunct", "state": {"a": a, "c1": c1, "c2": c2},
               "schedule": {"t": t}, "grid": {"axis": "s", "start": -1, "stop": 9, "count": 2001}}
    got, summary = _run_and_read(tmp_path, payload, "conjunct.csv")
    m0 = MeanValueState(a=a, c1=c1, c2=c2)
    first_leg = ReducedMap(c1, c2, t).apply(a)
    rows = []
    for s in np.linspace(-1, 9, 2001).tolist():
        conj = ReducedMap(c1, c2, s).apply(first_leg)
        exact = evolve_mean_values(m0, t + s).a
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
    m0 = MeanValueState(a=a, c1=c1, c2=c2)
    sched = ConjunctionSchedule(t=t, steps=steps)
    report = conjunct(c1, c2, m0.a, sched, tol=1e-9)
    rows = []
    cumulative = 0.0
    for k, duration in enumerate(sched.durations):
        cumulative += duration
        exact = evolve_mean_values(m0, cumulative)
        conj_a = report.trajectory[k]
        rows.append([k, duration, cumulative, conj_a[0], conj_a[1], conj_a[2], report.magnitudes[k],
                     exact.a[0], exact.a[1], exact.a[2], float(np.linalg.norm(exact.a))])
    header = ["step", "duration", "cumulative_time", "conj_a1", "conj_a2", "conj_a3", "conj_norm",
              "exact_a1", "exact_a2", "exact_a3", "exact_norm"]
    assert got == _reference_csv(header, rows)
    assert summary["first_unphysical_step"] == report.first_unphysical_step
    assert summary["worst_margin"] == report.worst_margin
    assert summary["max_magnitude"] == float(report.magnitudes.max())
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
                verdict = slipped_domain_check(a2, c1, n, tol=1e-9)
                slipped = slip_state([0.0, a2, 0.0], c1, n)
                rows.append([n, a2, c1, verdict.inside, verdict.margin, slipped[1]])
    assert got == _reference_csv(["n", "a2", "c1", "inside", "margin", "a2_slipped"], rows)


def test_hazard_grid_calls_each_kernel_o1_times(tmp_path, monkeypatch):
    calls = {"evolve_mean_values": 0, "sigma2_conjunction": 0}
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
    assert calls["evolve_mean_values"] <= 1
    assert calls["sigma2_conjunction"] <= 1


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
                                               "in_compatibility_domain", "compat_slice_check"))
    payload = {"command": "validate", "seed": 5}
    assert run(write_scenario(tmp_path, payload), out_dir=str(tmp_path / "out")) == 0
    # per-point loops made 500, 500, 40,401 and 40,522 calls
    assert calls["sup_norm_grid"] == calls["sup_norm_over_time"] == 1
    assert calls["in_compatibility_domain"] == 1
    assert calls["compat_slice_check"] <= 2


def test_domain_map_calls_each_kernel_o1_times(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, checks, ("in_compatibility_domain", "compat_slice_check"))
    payload = {"command": "domain-map", "grid": [
        {"axis": "a2", "start": -1, "stop": 1, "count": 9},
        {"axis": "c1", "start": -1, "stop": 1, "count": 7}]}
    assert run(write_scenario(tmp_path, payload), out_dir=str(tmp_path / "out")) == 0
    assert calls == {"in_compatibility_domain": 1, "compat_slice_check": 1}


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


def test_main_parses_the_scenario_once(tmp_path, monkeypatch):
    loads = []
    original = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario", lambda path: loads.append(path) or original(path))
    path = os.path.join(SCENARIOS, "hazard.json")
    assert main(["hazard", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
    assert loads == [path]
