"""Tests of the benchmark itself: checker sensitivity, tracer hygiene, contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy.linalg  # noqa: E402

import qmaplab  # noqa: E402
from qmaplab import cli, feasibility, reduced  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402


@pytest.fixture
def small_sizes(monkeypatch):
    """Shrink the generated grids so one pass of every workload is quick."""
    monkeypatch.setattr(workloads, "SWEEP_Q_COUNT", 4)
    monkeypatch.setattr(workloads, "SWEEP_S_COUNT", 11)
    monkeypatch.setattr(workloads, "DOMAIN_COUNT", 3)
    monkeypatch.setattr(workloads, "SMALL_VARIANTS", 1)


def _one_pass(workload: str, tmp_path, tracer=None):
    scenarios = [{"name": n, "path": p, "scenario": sc}
                 for n, sc, p in workloads.write(workload, 7, str(tmp_path / "scenarios"))]
    cfg = {"scenarios": scenarios, "runs_dir": str(tmp_path / "runs"),
           "keep_dir": str(tmp_path / "kept")}
    runner = Runner(cfg, cli)
    runner.run_pass(measured=True, tracer=tracer)
    return runner, scenarios


def _corrupt_last_cell(csv_path: str) -> None:
    """Change the last cell of the middle data row to a wrong value."""
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    row = 1 + (len(lines) - 3) // 2
    cells = lines[row].split(",")
    last = cells[-1]
    if last in ("true", "false"):
        cells[-1] = "false" if last == "true" else "true"
    elif "=" in last:  # validate detail: push the measured value past its bound
        cells[-1] = last.split("=")[0] + "=1.0"
    else:
        cells[-1] = repr(float(last) + 1e-3)
    lines[row] = ",".join(cells)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_row_raises_failed_ratio(workload, tmp_path, small_sizes):
    runner, scenarios = _one_pass(workload, tmp_path)
    result = {"outputs": runner.outputs, "invocations": runner.invocations}
    attempted = len(runner.invocations)
    assert attempted == len(scenarios)
    failed, rows, problems = run.tally(result, scenarios)
    assert failed == 0, problems
    assert all(n > 0 for n in rows.values())

    kept = next(iter(runner.outputs.values()))
    csv_name = next(f for f in os.listdir(kept["dir"]) if f.endswith(".csv"))
    _corrupt_last_cell(os.path.join(kept["dir"], csv_name))
    failed, _, problems = run.tally(result, scenarios)
    assert failed / attempted > 0
    assert any(problems.values())


def test_nonzero_exit_counts_as_failed(tmp_path, small_sizes):
    runner, scenarios = _one_pass("sweep-200k", tmp_path)
    runner.invocations[0][2] = 2
    failed, _, _ = run.tally({"outputs": runner.outputs, "invocations": runner.invocations},
                             scenarios)
    assert failed == 1


def _bindings() -> dict:
    modules = [m for name, m in sys.modules.items()
               if name == "qmaplab" or name.startswith("qmaplab.")] + [numpy.linalg]
    found = {(m.__name__, a): v for m in modules for a, v in vars(m).items() if callable(v)}
    found[("ReducedMap", "apply")] = reduced.ReducedMap.__dict__["apply"]
    return found


def test_tracer_wraps_every_binding_and_restores_them(tmp_path, small_sizes):
    before = _bindings()
    with tracing.Tracer() as tracer:
        assert cli.evolve_mean_values is not before[("qmaplab.dynamics", "evolve_mean_values")]
        assert qmaplab.dynamics.evolve_mean_values is cli.evolve_mean_values
        assert feasibility.nelder_mead_max is not before[("qmaplab.optimize", "nelder_mead_max")]
        assert numpy.linalg.eigvalsh is not before[("numpy.linalg", "eigvalsh")]
        assert reduced.ReducedMap.__dict__["apply"] is not before[("ReducedMap", "apply")]
        traced, _ = _one_pass("small-scenarios", tmp_path / "traced", tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    untraced, _ = _one_pass("small-scenarios", tmp_path / "untraced")
    assert [i[4] for i in traced.invocations] == [i[4] for i in untraced.invocations]

    spans = traced.spans[0]["spans"]
    # self times partition the root spans: nothing is counted twice or lost
    roots = sum(total for path, (_, total, _) in spans.items() if "/" not in path)
    assert sum(self_s for _, _, self_s in spans.values()) == pytest.approx(roots, rel=1e-9)
    assert spans["cli.run"][0] == len(traced.invocations)
    metrics = tracing.pass_metrics(traced.spans[0])
    assert metrics["cli.load_scenario.calls"] == len(traced.invocations)
    assert metrics["slippage.slip_state.calls"] > 0
    assert metrics["cli.emit_bytes"] > 0


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
        if workload != "validate":
            assert workloads.generate(workload, 5) != workloads.generate(workload, 6)
    assert workloads.generate("validate", 5)[0][1]["seed"] == 5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1000)))[0] == 0.99
    p, value = run.tail_percentile(list(range(100)))
    assert p == 0.9 and value == 89
    assert run.tail_percentile([3.0, 1.0, 2.0])[0] == 0.5


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    empty = {"spans": {}, "counters": {"emit_rows": 0, "emit_bytes": 0, "grid_points": 0}}
    names = list(tracing.pass_metrics(empty)) + ["trace_overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.per_layer_unit(n) for n in names}
