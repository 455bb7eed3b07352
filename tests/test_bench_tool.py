"""`tools/bench.py` on a synthetic run: what it reads from a perfbench run
and the summary it writes per metric, without running the benchmark."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", _ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _run(setup_s: float, rows_per_s: float, wall_run_s: float, failed: int = 0) -> dict:
    """A run as perfbench prints it (a log line, then the JSON line) and its
    result.json, read back by `read_run`."""
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "rows_per_s": {"value": rows_per_s, "unit": "rows/s"}}
    stdout = "provenance: {}\nsmall-scenarios: 5 timed passes\n" + json.dumps(
        {"correct": failed == 0, "attempted": 48, "failed": failed, "metrics": metrics}) + "\n"
    result = {"wall_run_s": wall_run_s, "provenance": {"nproc": 2}, "metrics": metrics}
    return bench.read_run(stdout, result)


def test_read_run_takes_the_last_json_line_and_wall_run_s():
    run = _run(0.17, 1000.0, 0.5, failed=1)
    assert run == {"metrics": {"setup_s": 0.17, "rows_per_s": 1000.0, "wall_run_s": 0.5},
                   "correct": False, "failed": 1, "attempted": 48,
                   "provenance": {"nproc": 2}}


def test_compare_gives_medians_base_iqr_and_pairs_won():
    base = [_run(s, r, w) for s, r, w in [(0.18, 100, 1.0), (0.17, 120, 1.1), (0.19, 110, 0.9),
                                          (0.18, 90, 1.0), (0.20, 100, 1.2)]]
    change = [_run(s, r, w) for s, r, w in [(0.16, 130, 1.0), (0.17, 100, 1.0), (0.16, 130, 1.0),
                                            (0.15, 140, 1.1), (0.17, 120, 1.0)]]
    out = bench.compare(base, change, {"setup_s": "lower", "rows_per_s": "higher",
                                       "wall_run_s": "lower"})
    setup = out["setup_s"]
    assert set(setup) == {"better", "base_median", "change_median", "change_vs_base", "base_q1",
                          "base_q3", "base_iqr", "pairs_won", "pairs", "beats_base_iqr", "bound",
                          "worse_than_bound", "claim_met"}
    # no bounds given: none to be worse than
    assert setup["bound"] is None and setup["worse_than_bound"] is None
    assert (setup["base_median"], setup["change_median"]) == (0.18, 0.16)
    assert (setup["base_q1"], setup["base_q3"]) == (0.18, 0.19)
    assert setup["base_iqr"] == pytest.approx(0.01)
    # the tie at 0.17 is not a win
    assert (setup["pairs_won"], setup["pairs"]) == (4, 5)
    assert setup["beats_base_iqr"] and setup["change_vs_base"] == pytest.approx(-1 / 9)
    rows = out["rows_per_s"]
    # higher is better: 100 -> 130, 120 -> 100 (lost), 110 -> 130, 90 -> 140, 100 -> 120
    assert (rows["base_median"], rows["change_median"], rows["pairs_won"]) == (100, 130, 4)
    assert rows["beats_base_iqr"]  # 30 against an IQR of 110 - 100
    wall = out["wall_run_s"]
    # 1.1 -> 1.0 and 1.2 -> 1.0 win; the equal medians do not beat the IQR
    assert wall["pairs_won"] == 2 and not wall["beats_base_iqr"]


def _metric_runs(name: str, values) -> list[dict]:
    return [{"metrics": {name: v}} for v in values]


@pytest.mark.parametrize("after,worse", [
    # medians 10 -> 12.4: 24% worse, inside a 25% bound
    ([12.4] * 10, False),
    # 10 -> 12.6: 26% worse, past it
    ([12.6] * 10, True),
    # better, by far
    ([5.0] * 10, False),
])
def test_compare_flags_a_median_worse_than_the_bound(after, worse):
    base = _metric_runs("run_s", [9.0, 10.0, 11.0, 10.0, 9.5, 10.5, 10.0, 10.0, 9.8, 10.2])
    lower = bench.compare(base, _metric_runs("run_s", after), {"run_s": "lower"},
                          {"run_s": 0.25})["run_s"]
    assert lower["bound"] == 0.25 and lower["worse_than_bound"] is worse
    # higher is better: 100 -> 74 is 26% worse, 100 -> 76 24%
    base = _metric_runs("rows_per_s", [100.0] * 10)
    for value, past in ((74.0, True), (76.0, False), (130.0, False)):
        higher = bench.compare(base, _metric_runs("rows_per_s", [value] * 10),
                               {"rows_per_s": "higher"}, {"rows_per_s": 0.25})["rows_per_s"]
        assert higher["worse_than_bound"] is past


def test_claim_met_needs_nine_pairs_in_ten_and_the_base_iqr_beaten():
    # base 10.0 .. 10.9, IQR 0.45; median 10.45
    base = _metric_runs("run_s", [10.0 + 0.1 * i for i in range(10)])

    def claim(after):
        return bench.compare(base, _metric_runs("run_s", after), {"run_s": "lower"},
                             {"run_s": 0.25})["run_s"]

    # every pair won by 1.0: met
    met = claim([9.0 + 0.1 * i for i in range(10)])
    assert (met["pairs_won"], met["beats_base_iqr"], met["claim_met"]) == (10, True, True)
    # 9 pairs won, the tenth lost: still met
    nine = claim([9.0 + 0.1 * i for i in range(9)] + [11.5])
    assert (nine["pairs_won"], nine["claim_met"]) == (9, True)
    # 8 pairs won, though the median beats the IQR: not met
    eight = claim([9.0 + 0.1 * i for i in range(8)] + [11.5, 11.5])
    assert (eight["pairs_won"], eight["beats_base_iqr"], eight["claim_met"]) == (8, True, False)
    # every pair won by 0.1, less than the IQR: not met
    close = claim([9.9 + 0.1 * i for i in range(10)])
    assert (close["pairs_won"], close["beats_base_iqr"], close["claim_met"]) == (10, False, False)


def test_compare_needs_matched_pairs():
    with pytest.raises(ValueError, match="two pairs"):
        bench.compare([_run(0.1, 1, 1)], [_run(0.1, 1, 1)], {"setup_s": "lower"})
    with pytest.raises(ValueError, match="two pairs"):
        bench.compare([_run(0.1, 1, 1)] * 3, [_run(0.1, 1, 1)] * 2, {"setup_s": "lower"})


def test_directions_cover_every_end_to_end_metric():
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())
    better = bench.directions(declared)
    assert better == {**{m["name"]: m["better"] for m in declared["end_to_end"]},
                      "wall_run_s": "lower"}
    # every one but wall_run_s has a bound
    assert bench.bounds(declared) == {m["name"]: m["bound"] for m in declared["end_to_end"]}


_TIER1_OUTPUT = """\
........................................................................ [ 10%]
..............................xx.....................................F.. [100%]
=================================== FAILURES ===================================
1.5s call     tests/test_x.py::test_inside_a_traceback_is_not_a_duration
============================= slowest 10 durations =============================
2.72s call     tests/test_cli.py::test_growth_memory_stays_bounded_as_n_grows
0.31s setup    tests/test_cli.py::test_bundled[evolve.json]
0.30s teardown tests/test_reduced.py::test_sup_norm_grid_batch_equals_per_state_calls

(5 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_x.py::test_y - assert 1 == 2
1 failed, 141 passed, 2 xfailed in 23.19s
"""


def test_tier1_key_holds_wall_time_counts_and_slowest_tests(monkeypatch):
    calls = []

    def fake_run(command, **kwargs):
        calls.append((command, kwargs))
        return bench.subprocess.CompletedProcess(command, 1, _TIER1_OUTPUT, "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    tier1 = bench.run_tier1("/change")
    (command, kwargs), = calls
    assert command[1:4] == ["-m", "pytest", "-q"] and kwargs["cwd"] == "/change"
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert set(tier1) == {"command", "exit_status", "wall_s", "counts", "pytest_s", "slowest"}
    assert tier1["exit_status"] == 1 and tier1["wall_s"] >= 0
    assert tier1["counts"] == {"failed": 1, "passed": 141, "xfailed": 2}
    assert tier1["pytest_s"] == 23.19
    assert tier1["slowest"] == [
        {"seconds": 2.72, "phase": "call",
         "test": "tests/test_cli.py::test_growth_memory_stays_bounded_as_n_grows"},
        {"seconds": 0.31, "phase": "setup", "test": "tests/test_cli.py::test_bundled[evolve.json]"},
        {"seconds": 0.30, "phase": "teardown",
         "test": "tests/test_reduced.py::test_sup_norm_grid_batch_equals_per_state_calls"},
    ]
    json.dumps(tier1)  # it goes into the output file as it is


def test_tier1_without_a_summary_keeps_the_output(monkeypatch):
    monkeypatch.setattr(bench.subprocess, "run", lambda command, **kwargs:
                        bench.subprocess.CompletedProcess(command, 4, "", "ERROR: usage"))
    tier1 = bench.run_tier1("/change")
    assert tier1["exit_status"] == 4 and tier1["output_tail"] == "ERROR: usage"
    assert "counts" not in tier1
    with pytest.raises(ValueError, match="summary"):
        bench.read_tier1("")


def test_both_trees_run_from_paths_of_equal_length():
    # the JSON keys stay base and change; the directories differ only in name
    assert set(bench.TREES) == {"base", "change"}
    assert len({len(name) for name in bench.TREES.values()}) == 1
    assert len(set(bench.TREES.values())) == 2


def test_report_records_the_provenance_of_both_sides(monkeypatch, tmp_path):
    # two workloads, and every run names its side and workload: `provenance`
    # is the change's first run, `base_provenance` the base's
    declared = {"run_seconds": 1, "workloads": [{"name": "first"}, {"name": "second"}],
                "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                               {"name": "rows_per_s", "better": "higher", "bound": 0.25}]}

    def unpack_revision(rev, dest):
        Path(dest).mkdir()
        return "0" * 40

    def copy_checkout(dest):
        Path(dest).mkdir()
        (Path(dest) / "BENCHMARK.json").write_text(json.dumps(declared))

    def run_once(tree, workload, seed, seconds):
        side = "base" if Path(tree).name == bench.TREES["base"] else "change"
        return dict(_run(0.17, 1000.0, 0.5), provenance={"side": side, "workload": workload})

    monkeypatch.setattr(bench, "unpack_revision", unpack_revision)
    monkeypatch.setattr(bench, "copy_checkout", copy_checkout)
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "run_tier1", lambda tree: {"wall_s": 0.0, "exit_status": 0})
    out = tmp_path / "bench.json"
    assert bench.main(["--base", "HEAD", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["provenance"] == {"side": "change", "workload": "first"}
    assert report["base_provenance"] == {"side": "base", "workload": "first"}
    assert [r["workload"] for r in report["results"]] == ["first", "second"]
