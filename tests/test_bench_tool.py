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
                          "base_q3", "base_iqr", "pairs_won", "pairs", "beats_base_iqr"}
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
