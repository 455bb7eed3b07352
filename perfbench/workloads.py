"""Seeded scenario generators, one per benchmark workload.

Each generator takes the workload seed and returns the scenario objects of
one workload pass, in the order they are run.  The program only ever sees the
JSON files written from these objects; the same seed gives byte-identical
files.  Grid bounds and states are jittered by the seed, sizes are fixed, so
every seed does the same amount of work.
"""
from __future__ import annotations

import json
import math
import os
import random

# sweep-200k: 200 q values x 1001 s values = 200,200 hazard rows per pass
SWEEP_Q_COUNT = 200
SWEEP_S_COUNT = 1001
# domain-map: a2 x c1 raster; 9 x 9 keeps a pass near 2 s, so a run holds
# enough passes for a steady median (21 x 21 takes 10-15 s per pass)
DOMAIN_COUNT = 9
# small-scenarios: every bundled command shape, this many seeded variants each
SMALL_VARIANTS = 8

WORKLOADS = ("sweep-200k", "domain-map", "validate", "small-scenarios")


def _grid(axis: str, start: float, stop: float, count: int) -> dict:
    return {"axis": axis, "start": start, "stop": stop, "count": count}


def _sweep(rng: random.Random) -> list[tuple[str, dict]]:
    q_grid = _grid("q", 0.02 + rng.uniform(0, 0.05), math.pi / 2 - 0.02 - rng.uniform(0, 0.05),
                   SWEEP_Q_COUNT)
    s_grid = _grid("s", rng.uniform(0, 0.05), math.pi / 2 + rng.uniform(0, 0.5), SWEEP_S_COUNT)
    return [("hazard", {"command": "hazard", "grid": [q_grid, s_grid],
                        "seed": rng.randrange(2**31)})]


def _domain_map(rng: random.Random) -> list[tuple[str, dict]]:
    grids = [_grid(axis, -1.0 - rng.uniform(0, 0.1), 1.0 + rng.uniform(0, 0.1), DOMAIN_COUNT)
             for axis in ("a2", "c1")]
    return [("domain_map", {"command": "domain-map", "grid": grids,
                            "seed": rng.randrange(2**31), "tol": 1e-9})]


def _validate(seed: int) -> list[tuple[str, dict]]:
    # the workload seed itself, folded into the scenario's non-negative range
    return [("validate", {"command": "validate", "seed": seed % 2**31, "tol": 1e-9})]


def _small(rng: random.Random) -> list[tuple[str, dict]]:
    out = []
    for v in range(SMALL_VARIANTS):
        shapes = {
            "evolve": {
                "command": "evolve",
                "state": {"a": [rng.uniform(-0.5, 0.5) for _ in range(3)],
                          "c1": rng.uniform(-0.5, 0.5), "c2": rng.uniform(-0.5, 0.5)},
                "grid": _grid("t", rng.uniform(0, 0.1), 2 * math.pi - rng.uniform(0, 0.1), 201),
            },
            "conjunct_sweep": {
                "command": "conjunct",
                "state": {"q": rng.uniform(0.1, 1.4)},
                "schedule": {"t": rng.uniform(0.3, 1.2)},
                "grid": _grid("s", rng.uniform(0, 0.05), math.pi / 2 + rng.uniform(0, 0.1), 101),
            },
            "conjunct_trajectory": {
                "command": "conjunct",
                "state": {"q": rng.uniform(0.1, 1.4)},
                "schedule": {"t": rng.uniform(0.3, 1.2),
                             "steps": [rng.uniform(0.2, 1.2) for _ in range(3)]},
            },
            "hazard": {
                "command": "hazard",
                "state": {"q": rng.uniform(0.1, 1.4)},
                "grid": _grid("s", rng.uniform(0, 0.05), math.pi / 2 - rng.uniform(0, 0.05), 101),
                "tol": 1e-9,
            },
            "growth": {
                "command": "growth",
                "state": {"a": [0, rng.uniform(0.2, 0.8), 0], "c1": rng.uniform(0.1, 0.3)},
                "n": 20,
            },
            "slippage": {
                "command": "slippage",
                "state": {"c1": rng.uniform(0.1, 0.4)},
                "grid": _grid("a2", -1.0 - rng.uniform(0, 0.1), 1.0 + rng.uniform(0, 0.1), 41),
                "n": 3,
            },
        }
        for shape, scenario in shapes.items():
            scenario["seed"] = rng.randrange(2**31)
            out.append((f"{v:02d}-{shape}", scenario))
    return out


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(name, scenario) pairs of one pass of `workload` under `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-200k":
        return _sweep(rng)
    if workload == "domain-map":
        return _domain_map(rng)
    if workload == "validate":
        return _validate(seed)
    if workload == "small-scenarios":
        return _small(rng)
    raise ValueError(f"unknown workload {workload!r}")


def write(workload: str, seed: int, directory: str) -> list[tuple[str, dict, str]]:
    """Write the scenario files of one pass; returns (name, scenario, path)."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, scenario in generate(workload, seed):
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh, indent=1)
            fh.write("\n")
        written.append((name, scenario, path))
    return written
