"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np

from qmaplab import DEFAULT_TOL, checks
from qmaplab.cli import run
from qmaplab.conjunction import (
    _sigma2_legs,
    brute_force_max,
    first_unphysical_n,
    greedy_extremal_growth,
)
from qmaplab.dynamics import rotate
from qmaplab.feasibility import feasibility_search
from qmaplab.reduced import compat_slice_check
from qmaplab.slippage import max_safe_repetitions, slipped_domain_check
from qmaplab.tolerances import DEFAULT_TOL, inside

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_closed_form_vs_unitary():
    _, _, worst, bound = checks.mean_values_vs_unitary(np.random.default_rng(1001))
    assert report(1, worst < bound,
                  f"mean-value evolution vs unitary conjugation, max abs error {worst:.3e} "
                  f"< {bound:g}")


def test_criterion_2_edge_hazard_onset():
    ok = True
    details = []
    for q in (math.pi / 6, math.pi / 4, math.pi / 3):
        a2, c1 = math.cos(q), math.sin(q)
        h = 1e-6
        slope = (_sigma2_legs(a2, c1, (q, h)) - _sigma2_legs(a2, c1, (q, -h))) / (2 * h)
        slope_ok = abs(slope - math.sin(q)) < 1e-8
        onset = _sigma2_legs(a2, c1, (q, 1e-3))
        onset_ok = onset > 1.0
        ok = ok and slope_ok and onset_ok
        details.append(f"q={q:.4f}: slope err {abs(slope - math.sin(q)):.2e}, value(1e-3)-1={onset - 1:.2e}")
    assert report(2, ok, "conjunction slope = sin q at the join and >1 at s=1e-3; " + "; ".join(details))


def test_criterion_3_exact_dynamics_stays_physical():
    q = np.array([math.pi / 6, math.pi / 4, math.pi / 3])[:, None]
    s = np.linspace(0, 2 * math.pi, 1001)
    # one rotation over the whole 3 q x 1001 s grid
    sigma2 = rotate([0, np.cos(q), 0], np.sin(q), 0.0, q + s)[1]
    worst_violation = float((sigma2 - 1.0).max())
    worst_mismatch = float(np.abs(sigma2 - np.cos(s)).max())
    ok = worst_violation <= 1e-12 and worst_mismatch < 1e-12
    assert report(3, ok,
                  f"exact sigma2(q+s) = cos s <= 1: max violation {max(worst_violation, 0):.3e}, "
                  f"max mismatch {worst_mismatch:.3e}")


def test_criterion_4_growth_law_vs_brute_force():
    pairs = np.random.default_rng(4004).uniform(-1, 1, (50, 2))
    # every pair at every n = 0..3: the maximum does not depend on the order
    _, _, worst, bound = checks.greedy_vs_brute_force(np.broadcast_to(pairs, (4, 50, 2)), 128)
    t0 = time.perf_counter()
    timed_err = abs(
        brute_force_max(0.37, 0.29, 3, grid_points=128)
        - math.sqrt(0.37**2 + 4 * 0.29**2)
    )
    elapsed = time.perf_counter() - t0
    ok = worst < bound and timed_err < bound and elapsed < 60.0
    assert report(4, ok,
                  f"greedy vs brute force at 128-point grids, max abs error {worst:.3e} "
                  f"< {bound:g} over 50 draws x n in 0..3; "
                  f"n=3 at 128-point grids: error {timed_err:.3e}, {elapsed:.1f}s < 60s")


def test_criterion_5_first_failure_index():
    first = first_unphysical_n(0.6, 0.2)
    safe = max_safe_repetitions(0.6, 0.2)
    ok = first == 16 and safe == 15 and safe == first - 1
    assert report(5, ok, f"a2=0.6, c1=0.2: first_unphysical_n={first}, max_safe_repetitions={safe}")


def test_criterion_6_three_way_slice_agreement():
    values = np.linspace(-1, 1, 41)
    *_, near, agree = checks.three_way_agreement(values[:, None], values, DEFAULT_TOL)
    excluded = int(near.sum())
    disagreements = int((~near & ~agree).sum())
    ok = disagreements == 0
    assert report(6, ok,
                  f"slice check, sup-over-time and feasibility oracle agree on "
                  f"{near.size - excluded} grid points ({excluded} boundary-excluded, band {checks.BOUNDARY_BAND:g}): "
                  f"{disagreements} disagreements")


def test_criterion_7_predecessor_left_the_domain():
    rng = np.random.default_rng(7007)
    counterexamples = 0
    trajectories = 0
    while trajectories < 200:
        a2 = float(rng.uniform(-1, 1))
        c1 = float(rng.uniform(-1, 1))
        if abs(c1) < 0.05:
            continue  # c1 != 0 required; tiny values only stretch the run
        first = first_unphysical_n(a2, c1)
        mags, _ = greedy_extremal_growth(a2, c1, first)
        exceed = np.nonzero(mags > 1.0)[0]
        if exceed.size == 0:
            continue
        trajectories += 1
        k = int(exceed[0])
        pred_margin = (
            compat_slice_check(a2, c1)
            if k == 0
            else compat_slice_check(float(mags[k - 1]), c1)
        )
        if not pred_margin < 0:
            counterexamples += 1
    assert report(7, counterexamples == 0,
                  f"in {trajectories} greedy trajectories the state before the first hazard "
                  f"violates the slice condition: {counterexamples} counterexamples")


def test_criterion_8_slippage_sufficiency_and_sharpness():
    rng = np.random.default_rng(8008)
    passing = failing = 0
    safe_violations = sharp_misses = 0
    while passing < 100 or failing < 100:
        a2 = float(rng.uniform(-1, 1))
        c1 = float(rng.uniform(-1, 1))
        n = int(rng.integers(1, 9))
        safe = inside(slipped_domain_check(a2, c1, n), DEFAULT_TOL)
        mags, _ = greedy_extremal_growth(a2, c1, n)
        if safe and passing < 100:
            passing += 1
            if mags.max() > 1 + 1e-9:
                safe_violations += 1
        elif not safe and failing < 100:
            failing += 1
            if not mags.max() > 1.0:
                sharp_misses += 1
    ok = safe_violations == 0 and sharp_misses == 0
    assert report(8, ok,
                  f"100 passing states never exceed 1+1e-9 under greedy reuse "
                  f"({safe_violations} violations); 100 failing states all exceed 1 "
                  f"({sharp_misses} misses)")


def test_criterion_9_witness_soundness():
    rng = np.random.default_rng(9009)
    points = []
    for i in range(40):
        if i % 2 == 0:  # slice points, mostly feasible
            r = math.sqrt(rng.uniform(0, 1.1))
            theta = rng.uniform(0, 2 * math.pi)
            points.append((0.0, r * math.cos(theta), 0.0, r * math.sin(theta), 0.0))
        else:  # general points
            points.append((*rng.uniform(-0.6, 0.6, 3), *rng.uniform(-0.6, 0.6, 2)))
    a1, a2, a3, c1, c2 = np.array(points).T
    a = np.stack((a1, a2, a3))
    best, witnesses = feasibility_search(a, c1, c2)
    inside_verdicts = int((best >= -DEFAULT_TOL).sum())
    bad = int((~checks.certified(a, c1, c2, best, witnesses, DEFAULT_TOL)).sum())
    ok = bad == 0 and inside_verdicts >= 20
    assert report(9, ok,
                  f"{inside_verdicts} inside verdicts ship reconstructible physical witnesses, "
                  f"{40 - inside_verdicts} outside verdict(s) ship dual certificates: "
                  f"{bad} unsound")


def test_criterion_10_cli_determinism_and_join_row(tmp_path):
    scenario = os.path.join(SCENARIOS, "hazard.json")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = run(scenario, out_dir=str(out1), seed=0)
    code2 = run(scenario, out_dir=str(out2), seed=0)
    bytes1 = (out1 / "hazard.csv").read_bytes()
    identical = code1 == code2 == 0 and bytes1 == (out2 / "hazard.csv").read_bytes()
    rows = np.genfromtxt(out1 / "hazard.csv", delimiter=",", names=True)
    join = rows[rows["s"] == 0.0]
    join_ok = (
        len(join) == 1
        and abs(join["sigma2_exact"][0] - 1.0) < 1e-12
        and abs(join["sigma2_conjunction"][0] - 1.0) < 1e-12
        and join["sigma2_exact"][0] == join["sigma2_conjunction"][0]
    )
    ok = identical and join_ok
    assert report(10, ok,
                  f"bundled hazard scenario byte-identical across runs ({len(bytes1)} bytes); "
                  f"s=0 row has sigma2_exact = sigma2_conjunction = 1")
