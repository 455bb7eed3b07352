"""Frozen-map conjunctions: hazard onset, extremal growth, failure indices."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qmaplab.conjunction import (
    ConjunctionSchedule,
    _grid_argmax,
    _sigma2_legs,
    brute_force_max,
    conjunct,
    first_unphysical_n,
    greedy_extremal_growth,
    sigma2_conjunction,
)
from qmaplab.dynamics import MeanValueState, evolve_mean_values
from qmaplab.optimize import golden_section_max
from qmaplab.reduced import ReducedMap, compat_slice_check
from qmaplab.slippage import max_safe_repetitions


def test_schedule_counts():
    sched = ConjunctionSchedule(t=0.5, steps=(0.1, 0.2))
    assert sched.n == 2
    assert sched.durations == (0.5, 0.1, 0.2)


def test_conjunct_uncorrelated_never_hazards():
    # with no correlation each leg contracts the (1, 2) plane, so magnitudes
    # never exceed the initial norm for any schedule
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.uniform(-1, 1, 3)
        a /= max(1.0, np.linalg.norm(a))  # physical input
        sched = ConjunctionSchedule(t=float(rng.uniform(0, 6)), steps=tuple(rng.uniform(0, 6, 5)))
        report = conjunct(0.0, 0.0, a, sched)
        assert report.first_unphysical_step is None
        assert report.magnitudes.max() <= np.linalg.norm(a) + 1e-12


@pytest.mark.parametrize("q,s", [(0.5, 0.3), (math.pi / 4, 1.0), (1.2, 0.2)])
def test_conjunct_edge_state_formula(q, s):
    report = conjunct(math.sin(q), 0.0, [0.0, math.cos(q), 0.0],
                      ConjunctionSchedule(t=q, steps=(s,)))
    assert abs(report.trajectory[1][1] - (math.cos(s) + math.sin(q) * math.sin(s))) < 1e-12


def test_conjunct_edge_quarter_pi_is_unphysical_at_step_one():
    q = math.pi / 4
    report = conjunct(math.sin(q), 0.0, [0.0, math.cos(q), 0.0],
                      ConjunctionSchedule(t=q, steps=(math.pi / 4,)))
    expected = math.cos(math.pi / 4) + math.sin(q) * math.sin(math.pi / 4)
    assert abs(report.trajectory[1][1] - expected) < 1e-12
    assert expected > 1.2  # ~1.2071
    assert report.first_unphysical_step == 1
    assert report.worst_margin < 0


@pytest.mark.parametrize("seed", range(10))
def test_conjunct_single_leg_matches_exact_evolution(seed):
    # the hazard needs at least one reuse: the first leg alone is exact
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, 3)
    c1, c2 = rng.uniform(-1, 1, 2)
    t = float(rng.uniform(0, 6))
    report = conjunct(c1, c2, a, ConjunctionSchedule(t=t))
    exact = evolve_mean_values(MeanValueState(a=a, c1=c1, c2=c2), t)
    assert np.abs(report.trajectory[0] - exact.a).max() < 1e-12


def test_sigma2_conjunction_reduces_at_s_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a2, c1, t = rng.uniform(-1, 1, 3)
        assert abs(
            sigma2_conjunction(a2, c1, t, 0.0) - (a2 * math.cos(t) + c1 * math.sin(t))
        ) < 1e-15


@pytest.mark.parametrize("q", [0.3, math.pi / 4, 1.4])
def test_sigma2_conjunction_edge_identity(q):
    for s in np.linspace(0, math.pi, 25):
        got = sigma2_conjunction(math.cos(q), math.sin(q), q, float(s))
        assert abs(got - (math.cos(s) + math.sin(q) * math.sin(s))) < 1e-12


def test_sigma2_conjunction_maximum_value():
    # at q = pi/2 the one-reuse maximum is sqrt(2), attained at s = pi/4
    q = math.pi / 2
    got = sigma2_conjunction(math.cos(q), math.sin(q), q, math.pi / 4)
    assert abs(got - math.sqrt(2)) < 1e-12


def test_sigma2_conjunction_agrees_with_conjunct_on_slice():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a2, c1 = rng.uniform(-1, 1, 2)
        t, s = rng.uniform(0, 6, 2)
        report = conjunct(c1, 0.0, [0, a2, 0], ConjunctionSchedule(t=float(t), steps=(float(s),)))
        assert abs(report.trajectory[1][1] - sigma2_conjunction(a2, c1, t, s)) < 1e-12


@pytest.mark.parametrize("q", [0.2, math.pi / 6, math.pi / 4, math.pi / 3, 1.5])
def test_hazard_slope_matches_finite_difference(q):
    h = 1e-6
    a2, c1 = math.cos(q), math.sin(q)
    fd = (sigma2_conjunction(a2, c1, q, h) - sigma2_conjunction(a2, c1, q, -h)) / (2 * h)
    assert abs(math.sin(q) - fd) < 1e-8
    assert fd > 0


def test_greedy_growth_magnitude_law():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a2, c1 = rng.uniform(-1, 1, 2)
        n = int(rng.integers(0, 8))
        mags, sched = greedy_extremal_growth(a2, c1, n)
        assert len(mags) == n + 1
        assert sched.n == n
        for k, m in enumerate(mags):
            assert abs(m - math.sqrt(a2**2 + (k + 1) * c1**2)) < 1e-12


def test_greedy_growth_examples():
    mags, _ = greedy_extremal_growth(0.0, 0.5, 3)
    assert abs(mags[-1] - 1.0) < 1e-12  # exactly the physical boundary

    mags, _ = greedy_extremal_growth(0.7, 0.0, 5)
    assert np.abs(mags - 0.7).max() < 1e-15  # no correlation, no growth

    q = 0.9
    mags, _ = greedy_extremal_growth(math.cos(q), math.sin(q), 1)
    assert abs(mags[-1] ** 2 - (1 + math.sin(q) ** 2)) < 1e-12


def test_greedy_growth_rejects_negative_n():
    with pytest.raises(ValueError):
        greedy_extremal_growth(0.5, 0.5, -1)


def test_greedy_schedule_actually_attains_magnitudes():
    # replay the returned worst-case schedule through the conjunction engine
    rng = np.random.default_rng(6)
    for _ in range(10):
        a2, c1 = rng.uniform(-1, 1, 2)
        mags, sched = greedy_extremal_growth(a2, c1, 4)
        report = conjunct(c1, 0.0, [0, a2, 0], sched)
        assert np.abs(report.magnitudes - mags).max() < 1e-12


def test_brute_force_examples():
    assert abs(brute_force_max(0.6, 0.2, 0) - math.sqrt(0.40)) < 1e-6
    assert abs(brute_force_max(0.6, 0.2, 2, grid_points=64) - math.sqrt(0.48)) < 1e-6
    assert abs(brute_force_max(0.8, 0.0, 2, grid_points=64) - 0.8) < 1e-6


def test_brute_force_argument_errors():
    with pytest.raises(ValueError):
        brute_force_max(0.5, 0.1, 4)
    with pytest.raises(ValueError):
        brute_force_max(0.5, 0.1, -1)
    with pytest.raises(ValueError):
        brute_force_max(0.5, 0.1, 1, grid_points=32)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_brute_force_matches_greedy(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(5):
        a2, c1 = rng.uniform(-1, 1, 2)
        mags, _ = greedy_extremal_growth(a2, c1, n)
        assert abs(brute_force_max(a2, c1, n, grid_points=64) - mags[-1]) < 1e-6


def _enumerated_grid_argmax(a2, c1, n, grid_points):
    """Reference for `_grid_argmax`: the plain enumeration of every schedule
    on the grid that brute_force_max ran before the envelope.  Legs
    0..n-1 expand into a flat C-order array; the last leg goes chunk by
    chunk, and a later chunk wins only with a strictly larger value."""
    grid = np.arange(grid_points) * (2 * math.pi / grid_points)
    cos_g, c1_sin_g = np.cos(grid), c1 * np.sin(grid)
    v = a2 * cos_g + c1_sin_g
    for _ in range(n - 1):
        v = (v[:, None] * cos_g + c1_sin_g).ravel()
    if n == 0:
        best_flat = int(np.argmax(np.abs(v)))
        best_val = abs(float(v[best_flat]))
    else:
        chunk = max(1, 2**15 // grid_points)
        best_val, best_flat = -1.0, 0
        for start in range(0, v.size, chunk):
            block = v[start:start + chunk, None] * cos_g
            block += c1_sin_g
            np.abs(block, out=block)
            flat = int(np.argmax(block))
            if block.flat[flat] > best_val:
                best_val = float(block.flat[flat])
                row, col = divmod(flat, grid_points)
                best_flat = (start + row) * grid_points + col
    idx = np.unravel_index(best_flat, (grid_points,) * (n + 1))
    return best_val, tuple(int(j) for j in idx)


def _refined(a2, c1, idx, grid_points):
    """The cyclic golden-section pass brute_force_max runs from grid legs."""
    grid = np.arange(grid_points) * (2 * math.pi / grid_points)
    h = 2 * math.pi / grid_points
    legs = [grid[j] for j in idx]
    for i in range(len(legs)):

        def objective(x, i=i):
            trial = legs.copy()
            trial[i] = x
            return abs(_sigma2_legs(a2, c1, trial))

        legs[i], best = golden_section_max(objective, legs[i] - h, legs[i] + h)
    return best


# c1 = 0, a2 = 0 and |a2| = 1 first, then 300 seeded pairs
_PAIRS = [(0.0, 0.5), (0.6, 0.0), (0.0, 0.0), (1.0, 0.3), (-1.0, -0.7), (1.0, 0.0)] + [
    tuple(p) for p in np.random.default_rng(2024).uniform(-1, 1, (300, 2)).tolist()]


@pytest.mark.parametrize("n,grid_points",
                         [(0, 64), (1, 64), (2, 64), (3, 64), (0, 128), (1, 128), (2, 128)])
def test_envelope_equals_enumeration_exactly(n, grid_points):
    # enumerating 64^4 schedules takes about 50 ms a pair, so n = 3 runs the
    # first 56 pairs; the returned values are compared on the first 12
    pairs = _PAIRS if n < 3 else _PAIRS[:56]
    for k, (a2, c1) in enumerate(pairs):
        expected = _enumerated_grid_argmax(a2, c1, n, grid_points)
        assert _grid_argmax(a2, c1, n, grid_points) == expected, (a2, c1)
        if k < 12:
            value = brute_force_max(a2, c1, n, grid_points)
            assert value == _refined(a2, c1, expected[1], grid_points), (a2, c1)


@pytest.mark.parametrize("a2,c1", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.1),
                                   (0.2, -math.inf)])
def test_non_finite_growth_inputs_raise(a2, c1):
    with pytest.raises(ValueError, match="finite"):
        first_unphysical_n(a2, c1)
    with pytest.raises(ValueError, match="finite"):
        max_safe_repetitions(a2, c1)
    with pytest.raises(ValueError, match="finite"):
        brute_force_max(a2, c1, 1, grid_points=64)


def test_first_unphysical_known_case():
    assert first_unphysical_n(0.6, 0.2) == 16


def test_first_unphysical_no_correlation():
    assert first_unphysical_n(0.7, 0.0) is None


def test_first_unphysical_edge_state():
    for q in (0.3, 0.8, 1.2):
        assert first_unphysical_n(math.cos(q), math.sin(q)) == 1


def test_first_unphysical_monotone_in_correlation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a2 = float(rng.uniform(-0.95, 0.95))
        c_values = np.sort(rng.uniform(0.01, 1, 5))
        indices = [first_unphysical_n(a2, float(c)) for c in c_values]
        assert all(i is not None for i in indices)
        assert all(x >= y for x, y in zip(indices, indices[1:]))


@pytest.mark.parametrize("seed", range(10))
def test_predecessor_left_domain_before_hazard(seed):
    # when step k first exceeds magnitude 1, the step k-1 state already
    # violates the slice compatibility condition
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a2 = float(rng.uniform(-0.9, 0.9))
        c1 = float(rng.uniform(0.05, 0.9))
        mags, _ = greedy_extremal_growth(a2, c1, 40)
        exceed = np.nonzero(mags > 1.0)[0]
        if exceed.size == 0:
            continue
        k = int(exceed[0])
        assert k >= 1 or compat_slice_check(a2, c1).margin < 0
        if k >= 1:
            assert compat_slice_check(float(mags[k - 1]), c1).margin < 0


def test_broadcast_forms_equal_scalar_closed_forms_exactly():
    rng = np.random.default_rng(23)
    a2, c1 = rng.uniform(-1, 1, (2, 300))
    t, s = rng.uniform(-10, 10, (2, 300))
    conj = sigma2_conjunction(a2, c1, t, s)
    frozen_c1, frozen_c2, a = 0.3, -0.7, [0.2, -0.5, 0.4]
    applied = ReducedMap(frozen_c1, frozen_c2, s).apply(a)
    for k in range(300):
        x2, y1, tk, sk = float(a2[k]), float(c1[k]), float(t[k]), float(s[k])
        expected = x2 * math.cos(tk) * math.cos(sk) + y1 * (
            math.sin(tk) * math.cos(sk) + math.sin(sk))
        assert float(conj[k]) == expected == sigma2_conjunction(x2, y1, tk, sk)
        fold = (x2 * math.cos(tk) + y1 * math.sin(tk)) * math.cos(sk) + y1 * math.sin(sk)
        assert _sigma2_legs(x2, y1, [tk, sk]) == fold
        assert applied[:, k].tolist() == ReducedMap(frozen_c1, frozen_c2, sk).apply(a).tolist()
        assert applied[:, k].tolist() == [a[0] * math.cos(sk) - frozen_c2 * math.sin(sk),
                                          a[1] * math.cos(sk) + frozen_c1 * math.sin(sk), a[2]]
