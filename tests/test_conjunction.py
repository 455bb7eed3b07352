"""Frozen-map conjunctions: hazard onset, extremal growth, failure indices."""
from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from qmaplab import checks, conjunction
from qmaplab.conjunction import (
    _greedy_rows,
    _grid_argmax,
    _sigma2_legs,
    brute_force_max,
    conjunct,
    first_unphysical_n,
    greedy_extremal_growth,
)
from qmaplab.dynamics import rotate
from qmaplab.reduced import compat_slice_check
from qmaplab.slippage import max_safe_repetitions


def test_conjunct_uncorrelated_never_hazards():
    # with no correlation each leg contracts the (1, 2) plane, so magnitudes
    # never exceed the initial norm for any schedule
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.uniform(-1, 1, 3)
        a /= max(1.0, np.linalg.norm(a))  # physical input
        magnitudes, _ = conjunct(0.0, 0.0, a, rng.uniform(0, 6, 6))
        assert magnitudes.max() <= np.linalg.norm(a) + 1e-12


@pytest.mark.parametrize("q,s", [(0.5, 0.3), (math.pi / 4, 1.0), (1.2, 0.2)])
def test_conjunct_edge_state_formula(q, s):
    _, trajectory = conjunct(math.sin(q), 0.0, [0.0, math.cos(q), 0.0], (q, s))
    assert abs(trajectory[1][1] - (math.cos(s) + math.sin(q) * math.sin(s))) < 1e-12


def test_conjunct_edge_quarter_pi_is_unphysical_at_step_one():
    q = math.pi / 4
    magnitudes, trajectory = conjunct(math.sin(q), 0.0, [0.0, math.cos(q), 0.0], (q, math.pi / 4))
    expected = math.cos(math.pi / 4) + math.sin(q) * math.sin(math.pi / 4)
    assert abs(trajectory[1][1] - expected) < 1e-12
    assert expected > 1.2  # ~1.2071
    assert magnitudes[0] <= 1 + 1e-12 < 1.2 < magnitudes[1]


@pytest.mark.parametrize("seed", range(10))
def test_conjunct_single_leg_matches_exact_evolution(seed):
    # the hazard needs at least one reuse: the first leg alone is exact
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, 3)
    c1, c2 = rng.uniform(-1, 1, 2)
    t = float(rng.uniform(0, 6))
    _, trajectory = conjunct(c1, c2, a, [t])
    exact = rotate(a, c1, c2, t)[:3]
    assert np.abs(trajectory[0] - exact).max() < 1e-12


def test_sigma2_conjunction_reduces_at_s_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a2, c1, t = rng.uniform(-1, 1, 3)
        assert abs(
            _sigma2_legs(a2, c1, (t, 0.0)) - (a2 * math.cos(t) + c1 * math.sin(t))
        ) < 1e-15


@pytest.mark.parametrize("q", [0.3, math.pi / 4, 1.4])
def test_sigma2_conjunction_edge_identity(q):
    for s in np.linspace(0, math.pi, 25):
        got = _sigma2_legs(math.cos(q), math.sin(q), (q, float(s)))
        assert abs(got - (math.cos(s) + math.sin(q) * math.sin(s))) < 1e-12


def test_sigma2_conjunction_maximum_value():
    # at q = pi/2 the one-reuse maximum is sqrt(2), attained at s = pi/4
    q = math.pi / 2
    got = _sigma2_legs(math.cos(q), math.sin(q), (q, math.pi / 4))
    assert abs(got - math.sqrt(2)) < 1e-12


def test_sigma2_conjunction_agrees_with_conjunct_on_slice():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a2, c1 = rng.uniform(-1, 1, 2)
        t, s = rng.uniform(0, 6, 2)
        _, trajectory = conjunct(c1, 0.0, [0, a2, 0], (t, s))
        assert abs(trajectory[1][1] - _sigma2_legs(a2, c1, (t, s))) < 1e-12


@pytest.mark.parametrize("q", [0.2, math.pi / 6, math.pi / 4, math.pi / 3, 1.5])
def test_hazard_slope_matches_finite_difference(q):
    h = 1e-6
    a2, c1 = math.cos(q), math.sin(q)
    fd = (_sigma2_legs(a2, c1, (q, h)) - _sigma2_legs(a2, c1, (q, -h))) / (2 * h)
    assert abs(math.sin(q) - fd) < 1e-8
    assert fd > 0


def test_greedy_growth_magnitude_law():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a2, c1 = rng.uniform(-1, 1, 2)
        n = int(rng.integers(0, 8))
        mags, durations = greedy_extremal_growth(a2, c1, n)
        assert len(mags) == n + 1
        assert len(durations) == n + 1
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


@pytest.mark.parametrize("a2, c1", [(math.nan, 0.1), (math.inf, 0.1), (0.5, -math.inf)])
def test_greedy_growth_rejects_non_finite_inputs(a2, c1):
    # as brute_force_max and first_unphysical_n do, rather than return NaN
    # or inf magnitudes with made-up durations
    with pytest.raises(ValueError, match=r"(a2|c1) must be finite, got \1="):
        greedy_extremal_growth(a2, c1, 3)


@pytest.mark.parametrize("durations", [(), [], np.empty(0), 0.5, [[]]])
def test_conjunct_rejects_durations_without_a_leg_or_not_1d(durations):
    # "not 1-d" is the 0-d case, with no leg axis; empty is no leg, or legs
    # over no points.  Non-empty 2-D durations are columns, accepted below.
    with pytest.raises(ValueError, match="durations must be non-empty with a leading leg axis"):
        conjunct(0.2, 0.0, [0.0, 0.5, 0.0], durations)


def test_conjunct_over_columns_equals_per_column_calls_exactly():
    # durations (legs, points): each column is a schedule of its own, with
    # the bits of that schedule's 1-D call, signed zeros included
    rng = np.random.default_rng(29)
    a, (c1, c2) = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2)
    durations = rng.uniform(-10, 10, (4, 50))
    durations[1, :3] = 0.0, -0.0, math.pi
    magnitudes, trajectory = conjunct(c1, c2, a, durations)
    assert magnitudes.shape == (4, 50) and trajectory.shape == (4, 3, 50)
    for j in range(50):
        column_magnitudes, column_trajectory = conjunct(c1, c2, a, durations[:, j])
        assert magnitudes[:, j].tobytes() == column_magnitudes.tobytes()
        assert trajectory[:, :, j].tobytes() == column_trajectory.tobytes()
    # a first leg t shared by every reuse s, as a read-only broadcast view
    t, s = 0.7, durations[0]
    magnitudes, trajectory = conjunct(c1, c2, a, np.broadcast_arrays(t, s))
    for j in range(50):
        column_magnitudes, column_trajectory = conjunct(c1, c2, a, (t, s[j]))
        assert magnitudes[:, j].tobytes() == column_magnitudes.tobytes()
        assert trajectory[:, :, j].tobytes() == column_trajectory.tobytes()


def test_greedy_schedule_actually_attains_magnitudes():
    # replay the returned worst-case schedule through the conjunction engine
    rng = np.random.default_rng(6)
    for _ in range(10):
        a2, c1 = rng.uniform(-1, 1, 2)
        mags, durations = greedy_extremal_growth(a2, c1, 4)
        magnitudes, _ = conjunct(c1, 0.0, [0, a2, 0], durations)
        assert np.abs(magnitudes - mags).max() < 1e-12


def _greedy_legs(a2: float, c1: float):
    """Reference for `_greedy_rows`: the greedy recurrence leg by leg,
    without end, as (duration, magnitude after the leg).  The running value
    v goes to hypot(v, c1) at the duration atan2(c1, v), folded into
    [0, 2 pi); its rounding error grows with the number of legs."""
    v = float(a2)
    while True:
        step, v = math.atan2(c1, v) % (2 * math.pi), math.hypot(v, c1)
        yield step, v


def _recurrence(a2: float, c1: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Durations and magnitudes of legs 0..n by `_greedy_legs`."""
    return tuple(map(np.array, zip(*itertools.islice(_greedy_legs(a2, c1), n + 1))))


def _ulps(got, want) -> np.ndarray:
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))


def test_closed_form_growth_within_a_few_ulps_of_the_recurrence():
    rng = np.random.default_rng(47)
    for a2, c1 in rng.uniform(-1, 1, (100, 2)).tolist():
        n = int(rng.integers(0, 65))
        magnitudes, durations = greedy_extremal_growth(a2, c1, n)
        reference_durations, reference = _recurrence(a2, c1, n)
        assert _ulps(magnitudes, reference).max() <= 8
        assert _ulps(durations, reference_durations).max() <= 8


def test_closed_form_has_the_bits_of_the_unscaled_expression():
    """Scaling by a power of two rounds exactly: on the bundled growth state
    and on seeded draws whose squares stay normal, the closed form is the
    plain expression bit for bit."""
    with open(os.path.join(os.path.dirname(__file__), "..", "scenarios", "growth.json")) as fh:
        sc = json.load(fh)
    rng = np.random.default_rng(48)
    draws = rng.uniform(-1, 1, (200, 2)) * 10.0 ** rng.integers(-50, 51, (200, 2))
    for a2, c1, n in [(sc["state"]["a"][1], sc["state"]["c1"], sc["n"]),
                      *((a2, c1, 64) for a2, c1 in draws.tolist())]:
        k = np.arange(n + 1)
        plain = np.sqrt(a2 * a2 + (k + 1) * (c1 * c1))
        durations = np.arctan2(c1, np.concatenate(([a2], plain[:-1]))) % (2 * math.pi)
        magnitudes, got = greedy_extremal_growth(a2, c1, n)
        assert magnitudes.tobytes() == plain.tobytes()
        assert got.tobytes() == durations.tobytes()


@pytest.mark.parametrize("a2, c1, n", [(0.6, 0.2, 2 * 10**6), (-0.3, 0.05, 10**6),
                                       (0.9, 1e-4, 10**6)])
def test_closed_form_magnitude_within_one_ulp_of_exact_at_a_million_legs(a2, c1, n):
    # the recurrence's k = n magnitude is off by about 390, 176 and 2.6 ulps here
    magnitude = float(_greedy_rows(a2, c1, np.arange(n + 1))[1][-1])
    exact_sq = Fraction(a2) ** 2 + (n + 1) * Fraction(c1) ** 2
    m, ulp = Fraction(magnitude), Fraction(math.ulp(magnitude))
    assert (m - ulp) ** 2 < exact_sq < (m + ulp) ** 2


@pytest.mark.parametrize("a2, c1, n", [(1e-200, 1e-200, 3), (-3e-170, 0.0, 1)])
def test_closed_form_does_not_underflow(a2, c1, n):
    # unscaled, a2 * a2 and c1 * c1 underflow and every magnitude reads 0
    assert not np.sqrt(a2 * a2 + (np.arange(n + 1) + 1) * (c1 * c1)).any()
    magnitudes, durations = greedy_extremal_growth(a2, c1, n)
    reference_durations, reference = _recurrence(a2, c1, n)
    assert magnitudes.all()
    assert _ulps(magnitudes, reference).max() <= 1
    assert _ulps(durations, reference_durations).max() <= 1


def test_zero_correlation_keeps_a_negative_first_leg_at_pi():
    # atan2(0, a2) = pi for a2 < 0, then atan2(0, |a2|) = 0 on every later leg
    magnitudes, durations = greedy_extremal_growth(-0.5, 0.0, 3)
    assert durations.tolist() == [math.pi, 0.0, 0.0, 0.0]
    assert magnitudes.tolist() == [0.5] * 4


def test_brute_force_examples():
    assert abs(brute_force_max(0.6, 0.2, 0) - math.sqrt(0.40)) < 1e-6
    assert abs(brute_force_max(0.6, 0.2, 2, grid_points=64) - math.sqrt(0.48)) < 1e-6
    assert abs(brute_force_max(0.8, 0.0, 2, grid_points=64) - 0.8) < 1e-6


@pytest.mark.parametrize("grid_points", [64.5, 100.0, True])
def test_brute_force_rejects_a_grid_size_that_is_not_an_integer(grid_points):
    # 64.5 would build 65 angles spaced 2 pi / 64.5
    with pytest.raises(ValueError, match="grid_points must be an integer"):
        brute_force_max(0.5, 0.1, 1, grid_points=grid_points)


def test_brute_force_takes_a_numpy_integer_grid_size():
    assert brute_force_max(0.5, 0.1, 1, grid_points=np.int64(64)) == brute_force_max(
        0.5, 0.1, 1, grid_points=64)


def test_brute_force_argument_errors():
    with pytest.raises(ValueError):
        brute_force_max(0.5, 0.1, 4)
    with pytest.raises(ValueError):
        brute_force_max(0.5, 0.1, -1)
    with pytest.raises(ValueError, match="grid_points must be >= 64, got grid_points=32"):
        brute_force_max(0.5, 0.1, 1, grid_points=32)


@pytest.mark.parametrize("n", [1.5, 2.0, True, np.True_, np.array([1.0, 2.0]),
                               np.array([True, False]), np.array([1, 2]), "2"])
def test_non_integer_n_raises(n):
    # n is one integer per call, shared by every point
    with pytest.raises(ValueError, match="n must be an integer, got n="):
        brute_force_max(0.5, 0.1, n, grid_points=64)
    with pytest.raises(ValueError, match="n must be an integer, got n="):
        greedy_extremal_growth(0.5, 0.1, n)


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
    """Per point, the pass brute_force_max runs from grid legs: leg i in
    turn moves to the first largest |value| of four abscissae, the extremes
    atan2(c1, head) and half a turn on of u = head cos x + c1 sin x (each on
    the turn nearest the leg, clipped into its bracket), then the bracket's
    two ends."""
    h = 2 * math.pi / grid_points
    legs = [j * h for j in idx]
    for i, g in enumerate(legs):
        peak = np.arctan2(c1, _sigma2_legs(a2, c1, legs[:i]))
        nearest = [g + np.remainder(x - g + math.pi, 2 * math.pi) - math.pi
                   for x in (peak, peak + math.pi)]
        candidates = [min(max(x, g - h), g + h) for x in nearest] + [g - h, g + h]

        def value(x, i=i):
            return abs(_sigma2_legs(a2, c1, [*legs[:i], x, *legs[i + 1:]]))

        legs[i] = max(candidates, key=value)  # max keeps the first largest
    return abs(_sigma2_legs(a2, c1, legs))


# c1 = 0, a2 = 0 and |a2| = 1 first, then 300 seeded pairs
_PAIRS = [(0.0, 0.5), (0.6, 0.0), (0.0, 0.0), (1.0, 0.3), (-1.0, -0.7), (1.0, 0.0)] + [
    tuple(p) for p in np.random.default_rng(2024).uniform(-1, 1, (300, 2)).tolist()]


@pytest.mark.parametrize("n,grid_points",
                         [(0, 64), (1, 64), (2, 64), (3, 64), (0, 128), (1, 128), (2, 128)])
def test_envelope_equals_enumeration_exactly(n, grid_points):
    # enumerating 64^4 schedules takes about 50 ms a pair, so n = 3 runs the
    # first 56 pairs; the returned values are compared on the first 12
    pairs = _PAIRS if n < 3 else _PAIRS[:56]
    best, idx = _grid_argmax(*np.array(pairs).T, n, grid_points)  # one call for every pair
    assert idx.shape == (n + 1, len(pairs))
    for k, (a2, c1) in enumerate(pairs):
        expected = _enumerated_grid_argmax(a2, c1, n, grid_points)
        assert (float(best[k]), tuple(idx[:, k].tolist())) == expected, (a2, c1)
        if k < 12:
            value = brute_force_max(a2, c1, n, grid_points)
            assert value == _refined(a2, c1, expected[1], grid_points), (a2, c1)


@pytest.mark.parametrize("grid_points", [64, 128])
def test_batch_brute_force_equals_per_point_calls(grid_points):
    # the edge pairs (c1 = 0, a2 = 0, |a2| = 1), 10 seeded pairs, then the
    # signed zeros c1 = -0.0 and a2 = -0.0
    pairs = _PAIRS[:16] + [(-0.0, 0.4), (0.6, -0.0), (-0.0, -0.0), (-1.0, -0.0)]
    a2, c1 = np.array(pairs).T
    for n in range(4):
        batch = brute_force_max(a2, c1, n, grid_points)  # one call for every pair
        assert batch.shape == a2.shape
        for k, (a, c) in enumerate(pairs):
            expected = _refined(a, c, _grid_argmax(a, c, n, grid_points)[1][:, 0], grid_points)
            assert batch[k] == expected, (n, a, c)
            if k % 4 == 0:
                assert brute_force_max(a, c, n, grid_points) == expected
    # a2 and c1 broadcast: a (2, 1) column against a row of three
    grid = brute_force_max(a2[:2, None], c1[None, 3:6], 1, grid_points)
    assert grid.shape == (2, 3)
    assert grid[1, 2] == brute_force_max(a2[1], c1[5], 1, grid_points)


@pytest.mark.parametrize("grid_points", [64, 128])
def test_brute_force_within_two_ulps_of_greedy(grid_points):
    a2, c1 = np.array(_PAIRS).T
    for n in range(4):
        greedy = _greedy_rows(a2, c1, n)[1]
        gap = np.abs(brute_force_max(a2, c1, n, grid_points) - greedy)
        assert np.all(gap <= 2 * np.spacing(greedy)), (n, gap.max())


def test_brute_force_stays_on_the_grid_bracket(monkeypatch):
    # grid legs a quarter turn off: each leg moves at most one spacing, so
    # the check fails.  An unbracketed exact step would pass here, as one
    # such pass is the greedy construction whatever grid it starts from
    grid_argmax = conjunction._grid_argmax

    def quarter_turn_off(a2, c1, n, grid_points):
        best, idx = grid_argmax(a2, c1, n, grid_points)
        return best, (idx + grid_points // 4) % grid_points

    monkeypatch.setattr(conjunction, "_grid_argmax", quarter_turn_off)
    pairs = np.random.default_rng(0).uniform(-1, 1, (4, 5, 2))
    _, _, worst, bound = checks.greedy_vs_brute_force(pairs, grid_points=64)
    assert worst > bound, worst


def test_empty_batches_give_empty_results():
    assert brute_force_max(np.zeros(0), np.zeros(0), 2, grid_points=64).shape == (0,)
    _, _, worst, _ = checks.greedy_vs_brute_force(np.zeros((4, 0, 2)), grid_points=64)
    assert worst == 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_growth_check_counts_every_draw(monkeypatch, n):
    # a brute-force answer off by 1e-3 at the last draw for n reuses
    calls = []

    def off_at_last(a2, c1, m, grid_points):
        calls.append((a2, c1, m))
        values = brute_force_max(a2, c1, m, grid_points)
        if m == n:
            values[-1] += 1e-3
        return values

    monkeypatch.setattr(checks, "brute_force_max", off_at_last)
    pairs = np.random.default_rng(5).uniform(-1, 1, (4, 3, 2))
    _, _, worst, bound = checks.greedy_vs_brute_force(pairs, grid_points=64)
    assert abs(worst - 1e-3) < 1e-9 and worst > bound
    # one call for each number of reuses m, on row m of the pairs
    assert len(calls) == 4
    for row, (a2, c1, m) in enumerate(calls):
        assert np.array_equal(a2, pairs[row, :, 0]) and np.array_equal(c1, pairs[row, :, 1])
        assert m == row and type(m) is int


def test_batched_brute_force_checks_every_element():
    a2 = np.array([0.1, 0.2, 0.3, 0.4])
    c1 = np.array([0.5, 0.5, math.inf, 0.5])
    with pytest.raises(ValueError, match=r"c1 must be finite, got c1=inf"):
        brute_force_max(a2, c1, 1, grid_points=64)
    with pytest.raises(ValueError, match="a2=nan"):
        brute_force_max([0.1, math.nan], 0.2, 0, grid_points=64)


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
        assert k >= 1 or compat_slice_check(a2, c1) < 0
        if k >= 1:
            assert compat_slice_check(float(mags[k - 1]), c1) < 0


def _rotate_fold(a2, c1, durations):
    """`_sigma2_legs` as it was: all five components of `rotate` per leg,
    the second one kept."""
    v = a2
    for s in durations:
        v = rotate((0.0, v, 0.0), c1, 0.0, s)[1]
    return v


def test_broadcast_forms_equal_scalar_closed_forms_exactly():
    rng = np.random.default_rng(23)
    a2, c1 = rng.uniform(-1, 1, (2, 300))
    t, s = rng.uniform(-10, 10, (2, 300))
    conj = _sigma2_legs(a2, c1, (t, s))
    frozen_c1, frozen_c2, a = 0.3, -0.7, [0.2, -0.5, 0.4]
    applied = conjunct(frozen_c1, frozen_c2, a, [s])[1][0]
    for k in range(300):
        x2, y1, tk, sk = float(a2[k]), float(c1[k]), float(t[k]), float(s[k])
        fold = (x2 * math.cos(tk) + y1 * math.sin(tk)) * math.cos(sk) + y1 * math.sin(sk)
        assert float(conj[k]) == fold == _sigma2_legs(x2, y1, (tk, sk))
        assert _sigma2_legs(x2, y1, [tk, sk]) == fold
        assert applied[:, k].tolist() == conjunct(frozen_c1, frozen_c2, a, [sk])[1][0].tolist()
        assert applied[:, k].tolist() == [a[0] * math.cos(sk) - frozen_c2 * math.sin(sk),
                                          a[1] * math.cos(sk) + frozen_c1 * math.sin(sk), a[2]]
    # the leg fold, bit for bit with signed zeros: seeded values, then every
    # edge of v = +-0, c1 = +-0 and s in {0, -0, pi}, then a broadcast grid
    edges = np.array(list(itertools.product(
        (0.0, -0.0, 0.7), (0.0, -0.0, -0.4), (0.0, -0.0, math.pi), (0.0, -0.0, math.pi)))).T
    x2, y1, tk, sk = (np.concatenate(pair) for pair in zip((a2, c1, t, s), edges))
    for args in ((x2, y1, [tk, sk]), (x2, y1, [sk, tk, sk]),
                 (a2[:, None], c1[:7], [t[:7], s[:, None]]), (-0.0, -0.0, [0.0, -0.0])):
        folded, reference = _sigma2_legs(*args), _rotate_fold(*args)
        assert np.shape(folded) == np.shape(reference)
        assert np.asarray(folded).tobytes() == np.asarray(reference).tobytes()
    assert np.signbit(_sigma2_legs(x2, y1, [tk, sk])).sum() > 0
