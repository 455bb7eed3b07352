"""Slipped initial conditions: admissible regions and radial projection."""
from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from qmaplab.conjunction import _greedy_rows, conjunct, first_unphysical_n
from qmaplab.reduced import compat_slice_check
from qmaplab.slippage import max_safe_repetitions, slip_state, slipped_domain_check
from qmaplab.tolerances import DEFAULT_TOL, inside


def test_slipped_domain_examples():
    assert inside(slipped_domain_check(0.9, 0.3, 1), DEFAULT_TOL)  # 0.81 + 2*0.09 = 0.99
    assert not inside(slipped_domain_check(0.9, 0.3, 2), DEFAULT_TOL)  # 0.81 + 3*0.09 = 1.08
    for a2 in np.linspace(-1, 1, 9):
        assert inside(slipped_domain_check(float(a2), 0.0, 7), DEFAULT_TOL)


def test_slipped_domain_margin_formula():
    margin = slipped_domain_check(0.5, 0.2, 3)
    assert abs(margin - (1 - math.sqrt(0.25 + 4 * 0.04))) < 1e-12


def test_slipped_margin_does_not_rise_with_n():
    """slipped_domain_check(a2, c1, n) is non-increasing in n, exactly.

    The margin is 1 - sqrt(fl(fl(a2 a2) + fl((n + 1) fl(c1 c1)))).  n + 1
    converts to float exactly, and fl(c1 c1) >= 0, so the exact product
    does not fall as n grows.  Rounding is monotone, so neither does its
    rounded value, the rounded sum or sqrt, and 1 - x reverses the order:
    a larger n never gives a larger margin.
    """
    a2, c1 = np.random.default_rng(37).uniform(-1, 1, (2, 5000, 1))
    margins = slipped_domain_check(a2, c1, np.arange(1, 40))
    assert margins.shape == (5000, 39)
    assert np.all(np.diff(margins, axis=1) <= 0.0)


def test_slipped_domain_rejects_small_n():
    with pytest.raises(ValueError):
        slipped_domain_check(0.5, 0.2, 0)
    for bad in (1.5, True, np.array([1.0, 2.0]), "2"):
        for call in (lambda: slipped_domain_check(0.5, 0.2, bad),
                     lambda: slip_state(0.5, 0.2, bad)):
            with pytest.raises(ValueError, match="n must be an integer, got n="):
                call()
    assert inside(slipped_domain_check(0.0, 1e-12, 2**64), DEFAULT_TOL)  # any Python int
    # integer arrays broadcast, as the slippage command's n grid does
    # and so do nested lists
    for n in (np.array([[1], [3]]), [[1], [3]]):
        assert inside(slipped_domain_check(0.9, 0.3, n), DEFAULT_TOL).tolist() == [[True], [False]]
        assert slip_state(0.9, 0.3, n).tolist() == [[0.9], [math.sqrt(1 - 4 * 0.09)]]


def _near_boundary_draws(seed: int, size: int):
    """Slice states (a2, c1, n) with a2^2 + (n+1) c1^2 within a few ulps of
    1, then rows with c1 = 0 and with |a2| = 1."""
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 40, size)
    a2 = rng.uniform(-1, 1, size)
    c1 = np.sqrt((1 - a2 * a2) / (n + 1)) * (1 + rng.integers(-8, 9, size) * 2.0**-52)
    c1 *= rng.choice([-1.0, 1.0], size)
    c1[:100] = 0.0
    a2[100:200] = rng.choice([-1.0, 1.0], 100)
    c1[100:150] = 0.0
    return a2, c1, n


@pytest.mark.parametrize("seed", range(3))
def test_slice_margins_are_one_minus_the_greedy_magnitudes_bit_for_bit(seed):
    # one slice law: the slipped margin at n is 1 - growth row n and the
    # compatibility margin 1 - row 0, so at tol 0 a state is inside exactly
    # where its growth row does not exceed 1
    a2, c1, n = _near_boundary_draws(seed, 20_000)
    for margin, rows in ((slipped_domain_check(a2, c1, n), n), (compat_slice_check(a2, c1), 0)):
        magnitudes = _greedy_rows(a2, c1, rows)[1]
        assert np.array_equal(margin, 1.0 - magnitudes)
        assert np.array_equal(inside(margin, 0.0), ~(magnitudes > 1.0))
    # a scalar call gives the bits of the batch
    for k in range(0, 20_000, 997):
        x, y, m = float(a2[k]), float(c1[k]), int(n[k])
        assert slipped_domain_check(x, y, m) == 1.0 - _greedy_rows(x, y, m)[1]
        assert compat_slice_check(x, y) == 1.0 - _greedy_rows(x, y, 0)[1]


def test_slice_margins_past_the_float_range_raise():
    # a square overflows above about 1.3e154, in a2 or c1: ValueError, as in
    # `in_compatibility_domain`, not a RuntimeWarning (an error under the
    # suite's warning filter) and margin -inf
    for a2, c1 in ((2e154, 0.1), (0.1, 2e154), (-2e154, 0.0)):
        for call in (compat_slice_check, partial(slipped_domain_check, n=1),
                     partial(slip_state, n=1)):
            with pytest.raises(ValueError, match="the supremum overflows"):
                call(a2, c1)
    # 9e153 does not: 2 (9e153)^2 is below the float maximum
    assert compat_slice_check(9e153, 0.0) == pytest.approx(-9e153, rel=1e-15)
    assert slipped_domain_check(0.0, 9e153, 1) == pytest.approx(-math.sqrt(2) * 9e153, rel=1e-15)


def test_max_safe_known_cases():
    assert max_safe_repetitions(0.9, 0.3) == 1
    assert max_safe_repetitions(0.6, 0.2) == 15
    assert max_safe_repetitions(0.5, 0.0) == math.inf
    # edge state: even one reuse fails
    q = 0.8
    assert max_safe_repetitions(math.cos(q), math.sin(q)) is None


def test_a_state_already_outside_fails_at_no_reuse():
    # a2^2 + c1^2 = 1.62: the first leg alone leaves the ball, so n = 0
    assert first_unphysical_n(0.9, 0.9) == 0
    assert max_safe_repetitions(0.9, 0.9) is None


@pytest.mark.parametrize("seed", range(15))
def test_max_safe_consistent_with_first_unphysical(seed):
    rng = np.random.default_rng(seed)
    a2 = float(rng.uniform(-1, 1))
    c1 = float(rng.uniform(0.02, 1))
    first = first_unphysical_n(a2, c1)
    safe = max_safe_repetitions(a2, c1)
    if safe is None:
        assert first <= 1
    else:
        assert safe == first - 1


def test_slip_state_projection_example():
    assert abs(slip_state(0.9, 0.3, 2) - math.sqrt(0.73)) < 1e-12


def test_slip_state_keeps_safe_input():
    a2 = np.array([0.5, -0.5, 0.0])
    assert np.array_equal(slip_state(a2, 0.2, 2), a2)


def test_slip_state_idempotent_and_sign_preserving():
    rng = np.random.default_rng(21)
    for _ in range(30):
        a2 = float(rng.uniform(-1, 1))
        c1 = float(rng.uniform(0, 1))
        n = int(rng.integers(1, 6))
        once = slip_state(a2, c1, n)
        twice = slip_state(once, c1, n)
        assert once == twice
        if (n + 1) * c1 * c1 <= 1.0:
            assert slipped_domain_check(float(once), c1, n) >= -1e-12
        else:
            # no a2 is safe once the correlation alone overruns the budget;
            # the projection bottoms out at the depolarized slice
            assert once == 0.0
        if once != 0.0:
            assert math.copysign(1, once) == math.copysign(1, a2)


def test_slip_state_clamps_to_zero():
    assert slip_state(0.9, 0.8, 2) == 0.0  # 3 * 0.64 > 1: only a2 = 0 survives


def test_slipped_domain_check_takes_a_list_of_a2():
    margin = slipped_domain_check([0.5, 0.6], 0.2, 1)  # 0.25 + 0.08 and 0.36 + 0.08
    assert inside(margin, DEFAULT_TOL).tolist() == [True, True]
    assert margin.tolist() == slipped_domain_check(np.array([0.5, 0.6]), 0.2, 1).tolist()


def test_slip_state_takes_a_list_of_a2():
    # 0.25 + 6 * 0.04 stays inside; 0.81 + 6 * 0.04 does not
    assert slip_state([0.5, 0.9], 0.2, 5).tolist() == [0.5, math.sqrt(1.0 - 6 * 0.2 * 0.2)]


def test_slippage_takes_a_list_of_c1():
    assert inside(slipped_domain_check(0.5, [0.2, 0.9], 1), DEFAULT_TOL).tolist() == [True, False]
    assert slip_state(0.5, [0.2, 0.9], 1).tolist() == [0.5, 0.0]  # 2 * 0.81 > 1


def test_slip_state_rejects_off_slice_and_bad_n():
    with pytest.raises(ValueError):
        slip_state(0.5, 0.3, 0)


def _worst_case_durations(a2: float, c1: float, n: int) -> list[float]:
    durations = []
    v = a2
    for _ in range(n + 1):
        durations.append(math.atan2(c1, v))
        v = math.hypot(v, c1)
    return durations


@pytest.mark.parametrize("seed", range(10))
def test_safety_under_worst_case_and_random_schedules(seed):
    # states passing the n-reuse check stay inside the ball for the greedy
    # worst case and for 1000 random schedules each (1e4 random total)
    rng = np.random.default_rng(seed)
    while True:
        a2 = float(rng.uniform(-1, 1))
        c1 = float(rng.uniform(0, 0.7))
        n = int(rng.integers(1, 5))
        if inside(slipped_domain_check(a2, c1, n), DEFAULT_TOL):
            break
    worst, _ = conjunct(c1, 0.0, [0, a2, 0], _worst_case_durations(a2, c1, n))
    assert worst.max() <= 1 + 1e-9

    for _ in range(1000):
        durations = rng.uniform(0, 2 * math.pi, n + 1)
        magnitudes, _ = conjunct(c1, 0.0, [0, a2, 0], durations)
        assert magnitudes.max() <= 1 + 1e-9

