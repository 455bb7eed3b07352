"""Slipped initial conditions: admissible regions and radial projection."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qmaplab.conjunction import ConjunctionSchedule, conjunct, first_unphysical_n
from qmaplab.slippage import max_safe_repetitions, slip_state, slipped_domain_check


def test_slipped_domain_examples():
    assert slipped_domain_check(0.9, 0.3, 1).inside  # 0.81 + 2*0.09 = 0.99
    assert not slipped_domain_check(0.9, 0.3, 2).inside  # 0.81 + 3*0.09 = 1.08
    for a2 in np.linspace(-1, 1, 9):
        assert slipped_domain_check(float(a2), 0.0, 7).inside


def test_slipped_domain_margin_formula():
    v = slipped_domain_check(0.5, 0.2, 3)
    assert abs(v.margin - (1 - math.sqrt(0.25 + 4 * 0.04))) < 1e-12


def test_slipped_domain_rejects_small_n():
    with pytest.raises(ValueError):
        slipped_domain_check(0.5, 0.2, 0)
    for bad in (1.5, True, np.array([1.0, 2.0]), "2"):
        for call in (lambda: slipped_domain_check(0.5, 0.2, bad),
                     lambda: slip_state(0.5, 0.2, bad)):
            with pytest.raises(ValueError, match="n must be an integer, got n="):
                call()
    assert slipped_domain_check(0.0, 1e-12, 2**64).inside  # any Python int
    # integer arrays broadcast, as the slippage command's n grid does
    # and so do nested lists
    for n in (np.array([[1], [3]]), [[1], [3]]):
        assert slipped_domain_check(0.9, 0.3, n).inside.tolist() == [[True], [False]]
        assert slip_state(0.9, 0.3, n).tolist() == [[0.9], [math.sqrt(1 - 4 * 0.09)]]


def test_max_safe_known_cases():
    assert max_safe_repetitions(0.9, 0.3) == 1
    assert max_safe_repetitions(0.6, 0.2) == 15
    assert max_safe_repetitions(0.5, 0.0) == math.inf
    # edge state: even one reuse fails
    q = 0.8
    assert max_safe_repetitions(math.cos(q), math.sin(q)) is None


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
            assert slipped_domain_check(float(once), c1, n).margin >= -1e-12
        else:
            # no a2 is safe once the correlation alone overruns the budget;
            # the projection bottoms out at the depolarized slice
            assert once == 0.0
        if once != 0.0:
            assert math.copysign(1, once) == math.copysign(1, a2)


def test_slip_state_clamps_to_zero():
    assert slip_state(0.9, 0.8, 2) == 0.0  # 3 * 0.64 > 1: only a2 = 0 survives


def test_slipped_domain_check_takes_a_list_of_a2():
    verdict = slipped_domain_check([0.5, 0.6], 0.2, 1)  # 0.25 + 0.08 and 0.36 + 0.08
    assert verdict.inside.tolist() == [True, True]
    assert verdict.margin.tolist() == slipped_domain_check(np.array([0.5, 0.6]), 0.2, 1).margin.tolist()


def test_slip_state_takes_a_list_of_a2():
    # 0.25 + 6 * 0.04 stays inside; 0.81 + 6 * 0.04 does not
    assert slip_state([0.5, 0.9], 0.2, 5).tolist() == [0.5, math.sqrt(1.0 - 6 * 0.2 * 0.2)]


def test_slippage_takes_a_list_of_c1():
    assert slipped_domain_check(0.5, [0.2, 0.9], 1).inside.tolist() == [True, False]
    assert slip_state(0.5, [0.2, 0.9], 1).tolist() == [0.5, 0.0]  # 2 * 0.81 > 1


def test_slip_state_rejects_off_slice_and_bad_n():
    with pytest.raises(ValueError):
        slip_state(0.5, 0.3, 0)


def _worst_case_schedule(a2: float, c1: float, n: int) -> ConjunctionSchedule:
    durations = []
    v = a2
    for _ in range(n + 1):
        durations.append(math.atan2(c1, v))
        v = math.hypot(v, c1)
    return ConjunctionSchedule(t=durations[0], steps=tuple(durations[1:]))


@pytest.mark.parametrize("seed", range(10))
def test_safety_under_worst_case_and_random_schedules(seed):
    # states passing the n-reuse check stay inside the ball for the greedy
    # worst case and for 1000 random schedules each (1e4 random total)
    rng = np.random.default_rng(seed)
    while True:
        a2 = float(rng.uniform(-1, 1))
        c1 = float(rng.uniform(0, 0.7))
        n = int(rng.integers(1, 5))
        if slipped_domain_check(a2, c1, n).inside:
            break
    worst = conjunct(c1, 0.0, [0, a2, 0], _worst_case_schedule(a2, c1, n))
    assert worst.magnitudes.max() <= 1 + 1e-9

    for _ in range(1000):
        durations = rng.uniform(0, 2 * math.pi, n + 1)
        report = conjunct(c1, 0.0, [0, a2, 0], ConjunctionSchedule(t=durations[0], steps=tuple(durations[1:])))
        assert report.magnitudes.max() <= 1 + 1e-9

