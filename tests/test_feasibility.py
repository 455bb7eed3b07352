"""Feasibility oracle: closed-form witness, dual certificate, verdicts."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qmaplab.feasibility import (
    dual_certificate,
    feasibility_search,
    is_compatible_oracle,
)
from qmaplab.pauli import TwoQubitState, density_from_params, min_eigenvalue, params_from_density
from qmaplab.reduced import in_compatibility_domain, sup_norm_over_time


def _free_components(state: TwoQubitState) -> np.ndarray:
    """The 10 parameters an extension of (a, c1, c2) may choose freely."""
    return np.concatenate((state.b, state.T[:, 1:].ravel(), state.T[2:, 0]))


def _random_extension(a, c1: float, c2: float, rng) -> TwoQubitState:
    T = rng.uniform(-1, 1, (3, 3))
    T[0, 0], T[1, 0] = c1, c2
    return TwoQubitState(a=a, b=rng.uniform(-1, 1, 3), T=T)


def _check_certificates(a, c1: float, c2: float, rng) -> tuple[float, float]:
    """Assert every certificate property at one point; returns the optimal
    value and the weight w_+ of the witness's E1 = +1 block."""
    a = np.asarray(a, dtype=float)
    value, witness = feasibility_search(a, c1, c2)
    # the witness carries exactly the requested values, also after read-back
    assert np.array_equal(witness.a, a)
    assert witness.T[0, 0] == c1 and witness.T[1, 0] == c2
    rho = density_from_params(witness)
    back = params_from_density(rho)
    assert np.abs(back.a - a).max() < 1e-12
    assert abs(back.T[0, 0] - c1) < 1e-12 and abs(back.T[1, 0] - c2) < 1e-12
    assert value == min_eigenvalue(rho)
    sup, _ = sup_norm_over_time(c1, c2, a)
    assert abs(value - (1.0 - sup) / 4.0) < 1e-14
    # the dual: PSD, unit trace, blind to every free parameter, and tight
    w = dual_certificate(a, c1, c2)
    assert np.linalg.eigvalsh(w)[0] >= -1e-12
    assert abs(np.trace(w) - 1.0) < 1e-15
    assert np.abs(_free_components(params_from_density(w))).max() < 1e-15
    bound = np.trace(w @ rho).real
    assert abs(bound - value) < 1e-14
    for _ in range(3):
        other = density_from_params(_random_extension(a, c1, c2, rng))
        assert abs(np.trace(w @ other).real - bound) < 1e-14
        assert min_eigenvalue(other) <= bound + 1e-14
    return value, 0.5 * (1.0 + witness.b[0])


def test_certificates_on_random_points():
    rng = np.random.default_rng(2024)
    weights_outside = 0
    for _ in range(300):
        a = rng.uniform(-1, 1, 3)
        c1, c2 = rng.uniform(-1, 1, 2)
        _, w_plus = _check_certificates(a, float(c1), float(c2), rng)
        weights_outside += not 0.0 <= w_plus <= 1.0
    assert weights_outside > 0  # the property also ran where the weights leave [0, 1]


@pytest.mark.parametrize(
    "a,c1,c2,inside",
    [
        ([0.0, 0.0, 0.0], 0.0, 0.0, True),  # a = c = 0
        ([0.3, -0.4, 0.2], 0.3, -0.4, True),  # a_xy = c: x_- = 0
        ([0.3, -0.4, 0.2], -0.3, 0.4, True),  # a_xy = -c: x_+ = 0
        ([0.0, 0.0, 0.6], 0.0, 0.0, True),  # a_xy = c = 0, a3 != 0: equal split
        ([0.0, 0.0, 1.0], 1.0, 0.0, False),  # pure marginal admits no correlation
        ([0.9, 0.9, 0.0], 0.9, 0.9, False),  # w_+ = 1.14 leaves [0, 1]
    ],
)
def test_certificates_on_degenerate_points(a, c1, c2, inside):
    value, _ = _check_certificates(a, c1, c2, np.random.default_rng(0))
    assert (value >= 0.0) == inside
    assert is_compatible_oracle(a, c1, c2).inside == inside


def test_near_boundary_general_point_is_inside():
    # analytic margin +1.12e-3, just outside the 1e-3 boundary band
    a = [0.7683186382780032, 0.3679800269685993, 0.3038548700804089]
    c1, c2 = 0.8188895047216136, 0.46586291474432473
    verdict = is_compatible_oracle(a, c1, c2)
    assert verdict.inside
    analytic = in_compatibility_domain(c1, c2, a)
    assert analytic.margin > 1e-3
    assert abs(4.0 * verdict.margin - analytic.margin) < 1e-14


def test_maximally_mixed_point():
    best, witness = feasibility_search([0, 0, 0], 0.0, 0.0)
    assert abs(best - 0.25) < 1e-9
    assert np.abs(witness.a).max() < 1e-6
    assert np.abs(witness.T[0, 0]) == 0.0


def test_boundary_point_is_feasible():
    best, witness = feasibility_search([0, 0.6, 0], 0.8, 0.0)
    assert best >= -1e-9
    # the witness really carries the requested values
    assert abs(witness.a[1] - 0.6) < 1e-12
    assert witness.T[0, 0] == 0.8


def test_outside_slice_point_is_infeasible():
    best, _ = feasibility_search([0, 0.9, 0], 0.6, 0.0)
    assert best < -1e-4
    assert abs(best - (1 - math.sqrt(1.17)) / 4) < 1e-15


def test_pure_marginal_admits_no_correlation():
    best, _ = feasibility_search([0, 0, 1], 1.0, 0.0)
    assert best < -1e-4


def test_oracle_verdict_examples():
    assert is_compatible_oracle([0, 0.6, 0], 0.8, 0.0).inside
    v = is_compatible_oracle([0, 0.9, 0], 0.6, 0.0)
    assert not v.inside and v.margin < 0
    with pytest.raises(ValueError):
        is_compatible_oracle([0, 0, 0], 0.0, 0.0, tol=-1.0)


def test_search_is_deterministic():
    best1, w1 = feasibility_search([0.1, 0.4, -0.2], 0.3, -0.1)
    best2, w2 = feasibility_search([0.1, 0.4, -0.2], 0.3, -0.1)
    assert best1 == best2
    assert np.array_equal(w1.b, w2.b)
    assert np.array_equal(w1.T, w2.T)


@pytest.mark.parametrize("seed", range(8))
def test_witness_soundness_on_feasible_points(seed):
    # sample inside the slice disc, where a witness must exist
    rng = np.random.default_rng(seed)
    r = math.sqrt(rng.uniform(0, 0.9))
    theta = rng.uniform(0, 2 * math.pi)
    a2, c1 = r * math.cos(theta), r * math.sin(theta)
    best, witness = feasibility_search([0, a2, 0], c1, 0.0)
    assert best >= -1e-9
    rho = density_from_params(witness)
    assert min_eigenvalue(rho) >= -1e-9
    assert abs(min_eigenvalue(rho) - best) < 1e-12
    assert abs(witness.a[1] - a2) < 1e-10
    assert abs(witness.T[0, 0] - c1) < 1e-10
