"""Reduced-map application and the positivity/compatibility domain verdicts."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qmaplab.reduced import (
    ReducedMap,
    compat_slice_check,
    in_compatibility_domain,
    sup_norm_grid,
    sup_norm_over_time,
)


def test_apply_identity_at_t_zero():
    m = ReducedMap(c1=0.4, c2=-0.2, t=0.0)
    a = np.array([0.1, -0.5, 0.3])
    assert np.array_equal(m.apply(a), a)


def test_apply_uncorrelated_contracts_inside_ball():
    # frozen zero correlations scale the (1, 2) components by cos t: the
    # image never leaves |a|, and the norm is recovered at t = 0 mod pi
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(-1, 1, 3)
        t = float(rng.uniform(0, 7))
        out = ReducedMap(0.0, 0.0, t).apply(a)
        expected = np.array([a[0] * math.cos(t), a[1] * math.cos(t), a[2]])
        assert np.abs(out - expected).max() < 1e-15
        assert np.linalg.norm(out) <= np.linalg.norm(a) + 1e-12
    out = ReducedMap(0.0, 0.0, math.pi).apply([0.3, -0.4, 0.1])
    assert abs(np.linalg.norm(out) - np.linalg.norm([0.3, -0.4, 0.1])) < 1e-12


def test_apply_edge_state_hits_unit_vector():
    q = math.pi / 4
    out = ReducedMap(c1=math.sin(q), c2=0.0, t=q).apply([0, math.cos(q), 0])
    assert np.abs(out - [0, 1, 0]).max() < 1e-12


@pytest.mark.parametrize("seed", range(15))
def test_apply_is_affine(seed):
    rng = np.random.default_rng(seed)
    m = ReducedMap(*rng.uniform(-1, 1, 2), t=float(rng.uniform(0, 7)))
    a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    lam = float(rng.uniform(0, 1))
    mixed = m.apply(lam * a + (1 - lam) * b)
    combo = lam * m.apply(a) + (1 - lam) * m.apply(b)
    assert np.abs(mixed - combo).max() < 1e-12


def positivity_margin(m: ReducedMap, a) -> float:
    """1 - |image|: the margin of the positivity domain at the map's t."""
    return 1.0 - float(np.linalg.norm(m.apply(a)))


def test_positivity_domain_examples():
    # a = 0 maps to (-c2 sin t, c1 sin t, 0)
    margin = positivity_margin(ReducedMap(0.3, 0.4, 1.1), [0, 0, 0])
    assert abs(margin - (1 - math.hypot(-0.4 * math.sin(1.1), 0.3 * math.sin(1.1)))) < 1e-12
    assert abs(positivity_margin(ReducedMap(0.5, 0.0, math.pi / 2), [0, 1, 0]) - 0.5) < 1e-12
    # outside: the image leaves the Bloch ball
    margin = positivity_margin(ReducedMap(1.0, 0.0, math.pi / 4), [0, 1, 0])
    assert abs(margin - (1 - 2 / math.sqrt(2))) < 1e-12


def test_sup_norm_slice_matches_quadrature_sum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a2, c = rng.uniform(-1, 1, 2)
        sup, _ = sup_norm_over_time(c, 0.0, [0, a2, 0])
        assert abs(sup - math.hypot(a2, c)) < 1e-12


def test_sup_norm_uncorrelated_is_plain_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.uniform(-1, 1, 3)
        sup, _ = sup_norm_over_time(0.0, 0.0, a)
        assert abs(sup - np.linalg.norm(a)) < 1e-12


def test_sup_norm_axis3_example():
    sup, _ = sup_norm_over_time(0.5, 0.0, [0, 0, 1])
    assert abs(sup - math.sqrt(1.25)) < 1e-12


def test_sup_norm_argmax_attains_supremum():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.uniform(-1, 1, 3)
        c1, c2 = rng.uniform(-1, 1, 2)
        sup, t_star = sup_norm_over_time(c1, c2, a)
        attained = np.linalg.norm(ReducedMap(c1, c2, t_star).apply(a))
        assert abs(attained - sup) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_sup_norm_closed_form_vs_dense_grid(seed):
    # 50 cases per seed, 500 total, against a 1e5-point grid; one row of
    # draws per case is (a1, a2, a3, c1, c2)
    a1, a2, a3, c1, c2 = np.random.default_rng(seed).uniform(-1, 1, (50, 5)).T
    sup_closed, _ = sup_norm_over_time(c1, c2, np.stack((a1, a2, a3)))
    sup_ref, _ = sup_norm_grid(c1, c2, np.stack((a1, a2, a3)), points=100_000)
    assert (np.abs(sup_closed - sup_ref) / np.maximum(sup_ref, 1e-12)).max() < 1e-9


def test_compatibility_domain_boundary_and_outside():
    v = in_compatibility_domain(0.6, 0.0, [0, 0.8, 0])
    assert v.inside and abs(v.margin) < 1e-12
    v = in_compatibility_domain(0.6, 0.0, [0, 0.9, 0])
    assert not v.inside  # 0.81 + 0.36 > 1


def test_compatibility_domain_origin():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c1, c2 = rng.uniform(-0.7, 0.7, 2)
        if math.hypot(c1, c2) <= 1:
            assert in_compatibility_domain(c1, c2, [0, 0, 0]).inside


def test_compat_slice_check_examples():
    v = compat_slice_check(0.6, 0.8)
    assert v.inside and abs(v.margin) < 1e-12
    v = compat_slice_check(1.0, 0.0)
    assert v.inside and abs(v.margin) < 1e-15
    v = compat_slice_check(0.8, 0.8)
    assert not v.inside
    assert abs(v.margin - (1 - math.sqrt(1.28))) < 1e-12


def test_slice_check_agrees_with_sup_norm_on_grid():
    # 201x201 over [-1.2, 1.2]^2, exact verdict agreement away from the
    # 1e-9 boundary band
    a2, c1 = np.meshgrid(np.linspace(-1.2, 1.2, 201), np.linspace(-1.2, 1.2, 201))
    sl = compat_slice_check(a2, c1)
    general = in_compatibility_domain(c1, 0.0, np.stack((0 * a2, a2, 0 * a2)))
    away = np.abs(sl.margin) > 1e-9
    assert away.sum() > 40_000
    assert np.array_equal(sl.inside[away], general.inside[away])
    assert np.abs(sl.margin - general.margin)[away].max() < 1e-12


def _sup_norm_scalar_reference(c1, c2, a):
    """The scalar closed form sup_norm_over_time computed before it
    broadcast: libm pow squares, math.hypot and math.atan2."""
    r_sq = a[0] ** 2 + a[1] ** 2
    k_sq = c1**2 + c2**2
    big_a = a[2] ** 2 + 0.5 * (r_sq + k_sq)
    big_b = 0.5 * (r_sq - k_sq)
    big_c = a[1] * c1 - a[0] * c2
    amp = math.hypot(big_b, big_c)
    argmax_t = 0.0 if amp == 0.0 else 0.5 * math.atan2(big_c, big_b) % (2 * math.pi)
    return math.sqrt(max(big_a + amp, 0.0)), argmax_t


def test_broadcast_domain_checks_equal_scalar_closed_forms_exactly():
    rng = np.random.default_rng(41)
    a = rng.uniform(-1, 1, (3, 2000))
    c1, c2 = rng.uniform(-1, 1, (2, 2000))
    a[0, :500] = a[2, :500] = c2[:500] = 0.0  # slice states
    a[:, 500:510] = c1[500:510] = c2[500:510] = 0.0  # |a(t)| constant
    sup, t_star = sup_norm_over_time(c1, c2, a)
    verdict = in_compatibility_domain(c1, c2, a)
    slice_verdict = compat_slice_check(a[1], c1)
    for k in range(2000):
        state = [float(v) for v in a[:, k]]
        x1, x2 = float(c1[k]), float(c2[k])
        expected = _sup_norm_scalar_reference(x1, x2, state)
        assert (sup[k], t_star[k]) == expected == sup_norm_over_time(x1, x2, state)
        assert verdict.margin[k] == 1.0 - expected[0]
        assert verdict.inside[k] == in_compatibility_domain(x1, x2, state).inside
        assert slice_verdict.margin[k] == 1.0 - math.hypot(state[1], x1)
        assert slice_verdict.inside[k] == compat_slice_check(state[1], x1).inside
    # a stacked (3, 40, 50) batch keeps its shape
    stacked = sup_norm_over_time(c1.reshape(40, 50), 0.0, a.reshape(3, 40, 50))[0]
    assert stacked.shape == (40, 50)


def test_sup_norm_grid_batch_equals_per_state_calls():
    # 200 seeded states plus degenerate ones where every grid point ties;
    # the batch goes through the t grid in several chunks, one state alone
    # in one
    rng = np.random.default_rng(43)
    a = rng.uniform(-1, 1, (3, 203))
    c1, c2 = rng.uniform(-1, 1, (2, 203))
    a[:, 200], c1[200], c2[200] = 0.0, 0.0, 0.0
    a[:2, 201], c1[201], c2[201] = 0.0, 0.0, 0.0
    a[:, 202], c1[202], c2[202] = (0.6, 0.0, 0.0), 0.0, 0.6
    sup, t_best = sup_norm_grid(c1, c2, a, points=4000)
    assert sup.shape == t_best.shape == (203,)
    for k in range(203):
        alone = sup_norm_grid(float(c1[k]), float(c2[k]), a[:, k], points=4000)
        assert (sup[k], t_best[k]) == alone
    stacked, _ = sup_norm_grid(c1[:6].reshape(2, 3), 0.0, a[:, :6].reshape(3, 2, 3),
                               points=4000)
    assert stacked.shape == (2, 3)
    assert stacked.ravel().tolist() == [
        sup_norm_grid(float(c1[k]), 0.0, a[:, k], points=4000)[0] for k in range(6)]


@pytest.mark.parametrize("seed", range(10))
def test_compatibility_implies_positivity_at_sampled_times(seed):
    rng = np.random.default_rng(seed)
    while True:  # rejection-sample a point inside the compatibility domain
        a = rng.uniform(-1, 1, 3)
        c1, c2 = rng.uniform(-1, 1, 2)
        if in_compatibility_domain(c1, c2, a).inside:
            break
    for t in np.linspace(0, 2 * math.pi, 50):
        assert np.linalg.norm(ReducedMap(c1, c2, float(t)).apply(a)) <= 1.0 + 1e-9
