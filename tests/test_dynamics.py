"""Closed-form mean-value evolution vs 4x4 unitary conjugation."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qmaplab.dynamics import (
    MeanValueState,
    crosscheck,
    evolve_density,
    evolve_mean_values,
    rotate,
    unitary,
)
from qmaplab.pauli import (
    ID4,
    TwoQubitState,
    density_from_params,
    embed_mean_values,
    partial_trace_env,
    pauli,
)


def random_state(rng) -> TwoQubitState:
    return TwoQubitState(
        a=rng.uniform(-1, 1, 3), b=rng.uniform(-1, 1, 3), T=rng.uniform(-1, 1, (3, 3))
    )


def as_five(m: MeanValueState) -> np.ndarray:
    return np.array([m.a[0], m.a[1], m.a[2], m.c1, m.c2])


def test_identity_at_t_zero():
    m = MeanValueState(a=[0.3, -0.4, 0.5], c1=0.2, c2=-0.6)
    assert np.array_equal(as_five(evolve_mean_values(m, 0.0)), as_five(m))


def test_third_component_conserved():
    m = MeanValueState(a=[0, 0, 1], c1=0.0, c2=0.0)
    for t in (0.1, 1.0, 5.3, -2.0):
        out = evolve_mean_values(m, t)
        assert np.array_equal(as_five(out), as_five(m))


@pytest.mark.parametrize("q", [math.pi / 6, math.pi / 4, math.pi / 3, 0.9])
def test_edge_state_reaches_unit_sigma2(q):
    m = MeanValueState(a=[0, math.cos(q), 0], c1=math.sin(q), c2=0.0)
    out = evolve_mean_values(m, q)
    assert abs(out.a[1] - 1.0) < 1e-12
    assert abs(out.c1) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_composition_law(seed):
    rng = np.random.default_rng(seed)
    m = MeanValueState(a=rng.uniform(-1, 1, 3), c1=rng.uniform(-1, 1), c2=rng.uniform(-1, 1))
    t, s = rng.uniform(-5, 5, 2)
    two_step = evolve_mean_values(evolve_mean_values(m, t), s)
    one_step = evolve_mean_values(m, t + s)
    assert np.abs(as_five(two_step) - as_five(one_step)).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_rotation_pair_invariants(seed):
    rng = np.random.default_rng(seed)
    m = MeanValueState(a=rng.uniform(-1, 1, 3), c1=rng.uniform(-1, 1), c2=rng.uniform(-1, 1))
    t = rng.uniform(0, 4 * math.pi)
    out = evolve_mean_values(m, t)
    assert abs((out.a[0] ** 2 + out.c2**2) - (m.a[0] ** 2 + m.c2**2)) < 1e-12
    assert abs((out.a[1] ** 2 + out.c1**2) - (m.a[1] ** 2 + m.c1**2)) < 1e-12
    assert out.a[2] == m.a[2]


def test_unitary_identity_and_global_phase():
    assert np.allclose(unitary(0.0), ID4)
    assert np.max(np.abs(unitary(2 * math.pi) + ID4)) < 1e-12  # -identity


def test_unitary_group_properties():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t, s = rng.uniform(-7, 7, 2)
        u = unitary(t)
        assert np.max(np.abs(u @ u.conj().T - ID4)) < 1e-12
        assert np.max(np.abs(u @ unitary(-t) - ID4)) < 1e-12
        assert np.max(np.abs(u @ unitary(s) - unitary(t + s))) < 1e-12


def test_evolve_density_fixes_maximally_mixed():
    for t in (0.0, 1.3, -4.0):
        assert np.allclose(evolve_density(ID4 / 4, t), ID4 / 4)


def test_evolve_density_edge_state_at_q():
    q = math.pi / 5
    rho = density_from_params(embed_mean_values([0, math.cos(q), 0], math.sin(q), 0.0))
    reduced = partial_trace_env(evolve_density(rho, q))
    bloch = np.array([np.trace(reduced @ pauli(i)).real for i in (1, 2, 3)])
    assert np.abs(bloch - [0, 1, 0]).max() < 1e-12


def test_evolve_density_reverses():
    rng = np.random.default_rng(8)
    s = random_state(rng)
    rho = density_from_params(s)
    t = 2.1
    assert np.max(np.abs(evolve_density(evolve_density(rho, t), -t) - rho)) < 1e-12


def test_evolve_density_preserves_trace_and_spectrum():
    rng = np.random.default_rng(9)
    s = random_state(rng)
    rho = density_from_params(s)
    out = evolve_density(rho, 1.7)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho)).max() < 1e-12


def test_evolve_density_rejects_malformed():
    with pytest.raises(ValueError):
        evolve_density(np.eye(4, dtype=complex), 1.0)  # trace 4


def test_crosscheck_zero_time():
    rng = np.random.default_rng(5)
    assert crosscheck(random_state(rng), 0.0) < 1e-15


@pytest.mark.parametrize("q", [0.4, math.pi / 4])
def test_crosscheck_edge_state(q):
    s = embed_mean_values([0, math.cos(q), 0], math.sin(q), 0.0)
    assert crosscheck(s, q) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_crosscheck_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        assert crosscheck(random_state(rng), float(rng.uniform(0, 4 * math.pi))) < 1e-12


def _closed_form(a1, a2, a3, c1, c2, t):
    """The five-value rotation written out in plain floats and math trig."""
    ct, st = math.cos(t), math.sin(t)
    return (a1 * ct - c2 * st, a2 * ct + c1 * st, a3, c1 * ct - a2 * st, c2 * ct + a1 * st)


def test_rotate_equals_scalar_closed_form_exactly():
    rng = np.random.default_rng(17)
    n = 2000
    a = rng.uniform(-1, 1, (3, n))
    c1, c2 = rng.uniform(-1, 1, (2, n))
    t = rng.uniform(-50, 50, n)
    batch = rotate(a, c1, c2, t)  # one broadcast call over every state
    for k in range(n):
        expected = _closed_form(*a[:, k].tolist(), float(c1[k]), float(c2[k]), float(t[k]))
        assert tuple(float(v[k]) for v in batch) == expected
        assert tuple(map(float, rotate(a[:, k].tolist(), float(c1[k]), float(c2[k]),
                                       float(t[k])))) == expected
        if k < 100:
            m = evolve_mean_values(MeanValueState(a=a[:, k], c1=c1[k], c2=c2[k]), float(t[k]))
            assert tuple(as_five(m).tolist()) == expected
