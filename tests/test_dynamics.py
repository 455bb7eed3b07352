"""Closed-form mean-value evolution vs 4x4 unitary conjugation."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qmaplab import checks
from qmaplab.dynamics import crosscheck, evolve_density, rotate, unitary
from qmaplab.pauli import (
    _BASIS,
    ID4,
    TwoQubitState,
    density_from_params,
    embed_mean_values,
    params_from_density,
    pauli,
)


def random_state(rng) -> TwoQubitState:
    return TwoQubitState(
        a=rng.uniform(-1, 1, 3), b=rng.uniform(-1, 1, 3), T=rng.uniform(-1, 1, (3, 3))
    )


def random_five(rng) -> np.ndarray:
    """Five mean values (a1, a2, a3, c1, c2)."""
    return np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2)])


def evolve(five, t) -> np.ndarray:
    """`rotate` on the five mean values as one array."""
    return np.array(rotate(five[:3], five[3], five[4], t))


def test_identity_at_t_zero():
    m = np.array([0.3, -0.4, 0.5, 0.2, -0.6])
    assert np.array_equal(evolve(m, 0.0), m)


def test_third_component_conserved():
    m = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    for t in (0.1, 1.0, 5.3, -2.0):
        assert np.array_equal(evolve(m, t), m)


@pytest.mark.parametrize("q", [math.pi / 6, math.pi / 4, math.pi / 3, 0.9])
def test_edge_state_reaches_unit_sigma2(q):
    _, a2, _, c1, _ = rotate([0, math.cos(q), 0], math.sin(q), 0.0, q)
    assert abs(a2 - 1.0) < 1e-12
    assert abs(c1) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_composition_law(seed):
    rng = np.random.default_rng(seed)
    m = random_five(rng)
    t, s = rng.uniform(-5, 5, 2)
    two_step = evolve(evolve(m, t), s)
    one_step = evolve(m, t + s)
    assert np.abs(two_step - one_step).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_rotation_pair_invariants(seed):
    rng = np.random.default_rng(seed)
    m = random_five(rng)
    t = rng.uniform(0, 4 * math.pi)
    out = evolve(m, t)
    assert abs((out[0] ** 2 + out[4] ** 2) - (m[0] ** 2 + m[4] ** 2)) < 1e-12
    assert abs((out[1] ** 2 + out[3] ** 2) - (m[1] ** 2 + m[3] ** 2)) < 1e-12
    assert out[2] == m[2]


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
    bloch = params_from_density(evolve_density(rho, q)).a
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
        if k < 100:  # numpy scalars in, as a caller holding arrays passes them
            assert tuple(evolve([*a[:, k], c1[k], c2[k]], float(t[k])).tolist()) == expected


def _unitary_reference(t: float) -> np.ndarray:
    """U(t) as it was built state by state: math trig and np.kron."""
    return math.cos(t / 2) * ID4 - 1j * math.sin(t / 2) * np.kron(pauli(3), pauli(1))


def _crosscheck_reference(s: TwoQubitState, t: float) -> float:
    """The per-state crosscheck the batched one replaced: one U(t), one 4x4
    conjugation, the read-back of one matrix, the five-value closed form."""
    u = _unitary_reference(t)
    p = np.einsum("kij,ji->k", _BASIS, u @ density_from_params(s) @ u.conj().T).real
    closed = evolve([*s.a, s.T[0, 0], s.T[1, 0]], t)
    return float(max(np.abs(closed[:3] - p[1:4]).max(), abs(closed[3] - p[7]),
                     abs(closed[4] - p[10])))


def _stack(states) -> TwoQubitState:
    return TwoQubitState(a=np.stack([s.a for s in states], axis=-1),
                         b=np.stack([s.b for s in states], axis=-1),
                         T=np.stack([s.T for s in states], axis=-1))


def test_batch_crosscheck_equals_per_state_reference_exactly():
    rng = np.random.default_rng(31)
    states = [random_state(rng) for _ in range(1000)]
    times = rng.uniform(0, 4 * math.pi, 1000).tolist()
    # the edge states (0, cos q, 0; sin q) at t = q, and two degenerate ones
    for q in (0.4, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        states.append(embed_mean_values([0, math.cos(q), 0], math.sin(q), 0.0))
        times.append(q)
    states += [embed_mean_values([0, 0, 0], 0.0, 0.0), embed_mean_values([0, 0, 1], 0.0, 0.0)]
    times += [2.5, 1.0]
    stack = _stack(states)
    batch = crosscheck(stack, np.array(times))
    zero = crosscheck(stack, 0.0)  # t broadcasts against the stack
    assert batch.shape == zero.shape == (len(states),)
    for k, (s, t) in enumerate(zip(states, times)):
        expected = _crosscheck_reference(s, t)
        assert batch[k] == expected
        assert zero[k] == _crosscheck_reference(s, 0.0)
        if k % 10 == 0 or k >= 1000:  # one state at a time returns a float
            single = crosscheck(s, t)
            assert isinstance(single, float) and single == expected
    assert batch.max() < 1e-12


def test_block_draw_replays_per_state_draws(monkeypatch):
    seen = []

    def spy(s, t):
        seen.append((s, t))
        return crosscheck(s, t)

    monkeypatch.setattr(checks, "crosscheck", spy)
    per_state, block = np.random.default_rng(1001), np.random.default_rng(1001)
    _, _, worst, _ = checks.mean_values_vs_unitary(block)
    ((stack, times),) = seen  # one call for every state
    expected = []
    for k in range(1000):
        s = TwoQubitState(a=per_state.uniform(-1, 1, 3), b=per_state.uniform(-1, 1, 3),
                          T=per_state.uniform(-1, 1, (3, 3)))
        t = float(per_state.uniform(0, 4 * math.pi))
        for name in ("a", "b", "T"):
            assert np.array_equal(getattr(stack[k], name), getattr(s, name))
        assert times[k] == t
        expected.append(_crosscheck_reference(s, t))
    assert worst == max([0.0, *expected])
    assert block.uniform() == per_state.uniform()  # both streams stand at the same draw


def test_stacked_unitary_and_evolve_density_equal_per_item_calls():
    rng = np.random.default_rng(12)
    times = rng.uniform(-7, 7, (4, 5))
    u = unitary(times)
    rho = density_from_params(_stack([random_state(rng) for _ in range(20)])).reshape(4, 5, 4, 4)
    evolved = evolve_density(rho, times)
    assert u.shape == evolved.shape == (4, 5, 4, 4)
    for i in range(4):
        for j in range(5):
            t = float(times[i, j])
            assert np.array_equal(u[i, j], _unitary_reference(t))
            assert np.array_equal(u[i, j], unitary(t))
            assert np.array_equal(evolved[i, j], evolve_density(rho[i, j], t))
    bad = rho.copy()
    bad[2, 3] = np.eye(4)  # trace 4
    with pytest.raises(ValueError, match="trace differs from 1"):
        evolve_density(bad, times)


def test_empty_stacks_give_empty_results():
    empty = TwoQubitState(a=np.zeros((3, 0)), b=np.zeros((3, 0)), T=np.zeros((3, 3, 0)))
    assert crosscheck(empty, np.zeros(0)).shape == (0,)
    assert evolve_density(np.zeros((0, 4, 4)), 1.0).shape == (0, 4, 4)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, [0.5, math.inf, 1.0]])
def test_non_finite_time_rejected_naming_t(t):
    s = _stack([random_state(np.random.default_rng(k)) for k in range(3)])
    with pytest.raises(ValueError, match="t must be finite"):
        crosscheck(s, t)
    with pytest.raises(ValueError, match="t must be finite"):
        unitary(t)
