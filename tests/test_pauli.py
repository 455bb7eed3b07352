"""Pauli algebra, parameterization round-trips, and minimum eigenvalues."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qmaplab.pauli import (
    _BASIS,
    A,
    B1,
    ID2,
    ID4,
    T11,
    T21,
    T31,
    density_from_params,
    embed_mean_values,
    is_hermitian,
    min_eigenvalue,
    params_from_density,
    pauli,
)


def trace_env(rho: np.ndarray) -> np.ndarray:
    """Reference partial trace over the environment (second) qubit."""
    return np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))


def split(p: np.ndarray):
    """(a, b, T) of parameters p (15, ...), in the layout a, b, T.ravel()."""
    return p[:3], p[3:6], p[6:].reshape((3, 3) + p.shape[1:])


def random_state(seed: int) -> np.ndarray:
    """a, b and T drawn in this order, 15 values of one stream."""
    return np.random.default_rng(seed).uniform(-1, 1, 15)


def test_pauli_standard_definitions():
    assert np.array_equal(pauli(3), np.diag([1, -1]).astype(complex))
    assert np.array_equal(pauli(1), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))


@pytest.mark.parametrize("index", [1, 2, 3])
@pytest.mark.parametrize("qubit", ["sys", "env"])
def test_pauli_involution_and_traceless(index, qubit):
    # on either tensor slot: S_i x I and I x E_i
    p = np.kron(pauli(index), ID2) if qubit == "sys" else np.kron(ID2, pauli(index))
    assert np.allclose(p @ p, ID4)
    assert abs(np.trace(p)) == 0
    assert is_hermitian(p)


def test_pauli_argument_errors():
    with pytest.raises(ValueError):
        pauli(0)
    with pytest.raises(ValueError):
        pauli(4)


def test_kron_identities():
    assert np.array_equal(np.kron(ID2, ID2), ID4)
    sz_ex = np.kron(pauli(3), pauli(1))
    assert np.allclose(sz_ex @ sz_ex, ID4)
    # mixed-product property
    assert np.allclose(
        np.kron(pauli(1), ID2) @ np.kron(ID2, pauli(1)), np.kron(pauli(1), pauli(1))
    )


def test_density_maximally_mixed():
    assert np.allclose(density_from_params(np.zeros(15)), ID4 / 4)


@pytest.mark.parametrize("q", [0.2, math.pi / 4, 1.1])
def test_density_anticommuting_pair_spectrum(q):
    # a2 and T11 terms anticommute, so the eigenvalues are (1 +/- 1)/4 twice
    s = embed_mean_values([0, math.cos(q), 0], math.sin(q), 0.0)
    eig = np.linalg.eigvalsh(density_from_params(s))
    assert np.allclose(sorted(eig), [0, 0, 0.5, 0.5], atol=1e-12)


def test_density_boundary_point_min_eig_zero():
    s = embed_mean_values([0, 0.8, 0], 0.6, 0.0)
    assert abs(min_eigenvalue(density_from_params(s))) < 1e-12


def test_density_expectations_match_parameters():
    s = random_state(11)
    rho = density_from_params(s)
    for i in range(3):
        for j in range(3):
            op = np.kron(pauli(i + 1), pauli(j + 1))
            assert abs(np.trace(rho @ op).real - split(s)[2][i, j]) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_random_parameter_sets(seed):
    # 100 random sets per seed, 1000 total
    rng = np.random.default_rng(seed)
    for _ in range(100):
        s = rng.uniform(-1, 1, 15)  # a, b and T, drawn in this order
        back = params_from_density(density_from_params(s))
        assert back.shape == (15,)
        assert np.abs(back - s).max() < 1e-12


def test_params_from_density_read_off():
    rho = 0.25 * (ID4 + np.kron(pauli(2), ID2))
    a, b, T = split(params_from_density(rho))
    assert np.allclose(a, [0, 1, 0], atol=1e-15)
    assert np.allclose(b, 0, atol=1e-15)
    assert np.allclose(T, 0, atol=1e-15)


def test_params_from_density_rejects_malformed():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        params_from_density(bad)
    with pytest.raises(ValueError):
        params_from_density(np.eye(4, dtype=complex))  # trace 4


def test_partial_trace_correlations_drop_out():
    s = embed_mean_values([0, 0.5, 0], 0.5, 0.0)
    expected = 0.5 * (ID2 + 0.5 * pauli(2))
    assert np.allclose(trace_env(density_from_params(s)), expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(20))
def test_partial_trace_bloch_vector_matches_a(seed):
    s = random_state(seed)
    reduced = trace_env(density_from_params(s))
    bloch = np.array([np.trace(reduced @ pauli(i)).real for i in (1, 2, 3)])
    assert np.abs(bloch - split(s)[0]).max() < 1e-12


def test_min_eigenvalue_basic():
    assert abs(min_eigenvalue(ID4 / 4) - 0.25) < 1e-14
    assert abs(min_eigenvalue(np.diag([0.5, 0.5, 0, 0]).astype(complex))) < 1e-14
    rho = 0.25 * (ID4 + 1.2 * np.kron(pauli(2), ID2))
    assert abs(min_eigenvalue(rho) - (-0.05)) < 1e-12


def test_min_eigenvalue_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[0, 3] = 1e-3
    with pytest.raises(ValueError):
        min_eigenvalue(bad)


@pytest.mark.parametrize("seed", range(25))
def test_min_eigenvalue_against_characteristic_polynomial(seed):
    # independent route: roots of det(M - x I) from the char-poly coefficients
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = (g + g.conj().T) / 2
    roots = np.roots(np.poly(m))
    assert abs(min_eigenvalue(m) - min(roots.real)) < 1e-10


def test_slice_min_eig_closed_form_on_boundary():
    # min eig of the (a2, c) slice state is (1 - sqrt(a2^2 + c^2)) / 4;
    # on the unit circle that margin vanishes identically
    for theta in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
        a2, c = math.cos(theta), math.sin(theta)
        margin = min_eigenvalue(density_from_params(embed_mean_values([0, a2, 0], c, 0.0)))
        assert abs(margin) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_slice_min_eig_closed_form_general(seed):
    rng = np.random.default_rng(seed)
    a2, c = rng.uniform(-1.2, 1.2, 2)
    margin = min_eigenvalue(density_from_params(embed_mean_values([0, a2, 0], c, 0.0)))
    assert abs(margin - (1 - math.hypot(a2, c)) / 4) < 1e-12


def test_two_qubit_state_shape_validation():
    # a state is 15 parameters along the leading axis; any other length,
    # a short a or T among them, is rejected
    for shape in [(14,), (16,), (13,), (9, 4), (3, 15), (0,), ()]:
        with pytest.raises(ValueError, match=r"must have shape \(15, \.\.\.\)"):
            density_from_params(np.zeros(shape))
    assert density_from_params(np.zeros((15, 4))).shape == (4, 4, 4)


def test_named_indices_pick_their_basis_operators():
    named = [(index, np.kron(pauli(i + 1), ID2)) for i, index in enumerate(range(15)[A])]
    named += [(B1, np.kron(ID2, pauli(1))), (T11, np.kron(pauli(1), pauli(1))),
              (T21, np.kron(pauli(2), pauli(1))), (T31, np.kron(pauli(3), pauli(1)))]
    assert len(named) == 7
    for index, op in named:
        p = np.zeros(15)
        p[index] = 1.0
        assert np.array_equal(density_from_params(p), 0.25 * (ID4 + op))
        assert np.array_equal(params_from_density(0.25 * (ID4 + op)), p)
        assert np.array_equal(_BASIS[1 + index], op)


def test_stacked_density_and_min_eigenvalue_equal_per_state_calls():
    states = [random_state(seed) for seed in range(6)]
    stack = np.stack(states, axis=1)
    rho = density_from_params(stack)
    assert rho.shape == (6, 4, 4)
    values = min_eigenvalue(rho)
    for i, s in enumerate(states):
        assert np.array_equal(rho[i], density_from_params(s))
        assert np.array_equal(density_from_params(stack[:, i]), rho[i])
        assert values[i] == min_eigenvalue(density_from_params(s))
    bad = rho.copy()
    bad[3, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        min_eigenvalue(bad)


def test_stacked_params_from_density_equal_per_item_calls():
    rng = np.random.default_rng(21)
    rho = density_from_params(rng.uniform(-1, 1, (15, 6, 7)))  # a, b and T in this order
    # a unitary mix of the basis, so the read-back sums round
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    rho = q @ rho @ q.conj().T
    stack = params_from_density(rho)
    assert stack.shape == (15, 6, 7)
    for i in range(6):
        for j in range(7):
            one = params_from_density(rho[i, j])
            assert one.shape == (15,)
            # the single-matrix read-back as it was written before stacks
            p = np.einsum("kij,ji->k", _BASIS, rho[i, j]).real
            assert np.array_equal(one, p[1:])
            assert np.array_equal(stack[:, i, j], one)


@pytest.mark.parametrize("defect,message", [
    (lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-6), "not Hermitian within tolerance"),
    (lambda m: m.__setitem__((2, 2), m[2, 2] + 1e-6), "trace differs from 1 beyond tolerance"),
])
def test_stack_with_one_bad_matrix_raises_the_single_matrix_message(defect, message):
    rho = density_from_params(np.zeros((15, 5)))
    defect(rho[3])
    with pytest.raises(ValueError, match=message):
        params_from_density(rho[3])
    with pytest.raises(ValueError, match=message):
        params_from_density(rho)
    with pytest.raises(ValueError, match="must be 4x4"):
        params_from_density(rho[..., :3])


def test_empty_stack_is_vacuously_hermitian():
    empty = np.zeros((0, 4, 4), dtype=complex)
    assert is_hermitian(empty)
    assert min_eigenvalue(empty).shape == (0,)
    assert params_from_density(empty).shape == (15, 0)
