"""Feasibility oracle: closed-form witness, dual certificate, verdicts."""
from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from qmaplab import DEFAULT_TOL, checks
from qmaplab.feasibility import dual_certificate, feasibility_search
from qmaplab.pauli import A, B1, T11, T21, density_from_params, params_from_density
from qmaplab.reduced import in_compatibility_domain, sup_norm_over_time
from qmaplab.tolerances import inside

pauli = importlib.import_module("qmaplab.pauli")  # the module; the package binds the function

# (a, c1, c2, inside) where a block vector, a weight or the a3 split degenerates
DEGENERATE_POINTS = [
    ([0.0, 0.0, 0.0], 0.0, 0.0, True),  # a = c = 0
    ([0.3, -0.4, 0.2], 0.3, -0.4, True),  # a_xy = c: x_- = 0
    ([0.3, -0.4, 0.2], -0.3, 0.4, True),  # a_xy = -c: x_+ = 0
    ([0.0, 0.0, 0.6], 0.0, 0.0, True),  # a_xy = c = 0, a3 != 0: equal split
    ([0.0, 0.0, 1.0], 1.0, 0.0, False),  # pure marginal admits no correlation
    ([0.9, 0.9, 0.0], 0.9, 0.9, False),  # w_+ = 1.14 leaves [0, 1]
]


def is_compatible_oracle(a, c1, c2):
    """The oracle value, the optimal extension's min eigenvalue: a signed
    margin, inside iff `tolerances.inside` holds."""
    return feasibility_search(a, c1, c2)[0]


# ------------------------------------------------ per-point reference oracle
# The oracle as it was written before it broadcast: one point per call, the
# density matrix from 16 coefficients, one eigvalsh per matrix.  The batch
# oracle must reproduce it bit for bit.

def _split(p: np.ndarray):
    """(a, b, T) of parameters p (15, ...), in the layout a, b, T.ravel()."""
    return p[:3], p[3:6], p[6:].reshape((3, 3) + p.shape[1:])


def _reference_density(a, b, T) -> np.ndarray:
    return 0.25 * np.tensordot(np.concatenate(([1.0], a, b, T.ravel())), pauli._BASIS, axes=1)


def _reference_block_vectors(a, c1, c2):
    p = np.array([a[0] + c1, a[1] + c2])
    m = np.array([a[0] - c1, a[1] - c2])
    norm_p, norm_m = np.linalg.norm(p), np.linalg.norm(m)
    total = norm_p + norm_m
    share = 0.5 if total == 0.0 else norm_p / total
    return np.append(p, 2.0 * a[2] * share), np.append(m, 2.0 * a[2] * (1.0 - share))


def _reference_search(a, c1, c2):
    """(value, b, T) of the witness at one point."""
    a = np.asarray(a, dtype=float)
    x_plus, x_minus = _reference_block_vectors(a, c1, c2)
    T = np.zeros((3, 3))
    T[:, 0] = (c1, c2, 0.5 * (x_plus[2] - x_minus[2]))
    b = np.array([0.5 * (np.linalg.norm(x_plus) - np.linalg.norm(x_minus)), 0.0, 0.0])
    return float(np.linalg.eigvalsh(_reference_density(a, b, T))[0]), b, T


def _reference_dual(a, c1, c2) -> np.ndarray:
    def down(x):
        norm = np.linalg.norm(x)
        return -x / norm if norm > 0.0 else np.zeros(3)

    x_plus, x_minus = _reference_block_vectors(np.asarray(a, dtype=float), c1, c2)
    p_hat, m_hat = down(x_plus), down(x_minus)
    if not p_hat.any():
        p_hat = m_hat
    if not m_hat.any():
        m_hat = p_hat
    u, v = 0.5 * (p_hat + m_hat), 0.5 * (p_hat - m_hat)
    T = np.zeros((3, 3))
    T[0, 0], T[1, 0] = v[0], v[1]
    return _reference_density(u, np.zeros(3), T)


def _reference_certified(a, c1, c2, value, witness: np.ndarray, tol: float) -> bool:
    rho = _reference_density(*_split(witness))
    if value >= -tol:
        back_a, _, back_T = _split(params_from_density(rho))
        return bool(
            np.linalg.eigvalsh(rho)[0] >= -1e-9
            and np.abs(back_a - np.asarray(a, dtype=float)).max() < 1e-10
            and abs(back_T[0, 0] - c1) < 1e-10
            and abs(back_T[1, 0] - c2) < 1e-10
        )
    w = _reference_dual(a, c1, c2)
    if abs(np.trace(w) - 1.0) > 1e-12 or np.linalg.eigvalsh(w)[0] < -1e-12:
        return False
    return bool(np.abs(_free_components(params_from_density(w))).max() <= 1e-12
                and np.trace(w @ rho).real < -tol)


def _batch_points():
    """300 random general points, 100 slice points and the degenerate ones,
    as a (3, N) stack and two (N,) arrays."""
    rng = np.random.default_rng(77)
    a = rng.uniform(-1, 1, (3, 300))
    c1, c2 = rng.uniform(-1, 1, (2, 300))
    slice_a2, slice_c1 = rng.uniform(-1.1, 1.1, (2, 100))
    degenerate = list(zip(*DEGENERATE_POINTS))
    a = np.concatenate((a, np.stack(np.broadcast_arrays(0.0, slice_a2, 0.0)),
                        np.array(degenerate[0]).T), axis=1)
    c1 = np.concatenate((c1, slice_c1, degenerate[1]))
    c2 = np.concatenate((c2, np.zeros(100), degenerate[2]))
    return a, c1, c2


def test_batch_oracle_equals_per_point_reference_exactly():
    a, c1, c2 = _batch_points()
    values, witness = feasibility_search(a, c1, c2)
    w = dual_certificate(a, c1, c2)
    assert values.shape == (a.shape[1],) and w.shape == (a.shape[1], 4, 4)
    assert np.array_equal(witness[A], a)
    witness_b, witness_T = _split(witness)[1:]
    for i in range(a.shape[1]):
        value, b, T = _reference_search(a[:, i], c1[i], c2[i])
        assert values[i] == value
        assert np.array_equal(witness_b[:, i], b) and np.array_equal(witness_T[..., i], T)
        assert np.array_equal(w[i], _reference_dual(a[:, i], c1[i], c2[i]))
    # a scalar point gives a float, as the per-point oracle did
    value, witness = feasibility_search(a[:, 0], c1[0], c2[0])
    assert isinstance(value, float) and value == values[0]
    assert witness.shape == (15,)


def test_batch_oracle_broadcasts_over_stack_shapes():
    a, c1, c2 = _batch_points()
    a, c1 = a[:, :24].reshape(3, 4, 6), c1[:6]  # c1 along the last axis, c2 a scalar
    values, witness = feasibility_search(a, c1, 0.25)
    assert values.shape == (4, 6) and witness.shape == (15, 4, 6)
    w = dual_certificate(a, c1, 0.25)
    assert w.shape == (4, 6, 4, 4)
    for i, j in np.ndindex(4, 6):
        assert values[i, j] == _reference_search(a[:, i, j], c1[j], 0.25)[0]
        assert np.array_equal(w[i, j], _reference_dual(a[:, i, j], c1[j], 0.25))


def test_batch_audit_equals_per_point_reference():
    a, c1, c2 = _batch_points()
    a, c1, c2 = a[:, 250:], c1[250:], c2[250:]  # general, slice and degenerate points
    values, witness = feasibility_search(a, c1, c2)
    # shifted read-backs of a1 and c2: the inside answers there no longer certify
    shifted = witness.copy()
    shifted[0, ::3] += 1e-6
    shifted[T21, 1::5] += 1e-6
    # an "outside" answer at an inside point: its own dual bound refutes it
    lying = np.where(values >= 0.0, -0.25, values)
    for answer, tested, sound in ((values, witness, True),
                                  (values, shifted, False),
                                  (lying, witness, False)):
        batch = checks.certified(a, c1, c2, answer, tested, 1e-9)
        reference = [_reference_certified(a[:, i], c1[i], c2[i], answer[i], tested[:, i], 1e-9)
                     for i in range(answer.size)]
        assert batch.tolist() == reference
        assert batch.all() == sound
    assert not checks.certified(a, c1, c2, lying, witness, 1e-9)[values >= 0.0].any()


def test_oracle_and_audit_take_one_stacked_eigvalsh(monkeypatch):
    a, c1, c2 = _batch_points()
    a, c1, c2 = a[:, 380:], c1[380:], c2[380:]  # 26 points
    stacks = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: stacks.append(m.shape[:-2]) or eigvalsh(m))
    values, witness = feasibility_search(a, c1, c2)
    assert stacks == [(26,)]
    stacks.clear()
    verdicts = checks.certified(a, c1, c2, values, witness, 1e-9)
    assert stacks == [(26,), (26,)]  # the witnesses' rho, then the dual certificates W
    # a (2, 13) stack keeps its shape through both calls and gives the same bits
    stacks.clear()
    a, c1, c2 = a.reshape(3, 2, 13), c1.reshape(2, 13), c2.reshape(2, 13)
    stacked, stacked_witness = feasibility_search(a, c1, c2)
    assert np.array_equal(stacked, values.reshape(2, 13))
    assert np.array_equal(stacked_witness, witness.reshape(15, 2, 13))
    assert np.array_equal(checks.certified(a, c1, c2, stacked, stacked_witness, 1e-9),
                          verdicts.reshape(2, 13))
    assert stacks == [(2, 13)] * 3


def _free_components(state: np.ndarray) -> np.ndarray:
    """The 10 parameters an extension of (a, c1, c2) may choose freely."""
    _, b, T = _split(state)
    return np.concatenate((b, T[:, 1:].ravel(), T[2:, 0]))


def _random_extension(a, c1: float, c2: float, rng) -> np.ndarray:
    T = rng.uniform(-1, 1, (3, 3))
    T[0, 0], T[1, 0] = c1, c2
    return np.concatenate((a, rng.uniform(-1, 1, 3), T.ravel()))


def _check_certificates(a, c1: float, c2: float, rng) -> tuple[float, float]:
    """Assert every certificate property at one point; returns the optimal
    value and the weight w_+ of the witness's E1 = +1 block."""
    a = np.asarray(a, dtype=float)
    value, witness = feasibility_search(a, c1, c2)
    # the witness carries exactly the requested values, also after read-back
    assert np.array_equal(witness[A], a)
    assert witness[T11] == c1 and witness[T21] == c2
    rho = density_from_params(witness)
    back = params_from_density(rho)
    assert np.abs(back[A] - a).max() < 1e-12
    assert abs(back[T11] - c1) < 1e-12 and abs(back[T21] - c2) < 1e-12
    assert value == np.linalg.eigvalsh(rho)[0]
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
        assert np.linalg.eigvalsh(other)[0] <= bound + 1e-14
    return value, 0.5 * (1.0 + witness[B1])


def test_certificates_on_random_points():
    rng = np.random.default_rng(2024)
    weights_outside = 0
    for _ in range(300):
        a = rng.uniform(-1, 1, 3)
        c1, c2 = rng.uniform(-1, 1, 2)
        _, w_plus = _check_certificates(a, float(c1), float(c2), rng)
        weights_outside += not 0.0 <= w_plus <= 1.0
    assert weights_outside > 0  # the property also ran where the weights leave [0, 1]


@pytest.mark.parametrize("a,c1,c2,expected", DEGENERATE_POINTS)
def test_certificates_on_degenerate_points(a, c1, c2, expected):
    value, _ = _check_certificates(a, c1, c2, np.random.default_rng(0))
    assert (value >= 0.0) == expected
    assert inside(is_compatible_oracle(a, c1, c2), DEFAULT_TOL) == expected


def test_near_boundary_general_point_is_inside():
    # analytic margin +1.12e-3, just outside the 1e-3 boundary band
    a = [0.7683186382780032, 0.3679800269685993, 0.3038548700804089]
    c1, c2 = 0.8188895047216136, 0.46586291474432473
    value = is_compatible_oracle(a, c1, c2)
    assert inside(value, DEFAULT_TOL)
    analytic = in_compatibility_domain(c1, c2, a)
    assert analytic > 1e-3
    assert abs(4.0 * value - analytic) < 1e-14


@pytest.mark.parametrize("field", ["a", "c2"])
def test_certified_rejects_an_off_read_back(field):
    a, c1, c2 = [0.1, 0.2, -0.1], 0.2, 0.3  # well inside: the shift keeps the witness physical
    value, witness = feasibility_search(a, c1, c2)
    assert checks.certified(a, c1, c2, value, witness, 1e-9)
    off = witness.copy()
    off[0 if field == "a" else T21] += 1e-6
    assert np.linalg.eigvalsh(density_from_params(off))[0] > 0.1
    assert not checks.certified(a, c1, c2, value, off, 1e-9)


def test_maximally_mixed_point():
    best, witness = feasibility_search([0, 0, 0], 0.0, 0.0)
    assert abs(best - 0.25) < 1e-9
    assert np.abs(witness[A]).max() < 1e-6
    assert np.abs(witness[T11]) == 0.0


def test_boundary_point_is_feasible():
    best, witness = feasibility_search([0, 0.6, 0], 0.8, 0.0)
    assert best >= -1e-9
    # the witness really carries the requested values
    assert abs(witness[A][1] - 0.6) < 1e-12
    assert witness[T11] == 0.8


def test_outside_slice_point_is_infeasible():
    best, _ = feasibility_search([0, 0.9, 0], 0.6, 0.0)
    assert best < -1e-4
    assert abs(best - (1 - math.sqrt(1.17)) / 4) < 1e-15


def test_pure_marginal_admits_no_correlation():
    best, _ = feasibility_search([0, 0, 1], 1.0, 0.0)
    assert best < -1e-4


def test_oracle_verdict_examples():
    assert inside(is_compatible_oracle([0, 0.6, 0], 0.8, 0.0), DEFAULT_TOL)
    value = is_compatible_oracle([0, 0.9, 0], 0.6, 0.0)
    assert not inside(value, DEFAULT_TOL) and value < 0


def test_search_is_deterministic():
    best1, w1 = feasibility_search([0.1, 0.4, -0.2], 0.3, -0.1)
    best2, w2 = feasibility_search([0.1, 0.4, -0.2], 0.3, -0.1)
    assert best1 == best2
    assert np.array_equal(w1, w2)


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
    assert np.linalg.eigvalsh(rho)[0] >= -1e-9
    assert abs(np.linalg.eigvalsh(rho)[0] - best) < 1e-12
    assert abs(witness[A][1] - a2) < 1e-10
    assert abs(witness[T11] - c1) < 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["a", "c1", "c2"])
def test_oracle_rejects_a_non_finite_input_naming_it(field, bad):
    a, c1, c2 = _batch_points()
    point = {"a": a[:, :5].copy(), "c1": c1[:5].copy(), "c2": c2[:5].copy()}
    point[field][..., 2] = bad  # one bad entry spoils the whole batch
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        feasibility_search(**point)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        dual_certificate(**point)


@pytest.mark.parametrize("a,c1,c2", [([1e155, 0, 0], 0.1, 0.0), ([0, 0, 1e155], 0.1, 0.0),
                                     ([0, 0.5, 0], 1e300, -1e300), ([1e308, 0, 0], 1e308, 0.0)])
def test_oracle_rejects_a_norm_past_the_float_range(a, c1, c2):
    # finite inputs whose block vectors' norms overflow: a ValueError, not
    # an overflow RuntimeWarning (an error in this suite) or an inf value
    with pytest.raises(ValueError, match="overflow"):
        feasibility_search(a, c1, c2)
    with pytest.raises(ValueError, match="overflow"):
        dual_certificate(a, c1, c2)
    # short of the overflow the value is finite: (1 - sup)/4
    value, _ = feasibility_search([1e150, 0, 0], 0.1, 0.0)
    assert value == pytest.approx(-1e150 / 4, rel=1e-12)
    assert np.isfinite(dual_certificate([1e150, 0, 0], 0.1, 0.0)).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_certified_fails_a_non_finite_value(bad):
    # slice points inside (a2 = c1 = 0.3) and outside (a2 = c1 = 0.9): the
    # honest values pass at both, a non-finite one fails at either
    a, c1 = np.array([[0.0, 0.0], [0.3, 0.9], [0.0, 0.0]]), np.array([0.3, 0.9])
    values, witness = feasibility_search(a, c1, 0.0)
    assert checks.certified(a, c1, 0.0, values, witness, 1e-9).tolist() == [True, True]
    for i in range(2):
        answer = values.copy()
        answer[i] = bad
        verdicts = checks.certified(a, c1, 0.0, answer, witness, 1e-9).tolist()
        assert verdicts == [i != 0, i != 1]
    assert not checks.certified(a[:, 1:], c1[1:], 0.0, [bad], witness[:, 1:], 1e-9)[0]
