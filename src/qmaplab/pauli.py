"""Two-qubit Pauli algebra and density-matrix machinery.

Conventions used throughout the package: the observed ("system") qubit is the
first tensor factor, its partner ("environment") qubit the second.  A
two-qubit state is carried either as a 4x4 complex density matrix or as a
float array of its 15 real parameters, a, b and T.ravel() in this order
(that of `_BASIS[1:]`), with

    a_i = <S_i x I>,   b_j = <I x E_j>,   T_ij = <S_i x E_j>,

where S_i and E_j are the Pauli matrices acting on the system and environment
qubit.  A stack of states is an array (15, ...).  `A`, `B1`, `T11`, `T21`
and `T31` name the entries the package reads.  The parameters are
dimensionless, each in [-1, 1] for a physical state, but unphysical sets
are representable on purpose: physicality is a verdict (the minimum
eigenvalue of the reconstructed matrix), never a precondition.
"""
from __future__ import annotations

import numpy as np

from .tolerances import DENSITY_TOL, EIGENVALUE_HERMITIAN_TOL

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_SX, _SY, _SZ)

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

# entries of the parameters (a, b, T.ravel()) read by name: a, b1 and T's
# first column, T11 = <S1 x E1>, T21 = <S2 x E1>, T31 = <S3 x E1>
A = slice(0, 3)
B1, T11, T21, T31 = 3, 6, 9, 12


def pauli(index: int) -> np.ndarray:
    """Standard Pauli matrix for one qubit; `index` is 1, 2 or 3.  Both
    qubits carry the same three matrices; np.kron places them, the system
    qubit's factor first."""
    if index not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index!r}")
    return _PAULIS[index - 1].copy()


def is_hermitian(m: np.ndarray, tol: float = DENSITY_TOL) -> bool:
    """Entrywise Hermiticity check of a matrix or a stack (..., k, k):
    max |M - M^dagger| <= tol.  An empty stack is vacuously Hermitian."""
    return bool(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2)), initial=0.0) <= tol)


def _as_bloch(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {a.shape}")
    return a


def _as_blochs(a) -> np.ndarray:
    """Bloch vectors stacked along trailing axes: shape (3, ...)."""
    a = np.asarray(a, dtype=float)
    if a.shape[:1] != (3,):
        raise ValueError(f"Bloch vectors must have shape (3, ...), got {a.shape}")
    return a


def _require_count(value, name: str, least: int) -> int:
    """value as a Python int >= least.  A bool, a float, a str or an array
    raises ValueError naming it."""
    count = np.asarray(value)
    if count.ndim or count.dtype.kind not in "iu":  # a bool's kind is "b"
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {name}={value!r}")
    return int(count)


def _require_finite(value, name: str) -> np.ndarray:
    """value as a float array; a NaN or infinite entry raises ValueError
    naming it."""
    value = np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
        bad = value[~np.isfinite(value)].flat[0].item()
        raise ValueError(f"{name} must be finite, got {name}={bad!r}")
    return value


def _broadcast(a, c1, c2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors `a` (3, ...) and correlations c1, c2 broadcast to one
    stack shape: (a as (3,) + shape, c1 and c2 as shape), read-only views.
    A NaN or infinite entry raises ValueError naming a, c1 or c2."""
    a = _require_finite(_as_blochs(a), "a")
    c1, c2 = _require_finite(c1, "c1"), _require_finite(c2, "c2")
    shape = np.broadcast_shapes(a.shape[1:], c1.shape, c2.shape)
    return np.broadcast_to(a, (3,) + shape), np.broadcast_to(c1, shape), np.broadcast_to(c2, shape)


def _norms(*components) -> np.ndarray:
    """|v| of the vectors with these components, bit for bit np.linalg.norm of
    each: a stacked (1xk)(kx1) matmul takes the same dot product; norm(axis=...)
    rounds differently."""
    v = np.stack(np.broadcast_arrays(*components), axis=-1)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _basis_16() -> np.ndarray:
    """Operator basis stacked as (16, 4, 4): identity, S_i x I, I x E_j, S_i x E_j."""
    ops = [np.kron(ID2, ID2)]
    ops += [np.kron(s, ID2) for s in _PAULIS]
    ops += [np.kron(ID2, s) for s in _PAULIS]
    ops += [np.kron(si, sj) for si in _PAULIS for sj in _PAULIS]
    return np.stack(ops)


_BASIS = _basis_16()


def density_from_params(p) -> np.ndarray:
    """Reconstruct the 4x4 matrix (1/4)(I + sum a_i S_i x I + sum b_j I x E_j
    + sum T_ij S_i x E_j) of each state of `p` (shape (15, ...)): shape
    (..., 4, 4), one product of the 16 coefficients, the identity's 1.0 and
    then p, with the basis.

    Hermitian with unit trace by construction; not necessarily positive.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[:1] != (15,):
        raise ValueError(f"state parameters must have shape (15, ...), got {p.shape}")
    coeffs = np.empty((16,) + p.shape[1:])
    coeffs[0], coeffs[1:] = 1.0, p
    return 0.25 * np.tensordot(coeffs, _BASIS, axes=(0, 0))


def _validate_density(rho: np.ndarray) -> np.ndarray:
    """rho as a complex 4x4 matrix or stack (..., 4, 4), each Hermitian with
    unit trace within `DENSITY_TOL`."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if np.any(np.abs(trace.real - 1.0) > DENSITY_TOL) or np.any(np.abs(trace.imag) > DENSITY_TOL):
        raise ValueError("density matrix trace differs from 1 beyond tolerance")
    return rho


def _read_back(m: np.ndarray) -> np.ndarray:
    """tr(B_k M) for each basis element B_k but the identity: the 15
    parameters of each matrix of the stack `m` (..., 4, 4), stacked as
    (15, ...).  Checks nothing."""
    return np.einsum("kij,...ji->k...", _BASIS[1:], m).real


def params_from_density(rho: np.ndarray) -> np.ndarray:
    """Read the 15 parameters back out of a Hermitian unit-trace 4x4 matrix,
    or out of each matrix of a stack (..., 4, 4) into an array (15, ...).

    Inverse of `density_from_params` (round-trips entrywise within
    `tolerances.DENSITY_TOL`).
    """
    return _read_back(_validate_density(rho))


def embed_mean_values(a, c1, c2) -> np.ndarray:
    """Parameters (15, ...) of the minimal state carrying Bloch vector `a`
    and correlations c1 = <S1 E1>, c2 = <S2 E1>; every other parameter
    zero.  Broadcasts over stacks of `a` (shape (3, ...)), c1 and c2."""
    a, c1, c2 = _broadcast(a, c1, c2)
    p = np.zeros((15,) + c1.shape)
    p[A], p[T11], p[T21] = a, c1, c2
    return p


def min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of each Hermitian 4x4 (or 2x2) matrix of a stack
    (..., k, k), by one stacked eigvalsh; a float for a single matrix.  The
    matrices must be Hermitian within `tolerances.EIGENVALUE_HERMITIAN_TOL`."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, EIGENVALUE_HERMITIAN_TOL):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)[..., 0]
