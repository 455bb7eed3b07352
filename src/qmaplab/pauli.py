"""Two-qubit Pauli algebra and density-matrix machinery.

Conventions used throughout the package: the observed ("system") qubit is the
first tensor factor, its partner ("environment") qubit the second.  A
two-qubit state is carried either as a 4x4 complex density matrix or as the
15 real parameters (a, b, T) with

    a_i = <S_i x I>,   b_j = <I x E_j>,   T_ij = <S_i x E_j>,

where S_i and E_j are the Pauli matrices acting on the system and environment
qubit.  Unphysical parameter sets are representable on purpose; physicality
is a verdict (the minimum eigenvalue of the reconstructed matrix), never a
constructor precondition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import DENSITY_TOL, EIGENVALUE_HERMITIAN_TOL

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_SX, _SY, _SZ)

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)


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


def _broadcast(a, c1, c2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors `a` (3, ...) and correlations c1, c2 broadcast to one
    stack shape: (a as (3,) + shape, c1 and c2 as shape), read-only views."""
    a = _as_blochs(a)
    shape = np.broadcast_shapes(a.shape[1:], np.shape(c1), np.shape(c2))
    return np.broadcast_to(a, (3,) + shape), np.broadcast_to(c1, shape), np.broadcast_to(c2, shape)


def _norms(*components) -> np.ndarray:
    """|v| of the vectors with these components, bit for bit np.linalg.norm of
    each: a stacked (1xk)(kx1) matmul takes the same dot product; norm(axis=...)
    rounds differently."""
    v = np.stack(np.broadcast_arrays(*components), axis=-1)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class TwoQubitState:
    """15-parameter two-qubit state, or a stack of them: Bloch vectors `a`,
    `b` of shape (3, ...) and correlation matrices `T` of shape (3, 3, ...)
    with T[i, j] = <S_{i+1} x E_{j+1}>.

    All parameters are dimensionless; physical states have each in [-1, 1].
    """

    a: np.ndarray
    b: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        a, b = _as_blochs(self.a), _as_blochs(self.b)
        T = np.asarray(self.T, dtype=float)
        if b.shape != a.shape:
            raise ValueError(f"b must have the shape of a, {a.shape}, got {b.shape}")
        if T.shape != (3,) + a.shape:
            raise ValueError(f"T must have shape {(3,) + a.shape}, got {T.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "T", T)

    def __getitem__(self, index) -> "TwoQubitState":
        """The states at `index` of the stack axes."""
        index = index if isinstance(index, tuple) else (index,)
        return TwoQubitState(a=self.a[(slice(None),) + index], b=self.b[(slice(None),) + index],
                             T=self.T[(slice(None), slice(None)) + index])


def _basis_16() -> np.ndarray:
    """Operator basis stacked as (16, 4, 4): identity, S_i x I, I x E_j, S_i x E_j."""
    ops = [np.kron(ID2, ID2)]
    ops += [np.kron(s, ID2) for s in _PAULIS]
    ops += [np.kron(ID2, s) for s in _PAULIS]
    ops += [np.kron(si, sj) for si in _PAULIS for sj in _PAULIS]
    return np.stack(ops)


_BASIS = _basis_16()


def _coeffs(s: TwoQubitState) -> np.ndarray:
    """The 16 basis coefficients of each state, stacked as (..., 16)."""
    stack = s.a.shape[1:]
    c = np.empty((16,) + stack)
    c[0], c[1:4], c[4:7], c[7:] = 1.0, s.a, s.b, s.T.reshape((9,) + stack)
    return c.transpose((*range(1, c.ndim), 0))


def density_from_params(s: TwoQubitState) -> np.ndarray:
    """Reconstruct the 4x4 matrix (1/4)(I + sum a_i S_i x I + sum b_j I x E_j
    + sum T_ij S_i x E_j) of each state: shape (..., 4, 4), one product of
    the (..., 16) coefficients with the basis.

    Hermitian with unit trace by construction; not necessarily positive.
    """
    return 0.25 * np.tensordot(_coeffs(s), _BASIS, axes=1)


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


def params_from_density(rho: np.ndarray) -> TwoQubitState:
    """Read the 15 parameters back out of a Hermitian unit-trace 4x4 matrix,
    or out of each matrix of a stack (..., 4, 4) into a `TwoQubitState`
    stack.

    Inverse of `density_from_params` (round-trips entrywise within
    `tolerances.DENSITY_TOL`).
    """
    rho = _validate_density(rho)
    p = np.einsum("kij,...ji->k...", _BASIS, rho).real
    return TwoQubitState(a=p[1:4], b=p[4:7], T=p[7:16].reshape((3, 3) + p.shape[1:]))


def embed_mean_values(a, c1, c2) -> TwoQubitState:
    """Minimal state carrying Bloch vector `a` and correlations c1 = <S1 E1>,
    c2 = <S2 E1>; every other parameter zero.  Broadcasts over stacks of
    `a` (shape (3, ...)), c1 and c2."""
    a, c1, c2 = _broadcast(a, c1, c2)
    T = np.zeros((3, 3) + c1.shape)
    T[0, 0] = c1
    T[1, 0] = c2
    return TwoQubitState(a=a, b=np.zeros(a.shape), T=T)


def min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of each Hermitian 4x4 (or 2x2) matrix of a stack
    (..., k, k), by one stacked eigvalsh; a float for a single matrix.  The
    matrices must be Hermitian within `tolerances.EIGENVALUE_HERMITIAN_TOL`."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, EIGENVALUE_HERMITIAN_TOL):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)[..., 0]
