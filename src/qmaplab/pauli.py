"""Two-qubit Pauli algebra and density-matrix machinery.

Conventions used throughout the package: the observed ("system") qubit is the
first tensor factor, its partner ("environment") qubit the second.  A
two-qubit state is carried either as a 4x4 complex density matrix or as the
15 real parameters (a, b, T) with

    a_i = <S_i x I>,   b_j = <I x E_j>,   T_ij = <S_i x E_j>,

where S_i and E_j are the Pauli matrices acting on the system and environment
qubit.  Unphysical parameter sets are representable on purpose; physicality
is a verdict (`is_physical`), never a constructor precondition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default slack for boundary classifications.  The closed forms used in this
# package are exact, so the tolerance only has to absorb rounding noise.
DEFAULT_TOL = 1e-9

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_SX, _SY, _SZ)

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)


def pauli(index: int) -> np.ndarray:
    """Standard Pauli matrix for one qubit; `index` is 1, 2 or 3.  Both
    qubits carry the same three matrices; `kron` places them."""
    if index not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index!r}")
    return _PAULIS[index - 1].copy()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the system-qubit factor first."""
    return np.kron(a, b)


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    """Entrywise Hermiticity check: max |M - M^dagger| <= tol."""
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


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


@dataclass(frozen=True)
class TwoQubitState:
    """15-parameter two-qubit state: Bloch vectors `a`, `b` and correlation
    matrix `T` with T[i, j] = <S_{i+1} x E_{j+1}>.

    All parameters are dimensionless; physical states have each in [-1, 1].
    """

    a: np.ndarray
    b: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_bloch(self.a))
        object.__setattr__(self, "b", _as_bloch(self.b))
        T = np.asarray(self.T, dtype=float)
        if T.shape != (3, 3):
            raise ValueError(f"T must have shape (3, 3), got {T.shape}")
        object.__setattr__(self, "T", T)

    @property
    def c1(self) -> float:
        """Correlation <S_1 x E_1>."""
        return float(self.T[0, 0])

    @property
    def c2(self) -> float:
        """Correlation <S_2 x E_1>."""
        return float(self.T[1, 0])


@dataclass(frozen=True)
class PhysicalityVerdict:
    physical: bool
    margin: float  # smallest eigenvalue of the reconstructed density matrix


def _basis_16() -> np.ndarray:
    """Operator basis stacked as (16, 4, 4): identity, S_i x I, I x E_j, S_i x E_j."""
    ops = [np.kron(ID2, ID2)]
    ops += [np.kron(s, ID2) for s in _PAULIS]
    ops += [np.kron(ID2, s) for s in _PAULIS]
    ops += [np.kron(si, sj) for si in _PAULIS for sj in _PAULIS]
    return np.stack(ops)


_BASIS = _basis_16()


def _coeffs(s: TwoQubitState) -> np.ndarray:
    return np.concatenate(([1.0], s.a, s.b, s.T.ravel()))


def density_from_params(s: TwoQubitState) -> np.ndarray:
    """Reconstruct the 4x4 matrix (1/4)(I + sum a_i S_i x I + sum b_j I x E_j
    + sum T_ij S_i x E_j).

    Hermitian with unit trace by construction; not necessarily positive.
    """
    return 0.25 * np.tensordot(_coeffs(s), _BASIS, axes=1)


def _validate_density(rho: np.ndarray, tol: float) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    if not is_hermitian(rho, tol):
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise ValueError("density matrix trace differs from 1 beyond tolerance")
    return rho


def params_from_density(rho: np.ndarray, tol: float = 1e-12) -> TwoQubitState:
    """Read the 15 parameters back out of a Hermitian unit-trace 4x4 matrix.

    Inverse of `density_from_params` (round-trips to 1e-12 entrywise).
    """
    rho = _validate_density(rho, tol)
    p = np.einsum("kij,ji->k", _BASIS, rho).real
    return TwoQubitState(a=p[1:4], b=p[4:7], T=p[7:16].reshape(3, 3))


def embed_mean_values(a, c1: float, c2: float) -> TwoQubitState:
    """Minimal state carrying Bloch vector `a` and correlations c1 = <S1 E1>,
    c2 = <S2 E1>; every other parameter zero."""
    T = np.zeros((3, 3))
    T[0, 0] = c1
    T[1, 0] = c2
    return TwoQubitState(a=_as_bloch(a), b=np.zeros(3), T=T)


def partial_trace_env(rho: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Trace out the environment qubit, leaving the system qubit's 2x2 matrix."""
    rho = _validate_density(rho, tol)
    return np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))


def min_eigenvalue(m: np.ndarray, tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a Hermitian 4x4 (or 2x2) matrix."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh(m)[0])


def is_physical(s: TwoQubitState, tol: float = DEFAULT_TOL) -> PhysicalityVerdict:
    """Physical iff the reconstructed density matrix has min eigenvalue >= -tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    margin = min_eigenvalue(density_from_params(s))
    return PhysicalityVerdict(physical=margin >= -tol, margin=margin)
