"""Exact two-qubit evolution in two independent forms.

The interaction Hamiltonian is (1/2) S_3 x E_1 with the coupling set to 1,
so time is measured in radians.  The same dynamics is carried both as a
closed-form rotation of five mean values and as conjugation by the 4x4
unitary; each form is an oracle for the other (`crosscheck`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import (
    ID4,
    TwoQubitState,
    _as_bloch,
    density_from_params,
    kron,
    params_from_density,
    pauli,
)


@dataclass(frozen=True)
class MeanValueState:
    """System Bloch vector plus the two correlations the reduced map depends on."""

    a: np.ndarray
    c1: float  # <S_1 x E_1>
    c2: float  # <S_2 x E_1>

    def __post_init__(self):
        object.__setattr__(self, "a", _as_bloch(self.a))
        object.__setattr__(self, "c1", float(self.c1))
        object.__setattr__(self, "c2", float(self.c2))


def rotate(a, c1, c2, t):
    """The closed-form rotation behind every evolution and reduced map here;
    returns (a1', a2', a3, c1', c2') for a = (a1, a2, a3):

        a1' = a1 cos t - c2 sin t        c1' = c1 cos t - a2 sin t
        a2' = a2 cos t + c1 sin t        c2' = c2 cos t + a1 sin t

    Every argument broadcasts, so one call covers a whole grid.
    """
    ct, st = np.cos(t), np.sin(t)
    a1, a2, a3 = a
    return a1 * ct - c2 * st, a2 * ct + c1 * st, a3, c1 * ct - a2 * st, c2 * ct + a1 * st


def evolve_mean_values(m: MeanValueState, t: float) -> MeanValueState:
    """Exact evolution of the five mean values over duration `t`.  The pairs
    (a1, c2) and (a2, c1) rotate rigidly, so the update composes exactly:
    evolve(evolve(m, t), s) == evolve(m, t + s)."""
    a1, a2, a3, c1, c2 = rotate(m.a, m.c1, m.c2, t)
    return MeanValueState(a=[a1, a2, a3], c1=c1, c2=c2)


def unitary(t: float) -> np.ndarray:
    """U(t) = cos(t/2) I - i sin(t/2) (S_3 x E_1).

    The generator squares to the identity, so the exponential series
    collapses to this two-term form.  Periodic up to sign with period 4 pi.
    """
    return math.cos(t / 2) * ID4 - 1j * math.sin(t / 2) * kron(pauli(3), pauli(1))


def evolve_density(rho: np.ndarray, t: float) -> np.ndarray:
    """Conjugate a 4x4 density matrix by U(t); trace and spectrum preserved."""
    rho = np.asarray(rho, dtype=complex)
    # reuse the parameter extractor's validation (Hermitian, unit trace)
    params_from_density(rho)
    u = unitary(t)
    return u @ rho @ u.conj().T


def crosscheck(s: TwoQubitState, t: float) -> float:
    """Max absolute discrepancy between the two evolution forms.

    Evolves (s.a, T11, T21) with the closed form and compares against the
    same five numbers extracted from the conjugated density matrix.
    """
    closed = evolve_mean_values(MeanValueState(a=s.a, c1=s.T[0, 0], c2=s.T[1, 0]), t)
    evolved = params_from_density(evolve_density(density_from_params(s), t))
    diffs = np.abs(closed.a - evolved.a)
    return float(
        max(
            diffs.max(),
            abs(closed.c1 - evolved.T[0, 0]),
            abs(closed.c2 - evolved.T[1, 0]),
        )
    )
