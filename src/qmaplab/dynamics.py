"""Exact two-qubit evolution in two independent forms.

The interaction Hamiltonian is (1/2) S_3 x E_1 with the coupling set to 1,
so time is measured in radians.  The same dynamics is carried both as a
closed-form rotation of five mean values and as conjugation by the 4x4
unitary; each form is an oracle for the other (`crosscheck`).

Both forms broadcast: `rotate` over arrays of mean values and times,
`unitary` over times, `evolve_density` over stacks (..., 4, 4) of density
matrices and times, and `crosscheck` over a stack (15, ...) of state
parameters, so a whole batch of states is checked in one call, with the
bits the per-state calls give.
"""
from __future__ import annotations

import operator

import numpy as np

from .pauli import (
    A,
    ID4,
    T11,
    T21,
    _require_finite,
    _validate_density,
    density_from_params,
    params_from_density,
    pauli,
)

# S_3 x E_1, twice the interaction Hamiltonian
_S3_E1 = np.kron(pauli(3), pauli(1))


def _turn_component(x, y, ct, st, combine=operator.add):
    """combine(x ct, y st): one component of `_turn`, by default its second,
    x ct + y st, and its first with combine = subtract."""
    return combine(x * ct, y * st)


def _turn(x1, x2, y1, y2, ct, st):
    """(x1 ct - y2 st, x2 ct + y1 st): a1' and a2' of `rotate` for
    (x, y) = (a, c), and c1' and c2' for (x, y) = (c, a).  Every product,
    difference and sum rounds as written."""
    return _turn_component(x1, y2, ct, st, operator.sub), _turn_component(x2, y1, ct, st)


def rotate(a, c1, c2, t):
    """The closed-form rotation behind every evolution and reduced map here;
    returns (a1', a2', a3, c1', c2') for a = (a1, a2, a3):

        a1' = a1 cos t - c2 sin t        c1' = c1 cos t - a2 sin t
        a2' = a2 cos t + c1 sin t        c2' = c2 cos t + a1 sin t

    Every argument broadcasts, so one call covers a whole grid.  `_turn`
    writes the two pairs.
    """
    ct, st = np.cos(t), np.sin(t)
    a1, a2, a3 = a
    return (*_turn(a1, a2, c1, c2, ct, st), a3, *_turn(c1, c2, a1, a2, ct, st))


def evolve_mean_values(*args, **kwargs):
    """Deleted wrapper of `rotate`; the name stays only because
    `perfbench/tracing.py` traces it and `perfbench/test_perfbench.py` pins
    its `cli` binding (ROADMAP item 1)."""
    raise NotImplementedError("evolve_mean_values was removed; call rotate (ROADMAP item 1)")


def unitary(t) -> np.ndarray:
    """U(t) = cos(t/2) I - i sin(t/2) (S_3 x E_1), shape (..., 4, 4) for t
    of shape (...).

    The generator squares to the identity, so the exponential series
    collapses to this two-term form.  Periodic up to sign with period 4 pi.
    A non-finite t anywhere in the array raises ValueError.
    """
    half = _require_finite(t, "t")[..., None, None] / 2
    return np.cos(half) * ID4 - 1j * np.sin(half) * _S3_E1


def evolve_density(rho: np.ndarray, t) -> np.ndarray:
    """Conjugate each 4x4 density matrix of `rho` (shape (..., 4, 4)) by
    U(t), broadcasting t against the stack; trace and spectrum preserved."""
    rho = _validate_density(rho)
    u = unitary(t)
    return u @ rho @ np.swapaxes(u.conj(), -1, -2)


def crosscheck(s, t):
    """Max absolute discrepancy between the two evolution forms, one per
    state of the stack `s` of parameters (15, ...) (a float for a single
    state); t broadcasts against the stack.  A NaN or infinite entry of s
    or t raises ValueError naming it.

    Rotates (a, T11, T21) in closed form and compares against the same
    five numbers read back from the conjugated density matrix.
    """
    s = _require_finite(s, "s")
    evolved = params_from_density(evolve_density(density_from_params(s), t))
    closed = rotate(s[A], s[T11], s[T21], t)
    read_back = (*evolved[A], evolved[T11], evolved[T21])
    worst = np.max([np.abs(x - y) for x, y in zip(closed, read_back)], axis=0)
    return float(worst) if worst.ndim == 0 else worst
