"""Affine reduced maps on the system-qubit Bloch vector, with domain verdicts.

A reduced map is fixed by the frozen correlations (c1, c2) and a duration t.
Two domains matter: the positivity domain at a given t (images stay inside
the Bloch ball) and the compatibility domain (the intersection of the
positivity domains over all t, equal here to the set of Bloch vectors jointly
realizable with the frozen correlations in some physical two-qubit state —
`feasibility` certifies that identity independently instead of assuming it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import rotate
from .optimize import golden_section_max
from .pauli import DEFAULT_TOL, _as_bloch


@dataclass(frozen=True)
class DomainVerdict:
    """Signed-margin membership verdict: positive margin = slack, negative =
    violation; `inside` applies the boundary tolerance."""

    inside: bool
    margin: float


@dataclass(frozen=True)
class ReducedMap:
    """Affine Bloch-vector map determined by frozen correlations and duration."""

    c1: float
    c2: float
    t: float

    def apply(self, a) -> np.ndarray:
        """(a1 cos t - c2 sin t, a2 cos t + c1 sin t, a3), the first three
        components of `rotate` with the correlations left frozen.  `t` may
        be an array; the result then has shape (3,) + t.shape."""
        a1, a2, a3, _, _ = rotate(_as_bloch(a), self.c1, self.c2, self.t)
        return np.array(np.broadcast_arrays(a1, a2, a3))


def in_positivity_domain(m: ReducedMap, a, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Inside iff the image Bloch vector has norm <= 1 + tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    margin = 1.0 - float(np.linalg.norm(m.apply(a)))
    return DomainVerdict(inside=margin >= -tol, margin=margin)


def _norm_sq_coeffs(c1: float, c2: float, a: np.ndarray) -> tuple[float, float, float]:
    """|a(t)|^2 = A + B cos 2t + C sin 2t.

    With r^2 = a1^2 + a2^2 and k^2 = c1^2 + c2^2 the squared norm expands to
    a3^2 + r^2 cos^2 t + k^2 sin^2 t + 2 (a2 c1 - a1 c2) sin t cos t, and the
    double-angle identities give A = a3^2 + (r^2 + k^2)/2,
    B = (r^2 - k^2)/2, C = a2 c1 - a1 c2.
    """
    r_sq = a[0] ** 2 + a[1] ** 2
    k_sq = c1**2 + c2**2
    big_a = a[2] ** 2 + 0.5 * (r_sq + k_sq)
    big_b = 0.5 * (r_sq - k_sq)
    big_c = a[1] * c1 - a[0] * c2
    return big_a, big_b, big_c


def sup_norm_over_time(c1: float, c2: float, a) -> tuple[float, float]:
    """Supremum of |a(t)| over t in [0, 2 pi), with a maximizing t.

    Closed form: max |a(t)|^2 = A + sqrt(B^2 + C^2) with the coefficients of
    `_norm_sq_coeffs`, attained at 2t = atan2(C, B).
    """
    a = _as_bloch(a)
    big_a, big_b, big_c = _norm_sq_coeffs(c1, c2, a)
    amp = math.hypot(big_b, big_c)
    sup_sq = big_a + amp
    if amp == 0.0:
        argmax_t = 0.0  # |a(t)| constant; every t maximizes
    else:
        argmax_t = 0.5 * math.atan2(big_c, big_b) % (2 * math.pi)
    return math.sqrt(max(sup_sq, 0.0)), argmax_t


def sup_norm_grid(c1: float, c2: float, a, points: int = 100_000) -> tuple[float, float]:
    """Validation path for `sup_norm_over_time`: dense grid over [0, 2 pi)
    plus one golden-section refinement around the best grid point."""
    a = _as_bloch(a)
    ts = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    a1t, a2t, _, _, _ = rotate(a, c1, c2, ts)
    norm_sq = a1t**2 + a2t**2 + a[2] ** 2
    k = int(np.argmax(norm_sq))
    h = 2 * math.pi / points

    def norm_sq_at(t: float) -> float:
        a1t, a2t, a3, _, _ = rotate(a, c1, c2, t)
        return a1t**2 + a2t**2 + a3**2

    t_best, f_best = golden_section_max(norm_sq_at, ts[k] - h, ts[k] + h)
    return math.sqrt(max(f_best, 0.0)), t_best % (2 * math.pi)


def in_compatibility_domain(c1: float, c2: float, a, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Inside iff sup over t of |a(t)| stays <= 1 + tol (intersection of all
    positivity domains for the frozen correlations)."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    sup, _ = sup_norm_over_time(c1, c2, a)
    margin = 1.0 - sup
    return DomainVerdict(inside=margin >= -tol, margin=margin)


def compat_slice_check(a2: float, c1: float, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Analytic compatibility check on the slice a = (0, a2, 0), c2 = 0:
    inside iff a2^2 + c1^2 <= 1.  Agrees with `in_compatibility_domain`
    restricted to the slice."""
    margin = 1.0 - math.hypot(a2, c1)
    return DomainVerdict(inside=margin >= -tol, margin=margin)
