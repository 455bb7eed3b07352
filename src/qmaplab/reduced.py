"""Affine reduced maps on the system-qubit Bloch vector, with domain verdicts.

A reduced map is fixed by the frozen correlations (c1, c2) and a duration t.
Two domains matter: the positivity domain at a given t (images stay inside
the Bloch ball; its margin 1 - |image| is what the conjunction outputs
report) and the compatibility domain (the intersection of the
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
from .pauli import DEFAULT_TOL, _as_bloch, _as_blochs


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


def _sq(x):
    """x**2 rounded as Python's scalar power rounds it (libm pow).  That
    differs from x*x, which array ** 2 computes, in about 0.1% of doubles;
    the domain-map and validate outputs carry the scalar rounding."""
    return np.float_power(x, 2)


def _math2(fn, x, y) -> np.ndarray:
    """The `math` function fn(x, y) element by element over broadcast x, y.
    np.hypot and np.arctan2 round differently from math.hypot and
    math.atan2 (about 0.6% and 8% of random pairs)."""
    return np.asarray(np.frompyfunc(fn, 2, 1)(x, y), dtype=float)


def _norm_sq_coeffs(c1, c2, a: np.ndarray) -> tuple:
    """|a(t)|^2 = A + B cos 2t + C sin 2t.

    With r^2 = a1^2 + a2^2 and k^2 = c1^2 + c2^2 the squared norm expands to
    a3^2 + r^2 cos^2 t + k^2 sin^2 t + 2 (a2 c1 - a1 c2) sin t cos t, and the
    double-angle identities give A = a3^2 + (r^2 + k^2)/2,
    B = (r^2 - k^2)/2, C = a2 c1 - a1 c2.
    """
    r_sq = _sq(a[0]) + _sq(a[1])
    k_sq = _sq(c1) + _sq(c2)
    big_a = _sq(a[2]) + 0.5 * (r_sq + k_sq)
    big_b = 0.5 * (r_sq - k_sq)
    big_c = a[1] * c1 - a[0] * c2
    return big_a, big_b, big_c


def sup_norm_over_time(c1, c2, a):
    """Supremum of |a(t)| over t in [0, 2 pi), with a maximizing t.

    Closed form: max |a(t)|^2 = A + sqrt(B^2 + C^2) with the coefficients of
    `_norm_sq_coeffs`, attained at 2t = atan2(C, B).  Broadcasts: `a` may
    stack Bloch vectors along trailing axes, shape (3, ...), against arrays
    of c1 and c2.
    """
    big_a, big_b, big_c = _norm_sq_coeffs(c1, c2, _as_blochs(a))
    amp = _math2(math.hypot, big_b, big_c)
    sup = np.sqrt(np.maximum(big_a + amp, 0.0))
    # amp == 0: |a(t)| is constant and every t maximizes; report t = 0
    argmax_t = np.where(amp == 0.0, 0.0, 0.5 * _math2(math.atan2, big_c, big_b) % (2 * math.pi))
    return sup[()], argmax_t[()]


# grid values per chunk in `sup_norm_grid`, bounding its memory
_GRID_CHUNK = 1 << 17


def sup_norm_grid(c1, c2, a, points: int = 100_000):
    """Validation path for `sup_norm_over_time`: dense grid over [0, 2 pi)
    plus one golden-section refinement around the best grid point.

    Broadcasts like `sup_norm_over_time`.  The t grid goes through in
    chunks against every state at once, so each cos/sin is taken once and
    memory stays bounded; the refinement runs once for the whole batch.
    """
    a1, a2, a3, c1, c2 = np.broadcast_arrays(*_as_blochs(a), c1, c2)
    shape = a1.shape
    a, c1, c2 = np.stack((a1.ravel(), a2.ravel(), a3.ravel())), c1.ravel(), c2.ravel()
    ts = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    h = 2 * math.pi / points
    # running first argmax over the chunks: a later chunk wins only if larger
    k = np.zeros(c1.size, dtype=int)
    best = np.full(c1.size, -np.inf)
    step = max(1, _GRID_CHUNK // max(c1.size, 1))
    a3_sq = _sq(a[2, :, None])
    for lo in range(0, points, step):
        a1t, a2t, _, _, _ = rotate(a[:, :, None], c1[:, None], c2[:, None], ts[lo:lo + step])
        norm_sq = a1t * a1t + a2t * a2t + a3_sq
        j = np.argmax(norm_sq, axis=1)
        top = np.take_along_axis(norm_sq, j[:, None], axis=1)[:, 0]
        k = np.where(top > best, lo + j, k)
        best = np.maximum(top, best)

    def norm_sq_at(t: np.ndarray) -> np.ndarray:
        a1t, a2t, a3t, _, _ = rotate(a, c1, c2, t)
        return _sq(a1t) + _sq(a2t) + _sq(a3t)

    t_best, f_best = golden_section_max(norm_sq_at, ts[k] - h, ts[k] + h)
    sup = np.sqrt(np.maximum(f_best, 0.0)).reshape(shape)
    return sup[()], (t_best % (2 * math.pi)).reshape(shape)[()]


def in_compatibility_domain(c1, c2, a, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Inside iff sup over t of |a(t)| stays <= 1 + tol (intersection of all
    positivity domains for the frozen correlations).  Broadcasts like
    `sup_norm_over_time`."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    sup, _ = sup_norm_over_time(c1, c2, a)
    margin = 1.0 - sup
    return DomainVerdict(inside=margin >= -tol, margin=margin)


def compat_slice_check(a2, c1, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Analytic compatibility check on the slice a = (0, a2, 0), c2 = 0:
    inside iff a2^2 + c1^2 <= 1.  Agrees with `in_compatibility_domain`
    restricted to the slice.  Broadcasts over arrays of a2 and c1."""
    margin = (1.0 - _math2(math.hypot, a2, c1))[()]
    return DomainVerdict(inside=margin >= -tol, margin=margin)
