"""Affine reduced maps on the system-qubit Bloch vector, with domain margins.

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

from .dynamics import _turn, rotate
from .optimize import golden_section_max
from .pauli import _as_bloch, _as_blochs, _require_count, _require_finite
from .tolerances import GRID_VALUE_PAD


def _finite_sup(sup):
    """sup, unless an entry is infinite (an input is, or |a(t)| passes
    1.3e154) or NaN (an input is, or infinite inputs cancel): ValueError."""
    if np.isinf(sup).any():
        raise ValueError("the supremum overflows: an input is infinite or |a(t)| passes about 1.3e154")
    if np.isnan(sup).any():
        raise ValueError("the supremum is NaN: an input is NaN, or infinite inputs cancel")
    return sup


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


def _norm_sq_coeffs(c1, c2, a: np.ndarray) -> tuple:
    """|a(t)|^2 = A + B cos 2t + C sin 2t.

    With r^2 = a1^2 + a2^2 and k^2 = c1^2 + c2^2 the squared norm expands to
    a3^2 + r^2 cos^2 t + k^2 sin^2 t + 2 (a2 c1 - a1 c2) sin t cos t, and the
    double-angle identities give A = a3^2 + (r^2 + k^2)/2,
    B = (r^2 - k^2)/2, C = a2 c1 - a1 c2.
    """
    r_sq = a[0] * a[0] + a[1] * a[1]
    k_sq = c1 * c1 + c2 * c2
    big_a = a[2] * a[2] + 0.5 * (r_sq + k_sq)
    big_b = 0.5 * (r_sq - k_sq)
    big_c = a[1] * c1 - a[0] * c2
    return big_a, big_b, big_c


def _sup_norm(c1, c2, a) -> tuple:
    """sqrt(A + hypot(B, C)), the supremum of |a(t)|, with hypot(B, C), B
    and C of `_norm_sq_coeffs`."""
    with np.errstate(over="ignore", invalid="ignore"):  # `_finite_sup` raises
        big_a, big_b, big_c = _norm_sq_coeffs(c1, c2, _as_blochs(a))
        amp = np.hypot(big_b, big_c)
        sup = np.sqrt(np.maximum(big_a + amp, 0.0))
    return _finite_sup(sup), amp, big_b, big_c


def sup_norm_over_time(c1, c2, a):
    """Supremum of |a(t)| over t in [0, 2 pi), with a maximizing t.

    Closed form: max |a(t)|^2 = A + sqrt(B^2 + C^2) with the coefficients of
    `_norm_sq_coeffs`, attained at 2t = atan2(C, B).  Broadcasts: `a` may
    stack Bloch vectors along trailing axes, shape (3, ...), against arrays
    of c1 and c2.  Squares are x * x, the root np.hypot and the angle
    np.arctan2, so a scalar call gives the bits of the same state in a batch.
    """
    sup, amp, big_b, big_c = _sup_norm(c1, c2, a)
    # amp == 0: |a(t)| is constant and every t maximizes; report t = 0
    argmax_t = np.where(amp == 0.0, 0.0, 0.5 * np.arctan2(big_c, big_b) % (2 * math.pi))
    return sup[()], argmax_t[()]


# grid points per block of `sup_norm_grid`'s coarse pass, and the most grid
# values either pass holds at once: 64 kB arrays, which stay in cache
_BLOCK, _SLICE = 64, 1 << 13


def sup_norm_grid(c1, c2, a, points: int = 100_000):
    """Validation path for `sup_norm_over_time`: dense grid over [0, 2 pi)
    plus one golden-section refinement around the first best grid point.

    Broadcasts like `sup_norm_over_time`.  cos and sin of the t grid are
    taken once.  The walk is a coarse-to-fine branch and bound (Shubert,
    SIAM J. Numer. Anal. 9, 1972): a coarse pass takes every `_BLOCK`-th
    grid value F_b of f = |a(t)|^2 and bounds block b, the points up to the
    next one (F_0 again at t = 2 pi), by max(F_b, F_{b+1}) + L H^2 / 8 + 2
    delta: L = 2 (p^2 + q^2) >= |f''| (p = |a1| + |c2|, q = |a2| + |c1|), H
    = `_BLOCK` h the block width and delta = `tolerances.GRID_VALUE_PAD` (p^2
    + q^2 + a3^2 + 1) the rounding of a value and of H.  A fine pass walks
    the blocks whose bound reaches the state's best F_b, so each state's
    first argmax is the one a walk of every point finds.  Both round as
    `_turn` does and hold at most `_SLICE` values (or one state's block
    starts, if more) however many points tie.  The refinement runs once for
    the whole batch.  `points` must be an integer >= 1 and every input
    finite; a supremum past the float range raises ValueError.
    """
    points = _require_count(points, "points", 1)
    a1, a2, a3, c1, c2 = np.broadcast_arrays(*_as_blochs(a), c1, c2)
    a, c1, c2 = np.stack((a1.ravel(), a2.ravel(), a3.ravel())), c1.ravel(), c2.ravel()
    for name, v in (("a", a), ("c1", c1), ("c2", c2)):
        _require_finite(v, name)
    ts = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    h, blocks = 2 * math.pi / points, -(-points // _BLOCK)
    # a row per block; the last point's copies pad the last one and never win a first argmax
    cos_t, sin_t = (f(np.pad(ts, (0, blocks * _BLOCK - points), mode="edge")).reshape(blocks, -1)
                    for f in (np.cos, np.sin))
    cos_s, sin_s = (np.append(v[:, 0], v[0, 0]) for v in (cos_t, sin_t))  # starts, t = 2 pi
    k, step, rows = np.empty(c1.size, dtype=int), max(1, _SLICE // (blocks + 1)), _SLICE // _BLOCK
    with np.errstate(over="ignore"):  # an infinite L keeps every block; `_finite_sup` raises
        a3_sq, width = a[2] * a[2], _BLOCK * h

        def norm_sq(i, ct, st):
            a1t, a2t = _turn(a[0, i], a[1, i], c1[i], c2[i], ct, st)
            return a1t * a1t + a2t * a2t + a3_sq[i]

        pq_sq = np.square(np.abs(a[0]) + np.abs(c2)) + np.square(np.abs(a[1]) + np.abs(c1))
        # L H^2 / 8 + 2 delta
        slack = pq_sq * (width * width / 4 + 2 * GRID_VALUE_PAD) + 2 * GRID_VALUE_PAD * (a3_sq + 1)
        for lo in range(0, c1.size, step):
            coarse = norm_sq(np.arange(lo, min(lo + step, c1.size))[:, None], cos_s, sin_s)
            bound = np.maximum(coarse[:, :-1], coarse[:, 1:]) + slack[lo:lo + step, None]
            # (state, block) in index order, with at least one block a state
            state, block = (bound >= coarse.max(axis=1)[:, None]).nonzero()
            best, at = np.empty(state.size), block * _BLOCK
            for s in (slice(r, r + rows) for r in range(0, state.size, rows)):
                fine = norm_sq(lo + state[s, None], cos_t[block[s]], sin_t[block[s]])
                best[s], at[s] = fine.max(axis=1), at[s] + fine.argmax(axis=1)
            # each state's first point holding its largest value
            first = np.flatnonzero(np.diff(state, prepend=-1))
            top = np.maximum.reduceat(best, first)[state]
            k[lo:lo + step] = np.minimum.reduceat(np.where(best == top, at, points), first)
        t_best, f_best = golden_section_max(lambda t: norm_sq(slice(None), np.cos(t), np.sin(t)),
                                            ts[k] - h, ts[k] + h)
    sup = _finite_sup(np.sqrt(np.maximum(f_best, 0.0))).reshape(a1.shape)
    return sup[()], (t_best % (2 * math.pi)).reshape(a1.shape)[()]


def in_compatibility_domain(c1, c2, a):
    """The compatibility margin 1 - sup over t of |a(t)| (the intersection
    of all positivity domains for the frozen correlations).  Broadcasts like
    `sup_norm_over_time`, whose supremum it takes without the angle."""
    return (1.0 - _sup_norm(c1, c2, a)[0])[()]


def _slice_sq(a2, c1, m):
    """a2^2 + m c1^2, the slice law on a = (0, a2, 0), c2 = 0: the squared
    worst case after n reuses at m = n + 1, the squared sup over t at m = 1."""
    return a2 * a2 + m * (c1 * c1)


def _slice_margin(a2, c1, m):
    """1 - sqrt(`_slice_sq`) of float arrays; a root past the float range
    raises ValueError, as in `in_compatibility_domain`."""
    a2, c1 = np.asarray(a2, dtype=float), np.asarray(c1, dtype=float)
    with np.errstate(over="ignore"):  # `_finite_sup` raises
        return (1.0 - _finite_sup(np.sqrt(_slice_sq(a2, c1, m))))[()]


def compat_slice_check(a2, c1):
    """Analytic compatibility margin on the slice a = (0, a2, 0), c2 = 0:
    1 - sqrt(`_slice_sq`(a2, c1, 1)), the bits of growth row 0, >= 0 iff
    a2^2 + c1^2 <= 1.  Agrees with `in_compatibility_domain` restricted to
    the slice.  Broadcasts over arrays of a2 and c1."""
    return _slice_margin(a2, c1, 1)
