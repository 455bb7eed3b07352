"""Domain margins of the affine reduced maps on the system-qubit Bloch
vector; the map itself runs in `conjunction.conjunct`.

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

import numpy as np

from .dynamics import _turn
from .optimize import golden_section_max
from .pauli import _as_blochs, _broadcast, _require_count
from .tolerances import GRID_VALUE_PAD


def _finite_sup(sup):
    """sup, unless an entry is infinite (an input is, or |a(t)| passes
    1.3e154) or NaN (an input is, or infinite inputs cancel): ValueError."""
    if np.isinf(sup).any():
        raise ValueError("the supremum overflows: an input is infinite or |a(t)| passes about 1.3e154")
    if np.isnan(sup).any():
        raise ValueError("the supremum is NaN: an input is NaN, or infinite inputs cancel")
    return sup


class ReducedMap:
    """Deleted: `conjunction.conjunct` runs the frozen map.  The class stays
    only because `perfbench/tracing.py` traces its `apply` (ROADMAP item 1)."""

    def apply(self, *args, **kwargs):
        raise NotImplementedError("ReducedMap was removed; call conjunction.conjunct (ROADMAP item 1)")


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


# `sup_norm_grid`'s block widths, widest first, and the most values an evaluation holds (64 kB)
_WIDTHS, _SLICE = (512, 64, 8), 1 << 13


def sup_norm_grid(c1, c2, a, points: int = 100_000):
    """Validation path for `sup_norm_over_time`: dense grid over [0, 2 pi)
    plus one golden-section refinement around the first best grid point.

    Broadcasts like `sup_norm_over_time`.  A depth-first branch and bound
    (Shubert, SIAM J. Numer. Anal. 9, 1972) walks blocks of each `_WIDTHS`
    below `points`, then every point.  It drops block b, from F_b = f(t_b) to
    F_{b+1} (F_0 at t = 2 pi), f = |a(t)|^2, if max(F_b, F_{b+1}) + L H^2 / 8
    + 2 delta is below the state's best value so far: L = 2 (p^2 + q^2) >=
    |f''| (p = |a1| + |c2|, q = |a2| + |c1|), H the block width, delta =
    `tolerances.GRID_VALUE_PAD` (p^2 + q^2 + a3^2 + 1).  A new best resets
    the first argmax, so it is the one a walk of every point finds.  `points`
    must be an integer >= 1 and every input finite; a supremum past the float
    range raises ValueError.
    """
    points = _require_count(points, "points", 1)
    a, c1, c2 = _broadcast(a, c1, c2)
    shape, a, c1, c2 = c1.shape, a.reshape(3, c1.size), c1.ravel(), c2.ravel()
    ts = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    h, widths = 2 * math.pi / points, [w for w in _WIDTHS if w < points] + [1]
    size = -(-points // widths[0]) * widths[0]
    # index `points` is t = 2 pi, where f repeats F_0; the blocks' indices past it read it too
    cos_t, sin_t = np.cos(np.append(ts, 0.0)), np.sin(np.append(ts, 0.0))
    # a level's points in a block of the level above: its blocks' starts and end, or every point
    offsets = [np.arange(0, up + (w > 1), w) for up, w in zip([size, *widths], widths)]
    best, k = np.full(c1.size, -np.inf), np.zeros(c1.size, dtype=int)
    with np.errstate(over="ignore"):  # an infinite L keeps every block; `_finite_sup` raises
        a3_sq = a[2] * a[2]
        pq_sq = np.square(np.abs(a[0]) + np.abs(c2)) + np.square(np.abs(a[1]) + np.abs(c1))
        delta = GRID_VALUE_PAD * (pq_sq + a3_sq + 1)
        slack = [pq_sq * (w * h) ** 2 / 4 + 2 * delta for w in widths[:-1]]  # L H^2 / 8 + 2 delta

        def norm_sq(i, ct, st):
            a1t, a2t = _turn(a[0, i], a[1, i], c1[i], c2[i], ct, st)
            return a1t * a1t + a2t * a2t + a3_sq[i]

        def visit(level, state, start):  # one slice of (state, block) rows, freed on return
            rows = max(1, _SLICE // offsets[level].size)
            if state.size > rows:  # the rest waits under this slice's sub-blocks
                work.append((level, state[rows:], start[rows:]))
            state, at = state[:rows], np.minimum(start[:rows, None] + offsets[level], points)
            values = norm_sq(state[:, None], cos_t[at], sin_t[at])
            r, j = np.arange(state.size), values.argmax(axis=1)
            top, first = values[r, j], at[r, j]
            k[state[top > best[state]]] = size  # a new best resets the first argmax
            np.maximum.at(best, state, top)
            now = best[state]
            np.minimum.at(k, state[top == now], first[top == now])
            if level + 1 < len(widths):
                bound = np.maximum(values[:, :-1], values[:, 1:]) + slack[level][state, None]
                row, col = (bound >= now[:, None]).nonzero()
                work.append((level + 1, state[row], at[row, col]))
        work = [(0, np.arange(c1.size), np.zeros(c1.size, dtype=int))]  # (level, state, start)
        while work:
            visit(*work.pop())
        t_best, f_best = golden_section_max(lambda t: norm_sq(slice(None), np.cos(t), np.sin(t)),
                                            ts[k] - h, ts[k] + h)
    sup = _finite_sup(np.sqrt(np.maximum(f_best, 0.0))).reshape(shape)
    return sup[()], (t_best % (2 * math.pi)).reshape(shape)[()]


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
