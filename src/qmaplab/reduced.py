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

from .dynamics import _turn, rotate
from .optimize import golden_section_max
from .pauli import _as_bloch, _as_blochs
from .tolerances import DEFAULT_TOL, PERIOD_PAD


def _require_tol(tol: float) -> None:
    """A boundary tolerance must be >= 0; NaN is rejected too."""
    if not tol >= 0:
        raise ValueError("tol must be >= 0")


@dataclass(frozen=True)
class DomainVerdict:
    """Signed-margin membership verdict: positive margin = slack, negative =
    violation; `inside` applies the boundary tolerance."""

    inside: bool
    margin: float

    @staticmethod
    def of(margin, tol: float) -> "DomainVerdict":
        """The verdict of `margin` (a float or an array): inside iff
        margin >= -tol.  A NaN margin, which a NaN input gives, raises
        ValueError rather than reading as outside."""
        _require_tol(tol)
        if np.isnan(margin).any():
            raise ValueError("margin is NaN: an input is NaN or infinite")
        return DomainVerdict(inside=margin >= -tol, margin=margin)


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
    big_a, big_b, big_c = _norm_sq_coeffs(c1, c2, _as_blochs(a))
    amp = np.hypot(big_b, big_c)
    return np.sqrt(np.maximum(big_a + amp, 0.0)), amp, big_b, big_c


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


def sup_norm_grid(c1, c2, a, points: int = 100_000):
    """Validation path for `sup_norm_over_time`: dense grid over [0, 2 pi)
    plus one golden-section refinement around the first best grid point.

    Broadcasts like `sup_norm_over_time`.  cos and sin of the t grid are
    taken once.  a1(t) and a2(t) change sign under t -> t + pi, so |a(t)|^2
    has period pi, and the walk covers one period: the first m = points -
    points // 2 grid points, one state at a time, each a whole row, whose
    first argmax is the state's best so far.  A point t_i + m of the other
    half can beat that best only if t_i is within eta of it, eta = L drift
    + `tolerances.PERIOD_PAD` (p^2 + q^2 + a3^2 + 1): L = 2 (p^2 + q^2)
    bounds |d|a(t)|^2/dt| (p = |a1| + |c2|, q = |a2| + |c1|), drift is how
    far the grid's t_{i+m} - t_i is from pi (about 1e-15 for even `points`,
    h/2 for odd), and the pad covers rounding.  Those near-ties' partners
    are evaluated in one batch after the walk, with the arithmetic of the
    walk, so the first maximizer is the one a walk of every point finds.  A
    state's a1(t), a2(t) and |a(t)|^2 go into three m-long buffers allocated
    once per call, so the call holds the t grid, its cos and sin and three
    half rows however many states it takes.  The refinement runs once for
    the whole batch.  `points` must be >= 1 and every input finite.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got points={points!r}")
    a1, a2, a3, c1, c2 = np.broadcast_arrays(*_as_blochs(a), c1, c2)
    shape = a1.shape
    a, c1, c2 = np.stack((a1.ravel(), a2.ravel(), a3.ravel())), c1.ravel(), c2.ravel()
    for name, v in (("a", a), ("c1", c1), ("c2", c2)):
        bad = v[~np.isfinite(v)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {name}={bad[0].item()!r}")
    ts = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    h = 2 * math.pi / points
    cos_t, sin_t = np.cos(ts), np.sin(ts)
    m, pairs = points - points // 2, points // 2  # t_i and t_{i+m} for i < pairs
    drift = np.max(np.abs(ts[m:] - ts[:pairs] - math.pi), initial=0.0)
    a3_sq = a[2] * a[2]
    with np.errstate(over="ignore"):  # an infinite eta visits every partner
        pq_sq = np.square(np.abs(a[0]) + np.abs(c2)) + np.square(np.abs(a[1]) + np.abs(c1))
        # L drift + pad (p^2 + q^2 + a3^2 + 1) with L factored out, so that
        # an infinite L meets no zero drift
        eta = (2 * drift + PERIOD_PAD) * pq_sq + PERIOD_PAD * (a3_sq + 1.0)
    k = np.empty(c1.size, dtype=int)
    best = np.empty(c1.size)
    near = [np.empty(0, dtype=int)]  # partners as state * points + j; empty for no states
    out = [np.empty(m) for _ in range(3)]
    cos_m, sin_m = cos_t[:m], sin_t[:m]
    for i in range(c1.size):
        a1t, a2t = _turn(a[0, i], a[1, i], c1[i], c2[i], cos_m, sin_m, out)
        # a1t^2 + a2t^2 + a3^2, summed in that order, into a1t's buffer
        norm_sq = np.add(np.add(np.multiply(a1t, a1t, out=a1t), np.multiply(a2t, a2t, out=a2t),
                                out=a1t), a3_sq[i], out=a1t)
        k[i] = top = norm_sq.argmax()
        best[i] = norm_sq[top]
        near.append((norm_sq[:pairs] >= best[i] - eta[i]).nonzero()[0] + (i * points + m))
    # the partners of the near-ties, every state at once
    state, j = np.divmod(np.concatenate(near), points)
    a1t, a2t = _turn(a[0, state], a[1, state], c1[state], c2[state], cos_t[j], sin_t[j])
    f = a1t * a1t + a2t * a2t + a3_sq[state]
    # a partner moves the maximizer only if strictly larger (a tie keeps the
    # earlier index): the largest such value, the first j among equals
    beat = f > best[state]
    state, j, f = state[beat], j[beat], f[beat]
    order = np.lexsort((j, -f, state))
    _, first = np.unique(state[order], return_index=True)
    k[state[order][first]] = j[order][first]

    def norm_sq_at(t: np.ndarray) -> np.ndarray:
        a1t, a2t = _turn(a[0], a[1], c1, c2, np.cos(t), np.sin(t))
        return a1t * a1t + a2t * a2t + a3_sq

    t_best, f_best = golden_section_max(norm_sq_at, ts[k] - h, ts[k] + h)
    sup = np.sqrt(np.maximum(f_best, 0.0)).reshape(shape)
    return sup[()], (t_best % (2 * math.pi)).reshape(shape)[()]


def in_compatibility_domain(c1, c2, a, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Inside iff sup over t of |a(t)| stays <= 1 + tol (intersection of all
    positivity domains for the frozen correlations).  Broadcasts like
    `sup_norm_over_time`, whose supremum it takes without the angle."""
    return DomainVerdict.of((1.0 - _sup_norm(c1, c2, a)[0])[()], tol)


def compat_slice_check(a2, c1, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Analytic compatibility check on the slice a = (0, a2, 0), c2 = 0:
    inside iff a2^2 + c1^2 <= 1.  Agrees with `in_compatibility_domain`
    restricted to the slice.  Broadcasts over arrays of a2 and c1; the
    margin is 1 - np.hypot(a2, c1) for scalars and arrays alike."""
    return DomainVerdict.of((1.0 - np.hypot(a2, c1))[()], tol)
