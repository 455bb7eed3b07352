"""Map conjunctions: reuse of one frozen reduced map across consecutive time
steps, and the extremal growth law.

A conjunction applies the reduced map fixed by the time-0 correlations
(c1, c2) for a first leg of duration t and then again, unchanged, for further
legs s_1 ... s_n.  The exact dynamics would update the correlations between
legs; the conjunction deliberately does not, and the output Bloch vector can
leave the unit ball.  Nothing here raises on unphysical intermediate values:
the magnitudes are returned, and the caller reads the hazard from them.  The
full Bloch vector's legs are written once, as `conjunct`; a leg on the
slice a = (0, a2, 0), c2 = 0, where only a2 moves, once, as `_fold`; and
the greedy worst case once, as the closed form `_greedy_rows`.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .dynamics import _turn, _turn_component
from .pauli import _as_bloch, _norms, _require_count, _require_finite
from .reduced import _slice_sq
from .tolerances import BOUNDARY_EPS, ZERO_CORRELATION_SQ

_TWO_PI = 2 * math.pi


def conjunct(c1: float, c2: float, a, durations) -> tuple[np.ndarray, np.ndarray]:
    """Run the frozen map over every leg of `durations` (the first leg t,
    then the reuses s_1 ... s_n), an array of shape (legs, ...): each leg
    turns (a1, a2) by `dynamics._turn` with the frozen (c1, c2) and carries
    a3 unchanged.  Returns (magnitudes, trajectory) of shapes (legs, ...)
    and (legs, 3, ...): trajectory[k] is the Bloch vector after leg k, and
    magnitudes[k] its norm.  A non-finite a, c1, c2 or duration, or
    durations that are 0-d or empty raise ValueError."""
    durations = np.asarray(durations, dtype=float)
    if durations.ndim == 0 or durations.size == 0:
        raise ValueError(f"durations must be non-empty with a leading leg axis, got durations={durations!r}")
    c1, c2 = _require_finite(c1, "c1"), _require_finite(c2, "c2")
    a1, a2, a3 = _as_bloch(_require_finite(a, "a"))
    _require_finite(durations, "durations")
    points = np.broadcast_shapes(durations.shape[1:], c1.shape, c2.shape)
    trajectory = np.empty((len(durations), 3) + points)
    trajectory[:, 2] = a3
    for leg, ct, st in zip(trajectory, np.cos(durations), np.sin(durations)):
        leg[0], leg[1] = a1, a2 = _turn(a1, a2, c1, c2, ct, st)
    return _norms(*trajectory.swapaxes(0, 1)), trajectory


def _fold(v, c1, turns: Sequence):
    """Fold the frozen-map update v -> v cos s + c1 sin s over the legs given
    as their (cos s, sin s) pairs, one `_turn_component` each (the a2'
    component of `rotate` on the slice); broadcasts over arrays."""
    for ct, st in turns:
        v = _turn_component(v, c1, ct, st)
    return v


def _sigma2_legs(a2, c1, durations: Sequence):
    """`_fold` over the legs of the given durations; broadcasts over arrays
    of a2, c1 and durations."""
    return _fold(a2, c1, [(np.cos(s), np.sin(s)) for s in durations])


def sigma2_conjunction(*args, **kwargs):
    """Deleted wrapper of `_sigma2_legs`; the name stays only because
    `perfbench/tracing.py` traces it (ROADMAP item 1)."""
    raise NotImplementedError("sigma2_conjunction was removed; call _sigma2_legs (ROADMAP item 1)")


def _greedy_rows(a2, c1, k):
    """(durations, magnitudes) of greedy legs k: v' = v cos s + c1 sin s
    peaks at s = atan2(c1, v) % 2 pi with value hypot(v, c1), so leg k has
    M_k = sqrt(`reduced._slice_sq`(a2, c1, k + 1)) after atan2(c1, M_{k-1}),
    M_{-1} = a2 signed.  Scaled by 2^-e, e the exponent of max(|a2|, |c1|),
    and back: powers of two round exactly, so these are the unscaled
    expression's bits wherever it does not underflow or overflow.
    Broadcasts over arrays."""
    e = np.frexp(np.maximum(abs(a2), abs(c1)))[1]
    a, c = np.ldexp(a2, -e), np.ldexp(c1, -e)
    previous, magnitudes = (np.ldexp(np.sqrt(_slice_sq(a, c, m)), e) for m in (k, k + 1))
    return np.arctan2(c1, np.where(k == 0, a2, previous)) % _TWO_PI, magnitudes


def greedy_extremal_growth(a2: float, c1: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case growth under n reuses: per leg, the duration maximizing the
    next magnitude, so the magnitudes satisfy M_k^2 = M_{k-1}^2 + c1^2 and
    M_n^2 = a2^2 + (n+1) c1^2 (`_greedy_rows` for legs 0..n).  Returns the
    n+1 magnitudes and the n+1 maximizing durations (the first leg, then
    the reuses).  Raises ValueError for non-finite a2 or c1.
    """
    n = _require_count(n, "n", 0)
    _require_finite(a2, "a2")
    _require_finite(c1, "c1")
    durations, magnitudes = _greedy_rows(a2, c1, np.arange(n + 1))
    return magnitudes, durations


# `_grid_argmax` takes its points in blocks of this many values over G^2,
# so its envelope buffer holds 2^19 values (4 MB) at most
_ENVELOPE_VALUES = 1 << 18


def _grid_argmax(a2, c1, n: int, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of |v_n| over every schedule on the uniform grid of
    `grid_points` angles per leg, and the first maximizing leg indices in
    C order, without enumerating the grid_points^(n+1) schedules; for each
    point of a2 and c1 (flattened), which share n.  Returns (maxima, leg
    indices of shape (n + 1, points)).

    Each leg maps v to fl(fl(v cos g) + fl(c1 sin g)).  Rounding is
    monotone, so for a fixed grid angle g the step is monotone in v, and the
    largest and smallest values reachable after a leg come from the largest
    and smallest after the leg before.  That envelope, taken with the same
    arithmetic, gives the grid maximum.  The maximizer is fixed one leg at a
    time: the first grid index whose continuation envelope still reaches
    the maximum.  Cost O(n^2 G^2) per point for G grid points; the points
    go in blocks of `_ENVELOPE_VALUES` // G^2, and every leg of a block is
    written into one buffer, as fresh arrays of that size would each be
    mapped and faulted in anew.
    """
    grid = np.arange(grid_points) * (_TWO_PI / grid_points)
    cos_g, sin_g = np.cos(grid), np.sin(grid)
    a2, c1 = np.ravel(a2).astype(float), np.ravel(c1).astype(float)
    best, idx = np.empty(a2.size), np.empty((n + 1, a2.size), dtype=np.intp)
    block = max(1, _ENVELOPE_VALUES // grid_points**2)
    space = np.empty(min(block, a2.size) * 2 * grid_points**2)
    for start in range(0, a2.size, block):
        chunk = slice(start, start + block)
        a = a2[chunk]
        c_sin = c1[chunk, None] * sin_g

        def leg(v):
            """One leg from each value of v (points first) over every grid
            angle (a new last axis): `_turn_component`'s v cos g + c1 sin g,
            into the buffer."""
            out = space[:v.size * grid_points].reshape(v.shape + (grid_points,))
            np.multiply(v[..., None], cos_g, out=out)
            out += c_sin.reshape(c_sin.shape[:1] + (1,) * (v.ndim - 1) + c_sin.shape[1:])
            return out

        def peak(v, legs: int):
            """max |value| reachable from each value of v in `legs` more legs."""
            hi = lo = v
            for _ in range(legs):
                # the largest and smallest over (hi, lo) and every angle: the
                # last two axes, one contiguous run per value of v
                both = leg(np.stack((hi, lo), axis=-1))
                hi, lo = both.max(axis=(-2, -1)), both.min(axis=(-2, -1))
            return np.maximum(np.abs(hi), np.abs(lo))

        points = np.arange(a.size)
        best[chunk] = top = peak(a, n + 1)
        v = a
        for k in range(n + 1):
            reachable = leg(v).copy()  # the buffer is the next peak's
            first = np.argmax(peak(reachable, n - k) == top[:, None], axis=1)
            idx[k, chunk] = first
            v = reachable[points, first]
    return best, idx


def brute_force_max(a2, c1, n: int, grid_points: int = 128):
    """Independent oracle for the growth law (n <= 3): the exact maximum of
    |<S_2>| over a uniform grid on [0, 2 pi)^(n+1) (`_grid_argmax`, an
    envelope costing O(n^2 G^2) rather than G^(n+1)), then one cyclic pass
    taking each leg to its exact maximum on its grid bracket g +/- 2 pi / G:
    the value is linear in u = head cos x + c1 sin x, extreme at atan2(c1,
    head) and half a turn on, so |value| peaks there (on the turn nearest
    g, clipped into the bracket) or at a bracket end; the first largest
    wins.  Unbracketed, the pass is the greedy construction, blind to the grid.

    Broadcasts over a2 and c1, which share n, and returns their broadcast
    shape (a numpy scalar for a single point).
    """
    n = _require_count(n, "n", 0)
    if n > 3:
        raise ValueError("brute_force_max supports n <= 3; use greedy_extremal_growth")
    grid_points = _require_count(grid_points, "grid_points", 64)
    a2, c1 = np.broadcast_arrays(_require_finite(a2, "a2"), _require_finite(c1, "c1"))
    shape, a2, c1 = a2.shape, a2.ravel(), c1.ravel()
    h = _TWO_PI / grid_points
    legs = _grid_argmax(a2, c1, n, grid_points)[1] * h
    points = np.arange(a2.size)
    for i, g in enumerate(legs):
        head = _sigma2_legs(a2, c1, legs[:i])
        peaks = np.arctan2(c1, head) + np.array([[0.0], [math.pi]])  # the extremes of u
        peaks = g + np.remainder(peaks - g + math.pi, _TWO_PI) - math.pi
        x = np.concatenate((np.clip(peaks, g - h, g + h), [g - h, g + h]))
        values = abs(_sigma2_legs(head, c1, [x, *legs[i + 1:]]))
        first = values.argmax(axis=0), points  # the first largest
        legs[i], best = x[first], values[first]
    return best.reshape(shape)[()]


def first_unphysical_n(a2: float, c1: float) -> Optional[int]:
    """Smallest n >= 0 with a2^2 + (n+1) c1^2 > 1, i.e. the first number of
    reuses whose worst-case schedule exceeds the Bloch ball.

    None when c1^2 < `tolerances.ZERO_CORRELATION_SQ` (no correlation, no
    growth), c1 = 0 included.  `reduced._slice_sq` at m = n + 1 is tested
    directly with the `tolerances.BOUNDARY_EPS` guard, so sums landing
    exactly on 1 do not count; no floor/ceil decides n.
    Raises ValueError for non-finite a2 or c1.
    """
    _require_finite(a2, "a2")
    _require_finite(c1, "c1")
    if c1 * c1 < ZERO_CORRELATION_SQ:
        return None

    def exceeds(n: int) -> bool:
        return _slice_sq(a2, c1, n + 1) > 1.0 + BOUNDARY_EPS

    if exceeds(0):
        return 0
    # exceeds() is monotone in n: bracket by doubling, then bisect
    hi = 1
    while not exceeds(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exceeds(mid):
            hi = mid
        else:
            lo = mid
    return hi
