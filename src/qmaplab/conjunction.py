"""Map conjunctions: reuse of one frozen reduced map across consecutive time
steps, hazard detection, and the extremal growth law.

A conjunction applies the reduced map fixed by the time-0 correlations
(c1, c2) for a first leg of duration t and then again, unchanged, for further
legs s_1 ... s_n.  The exact dynamics would update the correlations between
legs; the conjunction deliberately does not, and the output Bloch vector can
leave the unit ball.  Nothing here raises on unphysical intermediate values:
hazards are reported, not rejected.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynamics import _turn
from .optimize import golden_section_max
from .pauli import _norms
from .reduced import ReducedMap, _require_tol
from .tolerances import BOUNDARY_EPS, DEFAULT_TOL, ZERO_CORRELATION_SQ

_TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class ConjunctionSchedule:
    """First-leg duration `t` plus the reuse durations s_1 ... s_n."""

    t: float
    steps: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "steps", tuple(float(s) for s in self.steps))

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def durations(self) -> tuple[float, ...]:
        return (self.t,) + self.steps


@dataclass(frozen=True)
class HazardReport:
    """Outcome of a conjunction run.

    `magnitudes[k]` and `trajectory[k]` describe the Bloch vector after leg k
    (k = 0 is the first leg).  `first_unphysical_step` is the first k whose
    magnitude exceeds 1 + tol, or None; `worst_margin` is 1 - max(magnitudes).
    """

    magnitudes: np.ndarray
    first_unphysical_step: Optional[int]
    worst_margin: float
    trajectory: np.ndarray


def conjunct(
    c1: float,
    c2: float,
    a,
    sched: ConjunctionSchedule,
    tol: float = DEFAULT_TOL,
) -> HazardReport:
    """Run the frozen map over every leg of `sched`, recording the Bloch
    vector and its magnitude after each leg.  A negative or NaN tol, or a
    non-finite a, c1, c2 or duration, raises ValueError."""
    _require_tol(tol)
    for name, value in (("c1", c1), ("c2", c2), ("a", a), ("durations", sched.durations)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {name}={value!r}")
    trajectory = []
    for duration in sched.durations:
        a = ReducedMap(c1, c2, duration).apply(a)
        trajectory.append(a)
    trajectory = np.array(trajectory)
    magnitudes = _norms(*trajectory.T)
    exceed = np.nonzero(magnitudes > 1.0 + tol)[0]
    return HazardReport(
        magnitudes=magnitudes,
        first_unphysical_step=int(exceed[0]) if exceed.size else None,
        worst_margin=1.0 - float(magnitudes.max()),
        trajectory=trajectory,
    )


def sigma2_conjunction(a2, c1, t, s):
    """Second Bloch component after one reuse on the slice a = (0, a2, 0),
    c2 = 0:  a2 cos t cos s + c1 (sin t cos s + sin s).  Two legs of `rotate`
    with c1 frozen, multiplied out; this order rounds differently from the
    fold and is the one the hazard outputs carry.  Broadcasts over arrays."""
    return a2 * np.cos(t) * np.cos(s) + c1 * (np.sin(t) * np.cos(s) + np.sin(s))


def _sigma2_legs(a2, c1, durations: Sequence):
    """Fold the frozen-map update v -> v cos s + c1 sin s over the legs, one
    `_turn` each (the a2' component of `rotate` on the slice); broadcasts
    over arrays of a2, c1 and durations."""
    v = a2
    for s in durations:
        v = _turn(0.0, v, c1, 0.0, np.cos(s), np.sin(s))[1]
    return v


def _greedy_legs(a2: float, c1: float) -> Iterator[tuple[float, float]]:
    """The greedy schedule leg by leg, without end: (duration, magnitude
    after the leg).  The running value v obeys v' = v cos s + c1 sin s,
    maximized at s = atan2(c1, v), folded into [0, 2 pi) (the map is
    2 pi-periodic per leg), with value hypot(v, c1)."""
    v = float(a2)
    while True:
        step, v = math.atan2(c1, v) % _TWO_PI, math.hypot(v, c1)
        yield step, v


def _reuses(n) -> int:
    """n as a Python int >= 0.  A bool, a float, a str or an array raises
    ValueError naming n."""
    count = np.asarray(n)
    if count.ndim or count.dtype.kind not in "iu":  # a bool's kind is "b"
        raise ValueError(f"n must be an integer, got n={n!r}")
    if count < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return int(count)


def greedy_extremal_growth(a2: float, c1: float, n: int) -> tuple[np.ndarray, ConjunctionSchedule]:
    """Worst-case growth under n reuses: per leg, the duration maximizing the
    next magnitude (`_greedy_legs`), so the magnitudes satisfy
    M_k^2 = M_{k-1}^2 + c1^2 and M_n^2 = a2^2 + (n+1) c1^2.  Returns the
    n+1 magnitudes and the maximizing schedule.
    """
    n = _reuses(n)
    durations, magnitudes = zip(*itertools.islice(_greedy_legs(a2, c1), n + 1))
    return np.array(magnitudes), ConjunctionSchedule(t=durations[0], steps=durations[1:])


def _require_finite(a2: float, c1: float) -> None:
    if not (math.isfinite(a2) and math.isfinite(c1)):
        raise ValueError(f"a2 and c1 must be finite, got a2={a2!r}, c1={c1!r}")


def _grid_argmax(a2: float, c1: float, n: int, grid_points: int) -> tuple[float, tuple[int, ...]]:
    """Maximum of |v_n| over every schedule on the uniform grid of
    `grid_points` angles per leg, and the first maximizing leg indices in
    C order, without enumerating the grid_points^(n+1) schedules.

    Each leg maps v to fl(fl(v cos g) + fl(c1 sin g)).  Rounding is
    monotone, so for a fixed grid angle g the step is monotone in v, and the
    largest and smallest values reachable after a leg come from the largest
    and smallest after the leg before.  That envelope, taken with the same
    arithmetic, gives the grid maximum.  The maximizer is fixed one leg at a
    time: the first grid index whose continuation envelope still reaches
    the maximum.  Cost O(n^2 G^2) for G grid points.
    """
    grid = np.arange(grid_points) * (_TWO_PI / grid_points)
    cos_g, sin_g = np.cos(grid), np.sin(grid)

    def leg(v):
        """One leg from each value of v, over every grid angle (last axis)."""
        return np.asarray(v)[..., None] * cos_g + c1 * sin_g

    def peak(v, legs: int):
        """max |value| reachable from each value of v in `legs` more legs."""
        hi = lo = np.asarray(v)
        for _ in range(legs):
            both = leg(np.stack((hi, lo)))
            hi, lo = both.max(axis=(0, -1)), both.min(axis=(0, -1))
        return np.maximum(np.abs(hi), np.abs(lo))

    best_val = float(peak(a2, n + 1))
    v, idx = a2, []
    for k in range(n + 1):
        reachable = leg(v)
        idx.append(int(np.flatnonzero(peak(reachable, n - k) == best_val)[0]))
        v = reachable[idx[-1]]
    return best_val, tuple(idx)


def brute_force_max(a2, c1, n: int, grid_points: int = 128, *, reuses=None):
    """Independent oracle for the growth law: the exact maximum of |<S_2>|
    over a uniform grid on [0, 2 pi)^(n+1) (`_grid_argmax`, an envelope
    that costs O(n^2 G^2) rather than G^(n+1)), then one cyclic pass of
    golden-section searches (one bracketed 1-D solve per leg).  n is capped
    at 3.

    Broadcasts over a2 and c1 and, when given, over `reuses`: each point's
    own number of reuses, integers 0..n (n for every point by default).  The
    grid maximum is found point by point, and the refinement of leg i is one
    `golden_section_max` call over the points with reuses >= i, with the bits
    of the per-point calls.  The legs are stored as (n + 1, points), and a
    point's legs past its own count stay 0.0: such a leg maps v to
    fl(v * 1.0) + fl(c1 * 0.0) = v up to the sign of a zero, which the
    absolute value drops.  Returns the broadcast shape (a numpy scalar for a
    single point).
    """
    n = _reuses(n)
    if n > 3:
        raise ValueError("brute_force_max supports n <= 3; use greedy_extremal_growth")
    if grid_points < 64:
        raise ValueError(f"grid_points must be >= 64, got {grid_points}")
    counts = np.asarray(n if reuses is None else reuses)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"reuses must be integers, got reuses={reuses!r}")
    outside = (counts < 0) | (counts > n)
    if outside.any():
        raise ValueError(f"reuses must lie in 0..n = {n}, got {counts[outside].flat[0]}")
    a2, c1, counts = np.broadcast_arrays(np.asarray(a2, dtype=float),
                                         np.asarray(c1, dtype=float), counts)
    shape, a2, c1, counts = a2.shape, a2.ravel(), c1.ravel(), counts.ravel()
    h = _TWO_PI / grid_points
    legs = np.zeros((n + 1, counts.size))
    for p, (a, c, m) in enumerate(zip(a2.tolist(), c1.tolist(), counts.tolist())):
        _require_finite(a, c)
        legs[:m + 1, p] = np.array(_grid_argmax(a, c, m, grid_points)[1]) * h
    best = np.empty(counts.size)
    # one cyclic refinement pass: golden-section each leg on +/- one spacing;
    # the other legs stay put, so those before leg i are folded once
    for i in range(n + 1):
        live = counts >= i
        a, c, own = a2[live], c1[live], legs[:, live]
        head = _sigma2_legs(a, c, own[:i])
        tail = own[i + 1:]
        # a point's value is the one from its own last leg, i = reuses
        legs[i, live], best[live] = golden_section_max(
            lambda x: abs(_sigma2_legs(head, c, [x, *tail])), own[i] - h, own[i] + h)
    return best.reshape(shape)[()]


def first_unphysical_n(a2: float, c1: float) -> Optional[int]:
    """Smallest n >= 0 with a2^2 + (n+1) c1^2 > 1, i.e. the first number of
    reuses whose worst-case schedule exceeds the Bloch ball.

    None when c1 == 0 (no correlation, no growth).  The inequality is tested
    directly with the `tolerances.BOUNDARY_EPS` guard, so sums landing
    exactly on 1 do not count as exceeding it; no floating floor/ceil
    decides the index.
    Raises ValueError for non-finite a2 or c1.
    """
    _require_finite(a2, c1)
    c1_sq = c1 * c1
    if c1_sq < ZERO_CORRELATION_SQ:
        return None
    threshold = 1.0 + BOUNDARY_EPS

    def exceeds(n: int) -> bool:
        return a2 * a2 + (n + 1) * c1_sq > threshold

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
