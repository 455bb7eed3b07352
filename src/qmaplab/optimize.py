"""Small derivative-free search utilities: 1-D golden-section refinement
(broadcast over a batch of brackets) and a bounded Nelder-Mead simplex.
Both are deterministic given their inputs."""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .tolerances import GOLDEN_TOL

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
# `golden_section_max` stops every bracket after this many iterations
_GOLDEN_MAX_ITER = 200


def golden_section_max(f: Callable, lo, hi):
    """Maximize a unimodal function on [lo, hi] by golden-section search.

    Broadcasts over brackets: `lo` and `hi` may be arrays, and `f` maps an
    array of abscissae of their broadcast shape to the array of values,
    element by element.  Each element stops on its own once its bracket is
    no wider than `tolerances.GOLDEN_TOL`; widths differ by a few ulps between
    elements, so iteration counts can differ.  Returns (argmax, max), numpy
    scalars for scalar brackets.
    """
    shape = np.broadcast(lo, hi).shape
    a, b = (np.array(np.broadcast_to(v, shape), dtype=float).ravel() for v in (lo, hi))

    def values(x: np.ndarray) -> np.ndarray:
        return np.asarray(f(x.reshape(shape)[()]), dtype=float).ravel()

    h = b - a
    c = a + _INVPHI_SQ * h
    d = a + _INVPHI * h
    # each probe as its (abscissa, value) pair stacked (2, n), so that one
    # masked move carries both
    probe_c, probe_d = np.stack((c, values(c))), np.stack((d, values(d)))
    for _ in range(_GOLDEN_MAX_ITER):
        live = h > GOLDEN_TOL
        if not live.any():
            break
        gt = probe_c[1] > probe_d[1]
        left, right = live & gt, live & ~gt
        # left keeps [a, d]: the old c becomes d and c is probed anew;
        # right keeps [c, b]: the old d becomes c and d is probed anew
        np.copyto(a, probe_c[0], where=right)
        np.copyto(b, probe_d[0], where=left)
        h = b - a
        x = a + np.where(left, _INVPHI_SQ, _INVPHI) * h
        probe_x = np.stack((x, values(x)))
        np.copyto(probe_d, probe_c, where=left)
        np.copyto(probe_c, probe_d, where=right)
        np.copyto(probe_c, probe_x, where=left)
        np.copyto(probe_d, probe_x, where=right)
    (c, fc), (d, fd) = probe_c, probe_d
    x = np.where(fc > fd, c, d)
    # the larger value as Python's max picks it: fc unless fd is larger
    fx = np.where(fd > fc, fd, fc)
    return x.reshape(shape)[()], fx.reshape(shape)[()]


def nelder_mead_max(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    bounds: Optional[tuple[float, float]] = None,
    xatol: float = 1e-8,
    fatol: float = 1e-12,
    max_iter: int = 500,
    initial_step: float = 0.25,
) -> tuple[np.ndarray, float]:
    """Maximize `f` from `x0` with the classic Nelder-Mead simplex.

    `bounds`, when given, is a scalar box (lo, hi) applied to every
    coordinate; candidate vertices are clipped into it.  Terminates when the
    simplex collapses below `xatol` in coordinates and `fatol` in values, or
    after `max_iter` iterations.  Returns the best vertex and its value.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size

    def clip(x: np.ndarray) -> np.ndarray:
        if bounds is None:
            return x
        return np.clip(x, bounds[0], bounds[1])

    # initial simplex: x0 plus a step along each axis, stepping inward when
    # the step would leave the box
    verts = [clip(x0.copy())]
    for i in range(n):
        v = x0.copy()
        step = initial_step
        if bounds is not None and v[i] + step > bounds[1]:
            step = -initial_step
        v[i] += step
        verts.append(clip(v))
    simplex = np.array(verts)
    values = np.array([f(v) for v in simplex])

    for _ in range(max_iter):
        order = np.argsort(-values)  # best first
        simplex, values = simplex[order], values[order]
        if (
            np.max(np.abs(simplex[1:] - simplex[0])) <= xatol
            and np.max(np.abs(values[1:] - values[0])) <= fatol
        ):
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = clip(centroid + (centroid - worst))
        f_r = f(reflected)

        if f_r > values[0]:
            expanded = clip(centroid + 2.0 * (centroid - worst))
            f_e = f(expanded)
            if f_e > f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r > values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r > values[-1]:
                contracted = clip(centroid + 0.5 * (reflected - centroid))
            else:
                contracted = clip(centroid + 0.5 * (worst - centroid))
            f_c = f(contracted)
            if f_c > min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                # shrink toward the best vertex
                simplex[1:] = clip(simplex[0] + 0.5 * (simplex[1:] - simplex[0]))
                values[1:] = [f(v) for v in simplex[1:]]

    best = int(np.argmax(values))
    return simplex[best].copy(), float(values[best])
