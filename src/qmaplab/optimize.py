"""1-D golden-section refinement, broadcast over a batch of brackets and
deterministic given its inputs."""
from __future__ import annotations

import math
from typing import Callable

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
    no wider than `tolerances.GOLDEN_TOL` (about sqrt(eps), below which an
    interior maximum's value is flat to rounding); widths differ by a few
    ulps between elements, so iteration counts can differ.  Returns
    (argmax, max), numpy scalars for scalar brackets.  Raises ValueError for
    a bracket that is not finite or has lo > hi.
    """
    shape = np.broadcast(lo, hi).shape
    a, b = (np.array(np.broadcast_to(v, shape), dtype=float).ravel() for v in (lo, hi))
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a <= b))
    if bad.any():
        k = bad.argmax()
        raise ValueError(f"golden_section_max needs finite brackets with lo <= hi, "
                         f"got lo={float(a[k])}, hi={float(b[k])}")

    def values(x: np.ndarray) -> np.ndarray:
        return np.asarray(f(x.reshape(shape)[()]), dtype=float).ravel()

    h = b - a
    c = a + _INVPHI_SQ * h
    d = a + _INVPHI * h
    # each probe as its (abscissa, value) pair in a (2, n) buffer, so that
    # one masked move carries both
    probe_c, probe_d, probe_x = np.empty((3, 2, a.size))
    probe_c[0], probe_c[1] = c, values(c)
    probe_d[0], probe_d[1] = d, values(d)
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
        probe_x[0], probe_x[1] = x, values(x)
        np.copyto(probe_d, probe_c, where=left)
        np.copyto(probe_c, probe_d, where=right)
        np.copyto(probe_c, probe_x, where=left)
        np.copyto(probe_d, probe_x, where=right)
    (c, fc), (d, fd) = probe_c, probe_d
    x = np.where(fc > fd, c, d)
    # the larger value as Python's max picks it: fc unless fd is larger
    fx = np.where(fd > fc, fd, fc)
    return x.reshape(shape)[()], fx.reshape(shape)[()]


def nelder_mead_max(*args, **kwargs):
    """Deleted search; the name stays only because `perfbench/tracing.py`
    traces it and `perfbench/test_perfbench.py` pins its `feasibility`
    binding (ROADMAP item 1)."""
    raise NotImplementedError("nelder_mead_max was removed; see ROADMAP item 1")
