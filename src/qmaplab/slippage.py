"""Slipped initial conditions: the restricted admissible regions that keep
n-fold map reuse physical on the slice a = (0, a2, 0), c2 = 0.

Surviving n reuses under worst-case schedules requires
a2^2 + (n+1) c1^2 <= 1; `slip_state` projects an offending a2 radially onto
that boundary, the minimal change preserving the Bloch vector's direction.
"""
from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .conjunction import first_unphysical_n
from .reduced import _slice_margin, _slice_sq
from .tolerances import DEFAULT_TOL, inside


def slipped_domain_check(a2, c1, n):
    """The slipped-domain margin 1 - sqrt(a2^2 + (n+1) c1^2)
    (`reduced._slice_sq`), 1 - growth row n: >= 0 iff n worst-case reuses
    stay physical.  Broadcasts over arrays of a2, c1 and n.
    Every n must be an integer >= 1; a bool, a float or a str raises
    ValueError naming n.  A root past the float range raises ValueError."""
    counts = np.asarray(n)  # a Python int past 2^64 makes an object array
    if isinstance(n, bool) or not (isinstance(n, int) or counts.dtype.kind in "iu"):
        raise ValueError(f"n must be an integer, got n={n!r}")
    if np.any(counts < 1):
        raise ValueError(f"n must be >= 1, got {n}")
    return _slice_margin(a2, c1, counts + 1)


def max_safe_repetitions(a2: float, c1: float) -> Optional[Union[int, float]]:
    """Largest n >= 1 surviving the slipped-domain condition.

    Returns math.inf when c1 == 0 (no growth, any number of reuses is safe),
    None when even n = 1 fails.  Whenever both are defined this equals
    `first_unphysical_n(a2, c1) - 1`.
    """
    first = first_unphysical_n(a2, c1)
    if first is None:
        return math.inf
    if first <= 1:
        return None
    return first - 1


def slip_state(a2, c1, n):
    """Minimal radial adjustment of a slice state a = (0, a2, 0) onto the
    n-reuse boundary; returns the slipped a2.

    Inputs inside at `DEFAULT_TOL`, whatever a run's tol, come back unchanged;
    otherwise a2 shrinks to sign(a2) * sqrt(max(0, 1 - (n+1) c1^2)),
    `reduced._slice_sq` at a2 = 0.  Idempotent.  Broadcasts over arrays of
    a2, c1 and n, which `slipped_domain_check` validates.
    """
    a2, c1 = np.asarray(a2, dtype=float), np.asarray(c1, dtype=float)
    safe = inside(slipped_domain_check(a2, c1, n), DEFAULT_TOL)
    edge = np.sqrt(np.maximum(0.0, 1.0 - _slice_sq(0.0, c1, np.asarray(n) + 1)))
    return np.where(safe, a2, np.copysign(edge, a2))[()]
