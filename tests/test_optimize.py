"""Direct checks of the derivative-free search helpers."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qmaplab.optimize import golden_section_max
from qmaplab.tolerances import GOLDEN_TOL


def test_golden_section_on_sinusoid():
    # argmax of a flat quadratic maximum is only locatable to ~sqrt(eps);
    # the attained value is what the callers rely on
    x, fx = golden_section_max(math.sin, 0.0, math.pi)
    assert abs(x - math.pi / 2) < 1e-7
    assert abs(fx - 1.0) < 1e-14


def test_golden_section_on_shifted_parabola():
    x, fx = golden_section_max(lambda t: -((t - 0.37) ** 2), -1.0, 1.0)
    assert abs(x - 0.37) < 1e-7
    assert abs(fx) < 1e-14


def _golden_reference(f, lo, hi, tol=GOLDEN_TOL, max_iter=200):
    """The scalar loop golden_section_max ran before it broadcast."""
    invphi, invphi_sq = (math.sqrt(5.0) - 1.0) / 2.0, (3.0 - math.sqrt(5.0)) / 2.0
    a, b = float(lo), float(hi)
    h = b - a
    c = a + invphi_sq * h
    d = a + invphi * h
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if h <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi_sq * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = f(d)
    x = c if fc > fd else d
    return x, max(fc, fd)


def _seeded_brackets():
    """300 brackets of sin(w t) - 0.1 t^2: widths from 0.01 to 3 give each
    its own iteration count, and the first is narrower than tol from the start."""
    rng = np.random.default_rng(31)
    lo = rng.uniform(-2.0, 0.0, 300)
    hi = lo + rng.uniform(0.01, 3.0, 300)
    hi[0] = lo[0] + 5e-13
    w = rng.uniform(0.5, 4.0, 300)
    return lo, hi, w


def test_golden_section_batch_equals_per_bracket_calls():
    lo, hi, w = _seeded_brackets()
    x, fx = golden_section_max(lambda t: np.sin(w * t) - 0.1 * t * t, lo, hi)
    assert x.shape == fx.shape == (300,)
    for k in range(300):
        def f(t, k=k):
            return np.sin(w[k] * t) - 0.1 * t * t
        expected = _golden_reference(f, lo[k], hi[k])
        assert (x[k], fx[k]) == expected
        assert golden_section_max(f, lo[k], hi[k]) == expected


def test_golden_tol_loses_nothing_against_a_narrower_stop():
    # the stop at width W moves an interior maximum's value by at most
    # |f''| W^2 / 2, and a maximum at a bracket end (no caller's case) by |f'| W
    lo, hi, w = _seeded_brackets()
    eps = np.finfo(float).eps
    interior = 0
    for k in range(300):
        def f(t, k=k):
            return np.sin(w[k] * t) - 0.1 * t * t
        x_fine, f_fine = _golden_reference(f, lo[k], hi[k], tol=1e-12)
        _, fx = golden_section_max(f, lo[k], hi[k])
        inside = lo[k] + GOLDEN_TOL < x_fine < hi[k] - GOLDEN_TOL
        interior += inside
        # |f''| <= w^2 + 0.2 and, on t in [-2, 3], |f'| <= w + 0.6
        drift = 0.5 * (w[k] ** 2 + 0.2) * GOLDEN_TOL if inside else w[k] + 0.6
        assert abs(fx - f_fine) <= drift * GOLDEN_TOL + 4 * eps * abs(f_fine), k
    assert interior > 100


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                    ([0.0, 0.0], [1.0, math.inf])])
def test_golden_section_rejects_a_bracket_that_is_not_finite(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        golden_section_max(np.sin, lo, hi)


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), ([0.0, 2.0], [1.0, 1.5])])
def test_golden_section_rejects_lo_above_hi(lo, hi):
    with pytest.raises(ValueError, match="lo <= hi"):
        golden_section_max(np.sin, lo, hi)
