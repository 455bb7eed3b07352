"""Direct checks of the derivative-free search helpers."""
from __future__ import annotations

import math

import numpy as np

from qmaplab.optimize import golden_section_max, nelder_mead_max


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


def _golden_reference(f, lo, hi, tol=1e-12, max_iter=200):
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


def test_golden_section_batch_equals_per_bracket_calls():
    # widths from 0.01 to 3 give each bracket its own iteration count; the
    # first is narrower than tol from the start
    rng = np.random.default_rng(31)
    lo = rng.uniform(-2.0, 0.0, 300)
    hi = lo + rng.uniform(0.01, 3.0, 300)
    hi[0] = lo[0] + 5e-13
    w = rng.uniform(0.5, 4.0, 300)
    x, fx = golden_section_max(lambda t: np.sin(w * t) - 0.1 * t * t, lo, hi)
    assert x.shape == fx.shape == (300,)
    for k in range(300):
        def f(t, k=k):
            return np.sin(w[k] * t) - 0.1 * t * t
        expected = _golden_reference(f, lo[k], hi[k])
        assert (x[k], fx[k]) == expected
        assert golden_section_max(f, lo[k], hi[k]) == expected


def test_nelder_mead_concave_quadratic():
    target = np.array([0.3, -0.5, 0.1, 0.7])

    def f(x):
        return -float(np.sum((x - target) ** 2))

    x, fx = nelder_mead_max(f, np.zeros(4), xatol=1e-10, fatol=1e-14, max_iter=2000)
    assert np.abs(x - target).max() < 1e-6
    assert fx > -1e-12


def test_nelder_mead_respects_bounds():
    # unconstrained optimum at 1.5 sits outside the box
    def f(x):
        return -float(np.sum((x - 1.5) ** 2))

    x, fx = nelder_mead_max(f, np.zeros(3), bounds=(-1, 1), xatol=1e-10, fatol=1e-14,
                            max_iter=2000)
    assert np.all(x <= 1.0) and np.all(x >= -1.0)
    assert np.abs(x - 1.0).max() < 1e-6


def test_nelder_mead_deterministic():
    def f(x):
        return -float(np.sum(x**2)) + float(np.sum(np.sin(3 * x)))

    x0 = np.array([0.2, -0.1])
    first = nelder_mead_max(f, x0, max_iter=300)
    second = nelder_mead_max(f, x0, max_iter=300)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]
