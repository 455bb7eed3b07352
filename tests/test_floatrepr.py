"""`floatrepr.float_reprs` writes exactly what `float.__repr__` writes."""
from __future__ import annotations

import math
import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qmaplab.cli import load_scenario
from qmaplab.floatrepr import CROSSOVER, _fixed, float_reprs

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _assert_reprs(values):
    """float_reprs equals float.__repr__ on the values, repeated up to the
    crossover so that the array program, not the small-call path, runs."""
    x = np.asarray(values, dtype=float)
    x = np.resize(x, max(x.size, CROSSOVER))
    assert float_reprs(x) == list(map(float.__repr__, x.tolist()))


def _bit_patterns(seed: int, size: int) -> np.ndarray:
    """Doubles of random sign and mantissa, exponents 2^-25 .. 2^58: inside
    the fixed-notation range 1e-4 <= |x| < 1e16 and on both sides of it."""
    rng = np.random.default_rng(seed)
    mantissa = rng.integers(0, 2**52, size, dtype=np.uint64)
    exponent = rng.integers(1023 - 25, 1023 + 59, size).astype(np.uint64)
    sign = rng.integers(0, 2, size).astype(np.uint64)
    return (sign << 63 | exponent << 52 | mantissa).view(np.float64)


def _is_tie(x: float) -> bool:
    """Whether the shortest decimals in the rounding interval of x, for
    1e-4 <= |x| < 1e16, hold two equally near x: the definition, in exact
    rational arithmetic.  The interval is closed iff the mantissa is even."""
    a = Fraction(abs(x))
    k = 16 - next(e for e in range(15, -5, -1) if a >= Fraction(10) ** e)
    mantissa, e = math.frexp(abs(x))
    v, half = a * 10**k, Fraction(2) ** (e - 54) * 10**k
    closed = int(mantissa * 2**53) % 2 == 0
    lo, hi = v - (half / 2 if mantissa == 0.5 else half), v + half
    for j in range(17, -1, -1):
        step = 10**j
        near = sorted(abs(c * step - v) for c in range(math.ceil(lo / step), math.floor(hi / step) + 1)
                      if closed or lo < c * step < hi)
        if near:
            return len(near) > 1 and near[0] == near[1]
    raise AssertionError("no integer in the interval")


def _with_neighbours(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def test_random_bit_patterns():
    x = _bit_patterns(3, 50_000)
    _assert_reprs(x)
    # the array program writes every value of the range but the ties
    a = np.abs(x)
    in_range = (a >= 1e-4) & (a < 1e16)
    done = np.zeros(x.size, dtype=bool)
    done[_fixed(x)[0]] = True
    assert not (done & ~in_range).any()
    left = x[in_range & ~done].tolist()
    # ties are about 1.5% of these patterns, and each one is a real tie
    assert 0 < len(left) < 0.05 * in_range.sum()
    assert all(map(_is_tie, left))


def test_powers_and_range_ends():
    powers = [2.0**n for n in range(-30, 60)] + [float(f"1e{e}") for e in range(-6, 18)]
    x = _with_neighbours(powers + [1e-4, 1e16])
    _assert_reprs(np.concatenate([x, -x, [0.0, -0.0]]))


def test_integers_and_fractions_near_the_last_digit():
    steps = np.arange(-2000, 2000)
    _assert_reprs(np.concatenate([
        2.0**52 + steps,  # integers, the interval's ends integers too
        2.0**53 + 2.0 * steps,
        2.0**51 + 0.5 + steps,  # half-integers
        2.0**50 + 0.25 * np.arange(8000),  # quarters: half of them ties
    ]))


def test_ties_go_to_repr():
    # V = 10 x lies halfway between two integers for the odd quarters
    x = 2.0**50 + 0.25 * np.arange(500)
    _assert_reprs(x)
    ties = np.array([_is_tie(v) for v in x.tolist()])
    assert ties.sum() == 250
    assert _fixed(x)[0].tolist() == np.flatnonzero(~ties).tolist()


def test_decimal_multiples():
    k = np.arange(1, 20_001)
    _assert_reprs(np.concatenate([k * 1e-4, k * 0.1, k * 1e10]))


def test_trailing_zeros():
    """Every count of trailing zeros a value in the range can have, each of
    which `_shortest` must count exactly."""
    integers = [float(k * 10**m) for m in range(16) for k in range(1, 1000)
                if k * 10**m < 10**16]
    short = [0.5, 0.125, 1.5e-4, 2.5e15]
    powers = _with_neighbours([float(f"1e{e}") for e in range(-4, 16)])
    grids = [g.at(np.arange(g.count))
             for name in sorted(os.listdir(SCENARIOS)) if name.endswith(".json")
             for g in load_scenario(os.path.join(SCENARIOS, name)).grids]
    x = np.concatenate([integers, short, powers, *grids])
    _assert_reprs(np.concatenate([x, -x]))


def test_outside_the_range():
    tiny = np.array([5e-324, 1e-320, 2.2250738585072014e-308, 1e-5, 9.999999999999999e-05])
    x = np.concatenate([_with_neighbours(tiny), [1.7976931348623157e308, 1e300, 1e16, 1e17],
                        [np.nan, np.inf, -np.inf]])
    _assert_reprs(np.concatenate([x, -x]))


def test_short_calls_are_plain_repr():
    x = _bit_patterns(4, CROSSOVER - 1)
    assert float_reprs(x) == list(map(float.__repr__, x.tolist()))
    assert float_reprs(np.empty(0)) == []


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def _any_floats_as_repr(values):
    _assert_reprs(values)


def test_any_floats_as_repr():
    # Hypothesis caches the constants it mines from source files under its
    # home directory, ./.hypothesis by default: keep that out of the checkout
    with tempfile.TemporaryDirectory() as home:
        set_hypothesis_home_dir(home)
        try:
            _any_floats_as_repr()
        finally:
            set_hypothesis_home_dir(None)
