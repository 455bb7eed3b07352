"""`float.__repr__` of every value of a float64 array, as one array program.

repr writes the shortest decimal that reads back as the same double, in
fixed notation for 1e-4 <= |x| < 1e16.  In that range the digits follow
from integer arithmetic, as in Ryu (Adams, PLDI 2018).  Scale |x| by 10^k,
k = 16 - floor(log10 |x|), so that V = |x| 10^k lies in [10^16, 10^17).
Every number in V's rounding interval reads back as x, so repr's digits are
those of the multiple of 10^j nearest to V, for the largest j with a
multiple of 10^j inside the interval.

V is split exactly into an int64 D and a fraction f in [0, 1) by Dekker's
product with a Veltkamp split (10^k is exact for k <= 22).  With m < 2^53
the mantissa, V = m 5^k 2^(e-53+k), and V >= 10^16 forces e + k >= 7.  So
V and the rounding interval's half-width H = 2^(e-54) 10^k are multiples
of 2^-47, H lies in (0.55, 11.2], and every sum and comparison of
fractional parts below is exact.

The interval is taken as [V - H, V + H]; three refinements of the general
method never change an answer in this range, so none is written.
- Whether the ends count (they do iff m is even): an end is an integer
  only for k = 1 and |x| an integer of 2^52 or more, and there V = 10 |x|
  is itself a multiple of 10, as deep as either end and nearer.
- The low side's half-width H / 2 at a power of two: the tests check all
  67 powers of two in the range.
- Clamping the nearest multiple of 10^j into the interval: the interval is
  symmetric about V, so the nearest multiple is inside whenever any is.
The chosen multiple lies in [10^16, 10^17): the interval never holds
10^17, the next power of ten being another double or, below 1, nearer to
one.

The text is laid out by masks.  Each value fills one 40-byte row of a fixed
template: a newline, "-0.000", then the 17 digits of the chosen multiple,
each after a point slot.  A mask per (sign, digit count, point position)
keeps the bytes its repr has; the digits past the shortest ones are
zeros, so "ddd000.0" is the first p digits, a point and the next digit.
One compress of all rows gives the newline-joined text.

Zero, values outside the range and ties between the two nearest multiples
(V exactly halfway) go to `float.__repr__`, as does a whole call of fewer
than `CROSSOVER` values.
"""
from __future__ import annotations

import numpy as np

# below this many values a call is all float.__repr__.  The array program
# costs about 0.1 ms a call plus 0.15-0.2 us a value, repr 0.5 us a value,
# so they cross near 200 values on random draws and near 300 on a linspace,
# whose values end in more zeros for `_shortest` to count.  Best of 15, the
# array path against repr on uniform draws in (-1, 1): 200 values 98-109 us
# against 107-113 us, 250 values 105-109 against 132-136, 1,000 values
# 215-238 against 546-561; on a linspace: 250 values 145-152 against
# 124-134, 350 values 162 against 187 (Xeon, 2 cores, Python 3.11,
# numpy 2.4).  `cli` formats all the float columns of a chunk in one call,
# so a call holds a chunk's float cells
CROSSOVER = 256

# the double nearest 10^e for e = -4 .. 15, exact from 1 on and above the
# power below it, so `|x| >= _DECADES[i]` is |x| >= 10^(i - 4) exactly
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 16)])
# 10^k for k = 0 .. 20 as doubles, all exact
_SCALE = np.array([float(10**k) for k in range(21)])


def _halves(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: y = hi + lo exactly, each half of at most 26 bits."""
    c = 134217729.0 * y  # 2^27 + 1
    hi = c - (c - y)
    return hi, y - hi


_SCALE_HI, _SCALE_LO = _halves(_SCALE)


def _template_words() -> tuple[np.ndarray, np.ndarray]:
    """The template row as five words: "\n-0.000" and the first digit (one
    word for each digit 0 .. 9), then four groups of four digits, each digit
    after a point slot (one word for each group 0000 .. 9999)."""
    lead = np.empty((10, 8), dtype=np.uint8)
    lead[:, :7] = np.frombuffer(b"\n-0.000", dtype=np.uint8)
    lead[:, 7] = np.arange(48, 58)
    pair = np.full((100, 4), ord("."), dtype=np.uint8)  # ".d.d" for 00 .. 99
    pair[:, 1], pair[:, 3] = np.divmod(np.arange(100), 10)
    pair[:, 1::2] += 48
    group = np.empty((100, 100, 8), dtype=np.uint8)
    group[..., :4], group[..., 4:] = pair[:, None], pair
    return lead.view(np.uint64).ravel(), group.view(np.uint64).ravel()


_LEAD, _GROUP = _template_words()


def _masks() -> np.ndarray:
    """The kept bytes of each layout (sign, digit count nd, point position p
    = decimal exponent of the first digit + 1), row (sign * 17 + nd - 1) * 20
    + p + 3 for p in -3 .. 16."""
    sign, nd, p, b = np.ix_(range(2), range(1, 18), range(-3, 17), range(40))
    # byte b >= 8 holds digit (b - 5) / 2 if odd, the point slot before digit
    # (b - 4) / 2 if even; byte 7 holds digit 1
    digit = np.where(b == 7, 1, np.where(b % 2, (b - 5) // 2, 0))
    keep = ((b == 0) | ((b == 1) & (sign == 1))
            | ((b >= 2) & (b < 4 - p) & (p <= 0))  # "0." and the zeros of 0.000ddd
            | ((digit >= 1) & (digit <= np.where(p <= 0, nd, np.maximum(nd, p + 1))))
            | ((b >= 8) & (b % 2 == 0) & ((b - 4) // 2 == p + 1) & (p > 0)))
    return keep.reshape(-1, 40)


_MASKS = _masks()


def _shortest(a: np.ndarray, decade: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, j) for 10^decade <= a < 10^(decade + 1), decade in -4 .. 15:
    C / 10^(16 - decade) is repr's decimal of a, C a multiple of 10^j and of
    no higher power of 10; j = -1 marks a tie."""
    k = 16 - decade
    # Dekker's product: V = a 10^k = p + err exactly, then V = D + f
    scale = _SCALE[k]
    p = a * scale
    a_hi, a_lo = _halves(a)
    s_hi, s_lo = _SCALE_HI[k], _SCALE_LO[k]
    err = a_lo * s_lo - (((p - a_hi * s_hi) - a_lo * s_hi) - a_hi * s_lo)
    whole = np.floor(err)
    f = err - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    # from here on relative to D - r, a multiple of 100, in small exact floats
    r = (d - d // 100 * 100).astype(np.float64)
    half = np.ldexp(scale, np.frexp(a)[1] - 54)
    hi, lo = r + np.floor(f + half), r + np.ceil(f - half)  # the interval's integers
    # the largest j with a multiple of 10^j inside; the interval is narrower
    # than 23, so from j = 2 on the one candidate is the multiple of 100
    # at or below hi.  floor(n * 0.01) is floor(n / 100) for these small
    # integers n: the doubles 0.01 and 0.1 lie just above 1/100 and 1/10
    hundred = np.floor(hi * 0.01) * 100
    ten = np.floor(hi * 0.1) * 10 >= lo
    # the nearest multiple of 10^j, j = 0 or 1, to V = D + f
    units = ten * (r - np.floor(r * 0.1) * 10)  # D mod 10^j
    rest = units + f
    step = 1.0 + 9.0 * ten
    nearest = (r - units) + step * (rest > step / 2)
    deep = np.flatnonzero(hundred >= lo)
    nearest[deep] = hundred[deep]
    c = (d - r.astype(np.int64)) + nearest.astype(np.int64)
    j = np.where(rest == step / 2, -1, ten)
    # from j = 2 on, count the zeros of the multiple of 100 place by place
    shifted = c[deep] // 100
    j[deep] = 2
    while deep.size:
        more = shifted % 10 == 0
        deep, shifted = deep[more], shifted[more] // 10
        j[deep] += 1
    return c, j


def _fixed(x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """(indices, texts): repr of each value of x that the array program
    writes, every value in the range but the ties, and their indices."""
    a = np.abs(x)
    done = np.flatnonzero((a >= _DECADES[0]) & (a < 1e16))
    decade = np.searchsorted(_DECADES, a[done], side="right") - 5
    c, j = _shortest(a[done], decade)
    if (j < 0).any():
        fixed = j >= 0
        done, c, j, decade = done[fixed], c[fixed], j[fixed], decade[fixed]
    rows = np.empty((done.size, 5), dtype=np.uint64)
    for i, power in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        digits = c // power
        rows[:, i] = (_LEAD if i == 0 else _GROUP)[digits]
        c = c - digits * power
    layout = (np.signbit(x[done]) * 17 + 16 - j) * 20 + decade + 4
    text = np.compress(_MASKS[layout].ravel(), rows.view(np.uint8).ravel())
    texts = text.tobytes().decode("ascii").split("\n")
    del texts[0]
    return done, texts


def float_reprs(values) -> list[str]:
    """[float.__repr__(v) for v in values], for a float64 array of any size."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < CROSSOVER:
        return list(map(float.__repr__, x.tolist()))
    done, texts = _fixed(x)
    if done.size == x.size:
        return texts
    out = np.empty(x.size, dtype=object)
    out[done] = texts
    slow = np.ones(x.size, dtype=bool)
    slow[done] = False
    out[slow] = list(map(float.__repr__, x[slow].tolist()))
    return out.tolist()
