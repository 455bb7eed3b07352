"""Reduced-map application and the positivity/compatibility domain verdicts."""
from __future__ import annotations

import gc
import itertools
import math
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qmaplab import checks, reduced
from qmaplab.checks import sup_norm_closed_vs_grid, validate_suite
from qmaplab.cli import MAX_MAGNITUDE
from qmaplab.conjunction import brute_force_max, conjunct
from qmaplab.dynamics import crosscheck, rotate
from qmaplab.feasibility import feasibility_search
from qmaplab.optimize import golden_section_max
from qmaplab.reduced import compat_slice_check, in_compatibility_domain, sup_norm_grid, sup_norm_over_time
from qmaplab.slippage import slipped_domain_check
from qmaplab.tolerances import DEFAULT_TOL, inside


def frozen_map(c1, c2, t, a) -> np.ndarray:
    """The reduced map of duration t with frozen (c1, c2) applied to a:
    `conjunct` over the one leg t."""
    return conjunct(c1, c2, a, [t])[1][0]


def test_apply_identity_at_t_zero():
    a = np.array([0.1, -0.5, 0.3])
    assert np.array_equal(frozen_map(0.4, -0.2, 0.0, a), a)


def test_apply_uncorrelated_contracts_inside_ball():
    # frozen zero correlations scale the (1, 2) components by cos t: the
    # image never leaves |a|, and the norm is recovered at t = 0 mod pi
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(-1, 1, 3)
        t = float(rng.uniform(0, 7))
        out = frozen_map(0.0, 0.0, t, a)
        expected = np.array([a[0] * math.cos(t), a[1] * math.cos(t), a[2]])
        assert np.abs(out - expected).max() < 1e-15
        assert np.linalg.norm(out) <= np.linalg.norm(a) + 1e-12
    out = frozen_map(0.0, 0.0, math.pi, [0.3, -0.4, 0.1])
    assert abs(np.linalg.norm(out) - np.linalg.norm([0.3, -0.4, 0.1])) < 1e-12


def test_apply_edge_state_hits_unit_vector():
    q = math.pi / 4
    out = frozen_map(math.sin(q), 0.0, q, [0, math.cos(q), 0])
    assert np.abs(out - [0, 1, 0]).max() < 1e-12


@pytest.mark.parametrize("seed", range(15))
def test_apply_is_affine(seed):
    rng = np.random.default_rng(seed)
    c1, c2 = rng.uniform(-1, 1, 2)
    t = float(rng.uniform(0, 7))
    a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    lam = float(rng.uniform(0, 1))
    mixed = frozen_map(c1, c2, t, lam * a + (1 - lam) * b)
    combo = lam * frozen_map(c1, c2, t, a) + (1 - lam) * frozen_map(c1, c2, t, b)
    assert np.abs(mixed - combo).max() < 1e-12


def positivity_margin(c1, c2, t, a) -> float:
    """1 - |image|: the margin of the positivity domain at the map's t."""
    return 1.0 - float(np.linalg.norm(frozen_map(c1, c2, t, a)))


def test_positivity_domain_examples():
    # a = 0 maps to (-c2 sin t, c1 sin t, 0)
    margin = positivity_margin(0.3, 0.4, 1.1, [0, 0, 0])
    assert abs(margin - (1 - math.hypot(-0.4 * math.sin(1.1), 0.3 * math.sin(1.1)))) < 1e-12
    assert abs(positivity_margin(0.5, 0.0, math.pi / 2, [0, 1, 0]) - 0.5) < 1e-12
    # outside: the image leaves the Bloch ball
    margin = positivity_margin(1.0, 0.0, math.pi / 4, [0, 1, 0])
    assert abs(margin - (1 - 2 / math.sqrt(2))) < 1e-12


def test_sup_norm_slice_matches_quadrature_sum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a2, c = rng.uniform(-1, 1, 2)
        sup, _ = sup_norm_over_time(c, 0.0, [0, a2, 0])
        assert abs(sup - math.hypot(a2, c)) < 1e-12


def test_sup_norm_uncorrelated_is_plain_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.uniform(-1, 1, 3)
        sup, _ = sup_norm_over_time(0.0, 0.0, a)
        assert abs(sup - np.linalg.norm(a)) < 1e-12


def test_sup_norm_axis3_example():
    sup, _ = sup_norm_over_time(0.5, 0.0, [0, 0, 1])
    assert abs(sup - math.sqrt(1.25)) < 1e-12


def test_sup_norm_argmax_attains_supremum():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.uniform(-1, 1, 3)
        c1, c2 = rng.uniform(-1, 1, 2)
        sup, t_star = sup_norm_over_time(c1, c2, a)
        attained = np.linalg.norm(frozen_map(c1, c2, t_star, a))
        assert abs(attained - sup) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_sup_norm_closed_form_vs_dense_grid(seed):
    # 50 cases per seed, 500 total, against a 1e5-point grid; one row of
    # draws per case is (a1, a2, a3, c1, c2)
    a1, a2, a3, c1, c2 = np.random.default_rng(seed).uniform(-1, 1, (50, 5)).T
    sup_closed, _ = sup_norm_over_time(c1, c2, np.stack((a1, a2, a3)))
    sup_ref, _ = sup_norm_grid(c1, c2, np.stack((a1, a2, a3)), points=100_000)
    assert (np.abs(sup_closed - sup_ref) / np.maximum(sup_ref, 1e-12)).max() < 1e-9


def test_compatibility_domain_boundary_and_outside():
    margin = in_compatibility_domain(0.6, 0.0, [0, 0.8, 0])
    assert inside(margin, DEFAULT_TOL) and abs(margin) < 1e-12
    assert not inside(in_compatibility_domain(0.6, 0.0, [0, 0.9, 0]), DEFAULT_TOL)  # 0.81 + 0.36 > 1


def test_compatibility_domain_origin():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c1, c2 = rng.uniform(-0.7, 0.7, 2)
        if math.hypot(c1, c2) <= 1:
            assert inside(in_compatibility_domain(c1, c2, [0, 0, 0]), DEFAULT_TOL)


def test_compat_slice_check_examples():
    margin = compat_slice_check(0.6, 0.8)
    assert inside(margin, DEFAULT_TOL) and abs(margin) < 1e-12
    margin = compat_slice_check(1.0, 0.0)
    assert inside(margin, DEFAULT_TOL) and abs(margin) < 1e-15
    margin = compat_slice_check(0.8, 0.8)
    assert not inside(margin, DEFAULT_TOL)
    assert abs(margin - (1 - math.sqrt(1.28))) < 1e-12


def test_slice_check_agrees_with_sup_norm_on_grid():
    # 201x201 over [-1.2, 1.2]^2, exact verdict agreement away from the
    # 1e-9 boundary band; the three margins agree to rounding (measured: 1
    # ulp of 1 between slice and sup norm, 6.5 between slice and 4 x oracle)
    a2, c1 = np.meshgrid(np.linspace(-1.2, 1.2, 201), np.linspace(-1.2, 1.2, 201))
    sl = compat_slice_check(a2, c1)
    slice_states = np.stack((0 * a2, a2, 0 * a2))
    general = in_compatibility_domain(c1, 0.0, slice_states)
    away = np.abs(sl) > 1e-9
    assert away.sum() > 40_000
    assert np.array_equal(inside(sl, DEFAULT_TOL)[away], inside(general, DEFAULT_TOL)[away])
    eps = np.spacing(1.0)
    assert np.abs(sl - general)[away].max() <= 2 * eps
    oracle, _ = feasibility_search(slice_states, c1, 0.0)
    assert np.abs(4 * oracle - sl).max() <= 16 * eps


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e100, 1e-200])
def test_slice_margins_are_even_in_a2_and_in_c1_bit_for_bit(scale):
    """Both slice margins keep their bits under a2 -> -a2 and c1 -> -c1.

    `compat_slice_check` reads a2 and c1 only as the squares a2 * a2 and
    c1 * c1, and fl((-x)(-x)) = fl(x x).  `in_compatibility_domain` at
    a = (0, a2, 0), c2 = 0 takes r^2 = 0 * 0 + a2 * a2 and k^2 = c1 * c1
    + 0 * 0, squares again, so A and B keep their bits; C = a2 c1 - 0 * 0
    only changes sign, as rounding to nearest is odd.  hypot(B, C) is even
    in C, and A + hypot, sqrt and 1 - sup follow from unchanged bits.
    """
    a2, c1 = np.random.default_rng(20).uniform(-1, 1, (2, 200_000)) * scale
    zero = np.zeros_like(a2)

    def margins(a2, c1):
        general = in_compatibility_domain(c1, 0.0, np.stack((zero, a2, zero)))
        return np.stack((compat_slice_check(a2, c1), general)).view(np.int64)

    expected = margins(a2, c1)
    for flipped in (margins(-a2, c1), margins(a2, -c1), margins(-a2, -c1)):
        assert np.array_equal(flipped, expected)


@pytest.mark.parametrize("margin,tol,counted", [(-1e-6, 1e-9, 1), (-1e-10, 0.0, 0)])
def test_a_verdict_mismatch_counts_past_the_band(monkeypatch, margin, tol, counted):
    # one grid point reads outside by its slice margin and inside by its
    # sup-norm margin: a mismatch at |margin| 1e-6, inside the 1e-9 band not
    def margins(a2, c1):
        sup = np.full(np.broadcast_shapes(np.shape(a2), np.shape(c1)), 0.5)
        sl = sup.copy()
        sl[0, 0] = margin
        return sl, sup

    monkeypatch.setattr(checks, "slice_margins", margins)
    assert checks.slice_vs_sup_norm_verdicts(tol)[2] == counted


def _sup_norm_scalar_reference(c1, c2, a):
    """The closed form of sup_norm_over_time for one state, written out
    term by term in the same numpy operations: x * x, np.hypot and
    np.arctan2."""
    r_sq = a[0] * a[0] + a[1] * a[1]
    k_sq = c1 * c1 + c2 * c2
    big_a = a[2] * a[2] + 0.5 * (r_sq + k_sq)
    big_b = 0.5 * (r_sq - k_sq)
    big_c = a[1] * c1 - a[0] * c2
    amp = np.hypot(big_b, big_c)
    argmax_t = 0.0 if amp == 0.0 else 0.5 * np.arctan2(big_c, big_b) % (2 * math.pi)
    return math.sqrt(max(big_a + amp, 0.0)), argmax_t


def test_broadcast_domain_checks_equal_scalar_closed_forms_exactly():
    rng = np.random.default_rng(41)
    a = rng.uniform(-1, 1, (3, 2000))
    c1, c2 = rng.uniform(-1, 1, (2, 2000))
    a[0, :500] = a[2, :500] = c2[:500] = 0.0  # slice states
    a[:, 500:510] = c1[500:510] = c2[500:510] = 0.0  # |a(t)| constant
    sup, t_star = sup_norm_over_time(c1, c2, a)
    margin = in_compatibility_domain(c1, c2, a)
    slice_margin = compat_slice_check(a[1], c1)
    for k in range(2000):
        state = [float(v) for v in a[:, k]]
        x1, x2 = float(c1[k]), float(c2[k])
        expected = _sup_norm_scalar_reference(x1, x2, state)
        assert (sup[k], t_star[k]) == expected == sup_norm_over_time(x1, x2, state)
        assert margin[k] == 1.0 - expected[0] == in_compatibility_domain(x1, x2, state)
        assert slice_margin[k] == 1.0 - math.sqrt(reduced._slice_sq(state[1], x1, 1))
        assert slice_margin[k] == compat_slice_check(state[1], x1)
    # a stacked (3, 40, 50) batch keeps its shape
    stacked = sup_norm_over_time(c1.reshape(40, 50), 0.0, a.reshape(3, 40, 50))[0]
    assert stacked.shape == (40, 50)


def test_sup_norm_grid_batch_equals_per_state_calls():
    # 200 seeded states plus degenerate ones where every grid point ties;
    # the batch goes through one state per row, each state alone in one call
    rng = np.random.default_rng(43)
    a = rng.uniform(-1, 1, (3, 203))
    c1, c2 = rng.uniform(-1, 1, (2, 203))
    a[:, 200], c1[200], c2[200] = 0.0, 0.0, 0.0
    a[:2, 201], c1[201], c2[201] = 0.0, 0.0, 0.0
    a[:, 202], c1[202], c2[202] = (0.6, 0.0, 0.0), 0.0, 0.6
    sup, t_best = sup_norm_grid(c1, c2, a, points=4000)
    assert sup.shape == t_best.shape == (203,)
    for k in range(203):
        alone = sup_norm_grid(float(c1[k]), float(c2[k]), a[:, k], points=4000)
        assert (sup[k], t_best[k]) == alone
    stacked, _ = sup_norm_grid(c1[:6].reshape(2, 3), 0.0, a[:, :6].reshape(3, 2, 3),
                               points=4000)
    assert stacked.shape == (2, 3)
    assert stacked.ravel().tolist() == [
        sup_norm_grid(float(c1[k]), 0.0, a[:, k], points=4000)[0] for k in range(6)]


# the reference's own t chunk: the old layout stays the reference of the
# one-state-per-row pass
_REFERENCE_CHUNK = 1 << 17


def _sup_norm_grid_reference(c1, c2, a, points: int):
    """The grid pass as it was before its buffers and its state blocks: t
    in chunks against every state at once, all five components of `rotate`
    per chunk, a1(t) and a2(t) kept, a first argmax carried across the
    chunks, then the same refinement."""
    a1, a2, a3, c1, c2 = np.broadcast_arrays(*np.asarray(a, dtype=float), c1, c2)
    shape = a1.shape
    a, c1, c2 = np.stack((a1.ravel(), a2.ravel(), a3.ravel())), c1.ravel(), c2.ravel()
    ts = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    h = 2 * math.pi / points
    k = np.zeros(c1.size, dtype=int)
    best = np.full(c1.size, -np.inf)
    step = max(1, _REFERENCE_CHUNK // max(c1.size, 1))
    a3_sq = a[2, :, None] * a[2, :, None]
    for lo in range(0, points, step):
        a1t, a2t, _, _, _ = rotate(a[:, :, None], c1[:, None], c2[:, None], ts[lo:lo + step])
        norm_sq = a1t * a1t + a2t * a2t + a3_sq
        j = np.argmax(norm_sq, axis=1)
        top = np.take_along_axis(norm_sq, j[:, None], axis=1)[:, 0]
        k = np.where(top > best, lo + j, k)
        best = np.maximum(top, best)

    def norm_sq_at(t):
        a1t, a2t, a3t, _, _ = rotate(a, c1, c2, t)
        return a1t * a1t + a2t * a2t + a3t * a3t

    t_best, f_best = golden_section_max(norm_sq_at, ts[k] - h, ts[k] + h)
    sup = np.sqrt(np.maximum(f_best, 0.0)).reshape(shape)
    return sup[()], (t_best % (2 * math.pi)).reshape(shape)[()]


def _assert_grid_pass_unchanged(c1, c2, a, points):
    sup, t_best = sup_norm_grid(c1, c2, a, points=points)
    ref_sup, ref_t = _sup_norm_grid_reference(c1, c2, a, points)
    assert np.shape(sup) == np.shape(ref_sup)
    assert np.array_equal(sup, ref_sup) and np.array_equal(t_best, ref_t)
    return ref_sup


def test_sup_norm_grid_equals_five_component_pass_at_validate_shape():
    # validate's check: 500 states, 20,000 points, one state per row;
    # the reference walks t in 77 chunks of 262 (the last one 88 wide)
    a1, a2, a3, c1, c2 = np.random.default_rng(7).uniform(-1, 1, (500, 5)).T
    a = np.stack((a1, a2, a3))
    ref_sup = _assert_grid_pass_unchanged(c1, c2, a, 20_000)
    sup_closed, _ = sup_norm_over_time(c1, c2, a)
    worst = max(0.0, float(np.max(np.abs(sup_closed - ref_sup) / np.maximum(sup_closed, 1e-12))))
    assert sup_norm_closed_vs_grid(np.random.default_rng(7)) == (
        "sup_norm_closed_vs_grid", "max_rel_err", worst, 1e-9)


@pytest.mark.parametrize("case", ["ties", "step-1", "single-state", "ragged"])
def test_sup_norm_grid_equals_five_component_pass(case):
    rng = np.random.default_rng(44)
    if case == "ties":  # |a(t)| constant: every grid point ties, the last two up to rounding
        a, (c1, c2), points = rng.uniform(-1, 1, (3, 12)), rng.uniform(-1, 1, (2, 12)), 4000
        a[:, 6:10] = [[0.0, 0.0, 0.6, 0.0], [0.0, 0.0, 0.0, 0.6], [0.0, 0.7, 0.0, 0.0]]
        c1[6:10], c2[6:10] = [0.0, 0.0, 0.6, 0.0], [0.0, 0.0, 0.0, 0.6]
    elif case == "step-1":  # long t rows: 40,000 points
        a, (c1, c2), points = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (2, 3)), 40_000
    elif case == "single-state":  # one state
        a, c1, c2, points = rng.uniform(-1, 1, 3), 0.3, -0.4, 4001
    else:  # 300 states at 1001 points
        a, (c1, c2), points = rng.uniform(-1, 1, (3, 300)), rng.uniform(-1, 1, (2, 300)), 1001
    _assert_grid_pass_unchanged(c1, c2, a, points)


def _adversarial_states(rng, count: int):
    """`count` seeded states, the first quarter degenerate or extreme:
    (a, c1, c2) with a of shape (3, count)."""
    a, (c1, c2) = rng.uniform(-1, 1, (3, count)), rng.uniform(-1, 1, (2, count))
    # zero, and |a(t)| constant: every grid point ties
    a[:, 0], c1[0], c2[0] = 0.0, 0.0, 0.0
    a[:2, 1], c1[1], c2[1] = 0.0, 0.0, 0.0
    # tiny (squares underflow at 1e-160), near cli.MAX_MAGNITUDE, and at
    # 9e153, where p^2 + q^2 overflows, so the curvature bound L is infinite
    # and every block is walked, but no value does
    for col, scale in ((2, 1e-8), (3, 1e-160), (4, 1e6), (5, MAX_MAGNITUDE)):
        a[:, col], c1[col], c2[col] = a[:, col] * scale, c1[col] * scale, c2[col] * scale
    a[:, 6], c1[6], c2[6] = (9e153, 0.0, 0.0), 0.0, -9e153
    # rigid rotations (c1 = a1, c2 = a2): every value ties up to rounding
    c1[7:count // 4], c2[7:count // 4] = a[0, 7:count // 4], a[1, 7:count // 4]
    return a, c1, c2


@pytest.mark.parametrize("points", [1, 2, 3, 8, 4001, 20_000])
def test_coarse_to_fine_walk_equals_full_walk_on_adversarial_states(points):
    # one block up to 64 points, a partial last block at 4001 and 20,000
    a, c1, c2 = _adversarial_states(np.random.default_rng(46), 60 if points > 4001 else 400)
    _assert_grid_pass_unchanged(c1, c2, a, points)


def _grid_values(c1, c2, a, points: int) -> np.ndarray:
    """|a(t)|^2 on the whole grid with the walk's arithmetic, one row per state."""
    ts = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    a1t = a[0][:, None] * np.cos(ts) - c2[:, None] * np.sin(ts)
    a2t = a[1][:, None] * np.cos(ts) + c1[:, None] * np.sin(ts)
    return a1t * a1t + a2t * a2t + (a[2] * a[2])[:, None]


def test_coarse_to_fine_walk_takes_a_second_half_maximum_one_ulp_above_the_first():
    a1, a2, a3, c1, c2 = np.random.default_rng(45).uniform(-1, 1, (5, 200))
    a = np.stack((a1, a2, a3))
    values = _grid_values(c1, c2, a, 4000)
    first, second = values[:, :2000].max(axis=1), values[:, 2000:].max(axis=1)
    one_ulp = np.flatnonzero(second == np.nextafter(first, np.inf))
    # the second half's best beats the first's by one ulp
    assert one_ulp.size >= 10
    _assert_grid_pass_unchanged(c1[one_ulp], c2[one_ulp], a[:, one_ulp], 4000)


def test_coarse_to_fine_keeps_a_block_whose_values_round_up_one_ulp():
    # |a(t)|^2 = 1 + g(t), g peaking just above u = 2^-53 twice a period, so
    # only values near a peak round up to 1 + 2u.  Where the first peak falls
    # between two block starts and the second covers one, only the rounding
    # pad in the bound keeps the first peak's block
    rng = np.random.default_rng(47)
    phi = rng.uniform(0, 2 * math.pi, 200)
    r = np.sqrt(2.0**-53 * (1 + rng.uniform(0, 1e-4, 200)))
    a = np.stack((r * np.cos(phi), np.zeros(200), np.ones(200)))
    for points in (4001, 20_000):
        _assert_grid_pass_unchanged(0.0, r * np.sin(phi), a, points)


def _spy_grid_values(monkeypatch) -> list:
    """Sizes of the level walk's `reduced._turn` calls, whose states come as
    a column; the refinement's come as a row."""
    sizes, turn = [], reduced._turn

    def spy(*args):
        if np.ndim(args[0]) == 2:
            sizes.append(np.broadcast(*args).size)
        return turn(*args)

    monkeypatch.setattr(reduced, "_turn", spy)
    return sizes


def test_level_walk_evaluates_under_1_5_percent_at_validate_shape(monkeypatch):
    sizes = _spy_grid_values(monkeypatch)
    # validate's draws for seed 3: the unitary cross-check's, then the grid's
    _, grid = itertools.islice(validate_suite(np.random.default_rng(3), 1e-9), 2)
    assert grid[0] == "sup_norm_closed_vs_grid" and grid[2] < grid[3]
    # under 1.5% of the 500 x 20,000 grid values (0.92% measured): a bound
    # loosened into a walk of every block, or a level left out, fails here
    assert 0 < sum(sizes) < 0.015 * 500 * 20_000


def test_coarse_to_fine_walks_every_point_of_ties_and_infinite_bound(monkeypatch):
    sizes = _spy_grid_values(monkeypatch)
    a, c1, c2 = _adversarial_states(np.random.default_rng(46), 10)
    for col in (0, 1, 6):  # zero, constant a3^2, infinite L
        sizes.clear()
        sup_norm_grid(c1[col], c2[col], a[:, col], points=4001)
        # 4001 points span 8 blocks of 512: their starts and t = 2 pi, then
        # in each kept block 8 sub-block starts and its end at widths 64 and
        # 8, then every point of the 512 blocks of 8, whose 95 indices past
        # the grid read t = 2 pi
        assert sizes == [9, 8 * 9, 64 * 9, 512 * 8]
    # a level as wide as the grid is skipped: 512 points start at width 64
    sizes.clear()
    sup_norm_grid(c1[0], c2[0], a[:, 0], points=512)
    assert sizes == [9, 8 * 9, 64 * 8]
    sizes.clear()
    sup_norm_grid(c1[0], c2[0], a[:, 0], points=8)
    assert sizes == [8]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 9), st.floats(-160, 150), st.booleans(),
       st.integers(0, 2**32 - 1))
def _grid_pass_equals_reference(points, count, log_scale, rigid, seed):
    rng, scale = np.random.default_rng(seed), 10.0**log_scale
    a, (c1, c2) = rng.uniform(-1, 1, (3, count)) * scale, rng.uniform(-1, 1, (2, count)) * scale
    if rigid:  # c1 = a1, c2 = a2: every value ties up to rounding
        c1, c2 = a[0], a[1]
    _assert_grid_pass_unchanged(c1, c2, a, points)


def test_sup_norm_grid_equals_reference_on_drawn_batches():
    # Hypothesis caches the constants it mines from source files under its
    # home directory, ./.hypothesis by default: keep that out of the checkout
    with tempfile.TemporaryDirectory() as home:
        set_hypothesis_home_dir(home)
        try:
            _grid_pass_equals_reference()
        finally:
            set_hypothesis_home_dir(None)


def test_sup_norm_grid_buffers_bound_its_memory():
    a1, a2, a3, c1, c2 = np.random.default_rng(8).uniform(-1, 1, (500, 5)).T
    a = np.stack((a1, a2, a3))
    # random states, then rigid rotations (c1 = a1, c2 = a2), where every
    # block may hold the maximum and the fine pass walks the whole grid
    for c1, c2 in ((c1, c2), (a1, a2)):
        tracemalloc.start()
        try:
            sup_norm_grid(c1, c2, a, points=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the t grid with its cos and sin (480 kB) and a few 64 kB slices
        assert peak < 2e6


_ORACLE_CALLS = {
    "sup_norm_grid": lambda rng: sup_norm_grid(*rng.uniform(-1, 1, (2, 500)),
                                               rng.uniform(-1, 1, (3, 500)), points=20_000),
    "brute_force_max": lambda rng: brute_force_max(0.37, 0.29, 3, grid_points=64),
    "feasibility_search": lambda rng: feasibility_search(rng.uniform(-0.6, 0.6, (3, 20)),
                                                         *rng.uniform(-0.6, 0.6, (2, 20))),
    "crosscheck": lambda rng: crosscheck(rng.uniform(-0.2, 0.2, (15, 20)), 0.7),
    "validate_suite": lambda rng: list(validate_suite(rng, DEFAULT_TOL)),
}


@pytest.mark.parametrize("name", list(_ORACLE_CALLS))
def test_oracle_call_leaves_no_reference_cycle(name):
    # with the cyclic collector off, a cycle an oracle leaves behind (say, a
    # recursive closure that refers to itself, and the arrays it holds)
    # stays until gc.collect() finds it.  A first call may import a module
    # (a lazily imported numpy submodule), whose import leaves cycles once
    _ORACLE_CALLS[name](np.random.default_rng(3))
    gc.collect()
    gc.disable()
    try:
        _ORACLE_CALLS[name](np.random.default_rng(3))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("points", [0, -3])
def test_sup_norm_grid_rejects_empty_grid(points):
    with pytest.raises(ValueError, match=f"points must be >= 1, got points={points}"):
        sup_norm_grid(0.1, 0.2, [0.3, 0.4, 0.5], points=points)


@pytest.mark.parametrize("points", [True, 2e4, "10", np.array([10])])
def test_sup_norm_grid_rejects_non_integer_points(points):
    with pytest.raises(ValueError, match="points must be an integer, got points="):
        sup_norm_grid(0.1, 0.2, [0.3, 0.4, 0.5], points=points)
    # a numpy integer is an integer
    assert sup_norm_grid(0.1, 0.2, [0.3, 0.4, 0.5], points=np.int64(10)) == sup_norm_grid(
        0.1, 0.2, [0.3, 0.4, 0.5], points=10)


def test_supremum_past_the_float_range_raises():
    # squares overflow above about 1.3e154, in a, c1 or c2
    for c1, a in ((0.0, [2e154, 0.0, 0.0]), (0.0, [0.0, 0.0, -3e154]), (2e154, [0.0, 0.0, 0.0])):
        for call in (sup_norm_over_time, in_compatibility_domain,
                     lambda c1, c2, a: sup_norm_grid(c1, c2, a, points=10)):
            with pytest.raises(ValueError, match="the supremum overflows"):
                call(c1, 0.0, a)
    # 9e153 does not; cli.MAX_MAGNITUDE is among the adversarial states
    big = [9e153, 0.0, 0.0]
    assert sup_norm_over_time(0.0, 0.0, big)[0] == pytest.approx(9e153, rel=1e-15)
    assert sup_norm_grid(0.0, 0.0, big, points=10)[0] == pytest.approx(9e153, rel=1e-15)
    assert in_compatibility_domain(0.0, 0.0, big) == pytest.approx(-9e153, rel=1e-15)


@pytest.mark.parametrize("c1,a", [(0.1, [math.nan, 0.2, 0.3]), (math.nan, [0.1, 0.2, 0.3]),
                                  (math.inf, [math.inf, 0.2, 0.3])])
def test_nan_supremum_raises_without_a_warning(c1, a):
    # a NaN a or c1, or c1 = a1 = inf, whose infinities cancel to NaN: a
    # ValueError, neither a (nan, nan) result nor a RuntimeWarning on the way
    for call in (sup_norm_over_time, in_compatibility_domain):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="the supremum is NaN"):
                call(c1, 0.0, a)
        assert caught == []


@pytest.mark.parametrize("field,bad", [("a", math.nan), ("c1", math.inf), ("c2", -math.inf)])
def test_sup_norm_grid_rejects_non_finite_input(field, bad):
    values = {"a": np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), "c1": np.array([0.2, 0.1]),
              "c2": np.array([0.0, 0.3])}
    values[field].flat[1] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite, got {field}={bad!r}"):
        sup_norm_grid(values["c1"], values["c2"], values["a"], points=10)


def test_compat_slice_check_rejects_negative_tol():
    # every domain check rejects a NaN a2, which would otherwise read as a
    # silent verdict; the checks take no tol, so there is none to reject
    margins = [lambda a2: compat_slice_check(a2, 0.8),
               lambda a2: in_compatibility_domain(0.8, 0.0, [0.0, a2, 0.0]),
               lambda a2: slipped_domain_check(a2, 0.2, 1)]
    for margin in margins:
        with pytest.raises(ValueError, match="the supremum is NaN"):
            margin(math.nan)
    with pytest.raises(ValueError, match="a must be finite"):
        conjunct(0.0, 0.0, [0.0, math.nan, 0.0], [0.0])
    for c1, durations in ((math.inf, (0.1, 0.2)), (0.0, (0.1, 0.2, math.nan))):
        with pytest.raises(ValueError, match="must be finite"):
            conjunct(c1, 0.0, [0.0, 0.6, 0.0], durations)
    assert inside(compat_slice_check(0.6, 0.8), 0.0)
    assert inside(slipped_domain_check(0.5, 0.2, 1), 0.0)
    assert conjunct(0.0, 0.0, [0.0, 0.5, 0.0], [0.0])[0].tolist() == [0.5]


@pytest.mark.parametrize("seed", range(10))
def test_compatibility_implies_positivity_at_sampled_times(seed):
    rng = np.random.default_rng(seed)
    while True:  # rejection-sample a point inside the compatibility domain
        a = rng.uniform(-1, 1, 3)
        c1, c2 = rng.uniform(-1, 1, 2)
        if inside(in_compatibility_domain(c1, c2, a), DEFAULT_TOL):
            break
    for t in np.linspace(0, 2 * math.pi, 50):
        assert np.linalg.norm(frozen_map(c1, c2, float(t), a)) <= 1.0 + 1e-9
