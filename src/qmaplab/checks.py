"""Oracle cross-checks, each written once with its bound and the boundary band.

`validate` reports `validate_suite`, `domain-map` rasterizes
`three_way_agreement`, and the acceptance suite calls the same functions
with its own seeds.  A check returns (name, metric, value, bound) and
passes when value < bound; a count passes at bound 1, i.e. when it is zero.
"""
from __future__ import annotations

import math

import numpy as np

from .conjunction import brute_force_max, greedy_extremal_growth
from .dynamics import crosscheck
from .feasibility import dual_certificate, feasibility_search
from .pauli import TwoQubitState, density_from_params, min_eigenvalue, params_from_density
from .reduced import compat_slice_check, in_compatibility_domain, sup_norm_grid, sup_norm_over_time

# width of the boundary strip excluded from oracle agreement verdicts
BOUNDARY_BAND = 1e-3


def slice_verdicts(a2_values, c1_values, tol: float):
    """Slice-check and sup-norm verdicts for the slice states of the a2 x c1
    grid, one entry per point in row order (c1 varying fastest)."""
    a2, c1 = (v.ravel() for v in np.meshgrid(a2_values, c1_values, indexing="ij"))
    sl = compat_slice_check(a2, c1, tol=tol)
    sup = in_compatibility_domain(c1, 0.0, np.stack(np.broadcast_arrays(0.0, a2, 0.0)), tol=tol)
    return a2, c1, sl, sup


def slice_answers(a2, c1):
    """Oracle (value, witness) at each slice point a = (0, a2, 0), c2 = 0,
    one at a time, so a caller that keeps only values holds no witnesses."""
    return (feasibility_search([0.0, x, 0.0], y, 0.0) for x, y in zip(a2.tolist(), c1.tolist()))


def near_boundary(slice_margin) -> np.ndarray:
    """Within BOUNDARY_BAND of the boundary by the slice margin.  The oracle's
    own value is not consulted, so a wrong oracle answer is never excluded."""
    return np.abs(slice_margin) <= BOUNDARY_BAND


def three_way_agreement(a2_values, c1_values, tol: float):
    """Slice check, sup over time and oracle on the a2 x c1 grid: (slice
    verdict, sup-norm verdict, oracle values, near-boundary mask, agree mask)."""
    a2, c1, sl, sup = slice_verdicts(a2_values, c1_values, tol)
    values = np.array([value for value, _ in slice_answers(a2, c1)])
    agree = (sl.inside == sup.inside) & (sup.inside == (values >= -tol))
    return sl, sup, values, near_boundary(sl.margin), agree


def certified(a, c1: float, c2: float, value: float, witness: TwoQubitState, tol: float) -> bool:
    """Audit one oracle answer.  Inside (value >= -tol): the witness is
    physical and its reconstruction carries (a, c1, c2).  Outside: the dual
    certificate W is PSD with unit trace and no component on a free
    parameter, and tr(W rho_witness) < -tol, which bounds every extension's
    min eigenvalue."""
    rho = density_from_params(witness)
    if value >= -tol:
        back = params_from_density(rho)
        return bool(
            min_eigenvalue(rho) >= -1e-9
            and np.abs(back.a - np.asarray(a, dtype=float)).max() < 1e-10
            and abs(back.T[0, 0] - c1) < 1e-10
            and abs(back.T[1, 0] - c2) < 1e-10
        )
    w = dual_certificate(a, c1, c2)
    if abs(np.trace(w) - 1.0) > 1e-12 or min_eigenvalue(w) < -1e-12:
        return False
    back = params_from_density(w)
    free = np.concatenate((back.b, back.T[:, 1:].ravel(), back.T[2:, 0]))
    return bool(np.abs(free).max() <= 1e-12 and np.trace(w @ rho).real < -tol)


def mean_values_vs_unitary(rng):
    """Closed-form evolution vs unitary conjugation, 1000 random states and times."""
    worst = 0.0
    for _ in range(1000):
        s = TwoQubitState(a=rng.uniform(-1, 1, 3), b=rng.uniform(-1, 1, 3),
                          T=rng.uniform(-1, 1, (3, 3)))
        worst = max(worst, crosscheck(s, float(rng.uniform(0, 4 * math.pi))))
    return "mean_values_vs_unitary", "max_discrepancy", worst, 1e-12


def sup_norm_closed_vs_grid(rng):
    """Closed-form supremum vs dense grid, 500 states (a1, a2, a3, c1, c2) per row."""
    a1, a2, a3, c1, c2 = rng.uniform(-1, 1, (500, 5)).T
    sup_closed, _ = sup_norm_over_time(c1, c2, np.stack((a1, a2, a3)))
    sup_grid, _ = sup_norm_grid(c1, c2, np.stack((a1, a2, a3)), points=20_000)
    worst = max(0.0, float(np.max(np.abs(sup_closed - sup_grid) / np.maximum(sup_closed, 1e-12))))
    return "sup_norm_closed_vs_grid", "max_rel_err", worst, 1e-9


def greedy_vs_brute_force(pairs, grid_points: int):
    """Greedy growth vs brute-force grid maximization; pairs[n] are the
    (a2, c1) pairs tried with n reuses."""
    worst = 0.0
    for n, draws in enumerate(np.asarray(pairs).tolist()):
        for a2, c1 in draws:
            mags, _ = greedy_extremal_growth(a2, c1, n)
            worst = max(worst, float(abs(mags[-1] - brute_force_max(a2, c1, n, grid_points))))
    return "greedy_vs_brute_force", "max_abs_err", worst, 1e-6


def slice_vs_sup_norm_verdicts(tol: float):
    """Slice check vs sup-over-time verdicts on a dense analytic grid."""
    grid = np.linspace(-1.2, 1.2, 201)
    _, _, sl, sup = slice_verdicts(grid, grid, tol)
    mismatches = int(np.sum(~(np.abs(sl.margin) <= 1e-9) & (sl.inside != sup.inside)))
    return "slice_vs_sup_norm_verdicts", "mismatches", mismatches, 1


def validate_suite(rng, tol: float):
    """The `validate` checks in report order, all drawing from `rng`; the
    last two are the oracle vs the slice condition and its certificate audit."""
    yield mean_values_vs_unitary(rng)
    yield sup_norm_closed_vs_grid(rng)
    yield greedy_vs_brute_force(rng.uniform(-1, 1, (4, 5, 2)), grid_points=64)
    yield slice_vs_sup_norm_verdicts(tol)
    axis = np.linspace(-1.0, 1.0, 11)
    a2, c1 = (v.ravel() for v in np.meshgrid(axis, axis, indexing="ij"))
    values, witnesses = zip(*slice_answers(a2, c1))
    values = np.array(values)
    sl = compat_slice_check(a2, c1, tol=tol)
    disagree = ~near_boundary(sl.margin) & ((values >= -tol) != sl.inside)
    yield "oracle_vs_slice_verdicts", "disagreements", int(disagree.sum()), 1
    bad = sum(not certified([0.0, x, 0.0], y, 0.0, value, witness, tol)
              for x, y, value, witness in zip(a2.tolist(), c1.tolist(), values.tolist(), witnesses))
    yield "oracle_witness_soundness", "bad_witnesses", bad, 1
