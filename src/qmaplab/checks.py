"""Oracle cross-checks, each written once, with its bound and the boundary
band from `tolerances`.

`validate` reports `validate_suite`, `domain-map` rasterizes
`three_way_agreement` one chunk of points at a time, and the acceptance
suite calls the same functions with its own seeds.  A check returns (name,
metric, value, bound) and passes when value < bound; a count passes at
`COUNT_BOUND` (1), i.e. when it is zero.

Every check is an array program: the unitary cross-check is one
`crosscheck` call over all its states, the growth check one closed-form
greedy call and one `brute_force_max` call for each number of reuses, the
feasibility oracle one `feasibility_search` call over the whole grid (per
chunk of a `domain-map`), and `certified` audits all of its answers as one
batch (a stacked eigvalsh of the witnesses and of the dual certificates over
the whole stack), so `validate` makes one oracle call and `domain-map` one
per chunk.
"""
from __future__ import annotations

import math

import numpy as np

from .conjunction import _greedy_rows, brute_force_max
from .dynamics import crosscheck
from .feasibility import dual_certificate, feasibility_search
from .pauli import A, T11, T21, _broadcast, _read_back, density_from_params
from .reduced import compat_slice_check, in_compatibility_domain, sup_norm_grid, sup_norm_over_time
from .tolerances import (BOUNDARY_BAND, COUNT_BOUND, DUAL_TOL, GREEDY_BOUND, MEAN_VALUES_BOUND,
                         MISMATCH_BAND, READ_BACK_TOL, REL_ERR_FLOOR, SUP_NORM_BOUND,
                         WITNESS_EIG_TOL, inside)

# the ten parameters an extension of (a, c1 = T11, c2 = T21) may choose freely
_FREE = [i for i in range(15) if i not in (*range(15)[A], T11, T21)]


def _on_slice(a2) -> np.ndarray:
    """Slice Bloch vectors (0, a2, 0), stacked as (3, ...)."""
    return np.stack(np.broadcast_arrays(0.0, a2, 0.0))


def slice_margins(a2, c1):
    """Slice-check and sup-norm margins for the slice states (a2, c1), one
    entry per point of a2 and c1 broadcast against each other."""
    return compat_slice_check(a2, c1), in_compatibility_domain(c1, 0.0, _on_slice(a2))


def near_boundary(slice_margin) -> np.ndarray:
    """Within BOUNDARY_BAND of the boundary by the slice margin.  The oracle's
    own value is not consulted, so a wrong oracle answer is never excluded."""
    return np.abs(slice_margin) <= BOUNDARY_BAND


def three_way_agreement(a2, c1, tol: float):
    """Slice check, sup over time and oracle at the slice points (a2, c1),
    broadcast against each other: (slice margin, sup-norm margin, oracle
    values, near-boundary mask, agree mask)."""
    sl, sup = slice_margins(a2, c1)
    values, _ = feasibility_search(_on_slice(a2), c1, 0.0)
    sl_in, sup_in = inside(sl, tol), inside(sup, tol)
    agree = (sl_in == sup_in) & (sup_in == inside(values, tol))
    return sl, sup, values, near_boundary(sl), agree


def certified(a, c1, c2, value, witness, tol: float):
    """Audit oracle answers, one verdict per point of the stack `value` (a
    bool for a single point); `witness` holds the parameters (15, ...).
    Inside (value >= -tol): the witness is physical and its reconstruction
    carries (a, c1, c2).  Outside: the dual certificate W is PSD with unit
    trace and no component on a free parameter, and tr(W rho_witness) <
    -tol, which bounds every extension's min eigenvalue.  A value that is
    NaN or infinite fails either way."""
    a, c1, c2 = _broadcast(a, c1, c2)
    value = np.broadcast_to(value, c1.shape)
    answers, finite = inside(value, tol), np.isfinite(value)
    rho = density_from_params(witness)
    w = dual_certificate(a, c1, c2)
    back_rho, back_w = _read_back(rho), _read_back(w)
    # both come from density_from_params, Hermitian by construction, so
    # eigvalsh takes them unchecked
    witnessed = (
        finite
        & (np.linalg.eigvalsh(rho)[..., 0] >= -WITNESS_EIG_TOL)
        & (np.abs(back_rho[A] - a).max(axis=0) < READ_BACK_TOL)
        & (np.abs(back_rho[T11] - c1) < READ_BACK_TOL)
        & (np.abs(back_rho[T21] - c2) < READ_BACK_TOL)
    )
    outside = (
        finite
        & (np.abs(np.trace(w, axis1=-2, axis2=-1) - 1.0) <= DUAL_TOL)
        & (np.linalg.eigvalsh(w)[..., 0] >= -DUAL_TOL)
        & (np.abs(back_w[_FREE]).max(axis=0) <= DUAL_TOL)
    )
    # tr(W rho) last and compared as Python numbers, as the per-point
    # audit did: perfbench's calibration kernel runs slower after a
    # complex matmul until a float-array operation follows it, so the
    # operation a `validate` pass ends with moves its calibrated run_s
    bounds = np.trace(w @ rho, axis1=-2, axis2=-1).real
    tight = np.array([bound < -tol for bound in bounds.ravel().tolist()], dtype=bool)
    return np.where(answers, witnessed, np.where(outside, tight.reshape(bounds.shape), False))[()]


def _worst(errors) -> float:
    """The largest of 0.0 and the Python floats `errors`, as `max` takes it,
    or the first non-finite error: `max` drops NaN, so a NaN discrepancy
    would pass; as the value it fails every bound."""
    errors = [0.0, *errors]
    return next((e for e in errors if not math.isfinite(e)), max(errors))


# per state: a, b and T.ravel() in [-1, 1], then t in [0, 4 pi]
_STATE_LO = np.r_[np.full(15, -1.0), 0.0]
_STATE_HI = np.r_[np.full(15, 1.0), 4 * math.pi]


def mean_values_vs_unitary(rng):
    """Closed-form evolution vs unitary conjugation, 1000 random states and
    times: one block of draws, in the order and with the values of drawing
    a, b, T and t state by state, and one `crosscheck` call."""
    draws = rng.uniform(_STATE_LO, _STATE_HI, (1000, 16)).T
    worst = _worst(crosscheck(draws[:15], draws[15]).tolist())
    return "mean_values_vs_unitary", "max_discrepancy", worst, MEAN_VALUES_BOUND


def sup_norm_closed_vs_grid(rng):
    """Closed-form supremum vs dense grid, 500 states (a1, a2, a3, c1, c2) per row."""
    a1, a2, a3, c1, c2 = rng.uniform(-1, 1, (500, 5)).T
    sup_closed, _ = sup_norm_over_time(c1, c2, np.stack((a1, a2, a3)))
    sup_grid, _ = sup_norm_grid(c1, c2, np.stack((a1, a2, a3)), points=20_000)
    rel_err = np.abs(sup_closed - sup_grid) / np.maximum(sup_closed, REL_ERR_FLOOR)
    return "sup_norm_closed_vs_grid", "max_rel_err", _worst(rel_err.tolist()), SUP_NORM_BOUND


def greedy_vs_brute_force(pairs, grid_points: int):
    """Greedy growth vs brute-force grid maximization; pairs[n] are the
    (a2, c1) pairs tried with n reuses, one `brute_force_max` call per n."""
    pairs = np.asarray(pairs, dtype=float)
    a2, c1 = pairs[..., 0], pairs[..., 1]
    greedy = _greedy_rows(a2, c1, np.arange(len(pairs))[:, None])[1]
    brute = [brute_force_max(a2[n], c1[n], n, grid_points) for n in range(len(pairs))]
    errors = np.abs(greedy - brute).ravel().tolist()
    return "greedy_vs_brute_force", "max_abs_err", _worst(errors), GREEDY_BOUND


def slice_vs_sup_norm_verdicts(tol: float):
    """Slice check vs sup-over-time verdicts on a dense analytic grid."""
    grid = np.linspace(-1.2, 1.2, 201)
    sl, sup = slice_margins(grid[:, None], grid)
    mismatches = int(np.sum(~(np.abs(sl) <= MISMATCH_BAND) & (inside(sl, tol) != inside(sup, tol))))
    return "slice_vs_sup_norm_verdicts", "mismatches", mismatches, COUNT_BOUND


def validate_suite(rng, tol: float):
    """The `validate` checks in report order, all drawing from `rng`; the
    last two are the oracle vs the slice condition and its certificate audit."""
    yield mean_values_vs_unitary(rng)
    yield sup_norm_closed_vs_grid(rng)
    yield greedy_vs_brute_force(rng.uniform(-1, 1, (4, 5, 2)), grid_points=64)
    yield slice_vs_sup_norm_verdicts(tol)
    axis = np.linspace(-1.0, 1.0, 11)
    a2, c1 = (v.ravel() for v in np.meshgrid(axis, axis, indexing="ij"))
    values, witnesses = feasibility_search(_on_slice(a2), c1, 0.0)
    sl = compat_slice_check(a2, c1)
    disagree = ~near_boundary(sl) & (inside(values, tol) != inside(sl, tol))
    yield "oracle_vs_slice_verdicts", "disagreements", int(disagree.sum()), COUNT_BOUND
    # counted as Python numbers, like the verdicts in `cli._run_validate`
    bad = certified(_on_slice(a2), c1, 0.0, values, witnesses, tol).tolist().count(False)
    yield "oracle_witness_soundness", "bad_witnesses", bad, COUNT_BOUND
