"""Independent feasibility oracle for the compatibility domain.

Given the system Bloch vector `a` and the frozen correlations (c1, c2), this
module decides whether some physical two-qubit state carries exactly those
values, i.e. it maximizes the minimum eigenvalue of the reconstructed density
matrix over the 10 unconstrained parameters (the partner Bloch vector and the
seven correlation entries other than T11 = c1, T21 = c2).

That maximization is a small semidefinite program with a closed-form optimum
and a matching dual.  With c = (c1, c2), p = a_xy + c and m = a_xy - c, let
x_+ = (p, z_+) and x_- = (m, z_-), where z_+ + z_- = 2 a3 is split in
proportion to |p| : |m|.

- Primal witness: the classical-quantum extension that is block-diagonal in
  the eigenbasis |e> of the partner's E1, sum_e w_e rho_e x |e><e|, with
  block Bloch vectors x_e / (2 w_e) and weights
  w_+- = (1 +- (|x_+| - |x_-|)/2)/2.  In parameters: T[:, 0] = (x_+ - x_-)/2,
  b = (w_+ - w_-, 0, 0), every other free entry 0.  Both blocks have the
  minimum eigenvalue (1 - (|x_+| + |x_-|)/2)/4, also where a weight leaves
  [0, 1] (such points are outside).
- Dual certificate: W = (I + u.S x I + v1 S1 x E1 + v2 S2 x E1)/4 with
  u = (p^ + m^)/2, v = (p^ - m^)/2, p^ = -x_+/|x_+| and m^ = -x_-/|x_-|.
  W >= 0 and tr W = 1, and W has no component on a free parameter, so
  tr(W rho) is the same for every extension rho, equals the witness's
  minimum eigenvalue, and bounds every extension's minimum eigenvalue from
  above.

(|x_+| + |x_-|)/2 equals sup_t |a(t)|, so the optimum is (1 - sup_t |a(t)|)/4,
but the oracle never evaluates that supremum: both certificates are built
from (a, c1, c2) alone and each is checked by one eigvalsh.  A witness with
minimum eigenvalue >= -tol proves "inside" (check it by reconstruction); W
with tr(W rho) < -tol proves "outside".
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .optimize import nelder_mead_max  # noqa: F401  no longer called; perfbench traces this binding
from .pauli import (
    DEFAULT_TOL,
    TwoQubitState,
    _as_bloch,
    density_from_params,
    embed_mean_values,
    min_eigenvalue,
)
from .reduced import DomainVerdict, in_compatibility_domain


def _block_vectors(a: np.ndarray, c1: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """(x_+, x_-) = (a_xy + c, z_+), (a_xy - c, z_-) with z_+ + z_- = 2 a3
    split in proportion to |a_xy + c| : |a_xy - c| (equally when both are 0)."""
    p = np.array([a[0] + c1, a[1] + c2])
    m = np.array([a[0] - c1, a[1] - c2])
    norm_p, norm_m = np.linalg.norm(p), np.linalg.norm(m)
    total = norm_p + norm_m
    share = 0.5 if total == 0.0 else norm_p / total
    return np.append(p, 2.0 * a[2] * share), np.append(m, 2.0 * a[2] * (1.0 - share))


def feasibility_search(a, c1: float, c2: float) -> tuple[float, TwoQubitState]:
    """Optimal extension of (a, c1, c2): the largest minimum eigenvalue any
    two-qubit state carrying these values can have, and a state attaining it.

    The witness carries a, c1 and c2 exactly; the value is the minimum
    eigenvalue of its reconstructed density matrix.
    """
    a = _as_bloch(a)
    x_plus, x_minus = _block_vectors(a, c1, c2)
    T = np.zeros((3, 3))
    T[:, 0] = (c1, c2, 0.5 * (x_plus[2] - x_minus[2]))
    b1 = 0.5 * (np.linalg.norm(x_plus) - np.linalg.norm(x_minus))  # w_+ - w_-
    witness = TwoQubitState(a=a, b=[b1, 0.0, 0.0], T=T)
    return min_eigenvalue(density_from_params(witness)), witness


def dual_certificate(a, c1: float, c2: float) -> np.ndarray:
    """The dual matrix W (4x4, PSD, unit trace) for (a, c1, c2).

    W only has components on the identity, S_i x I, S1 x E1 and S2 x E1, so
    tr(W rho) = (1 + u.a + v1 c1 + v2 c2)/4 for every extension rho, and that
    value is >= the minimum eigenvalue of rho.  When one block vector
    vanishes the other's direction is used for both; when both vanish,
    W = I/4.
    """
    a = _as_bloch(a)

    def down(x: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(x)
        return -x / norm if norm > 0.0 else np.zeros(3)

    x_plus, x_minus = _block_vectors(a, c1, c2)
    p_hat, m_hat = down(x_plus), down(x_minus)
    if not p_hat.any():
        p_hat = m_hat
    if not m_hat.any():
        m_hat = p_hat
    # the proportional split of a3 gives p^ and m^ the same third component,
    # so v3 = 0 and W has no S3 x E1 (free T31) component
    u, v = 0.5 * (p_hat + m_hat), 0.5 * (p_hat - m_hat)
    return density_from_params(embed_mean_values(u, v[0], v[1]))


def is_compatible_oracle(a, c1: float, c2: float, tol: float = DEFAULT_TOL) -> DomainVerdict:
    """Inside iff the optimal extension has min eigenvalue >= -tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    best, _ = feasibility_search(a, c1, c2)
    return DomainVerdict(inside=best >= -tol, margin=best)


@dataclass(frozen=True)
class CrossValidationSpec:
    """Grid (and optional random general-state sample) for comparing the
    feasibility oracle against the sup-over-time compatibility verdict.

    Slice points use a = (0, a2, 0), c2 = 0.  Points whose analytic margin
    (or 4x the oracle's eigenvalue margin, the boundary scale relation)
    falls within `band` of zero are excluded as boundary cases.  `seed` only
    draws the random general points.
    """

    a2_values: Sequence[float]
    c1_values: Sequence[float]
    band: float = 1e-3
    random_points: int = 0
    seed: int = 0
    tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class Disagreement:
    a: np.ndarray
    c1: float
    c2: float
    analytic_margin: float
    oracle_margin: float
    witness: TwoQubitState


@dataclass(frozen=True)
class CrossValidationReport:
    points_checked: int
    boundary_excluded: int
    disagreements: tuple[Disagreement, ...]
    worst_margin_gap: float


def cross_validate(spec: CrossValidationSpec) -> CrossValidationReport:
    """Compare oracle and sup-over-time verdicts on the slice grid, plus the
    requested number of seeded random general (a, c1, c2) points.

    Disagreements are returned with their witness states for inspection,
    never resolved.
    """
    points: list[tuple[np.ndarray, float, float]] = []
    for a2 in spec.a2_values:
        for c1 in spec.c1_values:
            points.append((np.array([0.0, float(a2), 0.0]), float(c1), 0.0))
    rng = np.random.default_rng([spec.seed, 0x5EED])
    for _ in range(spec.random_points):
        a = rng.uniform(-1.0, 1.0, 3)
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        points.append((a, float(c1), float(c2)))

    checked = excluded = 0
    worst_gap = 0.0
    disagreements: list[Disagreement] = []
    for a, c1, c2 in points:
        analytic = in_compatibility_domain(c1, c2, a, tol=spec.tol)
        best, witness = feasibility_search(a, c1, c2)
        if abs(analytic.margin) <= spec.band or abs(4.0 * best) <= spec.band:
            excluded += 1
            continue
        checked += 1
        oracle_inside = best >= -spec.tol
        if oracle_inside != analytic.inside:
            disagreements.append(
                Disagreement(
                    a=a,
                    c1=c1,
                    c2=c2,
                    analytic_margin=analytic.margin,
                    oracle_margin=best,
                    witness=witness,
                )
            )
            worst_gap = max(worst_gap, abs(analytic.margin - 4.0 * best))
    return CrossValidationReport(
        points_checked=checked,
        boundary_excluded=excluded,
        disagreements=tuple(disagreements),
        worst_margin_gap=worst_gap,
    )
