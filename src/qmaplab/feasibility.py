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

Every function broadcasts over stacks: `a` of shape (3, ...) against c1 and
c2.  `feasibility_search` is one stacked product with the operator basis and
one stacked eigvalsh over the whole stack, so its memory grows with its
input, as `rotate`'s does: a caller bounds it by the stack it hands over
(`domain-map` hands over one 4,096-row chunk at a time).
"""
from __future__ import annotations

import numpy as np

from .optimize import nelder_mead_max  # noqa: F401  no longer called; perfbench traces this binding
from .pauli import A, B1, T11, T21, T31, _broadcast, _norms, density_from_params, embed_mean_values


def _block_vectors(a: np.ndarray, c1, c2) -> tuple:
    """(x_+, x_-, |x_+|, |x_-|): x_+- = (a_xy +- c, z_+-), each of shape
    (3, ...), with z_+ + z_- = 2 a3 split in proportion to |a_xy + c| :
    |a_xy - c| (equally when both are 0).  A norm past the float range (an
    input above about 1.3e154, where its square overflows) raises
    ValueError, as `reduced._finite_sup` does."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        p = (a[0] + c1, a[1] + c2)
        m = (a[0] - c1, a[1] - c2)
        norm_p, norm_m = _norms(*p), _norms(*m)
        total = norm_p + norm_m
        share = np.divide(norm_p, total, out=np.full(total.shape, 0.5), where=total != 0.0)
        x_plus, x_minus = np.stack((*p, 2.0 * a[2] * share)), np.stack((*m, 2.0 * a[2] * (1.0 - share)))
        norm_plus, norm_minus = _norms(*x_plus), _norms(*x_minus)
    if not (np.isfinite(norm_plus).all() and np.isfinite(norm_minus).all()):
        raise ValueError("the block vectors' norms overflow: an input passes about 1.3e154")
    return x_plus, x_minus, norm_plus, norm_minus


def feasibility_search(a, c1, c2) -> tuple[np.ndarray, np.ndarray]:
    """Optimal extension of (a, c1, c2): the largest minimum eigenvalue any
    two-qubit state carrying these values can have, and a state attaining it,
    for every point of the broadcast stack (a float for a single point).

    The witness, parameters of shape (15, ...), carries a, c1 and c2
    exactly; the value is the minimum eigenvalue of its reconstructed
    density matrix.  A NaN or infinite input raises ValueError naming it.
    """
    witness = embed_mean_values(a, c1, c2)
    x_plus, x_minus, norm_plus, norm_minus = _block_vectors(witness[A], witness[T11], witness[T21])
    witness[T31] = 0.5 * (x_plus[2] - x_minus[2])
    witness[B1] = 0.5 * (norm_plus - norm_minus)  # w_+ - w_-
    # Hermitian by construction: eigvalsh takes it unchecked
    return np.linalg.eigvalsh(density_from_params(witness))[..., 0][()], witness


def dual_certificate(a, c1, c2) -> np.ndarray:
    """The dual matrix W (4x4, PSD, unit trace) for (a, c1, c2), stacked as
    (..., 4, 4) over the broadcast points.

    W only has components on the identity, S_i x I, S1 x E1 and S2 x E1, so
    tr(W rho) = (1 + u.a + v1 c1 + v2 c2)/4 for every extension rho, and that
    value is >= the minimum eigenvalue of rho.  When one block vector
    vanishes the other's direction is used for both; when both vanish,
    W = I/4.  A NaN or infinite input raises ValueError naming it.
    """
    a, c1, c2 = _broadcast(a, c1, c2)

    def down(x: np.ndarray, norm: np.ndarray) -> np.ndarray:
        return np.divide(-x, norm, out=np.zeros(x.shape), where=norm > 0.0)

    x_plus, x_minus, norm_plus, norm_minus = _block_vectors(a, c1, c2)
    p_hat, m_hat = down(x_plus, norm_plus), down(x_minus, norm_minus)
    p_hat = np.where(p_hat.any(axis=0), p_hat, m_hat)
    m_hat = np.where(m_hat.any(axis=0), m_hat, p_hat)
    # the proportional split of a3 gives p^ and m^ the same third component,
    # so v3 = 0 and W has no S3 x E1 (free T31) component
    u, v = 0.5 * (p_hat + m_hat), 0.5 * (p_hat - m_hat)
    return density_from_params(embed_mean_values(u, v[0], v[1]))
