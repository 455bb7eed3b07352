"""Every number that decides a verdict, and each rule that reads `tol`,
written once.  A leaf: imports nothing.

A `checks` check passes when its value is below its bound.
"""

# default slack of every boundary verdict; it only has to absorb rounding noise
DEFAULT_TOL = 1e-9
# how far a density matrix may be from Hermitian with unit trace
DENSITY_TOL = 1e-12
# `first_unphysical_n`: a2^2 + (n+1) c1^2 exceeds 1 only past 1 + this
BOUNDARY_EPS = 1e-12
# `first_unphysical_n`: c1^2 below this is no correlation, so no growth
ZERO_CORRELATION_SQ = 1e-300
# `golden_section_max` stops a bracket once it is no wider than this, W ~
# sqrt(eps), eps = 2^-52.  Near a smooth maximum f(x* + d) = f* - |f''| d^2 / 2,
# so within W the value is off by at most |f''| W^2 / 2 ~ |f''| eps / 2:
# 2 eps f* in `sup_norm_grid` (|f''| <= 4 f*).  Below W rounding decides each
# golden comparison.
GOLDEN_TOL = 1.5e-8
# `sup_norm_grid`: rounding slack of one grid value in a block's bound, per
# unit of p^2 + q^2 + a3^2 + 1, p = |a1| + |c2|, q = |a2| + |c1|.  A grid
# value a1(t)^2 + a2(t)^2 + a3^2 is within 12u (p^2 + q^2 + a3^2) of its
# exact value, u = 2^-53: cos, sin, two products and a difference put 4u p
# into a1(t), the square doubles it, and the square and the two sums add
# 3u.  The bound takes two such errors, its end value's and its point's.
# The walk skips each block width not narrower than the grid, so every
# level has two or more blocks and H <= 512 h < 2 pi < 6.3: the bound is
# under 12 (p^2 + q^2 + a3^2) + 2 delta and rounds by under 1.2e-14 per
# unit, and linspace puts the block ends within 5e-15 rad of H apart, which
# moves L H^2 / 8 by under 1.6e-14 per unit.
# That is under 4e-14 per unit; the + 1 covers underflow's absolute error,
# below 1e-322.  So 1e-12, twice in the bound, leaves 50x headroom.
GRID_VALUE_PAD = 1e-12
# width of the boundary strip excluded from oracle agreement verdicts
BOUNDARY_BAND = 1e-3
# `certified`: how far an inside witness's minimum eigenvalue may dip below 0
WITNESS_EIG_TOL = 1e-9
# `certified`: how far the (a, c1, c2) read back from a witness may be off
READ_BACK_TOL = 1e-10
# `certified`: how far a dual certificate may be from unit trace, PSD, blind to free entries
DUAL_TOL = 1e-12
# bound of closed-form vs unitary evolution, max absolute discrepancy
MEAN_VALUES_BOUND = 1e-12
# bound of closed-form sup over time vs its dense grid, max relative error
SUP_NORM_BOUND = 1e-9
# bound of greedy growth vs the brute-force grid maximum, max absolute error
GREEDY_BOUND = 1e-6
# bound of the three counting checks, which pass at zero
COUNT_BOUND = 1
# slice vs sup-norm verdicts: |slice margin| within this is not a mismatch
MISMATCH_BAND = 1e-9
# floor of the sup-norm relative error's denominator, so sup 0 divides safely
REL_ERR_FLOOR = 1e-12


def inside(margin, tol):
    """The domain rule: a signed margin is inside iff it is >= -tol."""
    return margin >= -tol


def exceeds(magnitude, tol):
    """The hazard rule, M > 1 + tol; it parts from `inside` at M = fl(1 + tol)."""
    return magnitude > 1.0 + tol
