"""qmaplab: a numerical stress lab for reduced Bloch-vector maps of one qubit
in an interacting qubit pair.

The package carries the exact two-qubit dynamics in two mutually checking
forms, the family of reduced affine maps with their positivity and
compatibility domains, a conjunction engine that reuses one frozen map across
consecutive time steps and reports the unphysical states this produces, a
slipped-initial-condition analysis, and an independent feasibility oracle
that certifies both domain verdicts: a witness state for inside, a dual
certificate for outside.
"""
from .conjunction import brute_force_max, conjunct, first_unphysical_n, greedy_extremal_growth
from .dynamics import crosscheck, evolve_density, unitary
from .feasibility import dual_certificate, feasibility_search
from .pauli import density_from_params, embed_mean_values, params_from_density, pauli
from .reduced import compat_slice_check, in_compatibility_domain, sup_norm_grid, sup_norm_over_time
from .slippage import max_safe_repetitions, slip_state, slipped_domain_check
from .tolerances import DEFAULT_TOL

__all__ = [
    "DEFAULT_TOL",
    "brute_force_max",
    "compat_slice_check",
    "conjunct",
    "crosscheck",
    "density_from_params",
    "dual_certificate",
    "embed_mean_values",
    "evolve_density",
    "feasibility_search",
    "first_unphysical_n",
    "greedy_extremal_growth",
    "in_compatibility_domain",
    "max_safe_repetitions",
    "params_from_density",
    "pauli",
    "slip_state",
    "slipped_domain_check",
    "sup_norm_grid",
    "sup_norm_over_time",
    "unitary",
]
__version__ = "0.1.0"
