"""Flags of rational subspaces on the discrete cube.

Exact rational subspace arithmetic, flag/cell/genotype combinatorics, coset
entropies and entropy-condition certificates, the fixed-point constants of
the associated tree recursion, and a seeded Monte Carlo laboratory for equal
subset sums and divisor concentration.
"""

from .entropy import (
    EReport,
    Measure,
    System,
    check_entropy_condition,
    coset_entropy,
    e_value,
    perturb_thresholds,
    submodularity_defect,
)
from .flags import (
    Cell,
    Flag,
    Genotype,
    Subflag,
    basic_subflag,
    binary_flag,
    cell_tree,
    enumerate_subflags,
    mt_flag,
    parse_flag_text,
)
from .optmeas import (
    Certificate,
    OptimalData,
    certify_system,
    entropy_matrix,
    optimal_measure,
    optimal_parameters,
    optimal_system,
)
from .qlinalg import (
    Subspace,
    contains,
    cube_points,
    span,
    subspace_intersect,
    subspace_sum,
)
from .rho import (
    RhoSolution,
    constants,
    eta,
    gamma_res,
    rho_limit,
    solve_flag_rhos,
    solve_rho_chain,
    theta,
)
from .simlab import (
    DeltaSample,
    MultiplicityResult,
    amplify_demo,
    delta_integer,
    delta_perm,
    delta_poly,
    equal_sums_probability,
    irreducible_count,
    max_subset_sum_multiplicity,
    substream,
)

__version__ = "0.1.0"
