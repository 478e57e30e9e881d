"""mubsic: mutually unbiased bases, SIC-POVMs, and entropic uncertainty bounds.

Construct MUB sets in prime dimensions and SIC-POVMs from
Weyl-Heisenberg fiducials, compute Renyi/Tsallis/min/symmetrized
entropies of measurement statistics, and verify the full family of
entropic lower bounds, exact identities, and the product-SIC
entanglement witness over arbitrary or randomly sampled density
matrices.
"""

from .bounds import (
    PROPOSITION_LABELS,
    PROPOSITIONS,
    BoundReport,
    MuPairReports,
    Proposition,
    check_arguments,
    check_bound,
    coincidence_sum_check,
    detect_entanglement,
    mu_f_bar,
    mu_g_factor,
    mu_pair_bounds,
    mub_minentropy_bound,
    mub_renyi_bound,
    mub_symmetrized_bound,
    mub_tsallis_bound,
    mub_tsallis_bound_inefficiency,
    riesz_precondition_check,
    separable_bound,
    sic_minentropy_bound,
    sic_renyi_bound,
    sic_tsallis_bound,
    sic_tsallis_bound_inefficiency,
    simple_bounds,
)
from .entanglement import (
    BipartitePovm,
    correlation_G,
    joint_probabilities,
    maximally_entangled,
    product_sic_povm,
)
from .entropy import (
    SymOrderPair,
    alpha_log,
    binary_tsallis,
    conjugate_order,
    index_of_coincidence,
    max_prob_bound,
    renyi,
    symmetrized,
    tsallis,
)
from .errors import (
    ConstructionError,
    DimensionMismatchError,
    DomainError,
    NotASicError,
    PreconditionError,
)
from .linalg import kron
from .measurements import (
    MubSet,
    OrthonormalBasis,
    Povm,
    ProbDist,
    SicPovm,
    distort,
    load_fiducial,
    mub_construct,
    probabilities,
    sic_consequences_check,
    sic_design_basis,
    sic_from_fiducial,
    weyl_heisenberg_orbit,
)
from .states import (
    DensityMatrix,
    bloch_vector,
    from_bloch,
    from_json,
    generator,
    maximally_mixed,
    purity,
    random_mixed,
    random_pure,
    stream,
    to_json,
)

__version__ = "0.1.0"
