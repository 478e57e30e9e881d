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
    Proposition,
    check_arguments,
    check_bound,
    detect_entanglement,
    mu_f_bar,
    mu_g_factor,
    mub_minentropy_bound,
    mub_renyi_bound,
    mub_symmetrized_bound,
    mub_tsallis_bound,
    separable_bound,
    sic_minentropy_bound,
    sic_renyi_bound,
    sic_tsallis_bound,
    simple_bounds,
)
from .entanglement import correlation_G, maximally_entangled
from .entropy import (
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
    Measurement,
    ProbDist,
    distort,
    load_fiducial,
    mub_construct,
    mub_set,
    orthonormal_basis,
    povm,
    probabilities,
    sic_from_fiducial,
    sic_povm,
    weyl_heisenberg_orbit,
)
from .states import (
    DensityMatrix,
    from_bloch,
    from_json,
    maximally_mixed,
    purity,
    random_mixed,
    random_pure,
    stream,
    to_json,
)

__version__ = "0.1.0"
