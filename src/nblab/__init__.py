"""Numerics for a weighted sequence-space distance test of the Riemann hypothesis.

The package measures how well the constant sequence (1, 1, ...) can be
approximated by dilated fractional-part sequences in a weighted square-summable
space, tracks the decay of the squared distance as the dilation cutoff grows,
and cross-checks the analytic identities that make the closed-form Gram
entries and Mellin-side transforms trustworthy.
"""

from .arith import MoebiusTable, sieve_moebius, verify_recurrence
from .criterion import (
    BasisKind,
    BasisSelection,
    DistanceReport,
    GramStore,
    SolveMethod,
    assemble_gram,
    asymptotic_rate_constant,
    distance,
    distance_sweep,
    gram_system,
    moebius_residual,
)
from .errors import (
    CacheError,
    ConditioningError,
    DomainError,
    NBLabError,
    PoleError,
    UnstablePointError,
)
from .seqspace import (
    PiecewiseConstant,
    dilate,
    inner_product_closed,
    inner_product_truncated,
    norm_m,
)
from .specfun import (
    digamma,
    digamma_array,
    log_gamma,
    xi,
    xi_inequality_check,
    zeta,
    zeta_deflated,
)
from .analytic import (
    MellinKernel,
    combined_kernel_transform,
    mellin_exact,
    moebius_limit_transform,
    moebius_partial_transform,
    reciprocal_kernel_transform,
    run_suite,
    scale_inner_function,
    verify_claim,
)

__version__ = "0.1.0"

__all__ = [
    "BasisKind",
    "BasisSelection",
    "CacheError",
    "ConditioningError",
    "DistanceReport",
    "DomainError",
    "GramStore",
    "MellinKernel",
    "MoebiusTable",
    "NBLabError",
    "PiecewiseConstant",
    "PoleError",
    "SolveMethod",
    "UnstablePointError",
    "assemble_gram",
    "asymptotic_rate_constant",
    "combined_kernel_transform",
    "digamma",
    "digamma_array",
    "dilate",
    "distance",
    "distance_sweep",
    "gram_system",
    "inner_product_closed",
    "inner_product_truncated",
    "log_gamma",
    "mellin_exact",
    "moebius_limit_transform",
    "moebius_partial_transform",
    "moebius_residual",
    "norm_m",
    "reciprocal_kernel_transform",
    "run_suite",
    "scale_inner_function",
    "sieve_moebius",
    "verify_claim",
    "verify_recurrence",
    "xi",
    "xi_inequality_check",
    "zeta",
    "zeta_deflated",
    "__version__",
]
