"""Search, generate, classify, and audit solutions of sigma/phi equations.

The equations are f(a1*n + b1) = f(a2*n + b2) for f the divisor sum (sigma)
or Euler totient (phi).  Solutions either arise from parametric families
built on coprime pairs (k1, k2) with prime values of k_i*l -+ 1, or are
sporadic; this package searches ranges exhaustively, generates and verifies
parametric solutions, classifies arbitrary solutions, counts smooth-valued
integers, and buckets sporadic solutions for auditing.
"""

__version__ = "0.1.0"

from .arith import (
    Kind,
    build_table,
    factorize,
    is_prime,
    largest_factor_table,
    largest_prime_factor,
    phi,
    radical,
    sigma,
)
from .audit import (
    AuditParams,
    Bucket,
    BucketVerdict,
    Decomposition,
    assign_bucket,
    audit_range,
    check_p_divisibility,
    default_params,
    override_params,
)
from .equations import (
    EquationSpec,
    SolutionRecord,
    search,
)
from .errors import CapacityError, DomainError, IntegrityError, UsageError
from .parametric import (
    Family,
    Witness,
    classify,
    consecutive_multiperfect_search,
    count_sporadic,
    derive_family,
    enumerate_families,
    generate,
    ghp_generate,
    verify_witness,
)
from .smoothness import (
    SmoothReport,
    bound_bfps,
    bound_debruijn,
    bound_main,
    count_S,
    is_in_S,
    phi_smooth_count,
    psi,
    sigma_smooth_count,
    smooth_report,
)

__all__ = [
    "AuditParams",
    "Bucket",
    "BucketVerdict",
    "CapacityError",
    "Decomposition",
    "DomainError",
    "EquationSpec",
    "Family",
    "IntegrityError",
    "Kind",
    "SmoothReport",
    "SolutionRecord",
    "UsageError",
    "Witness",
    "assign_bucket",
    "audit_range",
    "bound_bfps",
    "bound_debruijn",
    "bound_main",
    "build_table",
    "check_p_divisibility",
    "classify",
    "consecutive_multiperfect_search",
    "count_S",
    "count_sporadic",
    "default_params",
    "derive_family",
    "enumerate_families",
    "factorize",
    "generate",
    "ghp_generate",
    "is_in_S",
    "is_prime",
    "largest_factor_table",
    "largest_prime_factor",
    "override_params",
    "phi",
    "phi_smooth_count",
    "psi",
    "radical",
    "search",
    "sigma",
    "sigma_smooth_count",
    "smooth_report",
    "verify_witness",
]
