"""Exact unitary divisor arithmetic in the nine imaginary quadratic UFDs.

The rings are O_Q(sqrt(d)) for d in {-1, -2, -3, -7, -11, -19, -43, -67,
-163}: every nonzero element factors uniquely into a unit times canonical
sector primes, which makes unitary divisors (divisors coprime to their
cofactor) and the divisor sums delta_star / i_star well defined.  Everything
is exact: integers, rationals, and sums of rational multiples of square
roots.  No floating point touches a reported result.
"""

from .factoring import FactorEntry, Factorization, coprime, factor_element, factor_int, rho
from .primes import PrimeClass, classify, prime_above, xi
from .radicals import RadicalValue
from .rings import (
    DomainError,
    K,
    QInt,
    Ring,
    arg_less,
    canonical_associate,
    exact_div,
    format_element,
    in_sector,
    is_associate,
    parse_element,
    pretty_element,
    ring,
)
from .search import (
    CheckpointError,
    SearchConfig,
    SearchRecord,
    SigEntry,
    Signature,
    iter_sector_elements,
    run_search,
    search_signatures,
    signature_hits_multi,
)
from .theorems import (
    TheoremReport,
    check_thm_2_2,
    check_thm_2_3,
    check_thm_2_4,
    check_thm_2_5,
    check_thm_2_6,
    check_zeta,
    g_map,
    run_check,
)
from .udf import (
    ZetaCheck,
    delta_star,
    delta_star_oracle,
    i_star,
    sigma_star_int,
    unitary_divisors,
    zeta_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "DomainError",
    "FactorEntry",
    "Factorization",
    "K",
    "PrimeClass",
    "QInt",
    "RadicalValue",
    "Ring",
    "SearchConfig",
    "SearchRecord",
    "SigEntry",
    "Signature",
    "TheoremReport",
    "ZetaCheck",
    "arg_less",
    "canonical_associate",
    "check_thm_2_2",
    "check_thm_2_3",
    "check_thm_2_4",
    "check_thm_2_5",
    "check_thm_2_6",
    "check_zeta",
    "classify",
    "coprime",
    "delta_star",
    "delta_star_oracle",
    "exact_div",
    "factor_element",
    "factor_int",
    "format_element",
    "g_map",
    "i_star",
    "in_sector",
    "is_associate",
    "iter_sector_elements",
    "parse_element",
    "pretty_element",
    "prime_above",
    "rho",
    "ring",
    "run_check",
    "run_search",
    "search_signatures",
    "sigma_star_int",
    "signature_hits_multi",
    "unitary_divisors",
    "xi",
    "zeta_bound_check",
]
