"""Exact unitary divisor arithmetic in the nine imaginary quadratic UFDs.

The rings are O_Q(sqrt(d)) for d in {-1, -2, -3, -7, -11, -19, -43, -67,
-163}: every nonzero element factors uniquely into a unit times canonical
sector primes, which makes unitary divisors (divisors coprime to their
cofactor) and the divisor sums delta_star / i_star well defined.  Everything
is exact: integers, rationals, and sums of rational multiples of square
roots.  No floating point touches a reported result.

The package loads a layer on the first use of one of its names, so
``import quadunitary`` alone imports none of its submodules.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every exported name under the module that defines it; the keys are the
# submodules the package exposes by name
_EXPORTS = {
    "factoring": ("FactorEntry", "Factorization", "coprime", "factor_element", "factor_int", "rho"),
    "primes": ("PrimeClass", "classify", "prime_above", "xi"),
    "radicals": ("RadicalValue",),
    "rings": (
        "DomainError", "K", "QInt", "Ring", "arg_less", "canonical_associate", "exact_div",
        "format_element", "in_sector", "is_associate", "parse_element", "pretty_element", "ring",
    ),
    "search": (
        "CheckpointError", "SearchConfig", "SearchRecord", "SigEntry", "Signature",
        "iter_sector_elements", "run_search", "search_signatures", "signature_hits_multi",
    ),
    "theorems": (
        "TheoremReport", "check_thm_2_2", "check_thm_2_3", "check_thm_2_4", "check_thm_2_5",
        "check_thm_2_6", "check_zeta", "g_map", "run_check",
    ),
    "udf": (
        "ZetaCheck", "delta_star", "delta_star_oracle", "i_star", "sigma_star_int",
        "unitary_divisors", "zeta_bound_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # PEP 562: runs only for a name not yet bound here.  The value is read
    # from its home module at first use, so a function replaced there before
    # (a tracer's wrapper, say) is the one the package hands out.
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
