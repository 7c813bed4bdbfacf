"""Primitive roots, special prime families, character sums, and the
least-prime scan machinery behind them."""

# One rule keeps start-up small: charsum is the only module that imports
# numpy at the top. The others import it inside the functions that build
# arrays, so `import primroots`, `import primroots.cli` and the scalar
# subcommands (order, is-primroot, lift, germain-test, fermat-test, k2n,
# least-prime) load no numpy; tests/test_startup.py holds them to it.
# charsum keeps its import so that a process pays for numpy when it imports
# charsum, not inside its first array call. Its names are read from it here
# on first access (PEP 562).
from .arith import (
    NATURAL_MAX,
    DomainError,
    gcd,
    is_perfect_square,
    jacobi,
    log_integral,
    mod_pow,
)
from .artin import (
    ArtinConstant,
    DensityReport,
    ScanRecord,
    ScanSummary,
    artin_constant,
    conjecture_scan,
    least_prime_with_primitive_root,
    prime_counts,
    summarize_scan,
)
from .factorize import (
    Factorization,
    carmichael_lambda,
    euler_phi,
    factor,
    is_prime,
    mobius,
    omega,
)
from .primroot import (
    OrderResult,
    count_primitive_roots,
    is_lambda_primitive_root,
    is_primitive_root_prime,
    least_primitive_root,
    lift_primitive_root,
    multiplicative_order,
)
from .special_primes import (
    FERMAT_PRIMES,
    GermainForm,
    KPow2Enumeration,
    PrimeClass,
    classify_prime,
    enumerate_k_pow2_primes,
    fermat_primitive_root_test,
    germain_decompose,
    germain_primitive_root_test,
    sieve_primes,
)

_CHARSUM_NAMES = (
    "IntervalDecomposition",
    "PsiEvaluation",
    "decompose_interval",
    "psi_divisor_dependent",
    "psi_divisor_free",
)

__all__ = [
    "NATURAL_MAX", "DomainError", "gcd", "is_perfect_square", "jacobi", "log_integral",
    "mod_pow",
    "ArtinConstant", "DensityReport", "ScanRecord", "ScanSummary", "artin_constant",
    "conjecture_scan", "least_prime_with_primitive_root", "prime_counts",
    "summarize_scan",
    *_CHARSUM_NAMES,
    "Factorization", "carmichael_lambda", "euler_phi", "factor", "is_prime", "mobius",
    "omega",
    "OrderResult", "count_primitive_roots", "is_lambda_primitive_root",
    "is_primitive_root_prime", "least_primitive_root", "lift_primitive_root",
    "multiplicative_order",
    "FERMAT_PRIMES", "GermainForm", "KPow2Enumeration", "PrimeClass", "classify_prime",
    "enumerate_k_pow2_primes", "fermat_primitive_root_test", "germain_decompose",
    "germain_primitive_root_test", "sieve_primes",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _CHARSUM_NAMES:
        from . import charsum

        return getattr(charsum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_CHARSUM_NAMES})
