"""Multiplicative orders and primitive-root tests.

Covers the F_p test (strip one prime divisor of p-1 at a time), the
lambda-primitive-root test in Z/nZ, and the lift from prime-power moduli
to composites. "Primitive root mod composite n" always means an element
of maximal order lambda(n): Z/nZ is not cyclic in general, and that is
the only reading under which the lift is well-formed.

``primitive_root_mask`` is the batched form of the F_p test for one base
over an array of sieved primes. It runs one factor row at a time, Euler's
criterion (l = 2) first, and each row tests only the primes that passed the
rows before it; the scalar functions stay the reference it is tested
against.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd as _gcd, isqrt

from .arith import DomainError, check_natural
from .factorize import SIEVE_LIMIT, carmichael_lambda, factor, is_prime

# The batched test multiplies two residues mod p <= SIEVE_LIMIT in int64.
assert SIEVE_LIMIT**2 < 2**63


@dataclass(frozen=True)
class OrderResult:
    """Multiplicative order of u in (Z/nZ)* with the group exponent."""

    n: int
    u: int
    order: int
    group_exponent: int
    is_lambda_primitive: bool


def _require_prime(p, name="p"):
    check_natural(p, name)
    if not is_prime(p):
        raise DomainError(f"{name} = {p} is not prime")


def _unit(u, n, quote_given=False):
    """u mod n, refused unless n >= 2 and u is a unit mod n.

    The refusal names u mod n, or u as given when ``quote_given`` is set.
    """
    check_natural(u, "u")
    check_natural(n, "n")
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    r = u % n
    if _gcd(r, n) != 1:
        raise DomainError(f"u = {u if quote_given else r} is not a unit mod {n}")
    return r


def _passes(u, n, exponents):
    """True iff u^e != 1 mod n for every e. The inputs are not checked."""
    for e in exponents:
        if pow(u, e, n) == 1:
            return False
    return True


@lru_cache(maxsize=65536)
def _test_exponents(lam):
    """Exponents lam/l for each prime l | lam, largest quotient first.

    lam is the group exponent: p - 1 for a prime p, lambda(n) in general.
    """
    return tuple(lam // ell for ell, _ in factor(lam).factors)


def multiplicative_order(u: int, n: int) -> OrderResult:
    """Exact order of u mod n, found by peeling primes off lambda(n).

    Starts from the group exponent and divides out each prime factor while
    the power still lands on 1; never enumerates all divisors.
    """
    u = _unit(u, n)
    lam = carmichael_lambda(factor(n))
    order = lam
    for ell, _ in factor(lam).factors:
        while order % ell == 0 and pow(u, order // ell, n) == 1:
            order //= ell
    return OrderResult(n=n, u=u, order=order, group_exponent=lam,
                       is_lambda_primitive=order == lam)


def is_primitive_root_prime(u: int, p: int) -> bool:
    """Test u for primitive root mod prime p.

    True iff u^((p-1)/l) != 1 mod p for every prime l | p-1; one
    exponentiation per distinct prime divisor of p-1.
    """
    _require_prime(p)
    check_natural(u, "u")
    u %= p
    if u == 0:
        raise DomainError(f"u is not coprime to p = {p}")
    return _passes(u, p, _test_exponents(p - 1))


def primitive_root_mask(q: int, primes, rows):
    """The F_p test for one base q over an array of primes.

    ``rows`` holds the distinct primes of each p - 1 (as returned by
    ``distinct_prime_factors(primes - 1)``). Entry j is True iff
    q^((p-1)/l) != 1 mod p for every l | p-1; it is False where p divides
    q. The rows run in order, each as one square-and-multiply over the
    primes still passing: row 0 is l = 2 for every odd p, so Euler's
    criterion drops about half the primes before any other row runs. The
    primes are trusted: callers pass sieved primes, at most SIEVE_LIMIT.
    """
    import numpy as np

    check_natural(q, "q")
    if primes.size and primes.max() > SIEVE_LIMIT:
        raise DomainError(f"primes past SIEVE_LIMIT = {SIEVE_LIMIT} would overflow int64")
    residues = q % primes
    passed = residues != 0
    for ell in rows:
        live = np.flatnonzero(passed & (ell > 1))
        mod = primes[live]
        exponent = (mod - 1) // ell[live]
        base = residues[live]
        power = np.ones_like(mod)
        product = np.empty_like(mod)
        while exponent.any():
            np.multiply(power, base, out=product)
            np.remainder(product, mod, out=power, where=(exponent & 1).astype(bool))
            np.multiply(base, base, out=base)
            np.remainder(base, mod, out=base)
            exponent >>= 1
        passed[live] = power != 1
    return passed


def is_lambda_primitive_root(u: int, n: int) -> bool:
    """True iff u has the maximal order lambda(n) in (Z/nZ)*."""
    return _passes(_unit(u, n), n, _test_exponents(carmichael_lambda(factor(n))))


def lift_primitive_root(u: int, n: int) -> bool:
    """Lift the maximal-order property from prime powers to their product.

    Tests u against every prime-power divisor of n; if all pass, the
    conclusion (u has order lambda(n) mod n) is re-verified before
    returning True, so a True answer is the checked claim, not a trusted
    one. The input u must not be 0, +-1 mod n, or a perfect square (the
    global exclusions; squares are never maximal-order elements). Every
    refusal comes before n is factored.
    """
    r = _unit(u, n, quote_given=True)
    if r == 1 or r == n - 1:
        raise DomainError("u = +-1 mod n is excluded from the lift")
    s = isqrt(u)
    if s * s == u:
        raise DomainError(f"u = {u} is a perfect square, excluded from the lift")
    for p, e in factor(n).factors:
        if not is_lambda_primitive_root(u, p**e):
            return False
    if not is_lambda_primitive_root(u, n):
        raise RuntimeError(
            f"lift inconsistency at u = {u}, n = {n}: prime-power tests passed "
            "but u is not maximal-order mod n")
    return True


def least_primitive_root(p: int) -> int:
    """Smallest primitive root of the prime p.

    For p >= 3 this is the least tau >= 2 passing the F_p test (1 never
    generates); for p = 2 the unit group is trivial and 1 generates it.
    """
    _require_prime(p)
    if p == 2:
        return 1
    exponents = _test_exponents(p - 1)
    tau = 2
    while not _passes(tau, p, exponents):
        tau += 1
    return tau


def count_primitive_roots(p: int) -> int:
    """Count primitive roots in [1, p-1] by running the test on each u.

    Deliberately the per-element test, not the phi(p-1) formula: the count
    identity against euler_phi is a cross-check, so both sides stay
    independent.
    """
    _require_prime(p)
    exponents = _test_exponents(p - 1)
    return sum(_passes(u, p, exponents) for u in range(1, p))
