"""Special prime families with short primitive-root tests.

Fermat primes (p - 1 a power of two), generalized Germain primes
(p = 2^s * r + 1 with r an odd prime), and the fixed-k family k * 2^n + 1.
The first two admit constant-cost primitive-root tests: one Jacobi symbol
for Fermat primes, exactly two modular exponentiations for Germain primes,
versus the generic test's omega(p-1) exponentiations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arith import NATURAL_MAX, DomainError, check_natural, jacobi
from .factorize import is_prime, primes_upto

FERMAT_PRIMES = (3, 5, 17, 257, 65537)


def sieve_primes(limit: int) -> list:
    """primes_upto(limit) as a list; refused past SIEVE_LIMIT before any sieving."""
    return primes_upto(limit).tolist()


@dataclass(frozen=True)
class GermainForm:
    """A prime written as p = 2^s * r + 1 with r an odd prime."""

    p: int
    s: int
    r: int

    def __post_init__(self):
        if self.s < 1 or self.r < 3 or self.r % 2 == 0:
            raise DomainError(f"invalid Germain form (s={self.s}, r={self.r})")
        if (self.r << self.s) + 1 != self.p:
            raise DomainError(f"2^{self.s} * {self.r} + 1 != {self.p}")
        if not is_prime(self.p) or not is_prime(self.r):
            raise DomainError(f"Germain form requires {self.p} and {self.r} prime")


def germain_decompose(p: int):
    """Write p - 1 = 2^s * r (r odd); return the form iff r is an odd prime.

    Fermat-type primes (odd part 1) are not Germain: they route to the
    nonresidue test instead.
    """
    check_natural(p, "p")
    if p < 3 or not is_prime(p):
        raise DomainError(f"p = {p} is not an odd prime")
    m = p - 1
    s = (m & -m).bit_length() - 1
    r = m >> s
    if r >= 3 and is_prime(r):
        return GermainForm(p=p, s=s, r=r)
    return None


def germain_forms(limit: int) -> tuple:
    """germain_decompose for every prime p <= limit, read from the sieve: arrays
    (p, s, r) of the p whose odd part r of p - 1 is in primes_upto(limit)."""
    primes = primes_upto(limit)
    two_power = (primes - 1) & (1 - primes)  # the largest power of 2 dividing p - 1
    r = (primes - 1) // two_power
    keep = primes[np.searchsorted(primes, r).clip(max=primes.size - 1)] == r
    return primes[keep], np.frexp(two_power[keep])[1] - 1, r[keep]


def germain_primitive_root_test(q: int, g: GermainForm) -> bool:
    """Two-exponentiation primitive-root test for a Germain prime.

    True iff q^(2^(s-1) * r) != 1 and q^(2^s) != 1 mod p. Both powers are
    always computed, so the cost is exactly two modular exponentiations.
    Bases congruent to 0 or +-1 and perfect-square residues are rejected:
    the test is only claimed on the excluded-input-free domain.
    """
    p = g.p
    check_natural(q, "q")
    u = q % p
    if u == 0:
        raise DomainError(f"q = {q} is not coprime to p = {p}")
    if u == 1 or u == p - 1:
        raise DomainError("q = +-1 mod p is excluded")
    root = math.isqrt(u)
    if root * root == u:
        raise DomainError(f"q = {q} reduces to the perfect square {u}")
    ok_half = pow(u, p >> 1, p) != 1        # exponent 2^(s-1) * r = (p-1)/2
    ok_two_power = pow(u, 1 << g.s, p) != 1  # exponent 2^s = (p-1)/r
    return ok_half and ok_two_power


def fermat_primitive_root_test(q: int, fermat_prime: int) -> bool:
    """Nonresidue test: q is a primitive root mod a Fermat prime iff
    (q/F) = -1. One Jacobi symbol, zero exponentiations."""
    if fermat_prime not in FERMAT_PRIMES:
        raise DomainError(f"{fermat_prime} is not a known Fermat prime {FERMAT_PRIMES}")
    check_natural(q, "q")
    if q % fermat_prime == 0:
        raise DomainError(f"q = {q} is not coprime to {fermat_prime}")
    return jacobi(q, fermat_prime) == -1


@dataclass(frozen=True)
class KPow2Enumeration:
    """Primes of the form k * 2^n + 1 for fixed odd prime k, n <= n_max.

    ``truncated_at`` is the first n whose candidate exceeded the integer
    ceiling, or None if the whole range fit.
    """

    k: int
    n_max: int
    entries: tuple
    truncated_at: int


def enumerate_k_pow2_primes(k: int, nmax: int) -> KPow2Enumeration:
    """All n <= nmax with k * 2^n + 1 prime and below the ceiling."""
    check_natural(k, "k")
    check_natural(nmax, "nmax")
    if k % 2 == 0 or not is_prime(k):
        raise DomainError(f"k = {k} must be an odd prime")
    entries = []
    truncated_at = None
    for n in range(nmax + 1):
        candidate = (k << n) + 1
        if candidate > NATURAL_MAX:
            truncated_at = n
            break
        if is_prime(candidate):
            entries.append((n, candidate))
    return KPow2Enumeration(k=k, n_max=nmax, entries=tuple(entries),
                            truncated_at=truncated_at)


@dataclass(frozen=True)
class PrimeClass:
    """Family tags for one prime; recomputed on every call, never cached."""

    p: int
    tags: tuple


def classify_prime(p: int) -> PrimeClass:
    """Tag p with every special family it belongs to.

    fermat: p - 1 is a power of two. germain:s=S: the Def-3.1 form with
    witness S. k2n:k=K: p = K * 2^n + 1 with K the odd prime part of p - 1
    (the same decomposition viewed from the fixed-k family). ordinary
    otherwise.
    """
    check_natural(p, "p")
    if not is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    tags = ("ordinary",)
    if p >= 3:
        form = germain_decompose(p)
        if form is not None:
            tags = (f"germain:s={form.s}", f"k2n:k={form.r}")
        elif (p - 1) & (p - 2) == 0:
            tags = ("fermat",)
    return PrimeClass(p=p, tags=tags)
