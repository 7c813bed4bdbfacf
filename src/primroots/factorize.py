"""Prime factorization and the arithmetic functions built on it.

Factoring is trial division by the primes up to 37, then Pollard rho with
Brent cycling for whatever survives. Primality is deterministic
Miller-Rabin (7-witness set, exact below 2^64), so nothing here is
probabilistic.

The package's one source of primes is a smallest-prime-factor (SPF) table,
grown lazily (by doubling) up to SIEVE_LIMIT and never built at import.
It lists the primes up to a limit and gives the distinct prime factors of
every value it covers in O(log n) lookups. Neither ``factor`` nor
``is_prime`` reads it, so both stay an independent reference for the
table.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import DomainError, check_natural

# Largest value the SPF table covers: 2 bytes per entry, 200 MB at the
# ceiling. Every input that sizes the table is refused above it.
SIEVE_LIMIT = 10**8

# Witnesses proving n < 2^64 composite or prime with no exceptions
# (Sinclair's 7-witness set).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# spf[n] is the least prime factor of a composite n < len(spf), and 0 for a
# prime (and for 0 and 1). A composite n <= SIEVE_LIMIT has one at most
# sqrt(SIEVE_LIMIT), so 2 bytes per entry suffice.
assert math.isqrt(SIEVE_LIMIT) < 2**16
_spf = np.zeros(2, dtype=np.uint16)
_primes = np.zeros(0, dtype=np.int64)


def check_sieve_limit(limit: int, name: str = "limit") -> int:
    """Refuse a table size past SIEVE_LIMIT before anything is allocated."""
    if isinstance(limit, int) and limit > SIEVE_LIMIT:
        raise DomainError(f"{name} = {limit} exceeds the sieve ceiling "
                          f"SIEVE_LIMIT = {SIEVE_LIMIT}")
    return check_natural(limit, name)


def _spf_upto(limit):
    """The SPF table, rebuilt to cover ``limit`` if it does not yet."""
    global _spf, _primes
    if limit >= len(_spf):
        n = min(SIEVE_LIMIT, max(limit, 2 * (len(_spf) - 1)))
        spf = np.zeros(n + 1, dtype=np.uint16)
        for p in range(2, math.isqrt(n) + 1):
            if spf[p] == 0:
                multiples = spf[p * p :: p]
                multiples[multiples == 0] = p
        _spf, _primes = spf, (np.flatnonzero(spf[2:] == 0) + 2).astype(np.int64)
    return _spf


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array (a read-only view)."""
    check_sieve_limit(limit)
    _spf_upto(limit)
    view = _primes[: np.searchsorted(_primes, limit, side="right")]
    view.flags.writeable = False
    return view


def distinct_prime_factors(values: np.ndarray) -> np.ndarray:
    """Distinct prime factors of each value, read from the SPF table.

    Returns rows of shape (k, len(values)), k the largest omega among the
    values: column j lists the primes of values[j] in ascending order and
    is padded with 1. Every value must lie in [1, SIEVE_LIMIT].
    """
    m = np.array(values, dtype=np.int64)
    if m.size and (m.min() < 1 or m.max() > SIEVE_LIMIT):
        raise DomainError(f"values must lie in [1, {SIEVE_LIMIT}]")
    spf = _spf_upto(int(m.max()) if m.size else 1)
    rows = []
    live = np.flatnonzero(m > 1)
    while live.size:
        ell = spf[m[live]].astype(np.int64)
        ell = np.where(ell == 0, m[live], ell)  # a prime is its own least factor
        row = np.ones_like(m)
        row[live] = ell
        rows.append(row)
        # Strip every power of ell; the entries still divisible shrink fast.
        hit = live
        while hit.size:
            m[hit] //= ell
            keep = m[hit] % ell == 0
            hit, ell = hit[keep], ell[keep]
        live = live[m[live] > 1]
    return np.array(rows, dtype=np.int64).reshape(len(rows), m.size)


def totients(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euler phi of each value, exactly in int64, from its factor rows."""
    phi = np.array(values, dtype=np.int64)
    for ell in rows:
        phi -= np.where(ell > 1, phi // ell, 0)
    return phi


@dataclass(frozen=True)
class Factorization:
    """An integer with its complete prime-power decomposition.

    ``factors`` is ordered by strictly increasing prime; n = 1 carries the
    empty tuple.
    """

    n: int
    factors: tuple

    def reassemble(self) -> int:
        """Multiply the decomposition back out (round-trip check)."""
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


@lru_cache(maxsize=65536)
def is_prime(n: int) -> bool:
    """Exact primality for naturals below the ceiling."""
    check_natural(n, "n")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho_brent(n):
    """One nontrivial factor of an odd composite n, Brent's cycling."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            # Backtrack one step at a time from the last saved point.
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1  # deterministic restart with the next polynomial


@lru_cache(maxsize=65536)
def factor(n: int) -> Factorization:
    """Complete factorization of n >= 1; factor(1) has the empty list."""
    check_natural(n, "n")
    if n == 0:
        raise DomainError("factor(0) is undefined")
    original = n
    found = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            found[p] = found.get(p, 0) + 1
    # The survivor has no prime factor below 41; split it with rho.
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho_brent(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(original, tuple(sorted(found.items())))


def euler_phi(f: Factorization) -> int:
    """Euler totient from the decomposition: prod p^(e-1) * (p-1)."""
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def carmichael_lambda(f: Factorization) -> int:
    """Carmichael function: lcm of lambda(p^v) over the prime powers.

    lambda(p^v) = phi(p^v) for odd p or v <= 2, and 2^(v-2) for p = 2,
    v >= 3. lambda(1) = lambda(2) = 1.
    """
    out = 1
    for p, e in f.factors:
        if p == 2 and e >= 3:
            block = 2 ** (e - 2)
        else:
            block = p ** (e - 1) * (p - 1)
        out = out * block // math.gcd(out, block)
    return out


def omega(f: Factorization) -> int:
    """Number of distinct prime divisors."""
    return len(f.factors)


def mobius(f: Factorization) -> int:
    """Mobius function: 0 unless squarefree, else (-1)^omega."""
    for _, e in f.factors:
        if e > 1:
            return 0
    return -1 if len(f.factors) % 2 else 1
