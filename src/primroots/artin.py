"""Artin constant, prime-counting densities, and the least-prime scan.

The density side is deliberately empirical: the correction factor c(q) is
never computed (its closed form is external), so density reports carry the
plain Artin constant as the reference and expose density / a1 as the
measured estimate of c(q).
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .arith import DomainError, check_natural, is_perfect_square
from .factorize import check_sieve_limit, distinct_prime_factors, primes_upto
from .primroot import _passes, _test_exponents, primitive_root_mask
from .special_primes import germain_decompose

DEFAULT_SCAN_CAP = 10**5
# A scan holds its rows in memory, about 440 bytes a base: 10^6 bases is
# about 0.45 GB and 15 s of CPU on one core.
SCAN_SPAN_LIMIT = 10**6
_REFERENCE_CUTOFF = 10**6

# Below e^e the (log log q)^3 factor is <= 1 and the conjectured bound is
# degenerate; rows for q < 16 carry the raw least prime and no ratio.
BOUND_MIN_Q = 16


@dataclass(frozen=True)
class ArtinConstant:
    """Truncated Euler product for a1 with a crude rigorous tail envelope."""

    truncation: int
    value: float
    tail_bound: float


@dataclass(frozen=True)
class DensityReport:
    """pi(x), pi_q(x) and their ratio against the Artin reference."""

    q: int
    x: int
    pi_x: int
    pi_q_x: int
    density: float
    artin_reference: float

    @property
    def c_estimate(self) -> float:
        """Empirical stand-in for the correction factor: density / a1."""
        return self.density / self.artin_reference


@dataclass(frozen=True)
class ScanRecord:
    """One row of the least-prime scan.

    least_p is None when the search exhausted its cap (recorded, not
    raised). bound_value and ratio are None below BOUND_MIN_Q where the
    conjectured bound degenerates.
    """

    q: int
    least_p: int
    bound_value: float
    ratio: float
    germain_hit: bool


@dataclass(frozen=True)
class ScanSummary:
    records: int
    exhausted: int
    max_ratio: float
    max_ratio_q: int
    germain_fraction: float


def artin_constant(cutoff: int) -> ArtinConstant:
    """Partial Euler product prod_{p <= cutoff} (1 - 1/(p(p-1))).

    tail_bound = 1/cutoff dominates the omitted log-product mass since
    sum_{n > N} 1/(n(n-1)) telescopes to 1/N.
    """
    check_sieve_limit(cutoff, "cutoff")
    if cutoff < 2:
        raise DomainError(f"cutoff must be >= 2, got {cutoff}")
    primes = primes_upto(cutoff)
    # Sequential float64 product in ascending p, as a plain loop would take it.
    value = float(np.cumprod(1.0 - 1.0 / (primes * (primes - 1)))[-1])
    return ArtinConstant(truncation=cutoff, value=value,
                         tail_bound=1.0 / cutoff)


def reference_artin_constant() -> float:
    """a1 at the default desk-scale truncation (good to ~1e-7)."""
    return artin_constant(_REFERENCE_CUTOFF).value


def _check_base(q):
    check_natural(q, "q")
    if q < 2:
        raise DomainError(f"q = {q} is excluded (0 and +-1 are never primitive roots)")
    if is_perfect_square(q):
        raise DomainError(f"q = {q} is a perfect square, excluded")


def prime_counts(q: int, x: int) -> DensityReport:
    """Exact pi(x) and pi_q(x) by sieving and testing every prime.

    pi(x) counts every prime <= x; pi_q(x) counts only p >= 3 coprime to q
    (the search domain for primitive-root primes; the degenerate p = 2,
    where every odd q has order 1 = p - 1, is excluded).
    """
    _check_base(q)
    check_sieve_limit(x, "x")
    if x < 3:
        raise DomainError(f"x must be >= 3, got {x}")
    primes = primes_upto(x)
    odd = primes[1:]
    pi_q = int(np.count_nonzero(primitive_root_mask(q, odd, distinct_prime_factors(odd - 1))))
    return DensityReport(q=q, x=x, pi_x=len(primes), pi_q_x=pi_q,
                         density=pi_q / len(primes),
                         artin_reference=reference_artin_constant())


def least_prime_with_primitive_root(q: int, cap: int = DEFAULT_SCAN_CAP):
    """Smallest prime p >= 3, coprime to q, with q a primitive root mod p.

    Primes dividing q are skipped, not counted as failures. Returns None
    when no prime <= cap qualifies (explicit exhaustion, not an error).
    """
    _check_base(q)
    check_sieve_limit(cap, "cap")
    if cap < 3:
        raise DomainError(f"cap must be >= 3, got {cap}")
    return _least_prime(q, memoryview(primes_upto(cap))[1:])


def _least_prime(q, odd_primes):
    """The search for an admissible q over odd_primes, a memoryview from 3 up."""
    for p in odd_primes:
        if q % p and _passes(q, p, _test_exponents(p - 1)):
            return p
    return None


def conjecture_bound(q: int) -> float:
    """(log q)(log log q)^3 in natural logs, for q >= BOUND_MIN_Q."""
    if q < BOUND_MIN_Q:
        raise DomainError(f"bound is only stable for q >= {BOUND_MIN_Q}")
    return math.log(q) * math.log(math.log(q)) ** 3


def _scan_chunk(args):
    q_lo, q_hi, cap = args
    odd_primes = memoryview(primes_upto(cap))[1:]
    qs = [q for q in range(max(q_lo, 2), q_hi + 1) if math.isqrt(q) ** 2 != q]
    least = [_least_prime(q, odd_primes) for q in qs]
    bounds = [conjecture_bound(q) if q >= BOUND_MIN_Q else None for q in qs]
    return [ScanRecord(q, p, b, p / b if p and b else None,
                       p is not None and germain_decompose(p) is not None)
            for q, p, b in zip(qs, least, bounds)]


def conjecture_scan(qmin: int, qmax: int, cap: int = DEFAULT_SCAN_CAP,
                    threads: int = 1, progress=None) -> list:
    """One ScanRecord per admissible q in [qmin, qmax], ascending.

    Squares and q < 2 are skipped automatically; a range of more than
    SCAN_SPAN_LIMIT bases is refused before anything is allocated. With
    threads > 1 the q-range is partitioned into contiguous chunks across
    worker processes, at most min(threads, cpu count, chunk count) of them;
    chunks are merged in order, so output is deterministic either way.
    progress, if given, is called as progress(done, total) after each chunk.
    """
    check_natural(qmin, "qmin")
    check_natural(qmax, "qmax")
    if qmin > qmax:
        raise DomainError(f"empty scan range [{qmin}, {qmax}]")
    check_sieve_limit(cap, "cap")
    if not isinstance(threads, int) or threads < 1:
        raise DomainError(f"threads must be an integer >= 1, got {threads}")
    if cap < 3:
        raise DomainError(f"cap must be >= 3, got {cap}")
    span = qmax - qmin + 1
    if span > SCAN_SPAN_LIMIT:
        raise DomainError(f"qmax = {qmax} spans {span} bases from qmin = {qmin}, "
                          f"past SCAN_SPAN_LIMIT = {SCAN_SPAN_LIMIT}")
    threads = min(threads, os.cpu_count() or 1)
    chunk = max(1, min(2048, span // max(1, 4 * threads) + 1))
    bounds = [(lo, min(lo + chunk - 1, qmax), cap)
              for lo in range(qmin, qmax + 1, chunk)]
    threads = min(threads, len(bounds))
    records = []
    with ProcessPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        parts = pool.map(_scan_chunk, bounds) if pool else map(_scan_chunk, bounds)
        for i, part in enumerate(parts):
            records.extend(part)
            if progress:
                progress(min((i + 1) * chunk, span), span)
    return records


def summarize_scan(records) -> ScanSummary:
    """Max ratio (over rows where it is defined) and the Germain-hit rate."""
    exhausted = sum(1 for r in records if r.least_p is None)
    ratios = [(r.ratio, r.q) for r in records if r.ratio is not None]
    max_ratio, max_q = max(ratios) if ratios else (None, None)
    hits = sum(1 for r in records if r.germain_hit)
    frac = hits / len(records) if records else 0.0
    return ScanSummary(records=len(records), exhausted=exhausted,
                       max_ratio=max_ratio, max_ratio_q=max_q,
                       germain_fraction=frac)
