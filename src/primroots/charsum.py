"""Two representations of the primitive-element indicator, and the exact
main-term/error-term decomposition over short prime intervals.

The divisor-dependent form averages multiplicative characters over the
divisors of p - 1; the divisor-free form is a double exponential sum over
additive characters. Both land on the same {0, 1} indicator, and both are
evaluated with a genuine complex accumulator whose distance to the rounded
answer is retained for tolerance auditing. Characters are realized through
a discrete-log table in base tau (the least primitive root), the only
structure-compatible choice at desk scale.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import DomainError, check_natural, log_integral
from .artin import _check_base, reference_artin_constant
from .factorize import (check_sieve_limit, distinct_prime_factors, euler_phi, factor, mobius,
                        primes_upto, totients)
from .primroot import (_passes, _prime_test_exponents, _require_prime, least_primitive_root,
                       primitive_root_mask)

ROUNDING_TOLERANCE = 1e-6

# Discrete-log tables and literal complex mode are O(p) / O(p^2) per value;
# past these bounds the machinery is no longer desk-scale.
TABLE_LIMIT = 1 << 24
LITERAL_LIMIT = 5000


@dataclass(frozen=True)
class PsiEvaluation:
    """One evaluation of the primitive-root indicator.

    ``raw`` is the pre-rounding complex accumulator; ``residual`` is its
    distance to the returned 0/1 value.
    """

    p: int
    u: int
    method: str
    value: int
    raw: complex
    residual: float


@dataclass(frozen=True)
class IntervalDecomposition:
    """Primitive-root prime count over [z, 2z] split into main/error parts.

    psi_sum = trivial_term + error_term holds exactly by construction;
    li_prediction is the Artin-constant-weighted smooth prediction,
    reported alongside rather than asserted equal.
    """

    z: int
    q: int
    psi_sum: int
    trivial_term: float
    error_term: float
    li_prediction: float


def _require_desk_scale_prime(p):
    _require_prime(p)
    if p > TABLE_LIMIT:
        raise DomainError(f"p = {p} exceeds the desk-scale table limit {TABLE_LIMIT}")


@lru_cache(maxsize=64)
def _dlog_table(p, tau=None):
    """(tau, index) with index[tau^m mod p] = m for 0 <= m < p-1, p a checked prime.

    tau defaults to the least primitive root; an explicit tau (the
    verification hook) is refused unless it is a primitive root mod p.
    """
    if tau is None:
        tau = least_primitive_root(p)
    elif tau % p == 0 or not _passes(check_natural(tau % p, "tau"), p,
                                     _prime_test_exponents(p)):
        raise DomainError(f"tau = {tau} is not a primitive root mod {p}")
    tau %= p
    index = [0] * p
    acc = 1
    for m in range(p - 1):
        index[acc] = m
        acc = acc * tau % p
    return tau, index


@lru_cache(maxsize=64)
def _character_weights(p):
    """Flattened character data for the divisor-dependent sum.

    For each divisor d | p-1 and each 1 <= t <= d with gcd(t, d) = 1 there
    is one character of order d; its value at tau^m is e^(2 pi i m t / d).
    Returns (num [t values], den [d values], weight [mu(d)/phi(d)]) as
    parallel arrays covering all p-1 characters.
    """
    n = p - 1
    divisors = [1]
    for prime, e in factor(n).factors:
        divisors = [d * prime**k for d in divisors for k in range(e + 1)]
    divisors.sort()
    nums, dens, weights = [], [], []
    for d in divisors:
        fd = factor(d)
        w = mobius(fd) / euler_phi(fd)
        for t in range(1, d + 1):
            if math.gcd(t, d) == 1:
                nums.append(t)
                dens.append(d)
                weights.append(w)
    return (np.array(nums, dtype=np.int64),
            np.array(dens, dtype=np.int64),
            np.array(weights, dtype=np.float64))


def _finish(p, u, method, raw):
    raw = complex(raw)
    value = int(round(raw.real))
    residual = float(abs(raw - value))
    if value not in (0, 1) or residual > ROUNDING_TOLERANCE:
        raise RuntimeError(
            f"accumulator {raw} for (u={u}, p={p}, {method}) is not within "
            f"{ROUNDING_TOLERANCE} of {{0, 1}}")
    return PsiEvaluation(p=p, u=u, method=method, value=value,
                         raw=raw, residual=residual)


def psi_divisor_dependent(u: int, p: int, tau: int = None) -> PsiEvaluation:
    """Divisor-dependent indicator: (phi(p-1)/(p-1)) times the full
    character sum over divisors d | p-1.

    The sum runs over all p-1 characters (grouped by order), evaluated at
    u through the discrete log; phases are reduced exactly in integers
    before exponentiation so the accumulator error stays at machine scale.
    """
    check_natural(u, "u")
    _require_desk_scale_prime(p)
    u %= p
    if u == 0:
        raise DomainError("u = 0 mod p has no discrete log")
    _, index = _dlog_table(p, tau)
    m = index[u]
    nums, dens, weights = _character_weights(p)
    phases = (m * nums) % dens
    terms = weights * np.exp((2j * np.pi) * (phases / dens))
    raw = euler_phi(factor(p - 1)) / (p - 1) * terms.sum()
    return _finish(p, u, "divisor-dependent", raw)


def psi_divisor_free(u: int, p: int, literal: bool = False,
                     tau: int = None) -> PsiEvaluation:
    """Divisor-free indicator: (1/p) sum over n coprime to p-1 and
    0 <= k <= p-1 of e(2 pi i (tau^n - u) k / p).

    The inner k-sum is exactly p when tau^n = u and 0 otherwise, so the
    default mode short-circuits it to that indicator. literal=True adds
    up every complex exponential (capped at p <= LITERAL_LIMIT; quadratic
    cost) and lets the residual audit the cancellation.
    """
    check_natural(u, "u")
    _require_desk_scale_prime(p)
    u %= p
    if u == 0:
        raise DomainError("u = 0 mod p is excluded")
    tau_val, _ = _dlog_table(p, tau)
    n_top = p - 1

    if not literal:
        hits = 0
        power = 1
        for n in range(1, n_top + 1):
            power = power * tau_val % p
            if power == u and math.gcd(n, n_top) == 1:
                hits += 1
        return _finish(p, u, "divisor-free", complex(hits))

    if p > LITERAL_LIMIT:
        raise DomainError(f"literal mode is capped at p <= {LITERAL_LIMIT}")
    diffs = []
    power = 1
    for n in range(1, n_top + 1):
        power = power * tau_val % p
        if math.gcd(n, n_top) == 1:
            diffs.append((power - u) % p)
    ks = np.arange(p, dtype=np.int64)
    total = 0.0 + 0.0j
    # Chunk the (n, k) phase matrix to bound memory; phases are reduced
    # mod p in exact integers first.
    chunk = max(1, (1 << 22) // p)
    diffs = np.array(diffs, dtype=np.int64)
    for i in range(0, len(diffs), chunk):
        block = np.outer(diffs[i : i + chunk], ks) % p
        total += np.exp((2j * np.pi / p) * block).sum()
    return _finish(p, u, "divisor-free", total / p)


def decompose_interval(z: int, q: int) -> IntervalDecomposition:
    """Split the primitive-root prime count over [z, 2z] for base q.

    psi_sum counts primes p in [z, 2z], coprime to q, with q of maximal
    order (decided by the batched F_p test, not the character sums);
    trivial_term accumulates phi(p-1)/p in ascending p; error_term is
    their exact difference. li_prediction = a1 (li(2z) - li(z)). Refuses
    2z > SIEVE_LIMIT before sieving.
    """
    check_natural(z, "z")
    _check_base(q)
    if z < 3:
        raise DomainError(f"z must be >= 3, got {z}")
    check_sieve_limit(2 * z, "2z")
    primes = primes_upto(2 * z)
    primes = primes[np.searchsorted(primes, z):]
    primes = primes[q % primes != 0]
    rows = distinct_prime_factors(primes - 1)
    psi_sum = int(np.count_nonzero(primitive_root_mask(q, primes, rows)))
    # Sequential float64 sum in ascending p: np.sum would add pairwise.
    shares = totients(primes - 1, rows) / primes
    trivial = float(np.cumsum(shares)[-1]) if shares.size else 0.0
    li_pred = reference_artin_constant() * (log_integral(2 * z) - log_integral(z))
    return IntervalDecomposition(z=z, q=q, psi_sum=psi_sum,
                                 trivial_term=trivial,
                                 error_term=psi_sum - trivial,
                                 li_prediction=li_pred)
