"""Two representations of the primitive-element indicator, and the exact
main-term/error-term decomposition over short prime intervals.

The divisor-dependent form sums the multiplicative characters of each
squarefree order d | p - 1, weighted mu(d)/phi(d); the divisor-free form
is a double exponential sum over additive characters. Both land on the
same {0, 1} indicator, and both are evaluated with a genuine complex
accumulator whose distance to the rounded answer is retained for tolerance
auditing. Characters are realized through a power table in base tau (the
least primitive root), the only structure-compatible choice at desk scale.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import DomainError, check_natural, log_integral
from .artin import _check_base, _prime_blocks, reference_artin_constant
from .factorize import _BLOCK, check_sieve_limit, factor, totients
from .primroot import _passes, _require_prime, _test_exponents, least_primitive_root

ROUNDING_TOLERANCE = 1e-6

# Power tables and literal complex mode are O(p) / O(p^2) per value;
# past these bounds the machinery is no longer desk-scale.
TABLE_LIMIT = 1 << 24
LITERAL_LIMIT = 5000

# The power table multiplies two residues mod p <= TABLE_LIMIT in int64.
assert TABLE_LIMIT**2 < 2**63


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


def _require_desk_scale_prime(p, tau):
    _require_prime(p)
    if p > TABLE_LIMIT:
        raise DomainError(f"p = {p} exceeds the desk-scale table limit {TABLE_LIMIT}")
    if tau is not None:
        check_natural(tau, "tau")  # before _power_table hashes or reduces it


@lru_cache(maxsize=1)
def _power_table(p, tau=None):
    """(tau, powers) with powers[m] = tau^m mod p for 0 <= m < p-1, p a checked prime.

    tau defaults to the least primitive root; an explicit tau (the
    verification hook) is refused unless it is a primitive root mod p.
    The int64 table is filled in place by doubling: each step writes the
    entries so far times tau^size into the next block, so no step copies it.
    """
    if tau is None:
        tau = least_primitive_root(p)
    elif tau % p == 0 or not _passes(tau % p, p, _test_exponents(p - 1)):
        raise DomainError(f"tau = {tau} is not a primitive root mod {p}")
    tau %= p
    powers = np.empty(p - 1, dtype=np.int64)
    powers[0] = size = 1
    while size < p - 1:
        block = powers[size : 2 * size]
        np.multiply(powers[: len(block)], pow(tau, size, p), out=block)
        block %= p
        size += len(block)
    return tau, powers


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
    """Divisor-dependent indicator: (phi(p-1)/(p-1)) times the character sum
    over divisors d | p-1, each order-d character weighted mu(d)/phi(d).

    With u = tau^m it is evaluated as the product over primes ell | p-1 of
    (1 - 1/ell)(1 - S_ell(m)/(ell-1)), S_ell(m) = sum_{0<a<ell} e^(2 pi i m a/ell):
    mu(d)/phi(d) is multiplicative and, by the Chinese remainder theorem, each
    order-d character is a product of characters of the prime orders ell | d.
    Phases are reduced exactly in integers, so the error stays at machine scale.
    """
    check_natural(u, "u")
    _require_desk_scale_prime(p, tau)
    u %= p
    if u == 0:
        raise DomainError("u = 0 mod p has no discrete log")
    _, powers = _power_table(p, tau)
    m = int(np.argmax(powers == u))  # the discrete log: tau^m = u
    raw = 1 + 0j
    for ell, _ in factor(p - 1).factors:
        s = 0j  # summed over blocks of a, so no temporary is ell-sized
        for a in range(1, ell, _BLOCK):
            phases = m * np.arange(a, min(a + _BLOCK, ell), dtype=np.int64) % ell
            s += np.exp((2j * np.pi) * (phases / ell)).sum()
        raw *= (1 - 1 / ell) * (1 - s / (ell - 1))
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
    if not isinstance(literal, bool):
        raise DomainError(f"literal must be a bool, got {type(literal).__name__}")
    _require_desk_scale_prime(p, tau)
    u %= p
    if u == 0:
        raise DomainError("u = 0 mod p is excluded")
    if literal and p > LITERAL_LIMIT:
        raise DomainError(f"literal mode is capped at p <= {LITERAL_LIMIT}")
    _, powers = _power_table(p, tau)
    # tau^n for each n in [1, p-1] coprime to p-1, in ascending n: n sits at
    # index n mod p-1, and n = p-1 at index 0 is struck for every p >= 3.
    coprime = np.ones(p - 1, dtype=bool)
    for ell, _ in factor(p - 1).factors:
        coprime[::ell] = False
    coprime_powers = powers[coprime]
    if not literal:
        hits = int(np.count_nonzero(coprime_powers == u))
        return _finish(p, u, "divisor-free", complex(hits))

    diffs = (coprime_powers - u) % p
    ks = np.arange(p, dtype=np.int64)
    total = 0.0 + 0.0j
    # Chunk the (n, k) phase matrix to bound memory; phases are reduced
    # mod p in exact integers first.
    chunk = max(1, (1 << 22) // p)
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
    psi_sum, trivial = 0, 0.0
    for primes, rows, mask in _prime_blocks(q, z, 2 * z):
        psi_sum += int(np.count_nonzero(mask))
        # Sequential float64 sum in ascending p, carried across blocks:
        # np.sum would add pairwise.
        shares = totients(primes - 1, rows) / primes
        trivial = float(np.cumsum(np.append(trivial, shares))[-1])
    li_pred = reference_artin_constant() * (log_integral(2 * z) - log_integral(z))
    return IntervalDecomposition(z=z, q=q, psi_sum=psi_sum,
                                 trivial_term=trivial,
                                 error_term=psi_sum - trivial,
                                 li_prediction=li_pred)
