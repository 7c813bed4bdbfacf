"""Differential tests against sympy, an independent implementation.

Inputs are drawn from seeded generators, so every run checks the same
values. ``factor`` hands Pollard rho whatever is left after dividing by
the primes up to 37; ``_rho_inputs`` draws the shapes that leaves.
"""

import math
import random

import numpy as np
import pytest

from primroots import charsum
from primroots.arith import NATURAL_MAX, jacobi
from primroots.factorize import carmichael_lambda, euler_phi, factor, is_prime, mobius
from primroots.primroot import is_primitive_root_prime, multiplicative_order

sympy = pytest.importorskip("sympy")


def _naturals(seed, count, top):
    rng = random.Random(seed)
    return [rng.randrange(2, top) for _ in range(count)]


def _primes(seed, count, lo, hi):
    rng = random.Random(seed)
    return [sympy.nextprime(rng.randrange(lo, hi)) for _ in range(count)]


def _products(seed, count, hi, most):
    """Products of 2 to ``most`` primes from (37, hi], each below NATURAL_MAX."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(2, most)
        top = min(hi, int(NATURAL_MAX ** (1 / k)))
        out.append(math.prod(sympy.prevprime(rng.randrange(42, top + 1)) for _ in range(k)))
    return out


def _rho_inputs():
    """Inputs that leave rho a cofactor to split: products of primes in
    (37, 10^6] and in (37, 1000], prime powers, lambda(n) of 63-bit n and
    p - 1 of 62-bit primes."""
    rng = random.Random(19)
    powers = [p**k for p in (41, 997, 1009, 65537, 999983) for k in range(1, 63)
              if p**k <= NATURAL_MAX]
    lambdas = [int(sympy.reduced_totient(rng.randrange(2**62, 2**63))) for _ in range(20)]
    return (_products(20, 150, 10**6, 6) + _products(21, 150, 1000, 6) + powers + lambdas
            + [p - 1 for p in _primes(22, 30, 2**61, 2**62)])


def test_is_prime_matches_isprime():
    semiprimes = [p * q for p, q in zip(_primes(1, 50, 10**4, 10**9),
                                        _primes(2, 50, 10**4, 10**9))]
    values = (list(range(5000)) + _naturals(3, 2000, NATURAL_MAX) + semiprimes
              + _primes(4, 50, 2**40, 2**62))
    for n in values:
        assert is_prime(n) == sympy.isprime(n), n


def test_factor_matches_factorint_below_10_12():
    rho = [n for n in _rho_inputs() if n <= 10**12]
    for n in list(range(2, 3000)) + _naturals(5, 300, 10**12) + rho:
        assert dict(factor(n).factors) == sympy.factorint(n), n


def test_factor_matches_factorint_past_10_12():
    semiprimes = [p * q for p, q in zip(_primes(6, 10, 2**30, 2**31),
                                        _primes(7, 10, 2**30, 2**31))]
    squares = [p**2 for p in _primes(8, 5, 10**6, 3 * 10**9)]
    cubes = [p**3 for p in _primes(9, 5, 10**6, 2 * 10**6)]
    rho = [n for n in _rho_inputs() if n > 10**12]
    for n in semiprimes + squares + cubes + rho + [2**61 - 1, 2**63 - 26]:
        assert n > 10**12
        assert dict(factor(n).factors) == sympy.factorint(n), n


def test_totients_match_sympy():
    for n in list(range(1, 1000)) + _naturals(10, 100, 10**12):
        f = factor(n)
        assert euler_phi(f) == sympy.totient(n), n
        assert carmichael_lambda(f) == sympy.reduced_totient(n), n


def test_mobius_matches_sympy():
    for n in list(range(1, 1000)) + _naturals(11, 100, 10**12):
        assert mobius(factor(n)) == sympy.mobius(n), n


def test_multiplicative_order_matches_n_order():
    rng = random.Random(12)
    for n in _naturals(13, 150, 10**4) + _naturals(14, 150, 10**12):
        u = rng.randrange(1, 3 * n)  # unreduced u too
        if math.gcd(u, n) == 1:
            assert multiplicative_order(u, n).order == sympy.n_order(u, n), (u, n)


def test_is_primitive_root_prime_matches_sympy():
    rng = random.Random(15)
    for p in [3, 5, 7] + _primes(16, 60, 10, 10**12):
        for u in {1, 2, p - 1} | {rng.randrange(1, p) for _ in range(20)}:
            assert is_primitive_root_prime(u, p) == sympy.is_primitive_root(u, p), (u, p)


def test_jacobi_matches_jacobi_symbol():
    rng = random.Random(17)
    for _ in range(1000):
        n = 2 * rng.randrange(0, 10**12) + 1
        a = rng.randrange(-10**9, 10**9)
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_power_table_and_both_psi_forms_match_is_primitive_root():
    # p - 1 = 2^5 * 3^3 * 5 * 7 * 11 at 332641: many divisors, many characters.
    rng = random.Random(18)
    for p in (2, 3, 55441, 332641, 1000003):
        tau, powers = charsum._power_table(p, None)
        assert sympy.is_primitive_root(tau, p), p
        assert powers.dtype == np.int64 and len(powers) == p - 1
        for m in {0, p - 2} | {rng.randrange(p - 1) for _ in range(50)}:
            assert powers[m] == pow(tau, m, p), (m, p)
        for u in {1, p - 1} | {rng.randrange(1, p) for _ in range(18)}:
            truth = int(sympy.is_primitive_root(u, p))
            assert charsum.psi_divisor_dependent(u, p).value == truth, (u, p)
            assert charsum.psi_divisor_free(u, p).value == truth, (u, p)
