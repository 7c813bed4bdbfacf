import math
import random

import numpy as np
import pytest

from primroots import DomainError, charsum, factorize, primroot
from primroots.factorize import (
    Factorization,
    carmichael_lambda,
    euler_phi,
    factor,
    is_prime,
    mobius,
    omega,
)


def trial_division_factor(n):
    # independent oracle: naive trial division
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def totient_table(n):
    # independent oracle: sieve-style totient, no factorization involved
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(65537)
    assert not is_prime(561)  # 3 * 11 * 17, a Carmichael number
    assert not is_prime(0) and not is_prime(1)


def test_is_prime_matches_trial_division_below_1e4():
    for n in range(10**4):
        expected = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == expected, n


def test_is_prime_spot_large():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime((2**31 - 1) * (2**31 + 11))
    assert is_prime(4294967311)  # first prime past 2^32


def test_factor_examples():
    assert factor(1).factors == ()
    assert factor(12).factors == ((2, 2), (3, 1))
    with pytest.raises(DomainError):
        factor(0)


def test_factor_random_against_trial_division():
    rng = random.Random(1234)
    for _ in range(10**4):
        n = rng.randrange(1, 10**9)
        assert factor(n).factors == trial_division_factor(n)


def test_factor_structure_invariants():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randrange(1, 10**12)
        f = factor(n)
        assert f.reassemble() == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in f.factors)


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    assert factor(p * q).factors == ((p, 1), (q, 1))


def test_package_caches_reach_every_module(package_caches):
    # the fixture walks the modules; a walk that found nothing would make
    # every cache_clear loop over it a silent no-op
    assert {factor, is_prime, primroot._test_exponents,
            charsum._power_table} <= set(package_caches)
    assert len(package_caches) == len(set(package_caches))


def test_factor_reads_no_prime_table(monkeypatch, package_caches):
    monkeypatch.setattr(factorize, "_spf", np.zeros(2, dtype=np.uint16))
    monkeypatch.setattr(factorize, "_primes", np.zeros(0, dtype=np.int64))
    for cache in package_caches:
        cache.cache_clear()
    p, q = 2**30 + 3, 2**31 - 1  # a 62-bit semiprime
    assert factor(2**61 - 1).factors == ((2**61 - 1, 1),)
    assert factor(p * q).factors == ((p, 1), (q, 1))
    assert factor(999999).factors == ((3, 3), (7, 1), (11, 1), (13, 1), (37, 1))
    assert len(factorize._spf) == 2


def test_euler_phi_examples():
    assert euler_phi(factor(1)) == 1
    assert euler_phi(factor(8)) == 4  # {1,3,5,7}
    for p in (3, 7, 101, 65537):
        assert euler_phi(factor(p)) == p - 1


def test_euler_phi_against_sieve_to_1e5():
    phi = totient_table(10**5)
    for n in range(1, 10**5 + 1):
        assert euler_phi(factor(n)) == phi[n], n


def test_euler_phi_against_gcd_count():
    for n in range(1, 2001):
        count = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(factor(n)) == count


def test_carmichael_examples():
    assert carmichael_lambda(factor(8)) == 2    # 2^(v-2) branch
    assert carmichael_lambda(factor(15)) == 4   # max order, by enumeration oracle
    assert carmichael_lambda(factor(1)) == 1
    assert carmichael_lambda(factor(2)) == 1
    for p in (3, 5, 97):
        assert carmichael_lambda(factor(p)) == p - 1


def test_carmichael_is_max_order_small():
    # lambda(n) equals the largest multiplicative order, by brute force
    for n in range(2, 200):
        best = 0
        for u in range(1, n):
            if math.gcd(u, n) != 1:
                continue
            k, acc = 1, u
            while acc != 1:
                acc = acc * u % n
                k += 1
            best = max(best, k)
        assert carmichael_lambda(factor(n)) == best, n


def test_lambda_divides_phi_to_1e5():
    for n in range(1, 10**5 + 1):
        f = factor(n)
        assert euler_phi(f) % carmichael_lambda(f) == 0


def test_fermat_euler_and_carmichael_sharpness():
    rng = random.Random(2718)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 10**6)
        a = rng.randrange(1, 10**6)
        if math.gcd(a, n) != 1:
            continue
        f = factor(n)
        assert pow(a, euler_phi(f), n) == 1
        assert pow(a, carmichael_lambda(f), n) == 1
        checked += 1


def test_lambda_equals_phi_classification():
    # phi(n) = lambda(n) exactly for n in {1, 2, 4, p^m, 2p^m}
    for n in range(1, 10**4 + 1):
        f = factor(n)
        odd = [(p, e) for p, e in f.factors if p > 2]
        two = next((e for p, e in f.factors if p == 2), 0)
        cyclic = (n in (1, 2, 4)
                  or (len(odd) == 1 and two == 0)
                  or (len(odd) == 1 and two == 1))
        assert (euler_phi(f) == carmichael_lambda(f)) == cyclic, n


def test_omega_examples():
    assert omega(factor(1)) == 0
    assert omega(factor(12)) == 2
    assert omega(factor(30)) == 3


def test_mobius_small_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 12: 0, 30: -1, 210: 1}
    for n, mu in expected.items():
        assert mobius(factor(n)) == mu


def test_factorization_is_frozen():
    f = factor(12)
    with pytest.raises(AttributeError):
        f.n = 13
    assert f == Factorization(12, ((2, 2), (3, 1)))
