import math
import random

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from primroots import arith
from primroots.arith import (
    NATURAL_MAX,
    DomainError,
    gcd,
    is_perfect_square,
    jacobi,
    log_integral,
    mod_pow,
)


def slow_pow(base, exponent, modulus):
    # independent oracle: repeated multiplication
    acc = 1 % modulus
    for _ in range(exponent):
        acc = acc * base % modulus
    return acc


def sieve(n):
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if flags[i]]


def test_mod_pow_examples():
    assert mod_pow(2, 4, 5) == slow_pow(2, 4, 5) == 1
    assert mod_pow(7, 0, 13) == 1
    assert mod_pow(3, 3, 7) == slow_pow(3, 3, 7) == 6


def test_mod_pow_rejects_zero_modulus():
    with pytest.raises(DomainError):
        mod_pow(2, 3, 0)


def test_mod_pow_rejects_values_past_ceiling():
    with pytest.raises(DomainError):
        mod_pow(NATURAL_MAX + 1, 2, 7)
    with pytest.raises(DomainError):
        mod_pow(2, 3, -5)


def test_mod_pow_exponent_additivity():
    rng = random.Random(0xA11CE)
    for _ in range(1000):
        b = rng.randrange(0, 10**9)
        e1 = rng.randrange(0, 10**6)
        e2 = rng.randrange(0, 10**6)
        m = rng.randrange(1, 10**9)
        assert mod_pow(b, e1 + e2, m) == mod_pow(b, e1, m) * mod_pow(b, e2, m) % m


def test_gcd_examples():
    assert gcd(12, 18) == 6
    for n in (1, 7, 100, 12345):
        assert gcd(1, n) == 1
    assert gcd(0, 7) == 7
    assert gcd(0, 0) == 0


def test_jacobi_examples():
    assert jacobi(2, 7) == 1
    assert jacobi(2, 5) == -1
    assert jacobi(0, 5) == 0
    assert jacobi(-1, 7) == -1   # 7 = 4k+3
    assert jacobi(-1, 13) == 1


def test_jacobi_rejects_even_modulus():
    for n in (0, 2, 10):
        with pytest.raises(DomainError):
            jacobi(3, n)


def test_jacobi_multiplicative_in_numerator():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(1, 10**6) * 2 + 1
        a = rng.randrange(0, 10**6)
        b = rng.randrange(0, 10**6)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_quadratic_reciprocity_small_primes():
    odd_primes = [p for p in sieve(200) if p > 2]
    for p in odd_primes:
        for q in odd_primes:
            if p == q:
                continue
            sign = (-1) ** ((p - 1) // 2 * ((q - 1) // 2))
            assert jacobi(p, q) * jacobi(q, p) == sign


def test_second_supplement_to_1e4():
    # (2/p) = (-1)^((p^2-1)/8) for every odd prime p
    for p in sieve(10**4):
        if p == 2:
            continue
        assert jacobi(2, p) == (-1) ** ((p * p - 1) // 8)


def test_is_perfect_square():
    assert is_perfect_square(49)
    assert is_perfect_square(0)
    assert is_perfect_square(1)
    assert not is_perfect_square(2)
    assert not is_perfect_square(48)
    big = (2**31 - 1) ** 2
    assert is_perfect_square(big)
    assert not is_perfect_square(big + 1)


def test_log_integral_base_point():
    assert log_integral(2) == 0.0


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    nodes, weights = leggauss(20)
    assert np.array(arith._GL_NODES).tobytes() == nodes.tobytes()
    assert np.array(arith._GL_WEIGHTS).tobytes() == weights.tobytes()


def test_log_integral_against_quadrature_oracle():
    # frozen via mpmath.li(x, offset=True) at 17 significant digits
    oracle = {
        10: 5.1204357246698052,
        100: 29.080977803962137,
        1000: 176.56449421003473,
        10**6: 78626.503995682064,
    }
    for x, expected in oracle.items():
        assert abs(log_integral(x) - expected) <= 1e-9


def test_log_integral_near_prime_count():
    # li(1e6) should land near pi(1e6) = 78498
    assert abs(log_integral(10**6) - 78498) < 200


def test_log_integral_strictly_increasing():
    xs = [2.5, 3, 5, 10, 50, 100, 1000, 10**4, 10**5, 10**6]
    for x in xs:
        assert log_integral(2 * x) - log_integral(x) > 0
    values = [log_integral(x) for x in xs]
    assert values == sorted(values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_log_integral_domain():
    for x in (1.9999, 1, 0, -3):
        with pytest.raises(DomainError):
            log_integral(x)


# float(x) raises OverflowError on the first two, ValueError on "x" and
# TypeError on the last two; log_integral refuses each before calling it.
@pytest.mark.parametrize("x", [10**400, -(10**400), "x", None, 3 + 0j],
                         ids=["1e400", "-1e400", "str", "None", "complex"])
def test_log_integral_refuses_what_float_cannot_take(x):
    with pytest.raises(DomainError):
        log_integral(x)


def test_log_integral_relative_accuracy_past_1e6():
    # frozen via mpmath.li(x) - mpmath.li(2) at 30 significant digits, with
    # x the exact binary value of each float key (2.0000001 is not 2 + 1e-7)
    oracle = {
        2.0000001: 1.44269498649365819882383498541e-7,
        2.001: 1.44217503534829061321812444776e-3,
        1e7: 664917.359884788794836428042012,
        1e8: 5762208.33028425135007628876478,
        2e8: 11079973.8073617147645753623914,
        1e12: 37607950279.7597017094174343061,
    }
    for x, expected in oracle.items():
        assert log_integral(x) == pytest.approx(expected, rel=1e-14, abs=0)


def test_log_integral_refuses_infinity():
    with pytest.raises(DomainError, match="log_integral requires a finite x, got inf"):
        log_integral(math.inf)
    assert log_integral(1e12) > 0


def test_check_natural_bounds():
    arith.check_natural(0)
    arith.check_natural(NATURAL_MAX)
    with pytest.raises(DomainError):
        arith.check_natural(NATURAL_MAX + 1)
    with pytest.raises(DomainError):
        arith.check_natural(-1)
    with pytest.raises(DomainError):
        arith.check_natural(2.5)
