import math

import pytest

from primroots import DomainError, jacobi
from primroots.artin import least_prime_with_primitive_root
from primroots.charsum import psi_divisor_dependent, psi_divisor_free
from primroots.factorize import carmichael_lambda, euler_phi, factor
from primroots.primroot import (
    count_primitive_roots,
    is_lambda_primitive_root,
    is_primitive_root_prime,
    least_primitive_root,
    lift_primitive_root,
    multiplicative_order,
)
from primroots.special_primes import sieve_primes


def order_by_enumeration(u, n):
    u %= n
    k, acc = 1, u
    while acc != 1:
        acc = acc * u % n
        k += 1
    return k


def test_order_examples():
    res = multiplicative_order(2, 5)
    assert res.order == 4 and res.group_exponent == 4 and res.is_lambda_primitive
    assert multiplicative_order(4, 5).order == 2
    for n in (5, 9, 24, 100):
        assert multiplicative_order(1, n).order == 1
    assert multiplicative_order(2, 9).order == 6
    assert multiplicative_order(2, 15).order == 4


def test_order_matches_enumeration():
    for n in range(2, 300):
        for u in range(1, n):
            if math.gcd(u, n) != 1:
                continue
            assert multiplicative_order(u, n).order == order_by_enumeration(u, n)


def test_order_result_invariants():
    for n in (7, 15, 16, 81, 100):
        lam = carmichael_lambda(factor(n))
        for u in range(1, n):
            if math.gcd(u, n) != 1:
                continue
            res = multiplicative_order(u, n)
            assert res.group_exponent == lam
            assert lam % res.order == 0
            assert pow(u, res.order, n) == 1
            for ell, _ in factor(res.order).factors:
                assert pow(u, res.order // ell, n) != 1
            assert res.is_lambda_primitive == (res.order == lam)


def test_order_domain_errors():
    with pytest.raises(DomainError):
        multiplicative_order(3, 9)   # gcd != 1
    with pytest.raises(DomainError):
        multiplicative_order(2, 1)
    with pytest.raises(DomainError):
        multiplicative_order(0, 7)


def test_prime_test_examples():
    assert is_primitive_root_prime(2, 5)
    assert is_primitive_root_prime(3, 5)
    assert not is_primitive_root_prime(4, 5)  # squares never generate for p > 2


def test_prime_test_domain_errors():
    with pytest.raises(DomainError):
        is_primitive_root_prime(2, 10)
    with pytest.raises(DomainError):
        is_primitive_root_prime(5, 5)


def test_prime_test_equivalent_to_order_to_2000():
    for p in sieve_primes(2000):
        for u in range(1, p):
            assert is_primitive_root_prime(u, p) == \
                (multiplicative_order(u, p).order == p - 1)


def test_prime_test_against_enumeration_to_200():
    for p in sieve_primes(200):
        for u in range(1, p):
            assert is_primitive_root_prime(u, p) == \
                (order_by_enumeration(u, p) == p - 1)


def test_lambda_primitive_examples():
    assert is_lambda_primitive_root(2, 15)
    assert is_lambda_primitive_root(2, 9)
    for n in (5, 8, 15, 16):
        assert not is_lambda_primitive_root(1, n)


def test_lambda_primitive_matches_order():
    for n in range(2, 500):
        lam = carmichael_lambda(factor(n))
        for u in range(1, n):
            if math.gcd(u, n) != 1:
                continue
            assert is_lambda_primitive_root(u, n) == \
                (order_by_enumeration(u, n) == lam)


def test_lift_examples():
    assert lift_primitive_root(2, 15)
    assert lift_primitive_root(2, 9)  # single prime power, vacuous lift
    with pytest.raises(DomainError):
        lift_primitive_root(4, 15)   # perfect square
    with pytest.raises(DomainError):
        lift_primitive_root(14, 15)  # -1 mod n
    with pytest.raises(DomainError):
        lift_primitive_root(3, 15)   # shares a factor


def test_lift_soundness_squarefree_semiprimes():
    # whenever the lift reports True, u really has the maximal order mod n
    odd_primes = [p for p in sieve_primes(60) if p > 2]
    lifted = 0
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1:]:
            n = p * q
            if n > 3000:
                break
            f = factor(n)
            lam = carmichael_lambda(f)
            for u in range(2, n - 1):
                if math.gcd(u, n) != 1 or math.isqrt(u) ** 2 == u:
                    continue
                if lift_primitive_root(u, n):
                    assert multiplicative_order(u, n).order == lam
                    lifted += 1
    assert lifted > 100  # the property was exercised, not vacuous


def test_least_primitive_root_examples():
    assert least_primitive_root(5) == 2
    assert least_primitive_root(7) == 3   # 2 has order 3 mod 7
    assert least_primitive_root(3) == 2
    assert least_primitive_root(2) == 1   # trivial group
    with pytest.raises(DomainError):
        least_primitive_root(8)


def test_least_primitive_root_is_least():
    for p in sieve_primes(500):
        if p == 2:
            continue
        tau = least_primitive_root(p)
        assert order_by_enumeration(tau, p) == p - 1
        for t in range(2, tau):
            assert order_by_enumeration(t, p) < p - 1


def test_count_examples():
    assert count_primitive_roots(5) == 2
    assert count_primitive_roots(7) == 2
    assert count_primitive_roots(3) == 1
    assert count_primitive_roots(2) == 1


def test_count_equals_phi_to_2000():
    for p in sieve_primes(2000):
        assert count_primitive_roots(p) == euler_phi(factor(p - 1))


def test_primitive_roots_are_nonresidues():
    for p in sieve_primes(500):
        if p == 2:
            continue
        for u in range(1, p):
            if is_primitive_root_prime(u, p):
                assert jacobi(u, p) == -1


# Every refusal of the scalar layer, with its exact message. Inputs are
# checked once by the public function; this table pins what each says.
_TABLE_TOO_BIG = "p = 16777259 exceeds the desk-scale table limit 16777216"
REFUSALS = [
    pytest.param(is_primitive_root_prime, (2, 10), "p = 10 is not prime", id="test-composite"),
    pytest.param(is_primitive_root_prime, (2, -7), "p must be nonnegative, got -7",
                 id="test-negative"),
    pytest.param(is_primitive_root_prime, (10, 5), "u is not coprime to p = 5", id="test-u0"),
    pytest.param(least_primitive_root, (8,), "p = 8 is not prime", id="least-composite"),
    pytest.param(least_primitive_root, (-7,), "p must be nonnegative, got -7",
                 id="least-negative"),
    pytest.param(count_primitive_roots, (9,), "p = 9 is not prime", id="count-composite"),
    pytest.param(count_primitive_roots, (-7,), "p must be nonnegative, got -7",
                 id="count-negative"),
    pytest.param(multiplicative_order, (14, 7), "u = 0 is not a unit mod 7", id="order-u0"),
    pytest.param(multiplicative_order, (3, 9), "u = 3 is not a unit mod 9", id="order-non-unit"),
    pytest.param(multiplicative_order, (2, 1), "modulus must be >= 2, got 1", id="order-n1"),
    pytest.param(is_lambda_primitive_root, (14, 7), "u = 0 is not a unit mod 7",
                 id="lambda-u0"),
    pytest.param(is_lambda_primitive_root, (3, 9), "u = 3 is not a unit mod 9",
                 id="lambda-non-unit"),
    pytest.param(is_lambda_primitive_root, (2, 1), "modulus must be >= 2, got 1",
                 id="lambda-n1"),
    pytest.param(lift_primitive_root, (30, 15), "u = 30 is not a unit mod 15",
                 id="lift-u0"),
    pytest.param(lift_primitive_root, (3, 15), "u = 3 is not a unit mod 15",
                 id="lift-non-unit"),
    pytest.param(lift_primitive_root, (2, 1), "modulus must be >= 2, got 1",
                 id="lift-n1"),
    pytest.param(least_prime_with_primitive_root, (0,),
                 "q = 0 is excluded (0 and +-1 are never primitive roots)", id="least-prime-q0"),
    pytest.param(least_prime_with_primitive_root, (1,),
                 "q = 1 is excluded (0 and +-1 are never primitive roots)", id="least-prime-q1"),
    pytest.param(least_prime_with_primitive_root, (9,), "q = 9 is a perfect square, excluded",
                 id="least-prime-q9"),
    pytest.param(least_prime_with_primitive_root, (2, 2), "cap must be >= 3, got 2",
                 id="least-prime-cap2"),
    pytest.param(psi_divisor_dependent, (2, 15), "p = 15 is not prime", id="psi-dep-composite"),
    pytest.param(psi_divisor_dependent, (2, 16777259), _TABLE_TOO_BIG, id="psi-dep-too-big"),
    pytest.param(psi_divisor_dependent, (22, 11), "u = 0 mod p has no discrete log",
                 id="psi-dep-u0"),
    pytest.param(psi_divisor_dependent, (2, 11, 3), "tau = 3 is not a primitive root mod 11",
                 id="psi-dep-tau"),
    pytest.param(psi_divisor_dependent, (2, 11, 22), "tau = 22 is not a primitive root mod 11",
                 id="psi-dep-tau0"),
    pytest.param(psi_divisor_dependent, (2, -7), "p must be nonnegative, got -7",
                 id="psi-dep-negative"),
    pytest.param(psi_divisor_dependent, (2, 11, 3.0), "tau must be an integer, got float",
                 id="psi-dep-float-tau"),
    pytest.param(psi_divisor_free, (2, 15), "p = 15 is not prime", id="psi-free-composite"),
    pytest.param(psi_divisor_free, (2, 16777259), _TABLE_TOO_BIG, id="psi-free-too-big"),
    pytest.param(psi_divisor_free, (22, 11), "u = 0 mod p is excluded", id="psi-free-u0"),
    pytest.param(psi_divisor_free, (2, 11, False, 3), "tau = 3 is not a primitive root mod 11",
                 id="psi-free-tau"),
    pytest.param(psi_divisor_free, (2, -7), "p must be nonnegative, got -7",
                 id="psi-free-negative"),
    pytest.param(psi_divisor_dependent, (2, 101, "3"), "tau must be an integer, got str",
                 id="psi-dep-str-tau"),
    pytest.param(psi_divisor_dependent, (2, 101, [2]), "tau must be an integer, got list",
                 id="psi-dep-list-tau"),
    pytest.param(psi_divisor_dependent, (2, 11, -9), "tau must be nonnegative, got -9",
                 id="psi-dep-negative-tau"),
    pytest.param(psi_divisor_free, (2, 101, False, "3"), "tau must be an integer, got str",
                 id="psi-free-str-tau"),
    pytest.param(psi_divisor_free, (2, 5, "yes"), "literal must be a bool, got str",
                 id="psi-free-str-literal"),
    pytest.param(psi_divisor_free, (2, 5, 1), "literal must be a bool, got int",
                 id="psi-free-int-literal"),
]


@pytest.mark.parametrize("fn, args, message", REFUSALS)
def test_refusal_messages(fn, args, message):
    with pytest.raises(DomainError) as excinfo:
        fn(*args)
    assert str(excinfo.value) == message
