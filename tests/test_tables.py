"""The SPF table and the batched primitive-root test against the scalar
reference functions (and sympy), over bounded ranges."""

import random

import numpy as np
import pytest
from sympy import factorint, totient

from primroots import DomainError
from primroots.factorize import (
    SIEVE_LIMIT,
    distinct_prime_factors,
    euler_phi,
    factor,
    is_prime,
    primes_upto,
    totients,
)
from primroots.primroot import is_primitive_root_prime, primitive_root_mask

BASES = (2, 3, 5, 6, 7, 10, 12, 2**63 - 1, 3 * 5 * 7 * 11 * 13)


def test_table_primes_match_is_prime_filter_to_1e5():
    expected = [n for n in range(10**5 + 1) if is_prime(n)]
    assert primes_upto(10**5).tolist() == expected


def test_primes_upto_is_a_read_only_view():
    primes = primes_upto(30)
    assert primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not primes.flags.writeable


def test_factor_rows_and_phi_match_factor_to_1e5():
    primes = primes_upto(10**5)
    rows = distinct_prime_factors(primes - 1)
    phi = totients(primes - 1, rows)
    for j, p in enumerate(primes.tolist()):
        f = factor(p - 1)
        ells = [int(ell) for ell in rows[:, j] if ell > 1]
        assert ells == [ell for ell, _ in f.factors], p
        assert int(phi[j]) == euler_phi(f), p


def test_factor_rows_against_sympy():
    rng = random.Random(20211112)
    values = [1, 2, 3, 4, 2**20, 510510, 9699690, 999983, 1999966, 2 * 10**6]
    values += [rng.randrange(1, 2 * 10**6 + 1) for _ in range(2000)]
    rows = distinct_prime_factors(np.array(values))
    phi = totients(np.array(values), rows)
    for j, n in enumerate(values):
        assert [int(ell) for ell in rows[:, j] if ell > 1] == sorted(factorint(n)), n
        assert int(phi[j]) == int(totient(n)), n


def test_factor_rows_shape_and_domain():
    assert distinct_prime_factors(np.array([], dtype=np.int64)).shape == (0, 0)
    assert distinct_prime_factors(np.array([1, 1])).shape == (0, 2)
    assert distinct_prime_factors(np.array([12, 7])).tolist() == [[2, 7], [3, 1]]
    for bad in (0, SIEVE_LIMIT + 1):
        with pytest.raises(DomainError):
            distinct_prime_factors(np.array([bad]))


@pytest.mark.parametrize("q", BASES)
def test_batched_mask_matches_scalar_test_to_3e4(q):
    primes = primes_upto(3 * 10**4)[1:]
    mask = primitive_root_mask(q, primes, distinct_prime_factors(primes - 1))
    for p, batched in zip(primes.tolist(), mask.tolist()):
        if q % p == 0:
            assert not batched, (q, p)  # q is not a unit mod p
        else:
            assert batched == is_primitive_root_prime(q, p), (q, p)


def test_batched_mask_at_sweep_scale_in_any_row_order():
    # Every odd prime to 10^6; the bases include 997, a prime in range.
    primes = primes_upto(10**6)[1:]
    rows = distinct_prime_factors(primes - 1)
    bases = (2, 7, 510, 997)
    masks = [primitive_root_mask(q, primes, rows) for q in bases]
    # Reversed rows put the padding first and l = 2 last.
    for q, mask in zip(bases, masks):
        assert np.array_equal(primitive_root_mask(q, primes, rows[::-1]), mask), q
    # Primes outer, so factor(p - 1) is cached once for all four bases.
    for j, p in enumerate(primes.tolist()):
        for q, mask in zip(bases, masks):
            expected = q % p != 0 and is_primitive_root_prime(q, p)
            assert mask[j] == expected, (q, p)


@pytest.fixture(scope="module")
def top_window():
    """The primes in [SIEVE_LIMIT - 2 * 10^5, SIEVE_LIMIT] with the rows of
    each p - 1, found by is_prime and factor, so no 10^8 table is built."""
    primes = [n for n in range(SIEVE_LIMIT - 2 * 10**5, SIEVE_LIMIT + 1) if is_prime(n)]
    ells = [[ell for ell, _ in factor(p - 1).factors] for p in primes]
    rows = np.ones((max(map(len, ells)), len(primes)), dtype=np.int64)
    for j, column in enumerate(ells):
        rows[: len(column), j] = column
    return np.array(primes, dtype=np.int64), rows


# 99999989 is a prime in the top window, so one base is not a unit there.
@pytest.mark.parametrize("q", BASES + (3 * 99999989,))
def test_batched_mask_at_the_top_of_its_int64_range(q, top_window):
    primes, rows = top_window
    mask = primitive_root_mask(q, primes, rows)
    for p, batched in zip(primes.tolist(), mask.tolist()):
        if q % p == 0:
            assert not batched, (q, p)
        else:
            assert batched == is_primitive_root_prime(q, p), (q, p)


def test_batched_mask_edge_cases():
    empty = np.array([], dtype=np.int64)
    assert primitive_root_mask(2, empty, distinct_prime_factors(empty)).tolist() == []
    two = np.array([2])
    assert primitive_root_mask(3, two, distinct_prime_factors(two - 1)).tolist() == [True]
    beyond = np.array([SIEVE_LIMIT + 1])
    with pytest.raises(DomainError):
        primitive_root_mask(2, beyond, np.ones((0, 1), dtype=np.int64))
