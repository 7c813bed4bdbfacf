import math

import pytest

from primroots import DomainError
from primroots.factorize import SIEVE_LIMIT, is_prime
from primroots.primroot import is_primitive_root_prime
from primroots.special_primes import (
    FERMAT_PRIMES,
    GermainForm,
    classify_prime,
    enumerate_k_pow2_primes,
    fermat_primitive_root_test,
    germain_decompose,
    germain_forms,
    germain_primitive_root_test,
    sieve_primes,
)

# by the decomposition oracle: p - 1 = 2^s * r with r an odd prime
GERMAIN_BELOW_100 = [
    (7, 1, 3), (11, 1, 5), (13, 2, 3), (23, 1, 11), (29, 2, 7), (41, 3, 5),
    (47, 1, 23), (53, 2, 13), (59, 1, 29), (83, 1, 41), (89, 3, 11), (97, 5, 3),
]


def simple_sieve(n):
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if flags[i]]


def test_sieve_examples():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert len(sieve_primes(100)) == 25
    assert len(sieve_primes(10**6)) == 78498
    assert sieve_primes(2) == [2]
    assert sieve_primes(1) == []
    assert sieve_primes(0) == []


def test_sieve_matches_primality_filter():
    assert sieve_primes(10**4) == [n for n in range(2, 10**4 + 1) if is_prime(n)]


def test_sieve_segment_boundaries():
    # cross the segment size a few times and compare with a one-shot sieve
    limit = 3 * 10**5 + 17
    assert sieve_primes(limit) == simple_sieve(limit)


def test_germain_decompose_examples():
    assert germain_decompose(7) == GermainForm(p=7, s=1, r=3)
    assert germain_decompose(13) == GermainForm(p=13, s=2, r=3)
    assert germain_decompose(11) == GermainForm(p=11, s=1, r=5)
    assert germain_decompose(89) == GermainForm(p=89, s=3, r=11)
    assert germain_decompose(127) is None      # 126 = 2 * 63, 63 composite
    assert germain_decompose(5) is None        # Fermat shape: odd part is 1
    assert germain_decompose(17) is None
    with pytest.raises(DomainError):
        germain_decompose(2)
    with pytest.raises(DomainError):
        germain_decompose(15)


def test_germain_list_below_100():
    found = [germain_decompose(p) for p in sieve_primes(100) if p >= 3]
    found = [(g.p, g.s, g.r) for g in found if g is not None]
    assert found == GERMAIN_BELOW_100


def test_germain_forms_match_germain_decompose_to_2e5():
    forms = [germain_decompose(p) for p in sieve_primes(2 * 10**5) if p >= 3]
    expected = [(g.p, g.s, g.r) for g in forms if g is not None]
    p, s, r = germain_forms(2 * 10**5)
    assert list(zip(p.tolist(), s.tolist(), r.tolist())) == expected
    for limit, first in ((0, []), (2, []), (6, []), (7, [7]), (13, [7, 11, 13])):
        assert germain_forms(limit)[0].tolist() == first
    with pytest.raises(DomainError):
        germain_forms(SIEVE_LIMIT + 1)


def test_germain_form_round_trip():
    for p in sieve_primes(10**4):
        if p < 3:
            continue
        g = germain_decompose(p)
        if g is not None:
            assert 2**g.s * g.r + 1 == p
            assert g.r % 2 == 1 and is_prime(g.r) and is_prime(g.p)


def test_germain_form_validates():
    with pytest.raises(DomainError):
        GermainForm(p=15, s=1, r=7)     # 15 not prime
    with pytest.raises(DomainError):
        GermainForm(p=13, s=1, r=3)     # 2*3+1 != 13
    with pytest.raises(DomainError):
        GermainForm(p=11, s=1, r=4)     # r even


def test_germain_test_examples():
    g7 = germain_decompose(7)
    assert germain_primitive_root_test(3, g7)       # ord_7(3) = 6
    assert not germain_primitive_root_test(2, g7)   # 2^3 = 1 mod 7
    g13 = germain_decompose(13)
    assert germain_primitive_root_test(2, g13)      # ord_13(2) = 12


def test_germain_test_rejects_excluded_inputs():
    g = germain_decompose(23)
    with pytest.raises(DomainError):
        germain_primitive_root_test(23, g)   # not coprime
    with pytest.raises(DomainError):
        germain_primitive_root_test(1, g)
    with pytest.raises(DomainError):
        germain_primitive_root_test(22, g)   # -1 mod p
    with pytest.raises(DomainError):
        germain_primitive_root_test(9, g)    # perfect-square residue


def test_germain_test_agrees_with_generic_below_3000():
    # full-range agreement is acceptance criterion 4; this is the fast spot
    for p in sieve_primes(3000):
        if p < 7:
            continue
        g = germain_decompose(p)
        if g is None:
            continue
        for q in range(2, p - 1):
            if math.isqrt(q) ** 2 == q:
                continue
            assert germain_primitive_root_test(q, g) == \
                is_primitive_root_prime(q, p), (q, p)


def test_fermat_test_examples():
    assert fermat_primitive_root_test(3, 17)        # ord_17(3) = 16
    assert not fermat_primitive_root_test(2, 17)    # (2/17) = +1
    assert fermat_primitive_root_test(2, 5)
    with pytest.raises(DomainError):
        fermat_primitive_root_test(3, 7)            # 7 is not a Fermat prime
    with pytest.raises(DomainError):
        fermat_primitive_root_test(34, 17)          # not coprime


def test_fermat_test_agrees_with_generic():
    for f in (3, 5, 17, 257):
        for q in range(1, f):
            assert fermat_primitive_root_test(q, f) == \
                is_primitive_root_prime(q, f), (q, f)


def test_fermat_prime_list():
    assert FERMAT_PRIMES == (3, 5, 17, 257, 65537)
    assert all(is_prime(f) for f in FERMAT_PRIMES)
    # each is 2^(2^n) + 1
    assert [f - 1 for f in FERMAT_PRIMES] == [2**(2**n) for n in range(5)]


def test_k2n_examples():
    # recomputed with the primality oracle: 3*2^n + 1 prime at n = 1, 2, 5, 6
    res = enumerate_k_pow2_primes(3, 6)
    assert res.entries == ((1, 7), (2, 13), (5, 97), (6, 193))
    assert res.truncated_at is None
    res = enumerate_k_pow2_primes(5, 3)
    assert res.entries == ((1, 11), (3, 41))
    assert enumerate_k_pow2_primes(3, 0).entries == ()


def test_k2n_truncates_at_ceiling():
    res = enumerate_k_pow2_primes(3, 80)
    assert res.truncated_at == 62          # 3 * 2^62 + 1 > 2^63 - 1
    assert all(p <= 2**63 - 1 for _, p in res.entries)
    assert all(n < 62 for n, _ in res.entries)


def test_k2n_rejects_bad_k():
    with pytest.raises(DomainError):
        enumerate_k_pow2_primes(2, 5)   # even
    with pytest.raises(DomainError):
        enumerate_k_pow2_primes(9, 5)   # composite


def test_k2n_entries_are_prime():
    res = enumerate_k_pow2_primes(7, 40)
    for n, p in res.entries:
        assert p == 7 * 2**n + 1
        assert is_prime(p)


def test_classify_prime():
    for fermat in (3, 5, 17, 65537):
        assert classify_prime(fermat).tags == ("fermat",)
    assert classify_prime(7).tags == ("germain:s=1", "k2n:k=3")
    assert classify_prime(97).tags == ("germain:s=5", "k2n:k=3")   # 96 = 2^5 * 3
    assert classify_prime(13).tags == ("germain:s=2", "k2n:k=3")
    assert classify_prime(31).tags == ("ordinary",)   # 30 = 2 * 3 * 5
    assert classify_prime(2).tags == ("ordinary",)
    with pytest.raises(DomainError):
        classify_prime(10)


def test_sieve_refuses_limit_past_ceiling():
    with pytest.raises(DomainError, match=f"SIEVE_LIMIT = {SIEVE_LIMIT}"):
        sieve_primes(SIEVE_LIMIT + 1)
    with pytest.raises(DomainError):
        sieve_primes(2**63)
