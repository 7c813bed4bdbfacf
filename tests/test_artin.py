import math

import pytest

from primroots import DomainError, artin
from primroots.artin import (
    BOUND_MIN_Q,
    artin_constant,
    conjecture_bound,
    conjecture_scan,
    least_prime_with_primitive_root,
    prime_counts,
    summarize_scan,
)
from primroots.primroot import multiplicative_order
from primroots.special_primes import germain_decompose, sieve_primes

# frozen from the enumeration-oracle run over q <= 1000
MAX_LEAST_P_TO_1000 = 47  # attained at q = 510


def test_artin_constant_single_factor():
    a = artin_constant(2)
    assert a.value == 0.5
    assert a.tail_bound == 0.5


def test_artin_constant_against_high_precision_oracle():
    # frozen from a 40-digit mpmath Euler product
    oracle = {
        100: 0.37464036101605622,
        1000: 0.37400333040563507,
        10**5: 0.3739561136265595,
    }
    for cutoff, expected in oracle.items():
        assert abs(artin_constant(cutoff).value - expected) < 1e-12


def test_artin_constant_converges_to_tabulated_digits():
    assert abs(artin_constant(10**6).value - 0.3739558136) <= 1e-6


def test_artin_constant_monotone():
    cutoffs = [2, 10, 100, 1000, 10**4, 10**5]
    values = [artin_constant(c).value for c in cutoffs]
    assert all(a >= b for a, b in zip(values, values[1:]))
    tails = [artin_constant(c).tail_bound for c in cutoffs]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    for c in cutoffs[2:]:
        assert 0.37 < artin_constant(c).value < 0.38


def test_artin_constant_domain():
    with pytest.raises(DomainError):
        artin_constant(1)


def test_prime_counts_q2_x100():
    rep = prime_counts(2, 100)
    assert rep.pi_x == 25
    assert rep.pi_q_x == 12
    # the twelve primes, from the per-prime order oracle
    expected = {3, 5, 11, 13, 19, 29, 37, 53, 59, 61, 67, 83}
    found = {p for p in sieve_primes(100)
             if p > 2 and multiplicative_order(2, p).order == p - 1}
    assert found == expected


def test_prime_counts_small_examples():
    assert prime_counts(2, 3).pi_q_x == 1     # 2 = -1 mod 3 has order 2
    rep = prime_counts(5, 10)
    assert rep.pi_x == 4 and rep.pi_q_x == 2  # p = 3 and p = 7


def test_prime_counts_monotone_and_bounded():
    last = 0
    for x in (10, 100, 1000, 5000):
        rep = prime_counts(2, x)
        assert 0 <= rep.pi_q_x <= rep.pi_x
        assert rep.pi_q_x >= last
        assert 0.0 <= rep.density <= 1.0
        last = rep.pi_q_x


def test_prime_counts_domain():
    for q in (0, 1, 4, 49):
        with pytest.raises(DomainError):
            prime_counts(q, 100)
    with pytest.raises(DomainError):
        prime_counts(2, 2)


def test_least_prime_examples():
    assert least_prime_with_primitive_root(2) == 3
    assert least_prime_with_primitive_root(3) == 5   # p = 3 shares a factor
    assert least_prime_with_primitive_root(7) == 5


def test_least_prime_is_minimal():
    for q in (2, 3, 6, 7, 10, 510, 9973):
        least = least_prime_with_primitive_root(q)
        assert multiplicative_order(q, least).order == least - 1
        for p in sieve_primes(least - 1):
            if p < 3 or q % p == 0:
                continue
            assert multiplicative_order(q, p).order < p - 1, (q, p)


def test_least_prime_exhaustion_marker():
    # q = 510 needs p = 47; a cap below that must report exhaustion
    assert least_prime_with_primitive_root(510) == 47
    assert least_prime_with_primitive_root(510, cap=43) is None


def test_least_prime_domain():
    for q in (0, 1, 9):
        with pytest.raises(DomainError):
            least_prime_with_primitive_root(q)


def test_conjecture_bound():
    assert math.isclose(conjecture_bound(100),
                        math.log(100) * math.log(math.log(100)) ** 3)
    with pytest.raises(DomainError):
        conjecture_bound(15)


def test_scan_small_range():
    records = conjecture_scan(2, 3)
    assert [(r.q, r.least_p) for r in records] == [(2, 3), (3, 5)]
    for r in records:
        assert r.bound_value is None and r.ratio is None  # below BOUND_MIN_Q


def test_scan_skips_squares():
    records = conjecture_scan(2, 10)
    assert [r.q for r in records] == [2, 3, 5, 6, 7, 8, 10]


def test_scan_to_1000():
    records = conjecture_scan(2, 1000)
    assert len(records) == 999 - 30  # 999 candidates minus 30 squares in [4, 961]
    assert all(r.least_p is not None for r in records)
    assert max(r.least_p for r in records) == MAX_LEAST_P_TO_1000
    for r in records:
        if r.q >= BOUND_MIN_Q:
            assert r.bound_value is not None
            assert math.isclose(r.ratio, r.least_p / r.bound_value)
        else:
            assert r.bound_value is None and r.ratio is None
        assert r.germain_hit == (germain_decompose(r.least_p) is not None)


def test_scan_threads_deterministic():
    seq = conjecture_scan(2, 400)
    par = conjecture_scan(2, 400, threads=2)
    assert seq == par


def test_scan_summary():
    records = conjecture_scan(2, 1000)
    summary = summarize_scan(records)
    assert summary.records == len(records)
    assert summary.exhausted == 0
    assert summary.max_ratio == max(r.ratio for r in records if r.ratio is not None)
    hits = sum(1 for r in records if r.germain_hit)
    assert math.isclose(summary.germain_fraction, hits / len(records))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_scan_workers_clamped(monkeypatch):
    monkeypatch.setattr(artin, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    monkeypatch.setattr(artin.os, "cpu_count", lambda: 3)
    assert conjecture_scan(2, 400, threads=64) == conjecture_scan(2, 400)
    monkeypatch.setattr(artin.os, "cpu_count", lambda: 64)
    assert conjecture_scan(2, 5, threads=64) == conjecture_scan(2, 5)  # 4 chunks of 1 base
    assert conjecture_scan(2, 5, threads=2) == conjecture_scan(2, 5)
    assert _RecordingPool.workers == [3, 4, 2]

