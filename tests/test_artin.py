import math

import pytest

from primroots import DomainError, artin
from primroots.artin import (
    BOUND_MIN_Q,
    SCAN_SPAN_LIMIT,
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


def test_least_prime_mod_5_claims_to_2e4():
    # Q0: +-2 are the non-residues, hence the primitive roots, mod the Fermat
    # prime 5; so 5 answers unless 3 does first, which is iff q = 2 mod 3.
    # Q1: +-1 are squares mod 5, so 5 is never the least prime there.
    records = conjecture_scan(2, 2 * 10**4)
    assert [r.q for r in records] == [q for q in range(2, 2 * 10**4 + 1)
                                      if math.isqrt(q) ** 2 != q]
    for r in records:
        assert least_prime_with_primitive_root(r.q) == r.least_p
        if r.q % 5 in (2, 3):
            assert r.least_p == (3 if r.q % 3 == 2 else 5), r.q
        elif r.q % 5 in (1, 4):
            assert r.least_p != 5, r.q


# 30030 = 2*3*5*7*11*13 and 9699690 = 30030*17*19: windows around them hold q
# divisible by every small prime, and caps up to 7 exhaust on some q.
@pytest.mark.parametrize("cap", (3, 5, 7, 47))
@pytest.mark.parametrize("qmin", (2, 30030 - 150, 9699690 - 150))
def test_scan_rows_match_the_scalar_reference(qmin, cap):
    records = conjecture_scan(qmin, qmin + 300, cap=cap)
    for r in records:
        least = least_prime_with_primitive_root(r.q, cap)
        assert r.least_p == least, r.q
        assert type(r.germain_hit) is bool
        assert r.germain_hit == (least is not None and germain_decompose(least) is not None)
    if cap <= 7:
        assert any(r.least_p is None for r in records)


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


def test_scan_refuses_a_span_past_the_limit_before_scanning(monkeypatch):
    def no_scan(bounds):
        raise AssertionError("a base was scanned")

    monkeypatch.setattr(artin, "_scan_chunk", no_scan)
    with pytest.raises(DomainError, match=f"qmax = {SCAN_SPAN_LIMIT} spans "
                                          f"{SCAN_SPAN_LIMIT + 1} bases"):
        conjecture_scan(0, SCAN_SPAN_LIMIT)
    monkeypatch.setattr(artin, "_scan_chunk", lambda bounds: [])
    assert conjecture_scan(1, SCAN_SPAN_LIMIT) == []  # exactly at the limit


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

