import cmath
import csv
import json
import math
import random

import numpy as np
import pytest

from primroots import DomainError, charsum
from primroots.arith import jacobi, log_integral
from primroots.artin import reference_artin_constant
from primroots.charsum import (
    LITERAL_LIMIT,
    ROUNDING_TOLERANCE,
    decompose_interval,
    psi_divisor_dependent,
    psi_divisor_free,
)
from primroots.factorize import SIEVE_LIMIT, euler_phi, factor
from primroots.primroot import (is_primitive_root_prime, least_primitive_root,
                                multiplicative_order)
from primroots.special_primes import sieve_primes


def test_psi_examples():
    assert psi_divisor_dependent(2, 5).value == 1
    assert psi_divisor_dependent(4, 5).value == 0
    assert psi_divisor_free(3, 5).value == 1
    assert psi_divisor_free(3, 5, literal=True).value == 1
    for p in (3, 5, 7, 11, 199):
        assert psi_divisor_free(1, p).value == 0
        assert psi_divisor_dependent(1, p).value == 0


def test_psi_trivial_prime():
    # p = 2: the only unit generates the trivial group
    assert psi_divisor_dependent(1, 2).value == 1
    assert psi_divisor_free(1, 2, literal=True).value == 1


def test_psi_domain_errors():
    with pytest.raises(DomainError):
        psi_divisor_dependent(5, 5)
    with pytest.raises(DomainError):
        psi_divisor_free(0, 7)
    with pytest.raises(DomainError):
        psi_divisor_dependent(2, 10)


def test_representations_agree_with_order_to_61():
    # the full p <= 200 sweep is acceptance criterion 1
    for p in sieve_primes(61):
        for u in range(1, p):
            truth = int(multiplicative_order(u, p).order == p - 1)
            dd = psi_divisor_dependent(u, p)
            fast = psi_divisor_free(u, p)
            lit = psi_divisor_free(u, p, literal=True)
            assert dd.value == fast.value == lit.value == truth
            for ev in (dd, fast, lit):
                assert ev.residual <= ROUNDING_TOLERANCE
                assert abs(ev.raw - ev.value) == ev.residual


def test_psi_sums_to_phi():
    for p in sieve_primes(100):
        total_dd = sum(psi_divisor_dependent(u, p).value for u in range(1, p))
        total_df = sum(psi_divisor_free(u, p, literal=True).value
                       for u in range(1, p))
        expected = euler_phi(factor(p - 1)) if p > 2 else 1
        assert total_dd == total_df == expected


def test_psi_independent_of_primitive_root_choice():
    for p in sieve_primes(50):
        if p == 2:
            continue
        roots = [t for t in range(2, p) if is_primitive_root_prime(t, p)]
        for u in range(1, p):
            base_dd = psi_divisor_dependent(u, p).value
            base_df = psi_divisor_free(u, p, literal=True).value
            for tau in roots:
                assert psi_divisor_dependent(u, p, tau=tau).value == base_dd
                assert psi_divisor_free(u, p, literal=True, tau=tau).value == base_df


def test_psi_rejects_non_primitive_tau():
    with pytest.raises(DomainError):
        psi_divisor_dependent(2, 7, tau=2)  # ord_7(2) = 3


def test_psi_rejects_non_unit_tau_at_p_2():
    # tau = 2 = 0 mod 2 is not a unit; both forms must refuse it, not disagree.
    with pytest.raises(DomainError, match="tau = 2"):
        psi_divisor_dependent(1, 2, tau=2)
    for literal in (False, True):
        with pytest.raises(DomainError, match="tau = 2"):
            psi_divisor_free(1, 2, literal=literal, tau=2)


def test_psi_caches_hold_one_prime_as_int64_arrays():
    for p in (101, 103):
        psi_divisor_dependent(2, p)
        psi_divisor_free(2, p)
    info = charsum._power_table.cache_info()
    assert info.maxsize == info.currsize == 1
    _, powers = charsum._power_table(103, None)
    assert isinstance(powers, np.ndarray) and powers.dtype == np.int64
    assert powers.nbytes == 8 * (103 - 1)


def _psi_oracle(p):
    """psi_divisor_dependent's raw at every u mod p, in pure-Python cmath.

    Sums all p-1 characters, the mu(d) = 0 orders included, from a
    brute-force primitive root and discrete log.
    """
    n = p - 1
    tau = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(n)}) == n)
    log = {pow(tau, k, p): k for k in range(n)}

    def phi(d):
        return sum(1 for t in range(1, d + 1) if math.gcd(t, d) == 1)

    def mu(d):
        sign = 1
        for ell in range(2, d + 1):
            if d % ell == 0:
                d //= ell
                if d % ell == 0:
                    return 0
                sign = -sign
        return sign

    raw = {}
    for u, m in log.items():
        total = 0j
        for d in range(1, n + 1):
            if n % d == 0:
                total += mu(d) / phi(d) * sum(cmath.exp(2j * cmath.pi * (m * t % d) / d)
                                              for t in range(1, d + 1) if math.gcd(t, d) == 1)
        raw[u] = phi(n) / n * total
    return raw


def test_psi_divisor_dependent_raw_matches_full_character_sum_to_100():
    for p in sieve_primes(100):
        for u, expected in _psi_oracle(p).items():
            assert abs(psi_divisor_dependent(u, p).raw - expected) <= 1e-12, (u, p)


def test_psi_divisor_dependent_is_exactly_zero_at_quadratic_residues():
    # u = tau^m with m even: the factor at ell = 2 is (1 - 1/2)(1 - e^0/1) = 0.
    for p in sieve_primes(100)[1:]:
        for u in range(1, p):
            if jacobi(u, p) == 1:
                ev = psi_divisor_dependent(u, p)
                assert ev.raw == 0 and ev.residual == 0.0, (u, p, ev.raw)


def test_psi_divisor_dependent_at_five_prime_factors():
    # p - 1 = 2*3*5*7*11 has 32 squarefree divisors; criterion 1 stops at 200.
    p = 2311
    assert factor(p - 1).factors == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))
    for u in range(1, p):
        assert psi_divisor_dependent(u, p).value == is_primitive_root_prime(u, p), u


CEILING_PRIME = 16777213  # the largest prime below TABLE_LIMIT = 2^24


@pytest.mark.parametrize("method, p, value", (
    pytest.param("divisor", CEILING_PRIME, "0", id="divisor"),
    pytest.param("free", CEILING_PRIME, "0", id="free"),
    # The largest safe prime below 2^24: S_ell for ell = (p - 1)/2 spans 8388448 terms.
    pytest.param("divisor", 16776899, "1", id="divisor-16776899"),
))
def test_psi_at_the_table_ceiling_peaks_under_256_mb(method, p, value, cli_peak):
    out, peak_kb = cli_peak("psi", "--u", "2", "--p", str(p), "--method", method)
    rows = list(csv.DictReader(out.splitlines()))
    assert [(r["p"], r["value"]) for r in rows] == [(str(p), value)]
    assert peak_kb < 256 * 1024, f"{peak_kb} kB"


# Builds the power table at argv[1] and prints tau, its length and the
# entries at the given indices as JSON.
_TABLE_CHILD = """import json, sys
from primroots import charsum
tau, powers = charsum._power_table(int(sys.argv[1]))
print(json.dumps([tau, len(powers), [int(powers[i]) for i in map(int, sys.argv[2:])]]))
"""


def test_power_table_at_the_ceiling_matches_pow(fresh_python):
    # In a fresh process, so the 134 MB table does not stay in this process's cache.
    p = CEILING_PRIME
    indices = sorted(random.Random(17).sample(range(p - 1), 200)) + [0, 1, p - 2]
    done = fresh_python("-c", _TABLE_CHILD, str(p), *map(str, indices))
    tau, size, entries = json.loads(done.stdout)
    assert tau == least_primitive_root(p) and size == p - 1
    assert entries == [pow(tau, i, p) for i in indices]


def test_literal_mode_is_capped():
    big = next(p for p in sieve_primes(LITERAL_LIMIT + 100) if p > LITERAL_LIMIT)
    with pytest.raises(DomainError):
        psi_divisor_free(2, big, literal=True)


def test_literal_mode_is_refused_before_the_power_table(monkeypatch):
    def no_table(p, tau):
        raise AssertionError(f"power table built for p = {p}")
    monkeypatch.setattr(charsum, "_power_table", no_table)
    with pytest.raises(DomainError, match=f"literal mode is capped at p <= {LITERAL_LIMIT}"):
        psi_divisor_free(5, 5003, literal=True)


def test_interval_example_z10():
    d = decompose_interval(10, 2)
    assert d.psi_sum == 3  # 11, 13, 19 (2 has order 8 mod 17)
    expected_trivial = 4 / 11 + 4 / 13 + 8 / 17 + 6 / 19
    assert abs(d.trivial_term - expected_trivial) < 1e-12
    assert abs(d.psi_sum - d.trivial_term - d.error_term) < 1e-12


def test_interval_no_admissible_primes():
    # [3, 6] holds primes 3 and 5 only; q = 15 kills both
    d = decompose_interval(3, 15)
    assert d.psi_sum == 0
    assert d.trivial_term == 0.0 and d.error_term == 0.0
    assert d.li_prediction > 0


def test_interval_z1000_density():
    d = decompose_interval(1000, 2)
    assert d.psi_sum == 50  # enumeration oracle
    in_range = [p for p in sieve_primes(2000) if p >= 1000]
    assert len(in_range) == 135
    assert abs(d.psi_sum / len(in_range) - 0.3739558136) <= 0.15


def test_interval_identity_and_prediction_wiring():
    a1 = reference_artin_constant()
    for z, q in ((50, 2), (123, 3), (500, 6), (800, 7)):
        d = decompose_interval(z, q)
        pi_2z = len(sieve_primes(2 * z))
        assert abs(d.psi_sum - d.trivial_term - d.error_term) <= 1e-6 * pi_2z
        expected = a1 * (log_integral(2 * z) - log_integral(z))
        assert abs(d.li_prediction - expected) < 1e-9


def test_interval_domain_errors():
    with pytest.raises(DomainError):
        decompose_interval(2, 2)
    with pytest.raises(DomainError):
        decompose_interval(10, 4)   # square base
    with pytest.raises(DomainError):
        decompose_interval(10, 1)
    with pytest.raises(DomainError):
        decompose_interval(10, 0)


def test_interval_refuses_2z_past_sieve_ceiling():
    with pytest.raises(DomainError, match=f"2z = {SIEVE_LIMIT + 2} exceeds"):
        decompose_interval(SIEVE_LIMIT // 2 + 1, 2)
    with pytest.raises(DomainError, match="SIEVE_LIMIT"):
        decompose_interval(2**62, 3)
