"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single PASS line with its measured numbers (pytest -s to
see them on success). Criterion 4 partitions its 6.4e7 test pairs across
two worker processes; every pair still goes through the real library
functions.

Run: pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from primroots import artin as artin_mod
from primroots.arith import log_integral
from primroots.artin import artin_constant, conjecture_scan, prime_counts, summarize_scan
from primroots.charsum import decompose_interval, psi_divisor_dependent, psi_divisor_free
from primroots.factorize import euler_phi, factor
from primroots.primroot import (
    count_primitive_roots,
    is_primitive_root_prime,
    multiplicative_order,
)
from primroots.special_primes import (
    FERMAT_PRIMES,
    GermainForm,
    fermat_primitive_root_test,
    germain_decompose,
    germain_primitive_root_test,
    sieve_primes,
)

ARTIN_DIGITS = 0.3739558136  # leading digits of the tabulated Euler product


def report(name, elapsed, budget, detail):
    print(f"\n{name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) -- {detail}")


def test_criterion_1_representation_equivalence():
    budget = 30.0
    t0 = time.time()
    max_residual = 0.0
    triples = 0
    for p in sieve_primes(200):
        for u in range(1, p):
            truth = int(multiplicative_order(u, p).order == p - 1)
            dd = psi_divisor_dependent(u, p)
            df = psi_divisor_free(u, p, literal=True)
            assert dd.value == df.value == truth, (u, p)
            max_residual = max(max_residual, dd.residual, df.residual)
            triples += 1
    assert max_residual <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < budget
    report("criterion 1 (representation equivalence)", elapsed, budget,
           f"{triples} (u, p) triples, max accumulator residual {max_residual:.2e}")


def test_criterion_2_artin_constant():
    budget = 5.0
    t0 = time.time()
    value = artin_constant(10**6).value
    diff = abs(value - ARTIN_DIGITS)
    assert diff <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < budget
    report("criterion 2 (Artin constant)", elapsed, budget,
           f"value {value:.12f}, |diff| {diff:.2e}")


def test_criterion_3_counting_identity():
    budget = 60.0
    t0 = time.time()
    primes = sieve_primes(10**4)
    for p in primes:
        assert count_primitive_roots(p) == euler_phi(factor(p - 1)), p
    elapsed = time.time() - t0
    assert elapsed < budget
    report("criterion 3 (counting identity)", elapsed, budget,
           f"{len(primes)} primes checked")


def _germain_agreement_chunk(triples):
    pairs = 0
    mismatches = []
    for p, s, r in triples:
        g = GermainForm(p=p, s=s, r=r)
        next_sq, gap = 4, 5
        for q in range(2, p - 1):
            if q == next_sq:
                next_sq += gap
                gap += 2
                continue
            if germain_primitive_root_test(q, g) != is_primitive_root_prime(q, p):
                mismatches.append((q, p))
            pairs += 1
    return pairs, mismatches


@pytest.mark.slow
def test_criterion_4_short_test_soundness():
    budget = 300.0
    t0 = time.time()
    forms = []
    for p in sieve_primes(10**5):
        if p < 3:
            continue
        g = germain_decompose(p)
        if g is not None:
            forms.append((g.p, g.s, g.r))
    # interleave by size so both workers carry similar loads
    chunks = [forms[0::2], forms[1::2]]
    pairs = 0
    with ProcessPoolExecutor(max_workers=2) as pool:
        for done, mismatches in pool.map(_germain_agreement_chunk, chunks):
            assert mismatches == []
            pairs += done

    fermat_pairs = 0
    for f in FERMAT_PRIMES:
        for q in range(1, f):
            assert fermat_primitive_root_test(q, f) == \
                is_primitive_root_prime(q, f), (q, f)
            fermat_pairs += 1

    elapsed = time.time() - t0
    assert elapsed < budget
    report("criterion 4 (short-test soundness)", elapsed, budget,
           f"{len(forms)} Germain primes, {pairs} Germain pairs, "
           f"{fermat_pairs} Fermat pairs, all agree")


def test_criterion_5_main_term():
    budget = 60.0
    t0 = time.time()
    total = 0.0
    for p in sieve_primes(10**6):
        total += euler_phi(factor(p - 1)) / p
    target = artin_constant(10**6).value * log_integral(10**6)
    rel = abs(total - target) / target
    assert rel <= 0.05
    elapsed = time.time() - t0
    assert elapsed < budget
    report("criterion 5 (main term)", elapsed, budget,
           f"sum {total:.3f} vs a1*li {target:.3f}, rel diff {rel:.4f}")


def test_criterion_6_density_of_base_2():
    budget = 300.0
    t0 = time.time()
    rep = prime_counts(2, 10**6)
    diff = abs(rep.density - ARTIN_DIGITS)
    assert diff <= 0.01
    elapsed = time.time() - t0
    assert elapsed < budget
    report("criterion 6 (density, q = 2)", elapsed, budget,
           f"pi_2 {rep.pi_q_x} / pi {rep.pi_x} = {rep.density:.7f}, "
           f"|diff| {diff:.5f}")


def test_criterion_7_conjecture_scan():
    budget = 600.0
    t0 = time.time()
    records = conjecture_scan(2, 10**4, cap=10**5)
    assert all(r.least_p is not None for r in records)  # scan totality
    again = conjecture_scan(2, 10**4, cap=10**5, threads=2)
    assert records == again  # reproducible table
    summary = summarize_scan(records)
    assert summary.max_ratio is not None and math.isfinite(summary.max_ratio)
    elapsed = time.time() - t0
    assert elapsed < budget
    report("criterion 7 (conjecture scan)", elapsed, budget,
           f"{summary.records} bases, 0 exhausted, max least_p "
           f"{max(r.least_p for r in records)}, max ratio {summary.max_ratio:.3f} "
           f"at q = {summary.max_ratio_q}, germain fraction "
           f"{summary.germain_fraction:.3f}")


def test_criterion_8_interval_identity():
    budget = 120.0
    t0 = time.time()
    rng = random.Random(0x1D57)
    bases = (2, 3, 5, 6, 7)
    worst = 0.0
    for i in range(20):
        z = rng.randrange(100, 10**4 + 1)
        q = bases[i % len(bases)]
        d = decompose_interval(z, q)
        tolerance = 1e-6 * len(sieve_primes(2 * z))
        gap = abs(d.psi_sum - d.trivial_term - d.error_term)
        assert gap <= tolerance, (z, q)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    assert elapsed < budget
    report("criterion 8 (interval identity)", elapsed, budget,
           f"20 intervals, worst |psi - M - E| = {worst:.2e}")


def test_criterion_9_error_term_trend_table():
    # Asymptotic statements are not reproducible; this reports the measured
    # |E(z)| against z^(1 - 1/16) with no pass/fail threshold.
    print("\ncriterion 9 (error-term trend, q = 2): reported, no threshold")
    print(f"{'z':>7} {'psi_sum':>8} {'E(z)':>12} {'|E|/z^(15/16)':>14}")
    for z in (100, 200, 400, 800, 1600, 3200, 6400, 12800):
        d = decompose_interval(z, 2)
        scaled = abs(d.error_term) / z ** (15 / 16)
        assert math.isfinite(scaled)
        print(f"{z:>7} {d.psi_sum:>8} {d.error_term:>12.4f} {scaled:>14.5f}")
