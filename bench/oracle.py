"""Reference answers computed without the code under test.

Primes, smallest prime factors and primitive-root masks come from a numpy
sieve written here; the 62/63-bit queries go to sympy. Nothing in this module
imports ``primroots``. The pinned constants below are published values, so the
oracle itself is checked against them before it judges anything.
"""

import csv
import io
import json
import math

import numpy as np

PI_1E6 = 78498          # pi(10^6)
PI2_1E6 = 29341         # primes p <= 10^6 with 2 a primitive root mod p
ARTIN_A1 = 0.3739558136  # Artin's constant, ten digits

# The CLI prints floats to 12 significant digits.
FLOAT_REL = 1e-10


class Sieve:
    """Smallest-prime-factor table up to n (numpy, int32)."""

    def __init__(self, n):
        self.n = n
        spf = np.arange(n + 1, dtype=np.int32)
        for p in range(2, math.isqrt(n) + 1):
            if spf[p] == p:
                block = spf[p * p :: p]
                unset = block == np.arange(p * p, n + 1, p, dtype=np.int32)
                block[unset] = p
        self.spf = spf
        idx = np.arange(n + 1)
        self.primes = idx[(spf == idx) & (idx >= 2)].astype(np.int64)

    def distinct_factors(self, m):
        """Distinct primes of one m <= n, ascending."""
        out = []
        while m > 1:
            p = int(self.spf[m])
            out.append(p)
            while m % p == 0:
                m //= p
        return out

    def factor_columns(self, m):
        """Distinct prime factors of each entry of m, as columns (1 = none)."""
        m = m.astype(np.int64).copy()
        last = np.zeros_like(m)
        cols = []
        while True:
            active = m > 1
            if not active.any():
                return cols
            f = np.where(active, self.spf[np.where(active, m, 1)], 1).astype(np.int64)
            fresh = active & (f != last)
            if fresh.any():
                cols.append(np.where(fresh, f, 1))
            last = np.where(active, f, last)
            m = np.where(active, m // f, m)


def powmod(base, exp, mod):
    """Elementwise base^exp mod mod over int64 arrays (mod < 3.03e9)."""
    base = np.asarray(base, dtype=np.int64) % mod
    exp = np.array(exp, dtype=np.int64, copy=True)
    result = np.ones(np.broadcast(base, exp, mod).shape, dtype=np.int64) % mod
    while (exp > 0).any():
        odd = (exp & 1) == 1
        result = np.where(odd, result * base % mod, result)
        base = base * base % mod
        exp >>= 1
    return result


class Oracle:
    """Independent answers for every workload; sizes the sieve on demand."""

    def __init__(self):
        self._sieve = None
        self._columns = {}

    def sieve(self, n):
        if self._sieve is None or self._sieve.n < n:
            self._sieve = Sieve(max(n, 1 << 16))
            self._columns = {}
        return self._sieve

    def primes_upto(self, n):
        s = self.sieve(n)
        return s.primes[s.primes <= n]

    def primroot_residues(self, p):
        """Boolean mask over residues 0..p-1: True where a primitive root mod p."""
        if p == 2:
            return np.array([False, True])
        s = self.sieve(p)
        u = np.arange(p, dtype=np.int64)
        ok = u != 0
        for ell in s.distinct_factors(p - 1):
            ok &= powmod(u, (p - 1) // ell, p) != 1
        return ok

    def _factor_columns(self, primes):
        """Distinct prime factors of p - 1 for each prime, cached per prime list."""
        key = (int(primes[0]), int(primes[-1]), len(primes))
        if key not in self._columns:
            self._columns[key] = self.sieve(int(primes[-1])).factor_columns(primes - 1)
        return self._columns[key]

    def primroot_over_primes(self, q, primes):
        """For fixed q: mask over primes of 'q is a primitive root mod p'.

        Primes dividing q give False.
        """
        ok = (q % primes) != 0
        for c in self._factor_columns(primes):
            at = np.flatnonzero(c > 1)
            ok[at] &= powmod(q, (primes[at] - 1) // c[at], primes[at]) != 1
        return ok

    def totients_of_pred(self, primes):
        """phi(p - 1) for each prime p, exact in int64."""
        phi = primes - 1
        for c in self._factor_columns(primes):
            phi = np.where(c > 1, phi // c * (c - 1), phi)
        return phi

    def is_primroot(self, u, p):
        """Scalar test for any prime p < 2^63 (sympy beyond the sieve)."""
        u %= p
        if u == 0:
            return False
        if p == 2:
            return True
        if p - 1 <= (self._sieve.n if self._sieve else 0):
            ells = self._sieve.distinct_factors(p - 1)
        else:
            from sympy import factorint
            ells = list(factorint(p - 1))
        return all(pow(u, (p - 1) // ell, p) != 1 for ell in ells)

    def least_primes(self, qs, cap):
        """Least prime p >= 3, p not dividing q, with q a primitive root; 0 if none <= cap."""
        qs = np.asarray(qs, dtype=np.int64)
        least = np.zeros(len(qs), dtype=np.int64)
        todo = np.arange(len(qs))
        for p in self.primes_upto(cap):
            p = int(p)
            if p < 3:
                continue
            mask = self.primroot_residues(p)
            hit = mask[qs[todo] % p]
            least[todo[hit]] = p
            todo = todo[~hit]
            if len(todo) == 0:
                break
        return least

    def is_germain(self, p):
        """p - 1 = 2^s * r with r an odd prime."""
        m = p - 1
        r = m >> ((m & -m).bit_length() - 1)
        return r >= 3 and int(self.sieve(r).spf[r]) == r


def close(a, b, rel=FLOAT_REL, abs_tol=0.0):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


def li_difference(lo, hi):
    """li(hi) - li(lo) by mpmath (the offset cancels)."""
    import mpmath

    return float(mpmath.li(hi) - mpmath.li(lo))


# ---------------------------------------------------------------- sweep

def check_density(oracle, out, q, x):
    header, rows = parse_csv(out)
    if header != ["q", "x", "pi_x", "pi_q_x", "density", "artin_reference",
                  "c_estimate"] or len(rows) != 1:
        return False
    row = rows[0]
    primes = oracle.primes_upto(x)
    pi_q = int(oracle.primroot_over_primes(q, primes[primes >= 3]).sum())
    density = pi_q / len(primes)
    ref = float(row["artin_reference"])
    return (int(row["q"]) == q and int(row["x"]) == x
            and int(row["pi_x"]) == len(primes) and int(row["pi_q_x"]) == pi_q
            and close(float(row["density"]), density)
            and close(ref, ARTIN_A1, rel=1e-6)
            and close(float(row["c_estimate"]), density / ref, rel=1e-9))


def check_interval(oracle, out, z, q):
    header, rows = parse_csv(out)
    if header != ["z", "q", "psi_sum", "trivial_term", "error_term",
                  "li_prediction"] or len(rows) != 1:
        return False
    row = rows[0]
    primes = oracle.primes_upto(2 * z)
    primes = primes[primes >= z]
    psi = int(oracle.primroot_over_primes(q, primes).sum())
    coprime = q % primes != 0
    trivial = math.fsum((oracle.totients_of_pred(primes)[coprime] / primes[coprime]).tolist())
    prediction = ARTIN_A1 * li_difference(z, 2 * z)
    return (int(row["z"]) == z and int(row["q"]) == q and int(row["psi_sum"]) == psi
            and close(float(row["trivial_term"]), trivial, rel=1e-9)
            and close(float(row["error_term"]), psi - trivial, abs_tol=1e-9 * trivial)
            and close(float(row["li_prediction"]), prediction, rel=1e-6))


def sweep_items(oracle, x, z):
    """Primes examined by one density and by one interval request."""
    lo = oracle.primes_upto(2 * z)
    return len(oracle.primes_upto(x)), int((lo >= z).sum())


# ----------------------------------------------------------------- scan

def scan_expected(oracle, lo, hi, cap):
    """Columns q, least_p (0 = none), bound_value, ratio (nan = empty), germain_hit."""
    q = np.array([q for q in range(max(lo, 2), hi + 1) if math.isqrt(q) ** 2 != q])
    least = oracle.least_primes(q, cap)
    with np.errstate(invalid="ignore", divide="ignore"):
        bound = np.where(q >= 16, np.log(q) * np.log(np.log(q)) ** 3, np.nan)
        ratio = np.where(least > 0, least / bound, np.nan)
    germain = {p: oracle.is_germain(p) for p in set(least.tolist()) if p}
    hit = np.array([germain.get(p, False) for p in least.tolist()], dtype=bool)
    return q, least, bound, ratio, hit


def _scan_columns(out, fmt):
    if fmt == "json":
        rows = json.loads(out)["rows"]
        cols = [[r[k] for r in rows] for k in ("q", "least_p", "bound_value", "ratio")]
        hit = [r["germain_hit"] for r in rows]
        none = None
    else:
        lines = out.splitlines()
        if lines[0] != "q,least_p,bound_value,ratio,germain_hit":
            return None
        cells = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * 5
        cols = [list(c) for c in cells[:4]]
        hit = [c == "true" for c in cells[4]]
        none = ""
    q, least = (np.array([int(v) if v != none else 0 for v in c], dtype=np.int64)
                for c in cols[:2])
    bound, ratio = (np.array([float(v) if v != none else np.nan for v in c]) for c in cols[2:])
    return q, least, bound, ratio, np.array(hit, dtype=bool)


def check_scan(oracle, out, fmt, lo, hi, cap):
    got, want = _scan_columns(out, fmt), scan_expected(oracle, lo, hi, cap)
    if got is None or len(got[0]) != len(want[0]):
        return False
    return bool((got[0] == want[0]).all() and (got[1] == want[1]).all()
                and np.allclose(got[2], want[2], rtol=FLOAT_REL, atol=0, equal_nan=True)
                and np.allclose(got[3], want[3], rtol=FLOAT_REL, atol=0, equal_nan=True)
                and (got[4] == want[4]).all())


# ----------------------------------------------------------------- verify

def check_verify_task(oracle, task, inputs, out):
    """Per-check failures of one verify task (list of bools, True = wrong)."""
    kind, p = task["kind"], task["p"]
    got = np.frombuffer(out["bits"], dtype=np.uint8).reshape(-1, 2).astype(bool)
    if got.shape[0] != len(inputs):
        return [True] * len(inputs)
    want = oracle.primroot_residues(p)[np.asarray(inputs) % p]
    wrong = (got[:, 0] != want) | (got[:, 1] != want)
    if kind == "germain":
        m = p - 1
        s = (m & -m).bit_length() - 1
        if (out["s"], out["r"]) != (s, m >> s):
            wrong[:] = True
    return wrong.tolist()


# ----------------------------------------------------------------- queries

def _csv_text(columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(("true" if v else "false") if isinstance(v, bool)
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _order(u, primes_of_n):
    """Order of u mod n = prod(primes_of_n) (distinct primes), and lambda(n)."""
    from sympy import n_order

    order = lam = 1
    for p in primes_of_n:
        order = math.lcm(order, n_order(u % p, p))
        lam = math.lcm(lam, p - 1)
    return order, lam


def query_expected(oracle, req):
    """(exit code, stdout) that one queries request must produce."""
    from sympy import isprime, n_order, reduced_totient

    kind, a = req["kind"], req["args"]
    if kind.startswith("refuse"):
        return 1, ""
    if kind == "is-primroot":
        u, p = a["u"], a["p"]
        return 0, _csv_text(("u", "p", "primitive"), [(u, p, oracle.is_primroot(u, p))])
    if kind == "order-random":
        u, n = a["u"], a["n"]
        order, lam = n_order(u, n), int(reduced_totient(n))
        return 0, _csv_text(("u", "n", "order", "lambda", "primitive"),
                            [(u % n, n, order, lam, order == lam)])
    if kind == "order-semiprime":
        u, n = a["u"], a["n"]
        order, lam = _order(u, a["primes"])
        return 0, _csv_text(("u", "n", "order", "lambda", "primitive"),
                            [(u % n, n, order, lam, order == lam)])
    if kind == "lift":
        # The lift answers True only when u has maximal order modulo every
        # prime-power divisor, which implies, but is stronger than, order lambda(n).
        u, n = a["u"], a["n"]
        lifted = all(oracle.is_primroot(u, p) for p in a["primes"])
        return 0, _csv_text(("u", "n", "primitive"), [(u, n, lifted)])
    if kind == "germain-test":
        q, p = a["q"], a["p"]
        m = p - 1
        s = (m & -m).bit_length() - 1
        r = m >> s
        if not (r >= 3 and isprime(r)):
            return 1, ""
        return 0, _csv_text(("q", "p", "s", "r", "passes"),
                            [(q, p, s, r, oracle.is_primroot(q, p))])
    if kind == "fermat-test":
        q, f = a["q"], a["f"]
        return 0, _csv_text(("q", "f", "passes"), [(q, f, oracle.is_primroot(q, f))])
    if kind == "least-prime":
        q, cap = a["q"], a["cap"]
        least = int(oracle.least_primes([q], cap)[0]) or None
        return 0, _csv_text(("q", "cap", "least_p", "exhausted"),
                            [(q, cap, "" if least is None else least, least is None)])
    if kind == "k2n":
        k, nmax = a["k"], a["nmax"]
        rows = []
        for n in range(nmax + 1):
            cand = (k << n) + 1
            if cand > 2**63 - 1:
                break
            if isprime(cand):
                rows.append((n, cand))
        return 0, _csv_text(("n", "p"), rows)
    raise ValueError(f"unknown query kind {kind}")
