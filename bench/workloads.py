"""Seeded inputs for the four workloads.

A run is a sequence of rounds; each round runs in a fresh worker interpreter,
so lru caches never carry over between rounds. Round i of a run is a pure
function of (workload, seed, i): a traced replay sees the same inputs, and
the same seed always gives the same inputs. The program only ever sees the
generated arguments.
"""

import math
import random
from dataclasses import dataclass

FERMAT_PRIMES = (3, 5, 17, 257, 65537)

# Checks per timed verify request: short enough for many latency samples,
# long enough that reading the CPU clock costs under 1% of a request.
VERIFY_BLOCK = 64


@dataclass(frozen=True)
class Sizes:
    sweep_x: int                 # density --x
    sweep_z: int                 # interval --z
    sweep_qmax: int              # bases drawn from [2, sweep_qmax]
    scan_window: int             # consecutive bases per scan request
    scan_lo: int                 # windows drawn from [scan_lo, scan_hi]
    scan_hi: int
    germain_band: tuple          # Germain primes drawn from this band,
    germain_s: tuple             # one per entry, with p - 1 = 2^s * r
    fermat_max: int              # Fermat primes up to this one
    psi_small_max: int           # psi at every u for every prime up to this
    psi_large_band: tuple        # one prime from this band per round
    psi_large_us: int            # bases u at that prime
    queries_per_round: int


FULL = Sizes(sweep_x=10**6, sweep_z=5 * 10**5, sweep_qmax=1000,
             scan_window=50_000, scan_lo=10**5, scan_hi=10**7,
             germain_band=(90_000, 100_000), germain_s=(1, 1, 1, 2, 3, 5),
             fermat_max=65537, psi_small_max=150,
             psi_large_band=(995_000, 1_005_000), psi_large_us=1,
             queries_per_round=300)

SMOKE = Sizes(sweep_x=20_000, sweep_z=10_000, sweep_qmax=1000,
              scan_window=300, scan_lo=10**5, scan_hi=10**7,
              germain_band=(1000, 2000), germain_s=(1, 2),
              fermat_max=257, psi_small_max=30,
              psi_large_band=(20_000, 30_000), psi_large_us=1,
              queries_per_round=22)

SCAN_CAP = 10**5

# Share of each request kind in a queries round; the refusals must exit 1.
# Requests that finish in about the parser's time are 64% of the mix, so the
# median lies inside that cluster; the two semiprime kinds (12%) hold p99.
QUERY_MIX = (
    ("is-primroot", 0.12),
    ("order-random", 0.12),
    ("order-semiprime", 0.06),
    ("lift", 0.06),
    ("germain-test", 0.16),
    ("fermat-test", 0.12),
    ("least-prime", 0.14),
    ("k2n", 0.12),
    ("refuse-composite-p", 0.04),
    ("refuse-nonunit-u", 0.03),
    ("refuse-square-q", 0.03),
)


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _nonsquare(rng, lo, hi):
    while True:
        q = rng.randrange(lo, hi)
        if math.isqrt(q) ** 2 != q:
            return q


def sweep_round(sizes, rng, oracle):
    q = _nonsquare(rng, 2, sizes.sweep_qmax + 1)
    return [{"q": q, "argv": [
        ["density", "--q", str(q), "--x", str(sizes.sweep_x)],
        ["interval", "--z", str(sizes.sweep_z), "--q", str(q)],
    ]}]


def scan_round(sizes, rng, oracle):
    windows = []
    for fmt in ("csv", "json"):
        lo = rng.randrange(sizes.scan_lo, sizes.scan_hi - sizes.scan_window)
        windows.append((lo, lo + sizes.scan_window - 1, fmt))
    return [{"windows": windows, "argv": [
        ["scan", "--qmin", str(lo), "--qmax", str(hi), "--threads", "1",
         "--format", fmt] for lo, hi, fmt in windows]}]


def germain_bases(p):
    """Eligible bases of the Germain test at p: 2..p-2, squares excluded."""
    return [q for q in range(2, p - 1) if math.isqrt(q) ** 2 != q]


def task_inputs(task):
    """The bases q, or the units u, that a verify task checks."""
    p = task["p"]
    if task["kind"] == "germain":
        return germain_bases(p)
    if task["kind"] == "fermat":
        return list(range(2, p))
    return task["us"] or list(range(1, p))


def _two_adic(m):
    return (m & -m).bit_length() - 1


def verify_round(sizes, rng, oracle):
    # The short test costs more as s grows, so every round draws the same
    # profile of s (the band's own mix, rounded) and only the primes vary.
    lo, hi = sizes.germain_band
    band = [int(p) for p in oracle.primes_upto(hi) if p >= lo and oracle.is_germain(int(p))]
    germain = sorted(rng.choice([p for p in band if _two_adic(p - 1) == s])
                     for s in sizes.germain_s)
    tasks = [{"kind": "germain", "p": p} for p in germain]
    tasks += [{"kind": "fermat", "p": f} for f in FERMAT_PRIMES if f <= sizes.fermat_max]
    tasks += [{"kind": "psi", "p": int(p), "us": None, "literal": True}
              for p in oracle.primes_upto(sizes.psi_small_max)]
    lo, hi = sizes.psi_large_band
    big = oracle.primes_upto(hi)
    p = int(rng.choice(big[big >= lo]))
    tasks.append({"kind": "psi", "p": p, "literal": False,
                  "us": sorted(rng.sample(range(2, p - 1), sizes.psi_large_us))})
    return tasks


def _prime_bits(rng, bits):
    from sympy import nextprime

    return int(nextprime(rng.getrandbits(bits) | (1 << (bits - 1))))


def _semiprime(rng):
    p1 = _prime_bits(rng, 31)
    p2 = p1
    while p2 == p1:
        p2 = _prime_bits(rng, 31)
    return sorted((p1, p2))


def _unit(rng, n):
    while True:
        u = rng.randrange(2, n - 1)
        if math.gcd(u, n) == 1:
            return u


def _query(kind, rng):
    from sympy import isprime, nextprime

    if kind == "is-primroot":
        p = _prime_bits(rng, 62)
        args = {"u": rng.randrange(2, p - 1), "p": p}
        argv = ["is-primroot", "--u", str(args["u"]), "--p", str(p)]
    elif kind == "order-random":
        n = rng.randrange(2**62, 2**63 - 1)
        args = {"u": _unit(rng, n), "n": n}
        argv = ["order", "--u", str(args["u"]), "--n", str(n)]
    elif kind in ("order-semiprime", "lift"):
        primes = _semiprime(rng)
        n = primes[0] * primes[1]
        while True:
            u = _unit(rng, n)
            if math.isqrt(u) ** 2 != u:
                break
        args = {"u": u, "n": n, "primes": primes}
        argv = ["order" if kind == "order-semiprime" else "lift", "--u", str(u), "--n", str(n)]
    elif kind == "germain-test":
        s = rng.randrange(1, 17)
        r = _prime_bits(rng, 30)
        while not isprime((r << s) + 1):
            r = int(nextprime(r))
        p = (r << s) + 1
        args = {"q": _nonsquare(rng, 2, 10**6), "p": p}
        argv = ["germain-test", "--q", str(args["q"]), "--p", str(p)]
    elif kind == "fermat-test":
        f = rng.choice(FERMAT_PRIMES)
        q = rng.randrange(2, 10**9)
        while q % f == 0:
            q += 1
        args = {"q": q, "f": f}
        argv = ["fermat-test", "--q", str(q), "--f", str(f)]
    elif kind == "least-prime":
        args = {"q": _nonsquare(rng, 2, 10**7), "cap": SCAN_CAP}
        argv = ["least-prime", "--q", str(args["q"])]
    elif kind == "k2n":
        args = {"k": int(nextprime(rng.randrange(3, 10**4))), "nmax": rng.randrange(20, 70)}
        argv = ["k2n", "--k", str(args["k"]), "--nmax", str(args["nmax"])]
    elif kind == "refuse-composite-p":
        p1, p2 = _semiprime(rng)
        argv = ["is-primroot", "--u", "3", "--p", str(p1 * p2)]
        args = {}
    elif kind == "refuse-nonunit-u":
        p1, p2 = _semiprime(rng)
        argv = ["order", "--u", str(p1 * rng.randrange(1, p2)), "--n", str(p1 * p2)]
        args = {}
    elif kind == "refuse-square-q":
        argv = ["least-prime", "--q", str(rng.randrange(2, 3000) ** 2)]
        args = {}
    else:
        raise ValueError(kind)
    return {"kind": kind, "args": args, "argv": [argv]}


def queries_round(sizes, rng, oracle):
    kinds = []
    for kind, share in QUERY_MIX:
        kinds += [kind] * max(1, round(share * sizes.queries_per_round))
    rng.shuffle(kinds)
    return [_query(kind, rng) for kind in kinds]


ROUNDS = {
    "sweep": sweep_round,
    "scan": scan_round,
    "verify": verify_round,
    "queries": queries_round,
}

# Wall seconds of one untraced round at FULL sizes, probes included, on the
# 2-core x86 host the bounds were set on. The traced run replays
# seconds / (2 * this) rounds, so its length and its counts are fixed by
# --seconds alone.
ROUND_SECONDS = {"sweep": 5.0, "scan": 2.8, "verify": 7.0, "queries": 4.0}


def make_round(workload, seed, index, sizes, oracle):
    return ROUNDS[workload](sizes, _rng(workload, seed, index), oracle)


def trace_rounds(workload, seconds):
    return max(1, round(seconds / (2 * ROUND_SECONDS[workload])))
