"""The primroots benchmark.

    python3 bench/run.py --workload {sweep,scan,verify,queries} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout: the program under test is ``src/primroots``
there, and nothing else is imported as ``primroots``. One client in one
process at a time (a closed loop, no threads): the run is a sequence of
rounds, each in a fresh worker interpreter, started until the requests have
kept the program busy for S seconds. Every answer is then checked against
``oracle.py``, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays a fixed
number of rounds twice, untraced and traced, and prints the per-layer
metrics and the tracing overhead. ``--smoke`` shrinks every input so a run
takes seconds (the benchmark's own tests use it). The last line of stdout is
one JSON object: correct, attempted, failed, metrics. A run record with the
machine, versions, sizes and counts goes to ``.bench_out/``.
"""

import argparse
import base64
import dataclasses
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array

import numpy as np

import clock
import oracle as oracles
import workloads
from tracer import metric_names, metric_unit

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_PROBES = 3
WALL_LIMIT = 110      # seconds; no round starts later than this
WORKER_TIMEOUT = 170  # seconds; a worker still running then is killed

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("request_p50_ms", "ms"), ("request_p99_ms", "ms"))


@dataclasses.dataclass
class Round:
    requests: list
    results: list      # per request: outputs, "lat" and "calls" in normalised seconds
    setup_s: float
    peak_rss_kb: int
    wall_busy_s: float
    layers: dict


class Bench:
    """Runs rounds of one workload in worker processes and checks them."""

    def __init__(self, root, workload, seed, sizes):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.oracle = oracles.Oracle()
        self.out = os.path.join(root, OUT_DIR)
        os.makedirs(os.path.join(self.out, "spans"), exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(PYTHONPATH=self.src, OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def make_round(self, index):
        return workloads.make_round(self.workload, self.seed, index, self.sizes, self.oracle)

    def _python(self, args, **kwargs):
        return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              cwd=self.root, env=self.env, check=True,
                              timeout=WORKER_TIMEOUT, **kwargs)

    def setup_probe(self):
        done = self._python(["--setup"], capture_output=True, text=True)
        return json.loads(done.stdout)["setup_s"]

    def run_round(self, requests, index, trace=False):
        tag = f"{self.workload}-{os.getpid()}-{index}-{int(trace)}"
        spec_path = os.path.join(self.out, f"{tag}.spec.json")
        result_path = os.path.join(self.out, f"{tag}.result.jsonl")
        spec = {"workload": self.workload, "src": self.src, "trace": trace,
                "requests": requests}
        if trace:
            spec["spans"] = os.path.join(self.out, "spans", f"{self.workload}-round{index}.npz")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        try:
            self._python([spec_path, result_path])
            with open(result_path) as f:
                lines = [json.loads(line) for line in f]
        finally:
            for path in (spec_path, result_path):
                if os.path.exists(path):
                    os.remove(path)
        results, trailer = lines[:-1], lines[-1]
        probes = array("d", base64.b64decode(trailer["probes"]))
        for r in results:
            work, first, last = (array(code, base64.b64decode(r.pop(key))) for code, key
                                 in (("d", "work"), ("i", "first"), ("i", "last")))
            seconds = [clock.normalise(*region, probes) for region in zip(work, first, last)]
            # A verify block is a request; a CLI request is the sum of its calls.
            r["lat"] = seconds if self.workload == "verify" else [sum(seconds)]
            r["calls"] = seconds
        return Round(requests, results, trailer["setup_s"], trailer["peak_rss_kb"],
                     trailer["wall_busy_s"], trailer.get("layers", {}))

    # ---------------------------------------------------------- checking

    def judge(self, request, result):
        """Check one request.

        Returns a wrong-flag per latency sample, and (kind, normalised
        seconds, items) for each separately timed call of the request.
        """
        o, s = self.oracle, self.sizes
        if self.workload == "verify":
            inputs = workloads.task_inputs(request)
            out = dict(result, bits=base64.b64decode(result["bits"]))
            wrong = oracles.check_verify_task(o, request, inputs, out)
            block = workloads.VERIFY_BLOCK
            kind = request["kind"] + ("-literal" if request.get("literal") else "")
            starts = range(0, len(wrong), block)
            return ([any(wrong[i : i + block]) for i in starts],
                    [(kind, t, len(wrong[i : i + block])) for i, t in zip(starts, result["lat"])])
        outputs, calls = result["cli"], result["calls"]
        if self.workload == "sweep":
            density, interval = oracles.sweep_items(o, s.sweep_x, s.sweep_z)
            units = [("density", calls[0], density), ("interval", calls[1], interval)]
        elif self.workload == "scan":
            units = [(fmt, t, hi - lo + 1 - (math.isqrt(hi) - math.isqrt(lo - 1)))
                     for t, (lo, hi, fmt) in zip(calls, request["windows"])]
        else:
            units = [(request["kind"], calls[0], 1)]
        try:
            ok = self._cli_ok(request, outputs)
        except (ValueError, IndexError, KeyError, TypeError):
            ok = False  # output the oracle cannot even parse is a wrong answer
        return [not ok], units

    def _cli_ok(self, request, outputs):
        o, s = self.oracle, self.sizes
        if self.workload == "sweep":
            q = request["q"]
            return (all(rc == 0 for rc, _ in outputs)
                    and oracles.check_density(o, outputs[0][1], q, s.sweep_x)
                    and oracles.check_interval(o, outputs[1][1], s.sweep_z, q))
        if self.workload == "scan":
            return all(rc == 0 and oracles.check_scan(o, text, fmt, lo, hi, workloads.SCAN_CAP)
                       for (rc, text), (lo, hi, fmt) in zip(outputs, request["windows"]))
        return [tuple(x) for x in outputs] == [oracles.query_expected(o, request)]

    def check_round(self, rnd):
        """(latency samples, failures, timed calls) of a round."""
        attempted = failed = 0
        units = []
        for request, result in zip(rnd.requests, rnd.results):
            wrong, done = self.judge(request, result)
            attempted += len(wrong)
            failed += sum(wrong)
            units += done
        return attempted, failed, units


def items_per_s(units):
    """Items per normalised second, each kind of call at its median cost per item.

    A median per kind, not one total, so that a few unlucky inputs, such as
    a slow Pollard rho, do not move the figure.
    """
    by_kind = {}
    for kind, seconds, items in units:
        by_kind.setdefault(kind, []).append((seconds / items, items))
    items = sum(n for calls in by_kind.values() for _, n in calls)
    busy = sum(statistics.median(c for c, _ in calls) * sum(n for _, n in calls)
               for calls in by_kind.values())
    return items / busy


def _median(values):
    return float(statistics.median(values))


def end_to_end(bench, seconds):
    """Time-bounded untraced rounds; returns (attempted, failed, metrics, info)."""
    bench.setup_probe()  # warm-up: compiles bytecode, fills the file cache
    setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    rounds, wall, started = [], 0.0, time.monotonic()
    # Stop at the round count whose wall-clock busy time lands nearest to the
    # budget, so a run on a contended host does not last longer.
    while not rounds or (wall * (1 + 0.5 / len(rounds)) < seconds
                         and time.monotonic() - started < WALL_LIMIT):
        rnd = bench.run_round(bench.make_round(len(rounds)), len(rounds))
        rounds.append(rnd)
        wall += rnd.wall_busy_s
    busy = sum(sum(r["lat"]) for rnd in rounds for r in rnd.results)
    attempted = failed = 0
    units = []
    for rnd in rounds:
        a, f, u = bench.check_round(rnd)
        attempted, failed, units = attempted + a, failed + f, units + u
    items = sum(n for _, _, n in units)
    lat_ms = np.array([x for rnd in rounds for r in rnd.results for x in r["lat"]]) * 1e3
    p50, p99 = np.percentile(lat_ms, [50, 99])
    setups += [rnd.setup_s for rnd in rounds]
    metrics = {
        "setup_s": _median(setups),
        "items_per_s": items_per_s(units),
        "peak_rss_mb": _median([rnd.peak_rss_kb for rnd in rounds]) / 1024,
        "request_p50_ms": float(p50),
        "request_p99_ms": float(p99),
    }
    info = {"rounds": len(rounds), "busy_s": busy, "items": items,
            "round_busy_s": [sum(sum(r["lat"]) for r in rnd.results) for rnd in rounds],
            "round_busy_wall_s": [rnd.wall_busy_s for rnd in rounds],
            "latency_samples": len(lat_ms), "setup_samples": len(setups),
            "requests": [r for rnd in rounds for r in rnd.requests]}
    return attempted, failed, {k: (metrics[k], u) for k, u in END_TO_END}, info


def per_layer(bench, seconds):
    """The same rounds untraced then traced; per-layer totals and overhead."""
    rounds = workloads.trace_rounds(bench.workload, seconds)
    attempted = failed = items = 0
    plain_busy = traced_busy = 0.0
    totals = {}
    for index in range(rounds):
        requests = bench.make_round(index)
        plain = bench.run_round(requests, index)
        traced = bench.run_round(requests, index, trace=True)
        a, f, units = bench.check_round(plain)
        attempted, failed, items = attempted + a, failed + f, items + sum(n for _, _, n in units)
        for p, t in zip(plain.results, traced.results):
            same = all(p[k] == t[k] for k in p if k not in ("lat", "calls"))
            failed += 0 if same else len(p["lat"])
            plain_busy += sum(p["lat"])
            traced_busy += sum(t["lat"])
        for k, v in traced.layers.items():
            totals[k] = totals.get(k, 0) + v
    metrics = {}
    for name in metric_names():
        if name == "trace.overhead_frac":
            value = traced_busy / plain_busy - 1
        elif name.endswith(".hit_ratio"):
            label = name[: -len(".hit_ratio")]
            hits, misses = totals.get(f"{label}.cache_hits", 0), totals.get(f"{label}.cache_misses", 0)
            value = hits / (hits + misses) if hits + misses else 0.0
        elif name.endswith(".true_ratio"):
            label = name[: -len(".true_ratio")]
            calls = totals.get(f"{label}.calls", 0)
            value = totals.get(f"{label}.true_hits", 0) / calls if calls else 0.0
        else:
            value = totals.get(name, 0)
        metrics[name] = (value, metric_unit(name))
    info = {"rounds": rounds, "items": items, "plain_busy_s": plain_busy,
            "traced_busy_s": traced_busy}
    return attempted, failed, metrics, info


# ------------------------------------------------------------- run record

def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def run_record(root, args, sizes):
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "primroots")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level, kind = _read(f"{base}/{index}/level"), _read(f"{base}/{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": dataclasses.asdict(sizes),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "primroots", "__init__.py")):
        print("error: run from the root of a primroots checkout "
              "(src/primroots is missing)", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    bench = Bench(root, args.workload, args.seed, sizes)
    try:
        attempted, failed, metrics, info = (per_layer if args.trace else end_to_end)(
            bench, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: a worker failed: {exc}", file=sys.stderr)
        return 1

    record = run_record(root, args, sizes)
    record.update(info, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    path = os.path.join(root, OUT_DIR, f"record-{args.workload}-seed{args.seed}"
                                       f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {info['rounds']} rounds, "
          f"{attempted} requests, {info['items']} items, "
          f"failed_frac={failed / attempted:.6g} ({failed}/{attempted})")
    if not args.trace:
        print(f"  latency samples: {info['latency_samples']}, "
              f"set-up samples: {info['setup_samples']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  run record: {os.path.relpath(path, root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
