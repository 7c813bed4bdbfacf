"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py SPEC.json RESULT.jsonl   # run the round in SPEC
    python3 bench/worker.py --setup                  # only report set-up

Set-up is the time from interpreter start until ``primroots.cli`` is imported
and its parser built: what a fresh ``primroots`` process pays before it can
answer. Requests are then timed one by one around the calls into the library
or ``cli.run``, in CPU seconds of this process and its reaped children, with
the probes of ``clock.py`` taken out; the parent normalises them. Outputs are
written to RESULT after each request, outside the timed region, and checked
by the parent.
"""

import time
from array import array

import clock

_probes = array("d")
clock.start_probes(_probes)

import primroots.cli  # noqa: E402

primroots.cli.build_parser()
SETUP_S = clock.normalise(time.thread_time() - sum(_probes), 0, len(_probes), _probes)

import base64  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from primroots import charsum, cli, primroot, special_primes  # noqa: E402

import workloads  # noqa: E402


def cpu():
    """CPU seconds of this (single-threaded) process and its reaped children.

    The thread clock, because while a CPU-time itimer is armed the process
    clock can advance only at scheduler ticks.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


class Regions:
    """Timed regions: CPU work without probes, and the probes around each."""

    def __init__(self):
        self.work, self.first, self.last = array("d"), array("i"), array("i")
        self.wall = 0.0

    def __enter__(self):
        self._probes, self._wall, self._cpu = len(_probes), time.perf_counter(), cpu()
        return self

    def __exit__(self, *exc):
        spent = cpu() - self._cpu
        self.wall += time.perf_counter() - self._wall
        last = len(_probes)
        self.work.append(spent - sum(_probes[self._probes:last]))
        self.first.append(self._probes)
        self.last.append(last)

    def result(self):
        return {"work": _b64(self.work), "first": _b64(self.first), "last": _b64(self.last)}


def _b64(data):
    return base64.b64encode(bytes(data)).decode("ascii")


def run_cli(request):
    """Every argv of the request through cli.run, one timed region each."""
    outputs, timed = [], Regions()
    for argv in request["argv"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with timed:
                rc = cli.run(argv)
        outputs.append([rc, out.getvalue()])
    return timed, {"cli": outputs}


def _verify_check(task):
    """A function giving the two answers a verify task compares, per input."""
    p, kind = task["p"], task["kind"]
    generic = primroot.is_primitive_root_prime
    if kind == "germain":
        form = special_primes.germain_decompose(p)
        short = special_primes.germain_primitive_root_test
        return (lambda q: (short(q, form), generic(q, p))), {"s": form.s, "r": form.r}
    if kind == "fermat":
        short = special_primes.fermat_primitive_root_test
        return (lambda q: (short(q, p), generic(q, p))), {}
    dependent, free, literal = charsum.psi_divisor_dependent, charsum.psi_divisor_free, task["literal"]
    return (lambda u: (dependent(u, p).value, free(u, p, literal=literal).value)), {}


def run_verify(task):
    """One verify task, timed in blocks of checks; a block is a request."""
    check, result = _verify_check(task)
    inputs = workloads.task_inputs(task)
    bits, timed = bytearray(), Regions()
    for lo in range(0, len(inputs), workloads.VERIFY_BLOCK):
        block = inputs[lo : lo + workloads.VERIFY_BLOCK]
        with timed:
            answers = [check(x) for x in block]
        for a, b in answers:
            bits += bytes((a, b))
    result["bits"] = _b64(bits)
    return timed, result


def main(spec_path, result_path):
    with open(spec_path) as f:
        spec = json.load(f)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(primroots.__file__).startswith(src + os.sep):
        sys.exit(f"primroots was imported from {primroots.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = run_verify if spec["workload"] == "verify" else run_cli
    wall_busy = 0.0
    with open(result_path, "w") as out:
        for i, request in enumerate(spec["requests"]):
            if tracer:
                tracer.request_id = i
            timed, result = runner(request)
            wall_busy += timed.wall
            result.update(timed.result())
            out.write(json.dumps(result) + "\n")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        trailer = {"setup_s": SETUP_S, "peak_rss_kb": peak_kb, "wall_busy_s": wall_busy}
        if tracer:
            trailer["layers"] = tracer.summary(spec.get("spans"))
        trailer["probes"] = _b64(_probes)
        out.write(json.dumps(trailer) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup"]:
        print(json.dumps({"setup_s": SETUP_S}))
    else:
        main(*sys.argv[1:])
