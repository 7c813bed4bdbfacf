"""Tests of the benchmark itself, at smoke size: python3 -m pytest bench"""

import base64
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer counts that must be nonzero on each workload; several are reached
# only through a binding copied by ``from .x import f`` into another module.
REACHED = {
    "sweep": ("artin.prime_counts.calls", "charsum.decompose_interval.calls",
              "primroot.multiplicative_order.calls", "arith.log_integral.calls",
              "special_primes.sieve_primes.calls", "factorize.factor.calls"),
    "scan": ("artin.conjecture_scan.calls", "artin.least_prime_with_primitive_root.calls",
             "primroot.is_primitive_root_prime.calls", "special_primes.germain_decompose.calls",
             "arith.check_natural.calls", "cli.emit.bytes"),
    "verify": ("special_primes.germain_primitive_root_test.calls",
               "special_primes.fermat_primitive_root_test.calls", "arith.jacobi.calls",
               "charsum.psi_divisor_dependent.calls", "charsum.psi_divisor_free.calls",
               "primroot.least_primitive_root.calls"),
    "queries": ("primroot.lift_primitive_root.calls", "factorize.is_prime.calls",
                "cli.parse.calls", "cli.execute.calls"),
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert sorted(WORKLOADS) == sorted(workloads.ROUNDS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(name, tracer.metric_unit(name)) for name in tracer.metric_names()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert "failed_frac=0 " in done.stdout
    if trace:
        for name in REACHED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _flip_bool(text):
    return text.replace("true", "@").replace("false", "true").replace("@", "false")


def _wrong_answer(workload, result):
    """Make a finished request's answer wrong, in place."""
    if workload == "verify":
        bits = bytearray(base64.b64decode(result["bits"]))
        bits[0] ^= 1
        result["bits"] = base64.b64encode(bytes(bits)).decode()
        return
    text = result["cli"][0][1]
    if workload == "sweep":       # pi_q_x of the density row, off by one
        head, row = text.splitlines()
        cells = row.split(",")
        cells[3] = str(int(cells[3]) + 1)
        result["cli"][0][1] = f"{head}\n{','.join(cells)}\n"
    else:
        result["cli"][0][1] = _flip_bool(text)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_answer_raises_failed_frac(workload):
    b = run.Bench(ROOT, workload, 5, workloads.SMOKE)
    rnd = b.run_round(b.make_round(0), 0)
    attempted, failed, _ = b.check_round(rnd)
    assert failed == 0
    index = 0
    if workload == "queries":
        index = next(i for i, r in enumerate(rnd.requests) if r["kind"] == "is-primroot")
    _wrong_answer(workload, rnd.results[index])
    attempted, failed, _ = b.check_round(rnd)
    assert failed / attempted > 0


def test_oracle_matches_pinned_constants():
    o = oracle.Oracle()
    primes = o.primes_upto(10**6)
    assert len(primes) == oracle.PI_1E6
    assert int(o.primroot_over_primes(2, primes[primes >= 3]).sum()) == oracle.PI2_1E6
    p = primes.astype(float)
    assert abs(float((1 - 1 / (p * (p - 1))).prod()) - oracle.ARTIN_A1) < 1e-6


def test_inputs_follow_the_seed():
    o = oracle.Oracle()
    for w in WORKLOADS:
        first = workloads.make_round(w, 11, 0, workloads.SMOKE, o)
        assert first == workloads.make_round(w, 11, 0, workloads.SMOKE, o)
        assert first != workloads.make_round(w, 12, 0, workloads.SMOKE, o)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
