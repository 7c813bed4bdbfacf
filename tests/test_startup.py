"""What a fresh process loads, and what its first calls answer.

Only ``charsum`` imports numpy at the top; every other module imports it
inside the functions that build arrays. So ``import primroots``,
``import primroots.cli`` and the scalar subcommands load neither numpy nor
``concurrent.futures`` (which ``conjecture_scan`` imports for its workers),
and the array functions give the same bits whether they run cold, as the
first call of a fresh process with no prime table, or warm.
"""

import json
import pickle
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest

import primroots
from primroots import arith, artin, charsum, factorize, primroot, special_primes

SCALAR_COMMANDS = ("order", "is-primroot", "lift", "germain-test", "fermat-test", "k2n",
                   "least-prime")
NOT_LOADED = ("numpy", "numpy.polynomial", "concurrent.futures", "logging")

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())

# Reads golden cases from stdin, runs each through cli.run and prints, as one
# JSON object, which of NOT_LOADED are loaded before and after charsum.
_STARTUP_CHILD = """import contextlib, io, json, sys
import primroots
import primroots.cli
answers = []
for case in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        answers.append([primroots.cli.run(case["argv"]), out.getvalue()])
names = sys.argv[1:]
before = [m for m in names if m in sys.modules]
import primroots.charsum
after = [m for m in names if m in sys.modules]
print(json.dumps({"answers": answers, "before": before, "after": after}))
"""

# Evaluates one call in a fresh process, checks that nothing loaded numpy
# before it, and writes the pickled result to stdout.
_COLD_CHILD = """import pickle, sys
import primroots
from primroots import arith, artin, factorize, primroot, special_primes
assert "numpy" not in sys.modules and factorize._spf is None
sys.stdout.buffer.write(pickle.dumps(eval(sys.argv[1])))
"""


def test_scalar_commands_load_no_numpy_and_charsum_does(fresh_python):
    cases = [c for c in GOLDEN if c["argv"][0] in SCALAR_COMMANDS]
    assert {c["argv"][0] for c in cases} == set(SCALAR_COMMANDS)
    done = json.loads(fresh_python("-c", _STARTUP_CHILD, *NOT_LOADED,
                                   input=json.dumps(cases).encode()).stdout)
    assert done["answers"] == [[c["exit"], c["stdout"]] for c in cases]
    assert done["before"] == []
    assert "numpy" in done["after"]  # charsum pays for numpy at its import


def test_python_m_primroots_runs_the_cli_and_import_does_not(fresh_python):
    case = next(c for c in GOLDEN if c["argv"][0] == "density" and c["exit"] == 0)
    assert fresh_python("-m", "primroots", *case["argv"], text=True).stdout == case["stdout"]
    fresh_python("-c", "import sys, primroots, primroots.cli\n"
                       "assert 'primroots.__main__' not in sys.modules")


def _bits(value):
    """A value with every float and array spelled out exactly."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    assert is_dataclass(value) or isinstance(value, float), type(value)
    return repr(value)


_VALUES = "[1, 2, 12, 97, 720720, 10**6]"
_ODD = "factorize.primes_upto(10**3)[1:]"


@pytest.mark.parametrize("call", [
    "factorize.primes_upto(2)",
    "factorize.distinct_prime_factors([])",
    f"factorize.totients({_VALUES}, factorize.distinct_prime_factors({_VALUES}))",
    "special_primes.germain_forms(10)",
    f"primroot.primitive_root_mask(3, {_ODD}, factorize.distinct_prime_factors({_ODD} - 1))",
    "artin.artin_constant(10**4)",
    "artin.prime_counts(2, 10**4)",
    "arith.log_integral(10**6)",
    "primroots.psi_divisor_free(2, 101)",
], ids=["primes_upto", "distinct_prime_factors", "totients", "germain_forms",
        "primitive_root_mask", "artin_constant", "prime_counts", "log_integral",
        "psi_divisor_free"])
def test_array_functions_answer_the_same_cold_and_warm(call, fresh_python):
    cold = pickle.loads(fresh_python("-c", _COLD_CHILD, call).stdout)
    warm = eval(call, {"primroots": primroots, "arith": arith, "artin": artin,
                       "factorize": factorize, "primroot": primroot,
                       "special_primes": special_primes})
    assert _bits(cold) == _bits(warm)


def test_package_lists_the_charsum_names():
    names = {"IntervalDecomposition", "PsiEvaluation", "decompose_interval",
             "psi_divisor_dependent", "psi_divisor_free"}
    assert names <= set(dir(primroots)) and names <= set(primroots.__all__)
    assert primroots.psi_divisor_free is charsum.psi_divisor_free
    with pytest.raises(AttributeError, match="no_such_name"):
        primroots.no_such_name
