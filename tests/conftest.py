"""Fixtures shared by the test modules."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import primroots


@pytest.fixture(scope="session")
def package_caches():
    """Every lru cache in the package: each callable with ``cache_info`` found
    in a ``primroots`` module, once however many modules import it."""
    caches = {}
    for info in pkgutil.iter_modules(primroots.__path__):
        module = importlib.import_module(f"primroots.{info.name}")
        for value in vars(module).values():
            if callable(value) and hasattr(value, "cache_info"):
                caches[id(value)] = value
    return tuple(caches.values())


@pytest.fixture(scope="session")
def fresh_python():
    """A function running sys.executable with the given arguments in a fresh
    process, with this checkout's primroots first on the path; it returns
    the finished process and raises if the exit code is not 0."""
    src = os.path.dirname(os.path.dirname(primroots.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*args, **kwargs):
        return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                              check=True, **kwargs)
    return run


# Runs one CLI argv and prints the process's own /proc/self/status to stderr.
_CLI_CHILD = """import sys
from primroots.cli import run
code = run(sys.argv[1:])
print(open("/proc/self/status").read(), file=sys.stderr)
sys.exit(code)
"""


@pytest.fixture(scope="session")
def cli_peak(fresh_python):
    """A function running one CLI argv in a fresh process; it returns the
    stdout and the process's own peak resident size (VmHWM) in kB. Skips
    where /proc/self/status does not exist."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the process's own peak is read from /proc/self/status")

    def run(*argv):
        done = fresh_python("-c", _CLI_CHILD, *argv, text=True)
        return done.stdout, int(re.search(r"VmHWM:\s*(\d+) kB", done.stderr).group(1))
    return run
