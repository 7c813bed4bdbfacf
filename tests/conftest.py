"""Fixtures shared by the test modules."""

import importlib
import os
import pkgutil
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
