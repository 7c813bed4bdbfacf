"""Fixtures shared by the test modules."""

import importlib
import pkgutil

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
