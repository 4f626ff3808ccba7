"""Every cache in the package is bounded: a long sweep cannot grow memory
without limit through a memo table."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import permtwist


def _lru_wrappers():
    """(qualified name, wrapper) of every functools cache wrapper held by a
    permtwist module, at module level or in a class the module defines."""
    for info in pkgutil.iter_modules(permtwist.__path__):
        mod = importlib.import_module(f"permtwist.{info.name}")
        for name, obj in vars(mod).items():
            found = [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found += [(f"{name}.{attr}", val) for attr, val in vars(obj).items()]
            for qual, f in found:
                f = getattr(f, "__func__", f)  # staticmethod, classmethod
                if hasattr(f, "cache_parameters"):
                    yield f"{mod.__name__}.{qual}", f


def test_every_lru_cache_has_a_finite_maxsize():
    wrappers = dict(_lru_wrappers())
    for name in ("permtwist.fermion._mode_single", "permtwist.fermion._mode_tensor",
                 "permtwist.twistor._dress_key"):
        assert name in wrappers
    unbounded = [name for name, f in wrappers.items() if f.cache_parameters()["maxsize"] is None]
    assert not unbounded
