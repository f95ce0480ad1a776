from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import defaultdict

import walktimes
from walktimes import montecarlo, secondorder


def test_one_public_name_per_object():
    """No object is exported under two different names."""
    mods = [walktimes] + [importlib.import_module(f"walktimes.{info.name}")
                          for info in pkgutil.iter_modules(walktimes.__path__)]
    exports = defaultdict(list)
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            exports[id(getattr(mod, name))].append((name, mod.__name__))
    twice = [sorted(found) for found in exports.values()
             if len({name for name, _ in found}) > 1]
    assert twice == []


def test_walk_passed_once():
    """Node-level functions take the pullback alone: it already holds the chain."""
    both = [f"{mod.__name__}.{name}" for mod in (secondorder, montecarlo)
            for name in mod.__all__
            if inspect.isfunction(getattr(mod, name))
            and {"chain", "pdata"} <= set(inspect.signature(getattr(mod, name)).parameters)]
    assert both == []
