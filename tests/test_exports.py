from __future__ import annotations

import importlib
import pkgutil
from collections import defaultdict

import walktimes


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
