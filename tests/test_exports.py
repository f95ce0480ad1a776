from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import defaultdict

import pytest

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


def test_public_names_resolve_to_their_home_objects():
    """Each lazily resolved name is the object its defining module holds."""
    assert len(set(walktimes.__all__)) == len(walktimes.__all__) == 54
    for name in walktimes.__all__:
        obj = getattr(walktimes, name)
        if inspect.ismodule(obj):
            assert obj is importlib.import_module(f"walktimes.{name}")
        else:
            assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_and_dir_see_every_public_name():
    namespace: dict = {}
    exec("from walktimes import *", namespace)
    for name in walktimes.__all__:
        assert namespace[name] is getattr(walktimes, name)
    assert set(walktimes.__all__) <= set(dir(walktimes))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        walktimes.no_such_name  # noqa: B018
    assert not hasattr(walktimes, "no_such_name")
