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


def test_no_tol_parameter_and_no_bound_bound_at_import():
    """Every check reads ``config.TOL`` when it runs: no function, class
    or method takes a ``tol``, and no module but ``config`` binds ``TOL``."""
    mods = [importlib.import_module(f"walktimes.{info.name}")
            for info in pkgutil.iter_modules(walktimes.__path__)]
    takes_tol = []
    for mod in mods:
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            funcs = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                funcs = [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                         if inspect.isfunction(f)]
            takes_tol += [f"{mod.__name__}.{label}" for label, f in funcs
                          if "tol" in inspect.signature(f).parameters]
        if mod.__name__ != "walktimes.config":
            assert not {"TOL", "Tolerances"} & set(vars(mod)), mod.__name__
    assert takes_tol == []


def test_no_density_parameter():
    """A chain's invariant density is supplied only through
    ``Chain(..., density=)``: no public callable takes a ``pi`` or ``pihat``."""
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", script)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    funcs = [obj.__init__ if inspect.isclass(obj) else obj
             for obj in code_lines.public_objects(walktimes) if callable(obj)]
    takes_density = [f.__qualname__ for f in funcs
                     if {"pi", "pihat"} & set(inspect.signature(f).parameters)]
    assert takes_density == []
