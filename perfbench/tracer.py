"""Spans around every call into the walktimes modules, installed from outside.

`Tracer.install` wraps each module's public functions, plus the two
private solver paths whose outcome matters (`_direct_solve`,
`_iterate_affine`) and the `splu` factorization `_solvers` calls. A
function is replaced at every module attribute that holds it, because
`from .x import f` copies the binding into the importing module and
callers look it up there. `Tracer.uninstall` puts every original back.

Spans are kept in memory as plain lists and written out by the caller;
`layer_metrics` turns one operation's spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

MODULES = ("graph", "chains", "_solvers", "firstorder", "secondorder",
           "pullback", "montecarlo", "io", "cli")
PRIVATE = {"_solvers": ("_direct_solve", "_iterate_affine")}
CHAIN_CONSTRUCTORS = ("uniform_node_chain", "uniform_edge_chain",
                  "nonbacktracking_edge_chain", "downweighted_edge_chain",
                  "edge_chain_from_tensor")
GRAPH_TIMES = {"graph.read_graph": "graph.read_s", "graph.strip_leaves": "graph.strip_s",
               "graph.line_graph": "graph.line_graph_s", "graph.diameter": "graph.diameter_s"}

# span fields, in the order a span is stored
ID, NAME, START, END, PARENT, ATTRS, OP = range(7)


class Tracer:
    """Records nested spans for one operation of one process."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter_ns(), None, parent, {}, self.op_id]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span: list):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, func, name: str, after=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                # outside the timed interval
                after(span[ATTRS], args, kwargs, result)
            return result
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced function at every walktimes attribute holding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"walktimes.{m}") for m in MODULES}
        after = _annotations(mods["montecarlo"])
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(short, ()):
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{short}.{name}",
                                               after.get(f"{short}.{name}"))
        splu = mods["_solvers"].splu
        wrappers[id(splu)] = self._wrap(splu, "_solvers.splu", _after_splu)
        for mod in _walktimes_modules():
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()


def _walktimes_modules() -> list[types.ModuleType]:
    return [m for k, m in sorted(sys.modules.items())
            if (k == "walktimes" or k.startswith("walktimes.")) and m is not None]


def snapshot() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every loaded walktimes module."""
    return {(mod.__name__, name): id(obj)
            for mod in _walktimes_modules() for name, obj in vars(mod).items()}


# -- per-call annotations, read after the span has closed ---------------


def _after_splu(attrs, args, kwargs, lu):
    attrs["fill"] = int(lu.L.nnz + lu.U.nnz)


def _after_direct(attrs, args, kwargs, x):
    attrs["rejected"] = x is None


def _after_walk(func):
    sig = inspect.signature(func)

    def after(attrs, args, kwargs, stats):
        if not hasattr(stats, "censored"):
            return
        cap = sig.bind(*args, **kwargs)
        cap.apply_defaults()
        steps = stats.censored * cap.arguments["cap"]
        if stats.trials and stats.mean == stats.mean:
            steps += stats.mean * stats.trials
        attrs["walk_steps"] = float(steps)
        attrs["censored"] = int(stats.censored)
    return after


def _annotations(montecarlo) -> dict:
    after = {"_solvers._direct_solve": _after_direct}
    for name in ("simulate_so_hitting", "simulate_so_return", "simulate_fo_hitting"):
        after[f"montecarlo.{name}"] = _after_walk(getattr(montecarlo, name))
    return after


# -- aggregation ----------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _outermost(spans, names) -> list[list]:
    """Spans named in `names` with no ancestor also named in `names`."""
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals for one operation's spans (times in seconds)."""
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for s, t in zip(spans, own):
        add(s[NAME].split(".", 1)[0] + ".self_s", t / 1e9)
    # expected_steps may run reach_probabilities first; count that as reach time
    nested_reach = [0] * len(spans)
    for s in spans:
        if s[NAME] == "_solvers.reach_probabilities" and s[PARENT] is not None:
            nested_reach[s[PARENT]] += dur[s[ID]]
    for s in spans:
        name, attrs = s[NAME], s[ATTRS]
        if name == "_solvers.expected_steps":
            add("solvers.steps_s", (dur[s[ID]] - nested_reach[s[ID]]) / 1e9)
            add("solvers.steps_calls", 1)
        elif name == "_solvers.reach_probabilities":
            add("solvers.reach_s", dur[s[ID]] / 1e9)
            add("solvers.reach_calls", 1)
        elif name == "_solvers.splu":
            add("solvers.lu_count", 1)
            add("solvers.lu_fill_total", attrs.get("fill", 0))
        elif name == "_solvers._direct_solve":
            add("solvers.direct_rejects", int(attrs.get("rejected", False)))
        elif name == "_solvers._iterate_affine":
            add("solvers.fallbacks", 1)
        elif name == "secondorder.mean_hitting_times":
            add("secondorder.targets", 1)
        elif name == "chains.stationary_density":
            add("chains.stationary_s", dur[s[ID]] / 1e9)
            add("chains.stationary_calls", 1)
        elif name.startswith("montecarlo.") and "walk_steps" in attrs:
            add("montecarlo.walk_steps", attrs["walk_steps"])
            add("montecarlo.censored", attrs["censored"])
        elif name in GRAPH_TIMES:
            add(GRAPH_TIMES[name], dur[s[ID]] / 1e9)
    for s in _outermost(spans, {f"chains.{b}" for b in CHAIN_CONSTRUCTORS}):
        add("chains.build_s", dur[s[ID]] / 1e9)
    for s in _outermost(spans, {s[NAME] for s in spans if s[NAME].startswith("montecarlo.")}):
        add("montecarlo.sim_s", dur[s[ID]] / 1e9)
    io_names = {s[NAME] for s in spans if s[NAME].startswith("io.")}
    for s in _outermost(spans, io_names):
        add("io.format_s", dur[s[ID]] / 1e9)
    return m
