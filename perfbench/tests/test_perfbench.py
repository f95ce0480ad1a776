"""Tests of the benchmark itself: generator, checker and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import tracer  # noqa: E402
from graphs import SyntheticGraph  # noqa: E402
from run import WORKLOADS, Context  # noqa: E402


def two_core(pairs) -> set[frozenset]:
    """Edges left after iterated removal of degree<=1 nodes (plain Python)."""
    nbrs: dict[int, set[int]] = {}
    for i, j in pairs:
        nbrs.setdefault(i, set()).add(j)
        nbrs.setdefault(j, set()).add(i)
    queue = [v for v, s in nbrs.items() if len(s) <= 1]
    while queue:
        v = queue.pop()
        for u in nbrs.pop(v, ()):
            if u in nbrs:
                nbrs[u].discard(v)
                if len(nbrs[u]) <= 1:
                    queue.append(u)
    return {frozenset((i, j)) for i, s in nbrs.items() for j in s}


# -- generator ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    w = WORKLOADS[name]
    a = SyntheticGraph(w.n_core, w.core_edges, w.pendants, seed=7)
    b = SyntheticGraph(w.n_core, w.core_edges, w.pendants, seed=7)
    c = SyntheticGraph(w.n_core, w.core_edges, w.pendants, seed=8)
    assert a.edge_list_text() == b.edge_list_text()
    assert a.core_edge_list_text() == b.core_edge_list_text()
    assert a.edge_list_text() != c.edge_list_text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_shapes(name):
    w = WORKLOADS[name]
    g = SyntheticGraph(w.n_core, w.core_edges, w.pendants, seed=3)
    f = g.facts()
    assert (f["core_nodes"], f["core_edges"]) == (w.n_core, w.core_edges)
    assert f["nodes"] == w.n_core + w.pendants + 2
    assert f["edges"] == w.core_edges + w.pendants + 2
    assert f["edge_states"] == 2 * w.core_edges
    assert len({frozenset(e) for e in g.edges}) == len(g.edges)
    assert two_core(g.edges) == {frozenset(e) for e in g.core_edges}


# -- checker --------------------------------------------------------------


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return Context("paper-core", seed=5, work=tmp_path_factory.mktemp("work"))


def _return_times_csv(ctx) -> str:
    rows = [f"{k},{ctx.two_e / ctx.degree[k]:.12g}" for k in range(ctx.graph.n_core)]
    return "node,return_time\n" + "\n".join(rows) + "\n"


def _perturb_9th_digit(value: str) -> str:
    digits = [c for c in value if c.isdigit()]
    k = [i for i, c in enumerate(value) if c.isdigit()][8]
    bumped = str((int(digits[8]) + 1) % 10)
    return value[:k] + bumped + value[k + 1:]


def test_checker_accepts_kac_return_times(ctx):
    assert check.check(ctx, "return_times", 0, _return_times_csv(ctx), "") == []


def test_checker_rejects_nonzero_exit(ctx):
    problems = check.check(ctx, "return_times", 3, _return_times_csv(ctx), "boom")
    assert problems and "code 3" in problems[0]


def test_checker_rejects_return_time_off_in_9th_digit(ctx):
    lines = _return_times_csv(ctx).splitlines()
    # a node whose return time 2E/deg(k) needs all 12 printed digits
    row = next(r for r, line in enumerate(lines[1:], 1) if len(line.split(",")[1]) >= 12)
    label, value = lines[row].split(",")
    lines[row] = f"{label},{_perturb_9th_digit(value)}"
    problems = check.check(ctx, "return_times", 0, "\n".join(lines) + "\n", "")
    assert problems and "Kac" in problems[0]


def test_checker_rejects_reference_drift(ctx):
    out = _return_times_csv(ctx)
    ref = check.values("return_times", out, "")
    drifted = [row[:] for row in ref]
    drifted[3][1] = repr(float(drifted[3][1]) * (1 + 1e-7))
    assert check._compare(ref, ref, check.REFERENCE_RTOL, "x") == []
    assert check._compare(drifted, ref, check.REFERENCE_RTOL, "x")


# -- tracer ---------------------------------------------------------------


@pytest.fixture
def traced_spans(tmp_path):
    import walktimes.cli

    g = SyntheticGraph(12, 24, 2, seed=1)
    path = tmp_path / "g.edges"
    path.write_text(g.core_edge_list_text())
    t = tracer.Tracer("op")
    t.install()
    try:
        code = walktimes.cli.main(["hitting", "--input", str(path), "--undirected"])
    finally:
        t.uninstall()
    assert code == 0
    return t.spans


def test_wrappers_restore_every_attribute():
    import walktimes.cli  # noqa: F401  (loads every module the tracer patches)

    before = tracer.snapshot()
    t = tracer.Tracer("op")
    t.install()
    during = tracer.snapshot()
    t.uninstall()
    assert tracer.snapshot() == before
    assert during != before


def test_spans_nest_and_self_times_fit_in_wall(traced_spans):
    spans = traced_spans
    S = tracer
    names = {s[S.NAME] for s in spans}
    assert {"cli.main", "cli.cmd_hitting", "_solvers.expected_steps",
            "_solvers.splu", "secondorder.hitting_matrix"} <= names
    roots = [s for s in spans if s[S.PARENT] is None]
    assert [s[S.NAME] for s in roots] == ["cli.main"]
    for s in spans:
        assert s[S.START] <= s[S.END]
        if s[S.PARENT] is not None:
            p = spans[s[S.PARENT]]
            assert p[S.START] <= s[S.START] and s[S.END] <= p[S.END]
    own = S.self_times(spans)
    assert min(own) >= 0
    wall = roots[0][S.END] - roots[0][S.START]
    assert sum(own) <= wall


def test_layer_metrics_count_solver_work(traced_spans):
    m = tracer.layer_metrics(traced_spans)
    assert m["secondorder.targets"] == 12
    assert m["solvers.lu_count"] >= m["solvers.steps_calls"]
    assert m["solvers.steps_s"] + m["solvers.reach_s"] > 0
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    root = traced_spans[0]
    assert total_self <= (root[tracer.END] - root[tracer.START]) / 1e9 + 1e-12
