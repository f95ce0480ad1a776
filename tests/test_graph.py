from __future__ import annotations

import io

import numpy as np
import pytest

import oracles
from walktimes import (
    Graph,
    GraphFormatError,
    GraphStructureError,
    SizeCapError,
    dangling_edges,
    diameter,
    is_strongly_connected,
    line_graph,
    load_edge_list,
    load_matrix_market,
    read_graph,
    strip_leaves,
)


class TestGraphConstruction:
    def test_directed_basics(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3 and g.m == 3
        assert not g.undirected
        assert g.edges == ((0, 1), (1, 2), (2, 0))
        assert g.labels == ("0", "1", "2")

    def test_edge_indexing(self, c4):
        for e, (i, j) in enumerate(c4.edges):
            assert c4.edge_id(i, j) == e
            assert c4.src[e] == i and c4.dst[e] == j
        assert c4.has_edge(0, 1)
        assert not c4.has_edge(0, 2)

    def test_degrees(self, k4):
        assert np.array_equal(k4.out_degree, np.full(4, 3))
        assert np.array_equal(k4.in_degree, np.full(4, 3))

    def test_out_in_edges_align(self, k33):
        for i in range(k33.n):
            for e in k33.out_edges(i):
                assert k33.edges[e][0] == i
            for e in k33.in_edges(i):
                assert k33.edges[e][1] == i

    def test_adjacency_matches_edges(self, petersen):
        A = petersen.adjacency().toarray()
        for i in range(petersen.n):
            for j in range(petersen.n):
                assert (A[i, j] == 1.0) == petersen.has_edge(i, j)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphStructureError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphStructureError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphStructureError, match="duplicate"):
            Graph(2, [(0, 1), (0, 1)])

    def test_rejects_asymmetric_undirected(self):
        with pytest.raises(GraphStructureError, match="missing reverse"):
            Graph(2, [(0, 1)], undirected=True)

    def test_rejects_bad_label_count(self):
        with pytest.raises(GraphStructureError, match="label count"):
            Graph(2, [(0, 1)], labels=["a"])

    def test_label_lookup(self):
        g = Graph(2, [(0, 1), (1, 0)], undirected=True, labels=["a", "b"])
        assert g.label_id("b") == 1
        with pytest.raises(GraphStructureError, match="unknown node label"):
            g.label_id("z")

    def test_duplicated_label_names_its_first_node(self):
        g = Graph(3, [(0, 1), (1, 2)], labels=["x", "y", "x"])
        assert g.label_id("x") == 0
        assert g.label_id("y") == 1

    def test_edge_lists_match_loop_reference(self):
        for seed in range(4):
            g = oracles.random_digraph(12, 20, seed)
            for i in range(g.n):
                out, inc = g.out_edges(i), g.in_edges(i)
                assert out.dtype == np.int64 and inc.dtype == np.int64
                assert out.tolist() == [e for e, (a, _) in enumerate(g.edges) if a == i]
                assert inc.tolist() == [e for e, (_, b) in enumerate(g.edges) if b == i]
                assert g.out_degree[i] == out.size and g.in_degree[i] == inc.size

    def test_edge_lists_are_read_only(self, k4):
        with pytest.raises(ValueError, match="read-only"):
            k4.out_edges(0)[0] = 5
        with pytest.raises(ValueError, match="read-only"):
            k4.in_edges(0)[0] = 5

    def test_undirected_edge_count(self, c4):
        assert c4.undirected_edge_count() == 4
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphStructureError):
            g.undirected_edge_count()


class TestEdgeListParsing:
    def test_directed_triangle(self):
        g = load_edge_list("0 1\n1 2\n2 0")
        assert g.n == 3 and g.m == 3

    def test_undirected_single_edge(self):
        g = load_edge_list("a b", undirected=True)
        assert g.n == 2
        assert set(g.edges) == {(0, 1), (1, 0)}
        assert g.labels == ("a", "b")

    def test_first_appearance_order(self):
        g = load_edge_list("c a\na b\n")
        assert g.labels == ("c", "a", "b")

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\n% other comment style\n0 1\n"
        g = load_edge_list(text)
        assert g.m == 1

    def test_duplicates_dropped(self):
        g = load_edge_list("0 1\n0 1\n1 0\n")
        assert g.m == 2

    def test_accepts_file_object(self):
        g = load_edge_list(io.StringIO("x y\n"), undirected=True)
        assert g.n == 2 and g.m == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            load_edge_list("0 1\n1 2\n2 0 7\n")

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            load_edge_list("0 1\n1 1\n")


class TestMatrixMarketParsing:
    GENERAL = "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n2 3\n3 1\n"
    SYMMETRIC = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"

    def test_general_is_directed(self):
        g = load_matrix_market(self.GENERAL)
        assert not g.undirected
        assert g.edges == ((0, 1), (1, 2), (2, 0))
        assert g.labels == ("1", "2", "3")

    def test_symmetric_is_undirected(self):
        g = load_matrix_market(self.SYMMETRIC)
        assert g.undirected
        assert g.m == 6 and g.undirected_edge_count() == 3

    def test_general_forced_undirected(self):
        g = load_matrix_market(self.GENERAL, undirected=True)
        assert g.undirected and g.m == 6

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="MatrixMarket"):
            load_matrix_market("3 3 1\n1 2\n")

    def test_rejects_real_field(self):
        bad = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 0.5\n"
        with pytest.raises(GraphFormatError, match="pattern"):
            load_matrix_market(bad)

    def test_rejects_rectangular(self):
        bad = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n"
        with pytest.raises(GraphFormatError, match="square"):
            load_matrix_market(bad)

    def test_entry_count_mismatch(self):
        bad = "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n"
        with pytest.raises(GraphFormatError, match="expected 2 entries"):
            load_matrix_market(bad)

    def test_index_out_of_range_with_line(self):
        bad = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 5\n"
        with pytest.raises(GraphFormatError, match="line 3.*out of range"):
            load_matrix_market(bad)

    def test_read_graph_dispatch(self, tmp_path):
        p = tmp_path / "g.mtx"
        p.write_text(self.SYMMETRIC, encoding="utf-8")
        g = read_graph(p, fmt="matrix-market")
        assert g.n == 3 and g.undirected
        with pytest.raises(GraphFormatError, match="unknown format"):
            read_graph(p, fmt="gml")


class TestStripLeaves:
    def test_path_collapses_to_empty(self, path3):
        res = strip_leaves(path3)
        assert res.graph.n == 0 and res.graph.m == 0
        assert res.removed == (0, 1, 2)

    def test_cycle_unchanged(self, c4):
        res = strip_leaves(c4)
        assert res.graph.n == 4 and res.graph.m == 8
        assert res.removed == ()
        assert np.array_equal(res.old_to_new, np.arange(4))

    def test_pendant_cascade(self):
        # pendant chain 4-5 hangs off node 0 of a C4; both fall, one after
        # the other, and the core survives untouched
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)]
        g = oracles.undirected(6, pairs)
        res = strip_leaves(g)
        assert res.graph.n == 4
        assert set(res.removed) == {4, 5}
        assert res.graph.labels == ("0", "1", "2", "3")

    def test_idempotent(self):
        g = oracles.pendant_decorated(oracles.random_undirected(20, 15, 5), 6, 5)
        once = strip_leaves(g)
        twice = strip_leaves(once.graph)
        assert twice.removed == ()
        assert twice.graph.edges == once.graph.edges

    def test_map_preserves_edges(self):
        g = oracles.pendant_decorated(oracles.random_undirected(12, 9, 7), 4, 7)
        res = strip_leaves(g)
        back = {int(res.old_to_new[i]): i for i in range(g.n) if res.old_to_new[i] >= 0}
        for i, j in res.graph.edges:
            assert g.has_edge(back[i], back[j])
        assert all(res.graph.out_degree >= 2)

    def test_requires_undirected(self):
        with pytest.raises(GraphStructureError, match="undirected"):
            strip_leaves(Graph(2, [(0, 1)]))


class TestLineGraph:
    def test_c4_counts(self, c4):
        lg = line_graph(c4)
        assert lg.n_line_edges == 16
        assert int(lg.backtracking.sum()) == 8

    def test_c3_counts(self, c3):
        lg = line_graph(c3)
        assert lg.n_line_edges == 12
        assert int(lg.backtracking.sum()) == 6

    def test_single_edge_has_none(self):
        lg = line_graph(Graph(2, [(0, 1)]))
        assert lg.n_line_edges == 0

    def test_matches_enumeration_oracle(self, petersen):
        lg = line_graph(petersen)
        got = set(zip(lg.tail.tolist(), lg.head.tolist(), lg.backtracking.tolist()))
        assert got == set(oracles.line_pairs_oracle(petersen.edges))

    def test_order_matches_enumeration_oracle(self, petersen):
        for g in [petersen] + [oracles.random_digraph(12, 20, s) for s in range(4)]:
            lg = line_graph(g)
            got = list(zip(lg.tail.tolist(), lg.head.tolist(), lg.backtracking.tolist()))
            assert got == oracles.line_pairs_oracle(g.edges)

    def test_count_formula_on_random_digraphs(self):
        for seed in range(4):
            g = oracles.random_digraph(12, 20, seed)
            lg = line_graph(g)
            expect = int(np.sum(g.in_degree * g.out_degree))
            assert lg.n_line_edges == expect

    def test_as_graph_hashimoto(self, c4):
        h = line_graph(c4).as_graph(include_backtracking=False)
        assert h.n == 8 and h.m == 8
        assert not is_strongly_connected(h)

    def test_as_graph_labels(self, c3):
        full = line_graph(c3).as_graph()
        assert full.n == 6 and full.m == 12
        assert "0->1" in full.labels


class TestDanglingEdges:
    def test_path_ends(self, path3):
        ids = dangling_edges(path3)
        got = {path3.edges[e] for e in ids}
        assert got == {(1, 0), (1, 2)}

    def test_cycle_has_none(self, c4):
        assert dangling_edges(c4) == []

    def test_complete_has_none(self, k4):
        assert dangling_edges(k4) == []

    def test_edge_into_a_sink_is_not_dangling(self):
        # (1, 0) can only reverse; (1, 2) ends at a sink with no way on
        g = Graph(3, [(0, 1), (1, 0), (1, 2)])
        assert dangling_edges(g) == [g.edge_id(1, 0)]

    def test_matches_loop_reference(self):
        graphs = []
        for seed in range(6):
            # random arcs without a spanning cycle, so sinks and
            # one-way dead ends occur
            rng = np.random.default_rng(seed)
            arcs = {(int(a), int(b)) for a, b in rng.integers(8, size=(14, 2)) if a != b}
            graphs.append(Graph(8, sorted(arcs)))
            graphs.append(oracles.pendant_decorated(
                oracles.random_undirected(10, 4, seed), 4, seed))
        for g in graphs:
            expect = [e for e, (i, j) in enumerate(g.edges)
                      if [g.edges[f][1] for f in g.out_edges(j)] == [i]]
            assert dangling_edges(g) == expect


class TestDiameter:
    def test_small_cases(self, c4, k4):
        assert diameter(c4) == 2
        assert diameter(k4) == 1
        assert diameter(Graph(0, [])) == 0
        assert diameter(Graph(1, [])) == 0

    def test_matches_bfs_oracle(self):
        for seed in range(4):
            g = oracles.random_undirected(15, 10, seed)
            assert diameter(g) == oracles.diameter_oracle(g)
        for seed in range(4):
            g = oracles.random_digraph(10, 12, seed)
            assert diameter(g) == oracles.diameter_oracle(g)
        # node counts on both sides of the 64-bit word boundary
        for n in (63, 64, 65, 130):
            for g in (oracles.random_undirected(n, n // 2, n),
                      oracles.random_digraph(n, n // 2, n)):
                assert diameter(g) == oracles.diameter_oracle(g)
        for g in (oracles.path_graph(200), oracles.cycle_graph(200)):
            assert diameter(g) == oracles.diameter_oracle(g)

    def test_search_within_the_dense_budget(self, petersen, monkeypatch):
        # four arrays of n bit rows and the gather of m rows, one 64-bit
        # word each: one byte over the budget, no search runs
        from walktimes import config
        need = (4 * 10 + 30) * 8
        monkeypatch.setattr(config, "_DENSE_BUDGET", need)
        assert diameter(petersen) == 2
        monkeypatch.setattr(config, "_DENSE_BUDGET", need - 1)
        monkeypatch.setattr(np, "zeros", None)
        with pytest.raises(SizeCapError, match=f"^the diameter search over 10 nodes needs "
                                               f"{need} bytes of dense arrays, over the "
                                               f"budget of {need - 1} bytes$"):
            diameter(petersen)

    def test_disconnected_raises(self):
        for g in (Graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)], undirected=True),
                  Graph(2, []),                          # two nodes, no edge
                  Graph(3, [(0, 1), (1, 0), (1, 2)])):   # one-way arc 1 -> 2
            with pytest.raises(GraphStructureError,
                               match="^graph is not connected; diameter undefined$"):
                diameter(g)


class TestStrongConnectivity:
    def test_cycle_true(self, c4):
        assert is_strongly_connected(c4)

    def test_disjoint_edges_false(self):
        g = Graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)], undirected=True)
        assert not is_strongly_connected(g)

    def test_one_way_arc_false(self):
        assert not is_strongly_connected(Graph(2, [(0, 1)]))

    def test_matches_oracle_on_random(self):
        for seed in range(6):
            g = oracles.random_digraph(9, seed % 3, seed)
            assert is_strongly_connected(g) == oracles.strongly_connected_oracle(g)

    def test_matches_networkx_on_random_arcs(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(4)
        verdicts = set()
        for _ in range(40):
            n = int(rng.integers(2, 25))
            arcs = sorted({(int(i), int(j)) for i, j in rng.integers(n, size=(3 * n, 2)) if i != j})
            dg = nx.DiGraph(arcs)
            dg.add_nodes_from(range(n))
            verdict = is_strongly_connected(Graph(n, arcs))
            assert verdict == nx.is_strongly_connected(dg)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_no_or_one_node(self):
        assert is_strongly_connected(Graph(0, []))
        assert is_strongly_connected(Graph(1, []))
