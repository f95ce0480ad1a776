from __future__ import annotations

import dataclasses
import types

import numpy as np
import pytest

import oracles
from walktimes import (
    ChainError,
    Graph,
    ConvergenceError,
    DanglingEdgeError,
    ReducibleChainError,
    check_irreducible,
    dangling_edges,
    downweighted_edge_chain,
    edge_chain_from_tensor,
    nonbacktracking_edge_chain,
    stationary_density,
    transition_tensor,
    uniform_edge_chain,
    uniform_node_chain,
)
from walktimes import chains
from walktimes.chains import _power_iteration, _solve_density
from walktimes.config import TOL


class TestUniformNodeChain:
    def test_c4_rows(self, c4):
        P = uniform_node_chain(c4).matrix.toarray()
        for i in range(4):
            row = P[i]
            assert np.count_nonzero(row) == 2
            assert np.all(row[row > 0] == 0.5)

    def test_k4_off_diagonal(self, k4):
        P = uniform_node_chain(k4).matrix.toarray()
        expect = (np.ones((4, 4)) - np.eye(4)) / 3.0
        assert np.array_equal(P, expect)

    def test_directed_cycle_is_permutation(self):
        P = uniform_node_chain(oracles.directed_cycle(3)).matrix.toarray()
        assert np.array_equal(P, np.roll(np.eye(3), 1, axis=1))

    def test_zero_out_degree_rejected(self):
        from walktimes import Graph, GraphStructureError
        with pytest.raises(GraphStructureError, match="out-degree"):
            uniform_node_chain(Graph(2, [(0, 1)]))


class TestUniformEdgeChain:
    def test_c4_shape_and_rows(self, c4):
        ch = uniform_edge_chain(c4)
        P = ch.matrix.toarray()
        assert P.shape == (8, 8)
        for e in range(8):
            row = P[e]
            assert np.count_nonzero(row) == 2
            assert np.all(row[row > 0] == 0.5)

    def test_k4_rows(self, k4):
        P = uniform_edge_chain(k4).matrix.toarray()
        for e in range(12):
            row = P[e]
            assert np.count_nonzero(row) == 3
            assert np.allclose(row[row > 0], 1 / 3)

    def test_support_is_line_graph(self, petersen):
        ch = uniform_edge_chain(petersen)
        P = ch.matrix.tocoo()
        pairs = {(e, f) for e, f, _ in oracles.line_pairs_oracle(petersen.edges)}
        assert set(zip(P.row.tolist(), P.col.tolist())) <= pairs

    def test_bistochastic_on_undirected(self, c4, k33):
        for g in (c4, k33):
            ch = uniform_edge_chain(g)
            cols = np.asarray(ch.matrix.sum(axis=0)).ravel()
            assert np.allclose(cols, 1.0, atol=1e-12)
            assert np.array_equal(ch.density, np.full(g.m, 1 / g.m))

    def test_state_labels(self, c4):
        ch = uniform_edge_chain(c4)
        e = c4.edge_id(0, 1)
        assert ch.state_label(e) == "0->1"


class TestNonbacktrackingChain:
    def test_c4_is_permutation(self, c4):
        P = nonbacktracking_edge_chain(c4).matrix.toarray()
        assert np.array_equal(np.sort(P, axis=1)[:, -1], np.ones(8))
        assert np.count_nonzero(P) == 8
        # forward edges chain into the same rotation class
        e01 = c4.edge_id(0, 1)
        e12 = c4.edge_id(1, 2)
        assert P[e01, e12] == 1.0

    def test_k4_row_values(self, k4):
        ch = nonbacktracking_edge_chain(k4)
        P = ch.matrix.toarray()
        r = k4.edge_id(0, 1)
        expect = {k4.edge_id(1, 2): 0.5, k4.edge_id(1, 3): 0.5}
        got = {f: P[r, f] for f in np.nonzero(P[r])[0]}
        assert got == expect

    def test_no_backtrack_support(self, k33):
        g = k33
        P = nonbacktracking_edge_chain(g).matrix.tocoo()
        for e, f in zip(P.row.tolist(), P.col.tolist()):
            assert g.edges[e][0] != g.edges[f][1]

    def test_path_rejected(self, path3):
        with pytest.raises(DanglingEdgeError, match="dangling"):
            nonbacktracking_edge_chain(path3)

    def test_bistochastic(self, k4):
        ch = nonbacktracking_edge_chain(k4)
        cols = np.asarray(ch.matrix.sum(axis=0)).ravel()
        assert np.allclose(cols, 1.0, atol=1e-12)
        assert np.array_equal(ch.density, np.full(12, 1 / 12))


class TestDownweightedChain:
    def test_endpoints_exact(self, k4):
        u = uniform_edge_chain(k4).matrix.toarray()
        nb = nonbacktracking_edge_chain(k4).matrix.toarray()
        assert np.array_equal(downweighted_edge_chain(k4, 1.0).matrix.toarray(), u)
        assert np.array_equal(downweighted_edge_chain(k4, 0.0).matrix.toarray(), nb)

    def test_c4_half_row(self, c4):
        P = downweighted_edge_chain(c4, 0.5).matrix.toarray()
        r = c4.edge_id(0, 1)
        assert P[r, c4.edge_id(1, 0)] == 0.25
        assert P[r, c4.edge_id(1, 2)] == 0.75

    def test_convex_combination_random_alphas(self, petersen):
        u = uniform_edge_chain(petersen).matrix.toarray()
        nb = nonbacktracking_edge_chain(petersen).matrix.toarray()
        rng = np.random.default_rng(0)
        for alpha in rng.uniform(0.05, 0.95, size=10):
            got = downweighted_edge_chain(petersen, float(alpha)).matrix.toarray()
            assert np.max(np.abs(got - (alpha * u + (1 - alpha) * nb))) == 0.0

    def test_alpha_bounds(self, c4):
        with pytest.raises(ChainError, match="mixing weight"):
            downweighted_edge_chain(c4, -0.1)
        with pytest.raises(ChainError, match="mixing weight"):
            downweighted_edge_chain(c4, 1.5)

    def test_dangling_only_matters_below_one(self, path3):
        ch = downweighted_edge_chain(path3, 1.0)
        u = uniform_edge_chain(path3)
        assert np.array_equal(ch.matrix.toarray(), u.matrix.toarray())
        with pytest.raises(DanglingEdgeError):
            downweighted_edge_chain(path3, 0.5)

    def test_kind_string(self, c4):
        assert downweighted_edge_chain(c4, 0.25).kind == "downweighted:0.25"


class TestTensorChain:
    def test_uniform_tensor_round_trip(self, k4):
        ch = uniform_edge_chain(k4)
        back = edge_chain_from_tensor(k4, transition_tensor(ch))
        assert np.array_equal(back.matrix.toarray(), ch.matrix.toarray())

    def test_nb_tensor_round_trip(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        back = edge_chain_from_tensor(c4, transition_tensor(ch))
        assert np.array_equal(back.matrix.toarray(), ch.matrix.toarray())

    def test_concentrated_tensor(self, c4):
        # all mass on the non-backtracking successor: a permutation chain
        probs = {}
        for e, (i, j) in enumerate(c4.edges):
            for f in c4.out_edges(j):
                k = c4.edges[f][1]
                if k != i:
                    probs[(i, j, k)] = 1.0
        ch = edge_chain_from_tensor(c4, probs)
        assert np.count_nonzero(ch.matrix.toarray()) == 8

    def test_row_sum_violation(self, c4):
        probs = {(i, j, k): 0.4 for (i, j, k) in transition_tensor(uniform_edge_chain(c4))}
        with pytest.raises(ChainError, match="sum"):
            edge_chain_from_tensor(c4, probs)

    def test_bad_support(self, c4):
        probs = transition_tensor(uniform_edge_chain(c4))
        probs[(0, 1, 3)] = 0.5  # (1,3) is not an edge of C4
        with pytest.raises(ChainError):
            edge_chain_from_tensor(c4, probs)

    @pytest.mark.parametrize("triple, where", [
        ((0, 2, 1), "starts"),  # (0,2) is not an edge of C4, (2,1) is
        ((0, 2, 0), "starts"),  # neither edge exists: the first one is named
        ((0, 1, 3), "ends"),    # (0,1) is an edge of C4, (1,3) is not
    ])
    def test_triple_outside_edge_set(self, c4, triple, where):
        probs = transition_tensor(uniform_edge_chain(c4))
        probs[triple] = 0.5
        i, j, k = triple
        with pytest.raises(ChainError,
                           match=fr"^triple \({i},{j},{k}\) {where} outside the edge set$"):
            edge_chain_from_tensor(c4, probs)

    @pytest.mark.parametrize("value, shown", [(float("nan"), "nan"), (float("inf"), "inf")])
    def test_non_finite_probability(self, c4, value, shown):
        probs = transition_tensor(uniform_edge_chain(c4))
        probs[(0, 1, 2)] = value
        with pytest.raises(ChainError, match=f"sum to {shown}, expected 1"):
            edge_chain_from_tensor(c4, probs)


class TestIrreducibility:
    def test_nb_c4_reducible(self, c4):
        ok, comps = check_irreducible(nonbacktracking_edge_chain(c4))
        assert not ok
        assert sorted(len(c) for c in comps) == [4, 4]

    def test_nb_k4_irreducible(self, k4):
        ok, comps = check_irreducible(nonbacktracking_edge_chain(k4))
        assert ok and len(comps) == 1

    def test_downweighted_positive_alpha_irreducible(self):
        for seed in range(3):
            g = oracles.random_undirected(10, 6, seed)
            ok, _ = check_irreducible(downweighted_edge_chain(g, 0.3))
            assert ok


def stand_in(P):
    """A stand-in chain over the scipy CSR matrix P: its arrays and its matrix."""
    return types.SimpleNamespace(matrix=P, indptr=P.indptr, indices=P.indices, _components=None)


class TestIrreducibilityAgainstNetworkx:
    """``check_irreducible``'s breadth-first verdict against networkx's
    strongly connected components; a reducible chain lists csgraph's."""

    @staticmethod
    def assert_matches(chain):
        nx = pytest.importorskip("networkx")
        n = chain.matrix.shape[0]
        rows, cols = chain.matrix.nonzero()
        dg = nx.DiGraph()
        dg.add_nodes_from(range(n))
        dg.add_edges_from(zip(rows.tolist(), cols.tolist()))
        want = {frozenset(c) for c in nx.strongly_connected_components(dg)}
        ok, comps = check_irreducible(chain)
        assert ok == (len(want) == 1)
        assert {frozenset(c.tolist()) for c in comps} == want
        assert sum(len(c) for c in comps) == n
        return ok

    @staticmethod
    def pattern(n, density, rng):
        """A stand-in chain: a random sparse support, self-loops and empty rows allowed."""
        import scipy.sparse as sp
        P = sp.random(n, n, density=density, format="csr", random_state=rng)
        return stand_in(P)

    def test_random_digraph_chains(self):
        rng = np.random.default_rng(5)
        verdicts = set()
        for seed in range(40):
            n = int(rng.integers(2, 30))
            arcs = {(int(i), int(j)) for i, j in rng.integers(n, size=(int(rng.integers(n, 4 * n)), 2))
                    if i != j}
            arcs |= {(i, (i + 1) % n) for i in range(n) if seed % 2 and i % 7}   # near-cycles
            g = Graph(n, sorted(arcs))
            if (g.out_degree == 0).any():
                continue
            verdicts.add(self.assert_matches(uniform_node_chain(g)))
        assert verdicts == {True, False}

    def test_random_sparse_chains(self):
        rng = np.random.default_rng(8)
        verdicts = set()
        for _ in range(60):
            n = int(rng.integers(1, 40))
            verdicts.add(self.assert_matches(self.pattern(n, float(rng.uniform(0.02, 0.3)), rng)))
        assert verdicts == {True, False}

    def test_edge_chains(self, c4, k4, petersen):
        for g in (c4, k4, petersen, oracles.random_digraph(9, 6, 2)):
            self.assert_matches(uniform_edge_chain(g))
            if not dangling_edges(g):
                self.assert_matches(nonbacktracking_edge_chain(g))

    def test_zero_and_one_state(self):
        import scipy.sparse as sp
        empty = stand_in(sp.csr_matrix((0, 0)))
        assert check_irreducible(empty) == (False, [])
        for P in (sp.csr_matrix((1, 1)), sp.csr_matrix(np.ones((1, 1)))):
            ok, comps = check_irreducible(stand_in(P))
            assert ok and [c.tolist() for c in comps] == [[0]]
            self.assert_matches(stand_in(P))

    def test_long_cycle(self):
        # breadth first from state 0 takes about 1,000 levels on the node
        # chain and 2,000 on the edge chain of the uniform walk
        g = oracles.cycle_graph(2000)
        for ch in (uniform_node_chain(g), uniform_edge_chain(g)):
            assert self.assert_matches(ch)
        assert not self.assert_matches(nonbacktracking_edge_chain(g))


class TestStationaryDensity:
    def test_uniform_walk_degree_formula(self):
        # the chain carries deg / 2E exactly, and the solve agrees with it
        for seed in range(3):
            g = oracles.random_undirected(12, 8, seed)
            ch = uniform_node_chain(g)
            deg = g.out_degree.astype(float)
            assert np.array_equal(ch.density, deg / deg.sum())
            assert stationary_density(ch) is ch.density
            assert np.allclose(_solve_density(ch.matrix), ch.density, atol=1e-12)

    def test_nb_k4_uniform_on_edges(self, k4):
        pihat = _solve_density(nonbacktracking_edge_chain(k4).matrix)
        assert np.allclose(pihat, np.full(12, 1 / 12), atol=1e-12)

    def test_directed_cycle(self):
        pi = _solve_density(uniform_node_chain(oracles.directed_cycle(3)).matrix)
        assert np.allclose(pi, np.full(3, 1 / 3), atol=1e-14)

    def test_matches_eigen_oracle_on_digraphs(self):
        for seed in range(4):
            g = oracles.random_digraph(9, 10, seed)
            ch = uniform_node_chain(g)
            pi = stationary_density(ch)
            expect = oracles.stationary_eig(ch.matrix.toarray())
            assert np.allclose(pi, expect, atol=1e-10)

    def test_residual_and_positivity(self, petersen):
        ch = downweighted_edge_chain(petersen, 0.4)
        pihat = _solve_density(ch.matrix)
        assert pihat.min() > 0
        assert abs(pihat.sum() - 1) < 1e-12
        res = np.abs(pihat @ ch.matrix - pihat).max()
        assert res <= 1e-12

    def test_reducible_reports_components(self, c4):
        # nb on C4 carries its invariant, though not unique, uniform density
        ch = nonbacktracking_edge_chain(c4)
        assert np.array_equal(ch.density, np.full(8, 1 / 8))
        with pytest.raises(ReducibleChainError,
                           match="2 strongly connected components"):
            stationary_density(ch)

    def test_power_iteration_agrees(self):
        # the fallback must match the direct solve, including on the
        # periodic directed cycle where plain iteration would oscillate
        cases = [
            uniform_node_chain(oracles.directed_cycle(5)),
            uniform_node_chain(oracles.random_undirected(8, 6, 1)),
            nonbacktracking_edge_chain(oracles.complete_graph(5)),
        ]
        for ch in cases:
            direct = _solve_density(ch.matrix)
            power = _power_iteration(ch.matrix.tocsr(), 1e-13)
            assert np.allclose(direct, power, atol=1e-10)

    def test_power_iteration_runs_at_most_once(self, k4, monkeypatch):
        calls = []

        def counted(P, tol):
            calls.append(tol)
            return _power_iteration(P, tol)
        monkeypatch.setattr(chains, "_power_iteration", counted)
        # power path only, and a residual bound no density can meet
        tol = dataclasses.replace(TOL, power_iteration_threshold=0,
                                  stationary_residual=-1.0)
        with pytest.raises(ConvergenceError, match="failed validation"):
            _solve_density(uniform_edge_chain(k4).matrix, tol=tol)
        assert len(calls) == 1


class TestValidation:
    def test_row_sums_enforced(self, c4):
        import scipy.sparse as sp
        from walktimes.chains import Chain
        bad = sp.csr_matrix(np.array([[0.5, 0.3, 0.0, 0.0],
                                      [0.0, 0.0, 1.0, 0.0],
                                      [0.0, 0.0, 0.0, 1.0],
                                      [1.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(ChainError, match="row"):
            Chain(c4, bad, "nodes")

    def test_row_sum_message_prints_plain_number(self, c4):
        import scipy.sparse as sp
        from walktimes.chains import Chain
        bad = sp.csr_matrix(np.array([[0.0, 0.5, 0.0, 0.25],
                                      [0.5, 0.0, 0.5, 0.0],
                                      [0.0, 0.5, 0.0, 0.5],
                                      [0.5, 0.0, 0.5, 0.0]]))
        with pytest.raises(ChainError) as exc:
            Chain(c4, bad, "nodes")
        assert str(exc.value) == "node chain rows must sum to 1; row 0 sums to 0.75"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entries_rejected(self, c4, value):
        import scipy.sparse as sp
        from walktimes.chains import Chain
        bad = np.array([[0.0, 0.5, 0.0, 0.5],
                        [0.5, 0.0, 0.5, 0.0],
                        [0.0, 0.5, 0.0, 0.5],
                        [0.5, 0.0, 0.5, 0.0]])
        bad[1, 2] = value
        with pytest.raises(ChainError, match="non-finite"):
            Chain(c4, sp.csr_matrix(bad), "nodes")

    def test_zero_state_chain_builds(self):
        from walktimes import Graph
        from walktimes.chains import Chain
        ch = Chain(Graph(0, []), np.zeros((0, 0)), "nodes")
        assert ch.n_states == 0 and ch.density is None

    def test_support_outside_edges_rejected(self, c4):
        import scipy.sparse as sp
        from walktimes.chains import Chain
        bad = sp.csr_matrix(np.array([[0.0, 0.5, 0.5, 0.0],  # (0,2) not an edge
                                      [0.5, 0.0, 0.5, 0.0],
                                      [0.0, 0.5, 0.0, 0.5],
                                      [0.5, 0.0, 0.5, 0.0]]))
        with pytest.raises(ChainError, match="support|edge"):
            Chain(c4, bad, "nodes")


# the graphs of scripts/cli_transcript.py, and seeded random cores
PRODUCT_GRAPHS = {
    "c4": oracles.cycle_graph(4),
    "k4": oracles.complete_graph(4),
    "path3": oracles.path_graph(3),
    "bowtie": oracles.undirected(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
    "c4-pendant": oracles.undirected(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),
    "directed": Graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)]),
    "reducible": Graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]),
    **{f"core{n}": oracles.random_undirected(n, 2 * n, seed)
       for n, seed in ((12, 1), (40, 2), (100, 1))},
}
PRODUCT_WALKS = {
    "uniform": uniform_edge_chain,
    "nb": nonbacktracking_edge_chain,
    "dw:0": lambda g: downweighted_edge_chain(g, 0.0),
    "dw:0.3": lambda g: downweighted_edge_chain(g, 0.3),
    "dw:1": lambda g: downweighted_edge_chain(g, 1.0),
    "tensor": lambda g: edge_chain_from_tensor(g, oracles.random_step_weights(g, 3)),
}


def walk_chains():
    """(name, chain) for every walk kind on every product graph it applies to."""
    for name, g in PRODUCT_GRAPHS.items():
        yield f"{name}/classical", uniform_node_chain(g)
        for walk, make in PRODUCT_WALKS.items():
            try:
                yield f"{name}/{walk}", make(g)
            except DanglingEdgeError:
                pass


def same_arrays(A, B) -> bool:
    """The CSR arrays of A and B are equal, entry for entry in stored order."""
    return (np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


def wide_values(rng, shape):
    """Random values over seven decades, so that any change of summation order shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)


class TestArrayProducts:
    """Products with a chain's CSR arrays equal scipy's bit for bit."""

    @pytest.fixture(autouse=True)
    def numpy_kernels(self, monkeypatch):
        monkeypatch.setattr(chains, "_compiled", lambda work: False)

    def test_chain_products_equal_scipy(self):
        rng = np.random.default_rng(7)
        kinds = set()
        for name, ch in walk_chains():
            kinds.add(name.split("/")[1])
            P = ch.matrix
            x = wide_values(rng, ch.n_states)
            X = wide_values(rng, (ch.n_states, 5))
            XL = X.astype(np.longdouble) * (1 + np.longdouble(2.0**-60))
            wide = P.astype(np.longdouble)   # scipy sorts a chain's entries here
            assert np.array_equal(chains._csr_dot(ch, x), P @ x), name
            assert np.array_equal(chains._csr_dot(ch, X), P @ X), name
            assert np.array_equal(chains._csr_tdot(ch, x), P.T @ x), name
            assert np.array_equal(chains._row_sums(ch), np.asarray(P.sum(axis=1)).ravel()), name
            arrays = chains._from_triplets(chains._csr_rows(ch.indptr), ch.indices,
                                           ch.data.astype(np.longdouble), ch.shape)
            assert same_arrays(arrays, wide), name
            assert np.array_equal(chains._csr_dot(arrays, XL), wide @ XL), name
        assert kinds == {"classical", *PRODUCT_WALKS}

    def test_edge_residual_equals_scipy(self):
        import scipy.sparse as sp
        from walktimes._solvers import _node_system
        rng = np.random.default_rng(8)
        served = 0
        for name, ch in walk_chains():
            if ch.states != "edges" or _node_system(ch) is None:
                continue
            m = ch.n_states
            want = sp.hstack([ch.matrix - sp.identity(m), np.ones((m, 1))], format="csr")
            want = want.astype(np.longdouble)
            got = _node_system(ch).residual
            assert same_arrays(got, want), name
            xl = np.concatenate([wide_values(rng, (m, 4)), np.ones((1, 4))], dtype=np.longdouble)
            assert np.array_equal(chains._csr_dot(got, xl), want @ xl), name
            assert np.array_equal(chains._csr_dot(got, xl[:, 0]), want @ xl[:, 0]), name
            served += 1
        assert served >= 30

    def test_irregular_rows_equal_scipy(self):
        # empty rows, long rows and a non-square shape, in stored order
        import scipy.sparse as sp
        rng = np.random.default_rng(9)
        for shape, density in (((60, 45), 0.3), ((30, 30), 0.05), ((1, 8), 1.0), ((5, 0), 0.0)):
            A = sp.random(*shape, density=density, format="csr", random_state=rng)
            A.data = wide_values(rng, A.nnz)
            arrays = chains._CSR(A.indptr, A.indices, A.data, A.shape)
            for x in (wide_values(rng, shape[1]), wide_values(rng, (shape[1], 3))):
                assert np.array_equal(chains._csr_dot(arrays, x), A @ x)

    def test_pullback_views_equal_scipy(self):
        import scipy.sparse as sp
        from walktimes import equilibrium_pullback
        from walktimes.secondorder import _start_mean
        rng = np.random.default_rng(10)
        served = 0
        for name, ch in walk_chains():
            if ch.states != "edges":
                continue
            try:
                pdata = equilibrium_pullback(ch)
            except ReducibleChainError:
                continue
            g = ch.graph
            ids = np.arange(g.m)
            lifting = sp.csr_matrix((pdata.arrival_weights, (g.dst, ids)), shape=(g.n, g.m))
            restriction = sp.csr_matrix((np.ones(g.m), (ids, g.dst)), shape=(g.m, g.n))
            first_step = sp.csr_matrix((pdata.first_transition, (g.src, ids)), shape=(g.n, g.m))
            assert same_arrays(pdata.lifting, lifting), name
            assert same_arrays(pdata.restriction, restriction), name
            assert same_arrays(pdata.first_step_matrix, first_step), name
            P = (lifting @ ch.matrix @ restriction).tocsr()
            P.eliminate_zeros()
            assert (pdata.pullback.matrix != P).nnz == 0, name
            assert np.array_equal(pdata.pullback.matrix.toarray(), P.toarray()), name
            x = wide_values(rng, g.m)
            assert np.array_equal(_start_mean(pdata, x), first_step @ x), name
            assert np.array_equal(pdata.restrict(x), restriction.T @ x), name
            served += 1
        assert served >= 30

    def test_chain_accepts_scipy_dense_and_triplets(self, k4):
        import scipy.sparse as sp
        from walktimes.chains import Chain
        dense = uniform_node_chain(k4).matrix.toarray()
        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        # the first entry given twice, as two halves, and a zero on an edge
        rows3, cols3 = np.append(rows, [rows[0], 1]), np.append(cols, [cols[0], 0])
        vals3 = np.append(vals, [vals[0] / 2, 0.0])
        vals3[0] /= 2
        want = sp.csr_matrix((vals3, (rows3, cols3)), shape=(4, 4))
        want.eliminate_zeros()
        for given in (want.copy(), dense, (vals3, (rows3, cols3))):
            assert same_arrays(Chain(k4, given, "nodes"), want)
        # a scipy matrix keeps its stored order, its zeros dropped, and is not modified
        order = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(want.indptr, want.indptr[1:])])
        stored = sp.csr_matrix((np.append(want.data[order], 0.0),
                                np.append(want.indices[order], 3), want.indptr + [0, 0, 0, 0, 1]),
                               shape=(4, 4))
        before = stored.copy()
        ch = Chain(k4, stored, "nodes")
        kept = stored.copy()
        kept.eliminate_zeros()
        assert same_arrays(ch, kept) and same_arrays(stored, before)
        assert not np.array_equal(ch.indices, want.indices)
