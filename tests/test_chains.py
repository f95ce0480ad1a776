from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracles
from walktimes import (
    ChainError,
    ConvergenceError,
    DanglingEdgeError,
    ReducibleChainError,
    check_irreducible,
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
