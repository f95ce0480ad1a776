from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracles
from walktimes import (
    Graph,
    InvariantViolation,
    ReducibleChainError,
    SizeCapError,
    downweighted_edge_chain,
    edge_chain_from_tensor,
    hitting_matrix,
    hitting_probabilities,
    mean_hitting_times,
    nonbacktracking_edge_chain,
    return_times,
    stationary_density,
    subset_decomposition,
    uniform_edge_chain,
    uniform_node_chain,
)
from walktimes import firstorder
from walktimes.config import TOL


def gamblers_ruin(n: int = 6, p: float = 0.5):
    """Birth-death chain on 0..n with absorbing barriers at 0 and n."""
    import scipy.sparse as sp
    from walktimes.chains import Chain
    edges = []
    P = np.zeros((n + 1, n + 1))
    P[0, 0] = 0.0
    P[n, n] = 0.0
    for i in range(1, n):
        P[i, i - 1] = 1 - p
        P[i, i + 1] = p
        edges.append((i, i - 1))
        edges.append((i, i + 1))
    # absorbing states need a self-transition for row-stochasticity;
    # the graph type forbids self-loops, so park the mass on a 2-cycle
    P[0, 1] = 1.0
    P[n, n - 1] = 1.0
    edges.append((0, 1))
    edges.append((n, n - 1))
    g = Graph(n + 1, sorted(set(edges)))
    return Chain(g, sp.csr_matrix(P), "nodes")


class TestHittingProbabilities:
    def test_all_ones_when_strongly_connected(self, k4, petersen):
        for g in (k4, petersen):
            ch = uniform_node_chain(g)
            phi = hitting_probabilities(ch, [1])
            assert np.allclose(phi, 1.0, atol=1e-12)

    def test_unreachable_component_zero(self):
        g = Graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)], undirected=True)
        phi = hitting_probabilities(uniform_node_chain(g), [0])
        assert phi[0] == 1.0 and phi[1] == 1.0
        assert phi[2] == 0.0 and phi[3] == 0.0

    def test_escape_digraph_values(self):
        # from the first 3-cycle the walk leaks through 0 -> 3 and never
        # comes back, so reaching node 1 is uncertain only upstream of 0
        g = oracles.escape_digraph()
        ch = uniform_node_chain(g)
        phi = hitting_probabilities(ch, [1])
        expect = oracles.reach_fixed_point(ch.matrix.toarray(), [1])
        assert np.allclose(phi, expect, atol=1e-10)
        assert phi[3] == 0.0
        assert 0 < phi[0] < 1

    def test_matches_fixed_point_oracle(self):
        ch = gamblers_ruin()
        # ruin probability: walk sits at 0 after one forced bounce; target 0
        phi = hitting_probabilities(ch, [0])
        expect = oracles.reach_fixed_point(ch.matrix.toarray(), [0])
        assert np.allclose(phi, expect, atol=1e-10)


class TestMeanHittingTimes:
    def test_c4_frozen_values(self, c4):
        ch = uniform_node_chain(c4)
        assert mean_hitting_times(ch, [2]).time[0] == pytest.approx(4.0, abs=1e-12)
        assert mean_hitting_times(ch, [1]).time[0] == pytest.approx(3.0, abs=1e-12)

    def test_cycle_closed_form(self):
        for n in (5, 8, 11):
            ch = uniform_node_chain(oracles.cycle_graph(n))
            for k in range(1, n):
                got = mean_hitting_times(ch, [k]).time[0]
                assert got == pytest.approx(oracles.cycle_hitting_time(n, k), rel=1e-12)

    def test_target_states_zero(self, k33):
        sol = mean_hitting_times(uniform_node_chain(k33), [0, 4])
        assert sol.time[0] == 0.0 and sol.time[4] == 0.0
        assert sol.target == (0, 4)

    def test_all_states_zero_vector(self, k4):
        sol = mean_hitting_times(uniform_node_chain(k4), range(4))
        assert np.array_equal(sol.time, np.zeros(4))

    def test_infinite_flagged(self):
        g = oracles.escape_digraph()
        sol = mean_hitting_times(uniform_node_chain(g), [1])
        assert not sol.finite[3]
        assert np.isinf(sol.time[3])
        assert not sol.finite[0]  # positive escape chance upstream too
        assert sol.finite[1]

    def test_matches_value_iteration(self, petersen):
        ch = uniform_node_chain(petersen)
        got = mean_hitting_times(ch, [0]).time
        expect = oracles.steps_fixed_point(ch.matrix.toarray(), [0])
        assert np.allclose(got, expect, atol=1e-8)

    def test_edge_chain_states(self, k4):
        ch = uniform_edge_chain(k4)
        sol = mean_hitting_times(ch, [0])
        expect = oracles.steps_fixed_point(ch.matrix.toarray(), [0])
        assert np.allclose(sol.time, expect, atol=1e-8)


class TestReturnTimes:
    def test_k4_singleton(self, k4):
        res = return_times(uniform_node_chain(k4), [0])
        assert res.set_mean == pytest.approx(4.0, abs=1e-12)
        assert res.per_state[0] == pytest.approx(4.0, abs=1e-12)

    def test_degree_formula(self):
        g = oracles.random_undirected(11, 9, 2)
        ch = uniform_node_chain(g)
        total = float(g.out_degree.sum())
        for i in (0, 3, 7):
            res = return_times(ch, [i])
            assert res.set_mean == pytest.approx(total / g.out_degree[i], rel=1e-12)

    def test_whole_space_returns_one(self, k33):
        res = return_times(uniform_node_chain(k33), range(6))
        assert res.set_mean == pytest.approx(1.0, abs=1e-12)
        assert res.density_mass == pytest.approx(1.0, abs=1e-12)

    def test_kac_identity_many_chains(self):
        chains = [
            uniform_node_chain(oracles.random_undirected(9, 7, 3)),
            uniform_node_chain(oracles.random_digraph(8, 9, 3)),
            nonbacktracking_edge_chain(oracles.complete_graph(5)),
        ]
        for ch in chains:
            pi = stationary_density(ch)
            for i in range(ch.n_states):
                res = return_times(ch, [i], pi=pi)
                assert res.set_mean * pi[i] == pytest.approx(1.0, abs=1e-10)

    def test_reducible_rejected(self, c4):
        with pytest.raises(ReducibleChainError):
            return_times(nonbacktracking_edge_chain(c4), [0])


class TestHittingMatrix:
    def test_c4_kemeny_and_column(self, c4):
        tm = hitting_matrix(uniform_node_chain(c4))
        assert tm.kappa == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(tm.matrix[:, 2], [4.0, 3.0, 0.0, 3.0], atol=1e-10)

    def test_complete_graph_off_diagonal(self):
        for n in (4, 6):
            tm = hitting_matrix(uniform_node_chain(oracles.complete_graph(n)))
            expect = (n - 1.0) * (np.ones((n, n)) - np.eye(n))
            assert np.allclose(tm.matrix, expect, atol=1e-10)

    def test_diagonal_exactly_zero(self, petersen):
        tm = hitting_matrix(uniform_node_chain(petersen))
        assert np.array_equal(np.diag(tm.matrix), np.zeros(10))

    def test_random_target_spread_small(self):
        g = oracles.random_digraph(10, 14, 4)
        tm = hitting_matrix(uniform_node_chain(g))
        assert tm.kappa_spread <= 1e-8

    def test_linear_equation_residual(self):
        g = oracles.random_undirected(10, 8, 5)
        ch = uniform_node_chain(g)
        pi = stationary_density(ch)
        tm = hitting_matrix(ch, pi=pi)
        n = g.n
        lhs = tm.matrix - ch.matrix @ tm.matrix
        rhs = np.ones((n, n))
        rhs[np.diag_indices(n)] = 1.0 - 1.0 / pi
        assert np.abs(lhs - rhs).max() <= 1e-8

    @pytest.mark.parametrize("walk", ["node", "uniform", "nb", "dw:0.3", "tensor"])
    def test_columns_match_per_target_solves(self, walk):
        for g in (oracles.random_undirected(12, 10, 3), oracles.random_digraph(10, 12, 4)):
            ch = {"node": uniform_node_chain,
                  "uniform": uniform_edge_chain,
                  "nb": nonbacktracking_edge_chain,
                  "dw:0.3": lambda g: downweighted_edge_chain(g, 0.3),
                  "tensor": lambda g: edge_chain_from_tensor(
                      g, oracles.random_step_weights(g, 5))}[walk](g)
            T = hitting_matrix(ch).matrix
            for k in range(ch.n_states):
                want = mean_hitting_times(ch, [k]).time
                assert np.all(np.abs(T[:, k] - want) <= 1e-12 * np.maximum(1.0, want))
            assert np.array_equal(np.diag(T), np.zeros(ch.n_states))

    def test_no_factorization_on_irreducible_chain(self, petersen, monkeypatch):
        import walktimes._solvers as solvers

        def refuse(*args, **kwargs):
            raise AssertionError("a sparse LU was factored")
        monkeypatch.setattr(solvers, "splu", refuse)
        for ch in (uniform_node_chain(petersen), nonbacktracking_edge_chain(petersen)):
            tm = hitting_matrix(ch)
            assert tm.kappa_spread <= 1e-8

    def test_exact_density_at_2000_nodes(self):
        # a solved density off deg / 2E by about 1e-11 relative breaks the
        # return equations on the diagonal by about 1e-7 at this size
        g = oracles.random_undirected(2000, 4000, 1)
        ch = uniform_node_chain(g)
        deg = g.out_degree.astype(float)
        assert np.array_equal(ch.density, deg / deg.sum())
        tm = hitting_matrix(ch)
        assert tm.kappa_spread <= TOL.kemeny_spread
        assert np.array_equal(np.diag(tm.matrix), np.zeros(g.n))

    def test_checks_run_on_the_result(self, petersen):
        ch = uniform_node_chain(petersen)
        for field, message in (("kemeny_spread", "^density-weighted row means"),
                               ("t_matrix_residual", "^time matrix violates")):
            strict = dataclasses.replace(TOL, **{field: -1.0})
            with pytest.raises(InvariantViolation, match=message):
                hitting_matrix(ch, tol=strict)

    def test_size_cap(self, k33, monkeypatch):
        small = dataclasses.replace(TOL, dense_edge_cap=3)
        monkeypatch.setattr(firstorder, "TOL", small)
        with pytest.raises(SizeCapError, match="cap"):
            hitting_matrix(uniform_node_chain(k33), tol=small)


class TestSubsetDecomposition:
    def test_singleton_trivial(self, k4):
        ch = uniform_node_chain(k4)
        dec = subset_decomposition(ch, [2])
        assert dec.weights[2] == pytest.approx(1.0, abs=1e-12)
        assert dec.offset == pytest.approx(0.0, abs=1e-9)

    def test_k4_pair(self, k4):
        ch = uniform_node_chain(k4)
        dec = subset_decomposition(ch, [0, 1])
        assert np.allclose(dec.weights[[0, 1]], 0.5, atol=1e-12)
        # offset = weighted mean time between members: T_01 = 3
        assert dec.offset == pytest.approx(1.5, abs=1e-10)

    def test_c4_opposite_pair_identity(self, c4):
        ch = uniform_node_chain(c4)
        pi = stationary_density(ch)
        dec = subset_decomposition(ch, [0, 2], pi=pi)
        tm = hitting_matrix(ch, pi=pi)
        recon = tm.matrix[:, [0, 2]] @ dec.weights[[0, 2]] - dec.offset
        tau = mean_hitting_times(ch, [0, 2]).time
        assert np.abs(recon - tau).max() <= 1e-10

    def test_random_subsets(self):
        rng = np.random.default_rng(9)
        for seed in range(2):
            g = oracles.random_undirected(12, 10, seed + 20)
            ch = uniform_node_chain(g)
            pi = stationary_density(ch)
            tm = hitting_matrix(ch, pi=pi)
            for _ in range(10):
                size = int(rng.integers(1, 5))
                S = sorted(rng.choice(g.n, size=size, replace=False).tolist())
                dec = subset_decomposition(ch, S, pi=pi, T=tm.matrix)
                assert dec.weights.sum() == pytest.approx(1.0, abs=1e-10)
                recon = tm.matrix[:, S] @ dec.weights[S] - dec.offset
                tau = mean_hitting_times(ch, S).time
                assert np.abs(recon - tau).max() <= 1e-8


class TestMinimality:
    def test_direct_and_iterative_agree(self):
        from walktimes._solvers import _iterate_affine
        import scipy.sparse as sp
        for seed in range(3):
            g = oracles.random_undirected(10, 8, seed + 40)
            ch = uniform_node_chain(g)
            sol = mean_hitting_times(ch, [0])
            # rebuild the interior affine system and iterate from zero
            interior = np.arange(1, g.n)
            B = sp.csr_matrix(ch.matrix.toarray()[np.ix_(interior, interior)])
            rhs = np.ones(g.n - 1)
            it, diverged = _iterate_affine(B, rhs, None, TOL)
            assert not diverged.any()
            assert np.abs(it - sol.time[interior]).max() <= 1e-8

    def test_non_monotone_iterate_raises_convergence_error(self):
        from walktimes._solvers import _iterate_affine
        from walktimes.errors import ConvergenceError
        import scipy.sparse as sp
        # x <- 1 - 0.5 x goes 0, 1, 0.5: the second step decreases
        B = sp.csr_matrix(np.array([[-0.5]]))
        with pytest.raises(ConvergenceError, match="monotonicity"):
            _iterate_affine(B, np.ones(1), None, TOL)
