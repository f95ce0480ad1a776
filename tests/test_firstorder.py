from __future__ import annotations

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
                res = return_times(ch, [i])
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
        tm = hitting_matrix(ch)
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
        # one dense fundamental matrix per chain: the time matrix takes no
        # node-space base
        import walktimes._solvers as solvers

        def refuse(*args, **kwargs):
            raise AssertionError("a sparse LU was factored")
        monkeypatch.setattr(solvers, "splu", refuse)
        inverses = []
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda A: inverses.append(A.shape[0]) or real(A))
        for ch in (uniform_node_chain(petersen), nonbacktracking_edge_chain(petersen)):
            inverses.clear()
            tm = hitting_matrix(ch)
            assert tm.kappa_spread <= 1e-8
            assert inverses == [ch.n_states]

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

    def test_checks_run_on_the_result(self, petersen, bounds):
        ch = uniform_node_chain(petersen)
        for field, message in (("kemeny_spread", "^density-weighted row means"),
                               ("t_matrix_residual", "^time matrix violates")):
            with bounds(**{field: -1.0}), pytest.raises(InvariantViolation, match=message):
                hitting_matrix(ch)

    def test_size_cap(self, k33, petersen, monkeypatch):
        # 8 n^2 float64 arrays at the peak: at that budget the matrix
        # forms, one byte under it the call stops before any solve or
        # dense array
        import walktimes._solvers as solvers
        from walktimes import config
        for ch in (uniform_node_chain(k33), nonbacktracking_edge_chain(petersen)):
            need = 8 * ch.n_states**2 * 8
            monkeypatch.setattr(config, "_DENSE_BUDGET", need)
            assert hitting_matrix(ch).kappa_spread <= 1e-8
            monkeypatch.setattr(config, "_DENSE_BUDGET", need - 1)
            for owner, name in ((solvers, "splu"), (np.linalg, "inv"), (np, "eye")):
                monkeypatch.setattr(owner, name, None)
            with pytest.raises(SizeCapError) as err:
                hitting_matrix(ch)
            assert str(err.value) == (
                f"the time matrix of {ch.n_states} states needs {need:,} bytes of "
                f"dense arrays, over the budget of {need - 1:,} bytes")
            monkeypatch.undo()


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
        dec = subset_decomposition(ch, [0, 2])
        tm = hitting_matrix(ch)
        recon = tm.matrix[:, [0, 2]] @ dec.weights[[0, 2]] - dec.offset
        tau = mean_hitting_times(ch, [0, 2]).time
        assert np.abs(recon - tau).max() <= 1e-10

    def test_random_subsets(self):
        rng = np.random.default_rng(9)
        for seed in range(2):
            g = oracles.random_undirected(12, 10, seed + 20)
            ch = uniform_node_chain(g)
            tm = hitting_matrix(ch)
            for _ in range(10):
                size = int(rng.integers(1, 5))
                S = sorted(rng.choice(g.n, size=size, replace=False).tolist())
                dec = subset_decomposition(ch, S, T=tm.matrix)
                assert dec.weights.sum() == pytest.approx(1.0, abs=1e-10)
                recon = tm.matrix[:, S] @ dec.weights[S] - dec.offset
                tau = mean_hitting_times(ch, S).time
                assert np.abs(recon - tau).max() <= 1e-8


class TestMinimality:
    def test_direct_and_iterative_agree(self):
        for seed in range(3):
            g = oracles.random_undirected(10, 8, seed + 40)
            ch = uniform_node_chain(g)
            sol = mean_hitting_times(ch, [0])
            # value iteration x <- 1 + B x on the interior, from zero,
            # climbs to the minimal solution
            B = ch.matrix.toarray()[1:, 1:]
            x = np.zeros(g.n - 1)
            for _ in range(100_000):
                y = 1.0 + B @ x
                done = np.abs(y - x).max() <= 1e-12 * max(1.0, np.abs(y).max())
                x = y
                if done:
                    break
            else:
                pytest.fail("value iteration did not converge")
            assert np.abs(x - sol.time[1:]).max() <= 1e-8

    def test_rejected_direct_solve_raises_convergence_error(self, petersen, bounds):
        from walktimes._solvers import reach_probabilities
        from walktimes.chains import Chain
        from walktimes.errors import ConvergenceError
        g, P = oracles.chance_digraph()
        ch = Chain(g, P, "nodes")
        target = np.arange(g.n) == 1
        with bounds(direct_solve_residual=-1.0):
            with pytest.raises(ConvergenceError, match="direct solve of the expected steps"):
                mean_hitting_times(uniform_node_chain(petersen), [0])
            with pytest.raises(ConvergenceError, match="direct solve of the reach probabilities"):
                reach_probabilities(ch.matrix, target)
        # the default tolerance accepts both solves
        assert reach_probabilities(ch.matrix, target).tolist() == [0.5, 1.0, 0.0, 1.0, 0.0]


def random_arcs(rng, out_arcs: bool):
    """n and the sorted arcs of a random digraph on 2..24 nodes, mostly
    not strongly connected; with ``out_arcs`` every node has one."""
    n = int(rng.integers(2, 25))
    arcs = {(int(i), int(j)) for i, j in rng.integers(n, size=(n, 2)) if i != j}
    if out_arcs:
        arcs |= {(i, int(i + rng.integers(1, n)) % n) for i in range(n)}
    return n, sorted(arcs)


def random_target(rng, n):
    target = np.zeros(n, dtype=bool)
    target[rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)] = True
    return target


class TestReachMasks:
    """Sure and possible absorption read off the support graph."""

    def test_matches_networkx_on_random_arcs(self):
        nx = pytest.importorskip("networkx")
        from walktimes._solvers import _reach_masks
        rng = np.random.default_rng(4)
        kinds = np.zeros(3, dtype=bool)
        for _ in range(40):
            n, arcs = random_arcs(rng, out_arcs=False)
            target = random_target(rng, n)
            dg = nx.DiGraph(arcs)
            dg.add_nodes_from(range(n))
            can = target.copy()
            for t in np.flatnonzero(target):
                can[list(nx.ancestors(dg, int(t)))] = True
            # with the target's out-arcs cut, a path to a state outside
            # can never passes through the target
            dg.remove_edges_from([(i, j) for i, j in arcs if target[i]])
            miss = ~can
            for v in np.flatnonzero(~can):
                miss[list(nx.ancestors(dg, int(v)))] = True
            got = _reach_masks(Graph(n, arcs).adjacency(), target)
            assert np.array_equal(got[0], can) and np.array_equal(got[1], ~miss)
            kinds |= [(can & miss).any(), (~can).any(), (~miss & ~target).any()]
        assert kinds.all()

    def test_reach_probabilities_match_dense_solve(self):
        from walktimes._solvers import _reach_masks
        from walktimes.chains import Chain, check_irreducible
        rng = np.random.default_rng(5)
        chains = [uniform_node_chain(oracles.escape_digraph()), gamblers_ruin(),
                  Chain(*oracles.chance_digraph(), "nodes")]
        for _ in range(40):
            chains.append(uniform_node_chain(Graph(*random_arcs(rng, out_arcs=True))))
        by_chance = 0
        for ch in chains:
            if check_irreducible(ch)[0]:
                continue
            n = ch.n_states
            target = random_target(rng, n)
            can, sure = _reach_masks(ch.matrix, target)
            c = np.flatnonzero(can & ~sure)
            P = ch.matrix.toarray()
            want = sure.astype(np.float64)
            want[c] = np.linalg.solve(np.eye(c.size) - P[np.ix_(c, c)],
                                      P[np.ix_(c, sure)].sum(axis=1))
            phi = hitting_probabilities(ch, np.flatnonzero(target))
            assert np.array_equal(phi[~(can & ~sure)], want[~(can & ~sure)])
            assert np.allclose(phi, want, rtol=1e-12, atol=0)
            by_chance += c.size
        assert by_chance >= 20

    def test_irreducible_chain_gives_exact_ones(self, petersen):
        assert np.array_equal(hitting_probabilities(uniform_node_chain(petersen), [3]),
                              np.ones(petersen.n))

    def test_near_sure_state_is_infinite(self):
        # state 0 enters the target 1 with probability 1 - 1e-12 and the
        # closed pair 2 <-> 3 with 1e-12: it can miss, so its mean time
        # is infinite however small the chance
        import scipy.sparse as sp
        from walktimes.chains import Chain
        g = Graph(4, [(0, 1), (0, 2), (1, 0), (2, 3), (3, 2)])
        P = sp.csr_matrix(([1 - 1e-12, 1e-12, 1.0, 1.0, 1.0], ([0, 0, 1, 2, 3], [1, 2, 0, 3, 2])),
                          shape=(4, 4))
        sol = mean_hitting_times(Chain(g, P, "nodes"), [1])
        assert sol.time.tolist() == [np.inf, 0.0, np.inf, np.inf]
        assert sol.finite.tolist() == [False, True, False, False]
        assert sol.probability.tolist() == [1 - 1e-12, 1.0, 0.0, 0.0]
