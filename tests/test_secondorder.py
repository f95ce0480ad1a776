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
    check_irreducible,
    dangling_edges,
    downweighted_edge_chain,
    edge_chain_from_tensor,
    equilibrium_pullback,
    hitting_matrix,
    mean_hitting_times,
    nonbacktracking_edge_chain,
    uniform_edge_chain,
    uniform_node_chain,
)
from walktimes import secondorder
from walktimes._solvers import (
    _node_sets_steps,
    _node_system,
    chain_steps,
    expected_steps,
    node_target_steps,
)
from walktimes.config import TOL
from walktimes.firstorder import return_times as edge_return_times


def pullback_of(chain):
    return equilibrium_pullback(chain)


def edge_masks(g, k):
    leaving = np.array([i == k for i, _ in g.edges])
    entering = np.array([j == k for _, j in g.edges])
    return leaving, entering


class TestSecondOrderHittingProbabilities:
    def test_nb_k4_all_ones(self, k4):
        for k in range(4):
            phi = secondorder.hitting_probabilities(nonbacktracking_edge_chain(k4), k)
            assert np.allclose(phi, 1.0, atol=1e-12)

    def test_nb_c4_deterministic(self, c4):
        phi = secondorder.hitting_probabilities(nonbacktracking_edge_chain(c4), 2)
        assert phi[c4.edge_id(0, 1)] == 1.0

    def test_boundary_edges_one(self, k33):
        ch = uniform_edge_chain(k33)
        phi = secondorder.hitting_probabilities(ch, 3)
        leaving, entering = edge_masks(k33, 3)
        assert np.all(phi[leaving] == 1.0)
        assert np.all(phi[entering] == 1.0)

    def test_escape_digraph_vs_oracle(self):
        g = oracles.escape_digraph()
        ch = uniform_edge_chain(g)
        k = 1
        leaving, entering = edge_masks(g, k)
        phi = secondorder.hitting_probabilities(ch, k)
        boundary = np.flatnonzero(leaving | entering)
        expect = oracles.reach_fixed_point(ch.matrix.toarray(), boundary)
        expect[np.flatnonzero(leaving | entering)] = 1.0
        assert np.allclose(phi, expect, atol=1e-10)
        # edges inside the second cycle can never reach node 1
        assert phi[g.edge_id(3, 4)] == 0.0


class TestSecondOrderMeanHittingTimes:
    def test_nb_c4_frozen(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        sol = secondorder.mean_hitting_times(ch, 2)
        assert sol.time[c4.edge_id(0, 1)] == pytest.approx(2.0, abs=1e-12)
        assert sol.time[c4.edge_id(0, 3)] == pytest.approx(2.0, abs=1e-12)

    def test_boundary_values(self, k4):
        ch = downweighted_edge_chain(k4, 0.5)
        for k in range(4):
            sol = secondorder.mean_hitting_times(ch, k)
            leaving, entering = edge_masks(k4, k)
            assert np.all(sol.time[leaving] == 0.0)
            assert np.all(sol.time[entering & ~leaving] == 1.0)

    def test_matches_value_iteration(self, k33):
        ch = nonbacktracking_edge_chain(k33)
        for k in (0, 3):
            leaving, entering = edge_masks(k33, k)
            sol = secondorder.mean_hitting_times(ch, k)
            expect = oracles.steps_fixed_point(
                ch.matrix.toarray(),
                np.flatnonzero(leaving),
                np.flatnonzero(entering & ~leaving),
            )
            assert np.allclose(sol.time, expect, atol=1e-8)

    def test_infinite_entries_flagged(self):
        g = oracles.escape_digraph()
        ch = uniform_edge_chain(g)
        sol = secondorder.mean_hitting_times(ch, 1)
        e34 = g.edge_id(3, 4)
        assert not sol.finite[e34]
        assert np.isinf(sol.time[e34])
        # downstream-cycle edges reach node 4 just fine
        sol4 = secondorder.mean_hitting_times(ch, 4)
        assert sol4.finite[e34]


class TestLineGraphRoute:
    def test_nb_c4_frozen(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        tau = secondorder.mean_hitting_times_via_line_graph(ch, 2)
        assert tau[c4.edge_id(0, 1)] == pytest.approx(2.0, abs=1e-12)
        assert tau[c4.edge_id(2, 1)] == 0.0
        assert tau[c4.edge_id(2, 3)] == 0.0

    def test_agreement_named_graphs(self, c4, k4, k33, petersen):
        graphs = [c4, k4, k33, petersen]
        for g in graphs:
            for make in (uniform_edge_chain,
                         nonbacktracking_edge_chain,
                         lambda gg: downweighted_edge_chain(gg, 0.5)):
                ch = make(g)
                for k in range(g.n):
                    direct = secondorder.mean_hitting_times(ch, k).time
                    via = secondorder.mean_hitting_times_via_line_graph(ch, k)
                    both = np.isfinite(direct) & np.isfinite(via)
                    assert np.array_equal(np.isfinite(direct), np.isfinite(via))
                    assert np.abs(direct[both] - via[both]).max() <= 1e-10

    def test_agreement_with_infinite_entries(self):
        g = oracles.escape_digraph()
        ch = uniform_edge_chain(g)
        for k in range(6):
            direct = secondorder.mean_hitting_times(ch, k).time
            via = secondorder.mean_hitting_times_via_line_graph(ch, k)
            assert np.array_equal(np.isfinite(direct), np.isfinite(via))
            both = np.isfinite(direct)
            assert np.abs(direct[both] - via[both]).max() <= 1e-10


class TestNodeHitting:
    def test_nb_c4_frozen(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        pdata = pullback_of(ch)
        assert secondorder.node_hitting_times(pdata, 2)[0] == pytest.approx(2.0, abs=1e-12)
        # to the neighbor: half the walks go straight (1 step), half the
        # long way round (3 steps)
        assert secondorder.node_hitting_times(pdata, 1)[0] == pytest.approx(2.0, abs=1e-12)

    def test_target_node_zero(self, k33):
        ch = uniform_edge_chain(k33)
        pdata = pullback_of(ch)
        for k in range(6):
            assert secondorder.node_hitting_times(pdata, k)[k] == 0.0

    def test_uniform_chain_equals_classical(self, k4):
        ch = uniform_edge_chain(k4)
        pdata = pullback_of(ch)
        classical = hitting_matrix(uniform_node_chain(k4)).matrix
        for k in range(4):
            got = secondorder.node_hitting_times(pdata, k)
            assert np.abs(got - classical[:, k]).max() <= 1e-8
            assert got[(k + 1) % 4] == pytest.approx(3.0, abs=1e-8)


class TestSecondOrderReturns:
    def test_nb_c4_all_four(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        pdata = pullback_of(ch)
        res = secondorder.return_times(pdata, range(4))
        assert np.allclose(res.per_state, 4.0, atol=1e-12)

    def test_degree_formula_any_alpha(self, petersen):
        total = float(petersen.out_degree.sum())
        for alpha in (0.0, 0.3, 0.7, 1.0):
            ch = downweighted_edge_chain(petersen, alpha)
            pdata = pullback_of(ch)
            res = secondorder.return_times(pdata, range(10))
            expect = total / petersen.out_degree.astype(float)
            assert np.abs(res.per_state - expect).max() <= 1e-10

    def test_kac_identity(self, k33):
        ch = nonbacktracking_edge_chain(k33)
        pdata = pullback_of(ch)
        res = secondorder.return_times(pdata, range(6))
        assert np.abs(res.per_state * pdata.node_density - 1.0).max() <= 1e-10

    def test_set_return_reciprocal_mass(self, k4):
        ch = nonbacktracking_edge_chain(k4)
        pdata = pullback_of(ch)
        res = secondorder.return_times(pdata, [0, 2])
        mass = pdata.node_density[[0, 2]].sum()
        assert res.set_mean == pytest.approx(1.0 / mass, rel=1e-12)

    def test_whole_space_one(self, k4):
        ch = downweighted_edge_chain(k4, 0.4)
        pdata = pullback_of(ch)
        res = secondorder.return_times(pdata, range(4))
        assert res.set_mean == pytest.approx(1.0, abs=1e-12)

    def test_reducible_chain_failing_kac_is_a_data_error(self, k4):
        # the uniform density of the bistochastic permutation walk is
        # invariant but not the walk's equilibrium: node 3 returns in 3
        # steps, not 4
        pdata = pullback_of(edge_chain_from_tensor(k4, {t: 1.0 for t in K4_PERMUTATION}))
        with pytest.raises(ReducibleChainError,
                           match="^edge chain is reducible: 2 strongly connected "
                                 "components of sizes 3, 9$"):
            secondorder.return_times(pdata, [3])
        # where the identity holds the reducible walk still answers
        assert secondorder.return_times(pdata, [0, 1]).set_mean == pytest.approx(2.0)

    def test_per_node_message_prints_plain_numbers(self, k4):
        ch = downweighted_edge_chain(k4, 0.3)
        tol = dataclasses.replace(TOL, return_agreement=-1.0)
        with pytest.raises(InvariantViolation,
                           match=r"^return time to node 0: formula gives [0-9.]+, "
                                 r"reciprocal mass gives 4\.0$"):
            secondorder.return_times(pullback_of(ch), [0], tol=tol)


class TestSecondOrderHittingMatrix:
    def test_routes_agree(self, k4, k33, petersen):
        for g in (k4, k33, petersen):
            pdata = pullback_of(nonbacktracking_edge_chain(g))
            lifted = secondorder.lifted_hitting_matrix(pdata)
            assert np.abs(secondorder.hitting_matrix(pdata) - lifted).max() <= 1e-8

    @pytest.mark.parametrize("graph", ["random_undirected", "random_digraph"])
    @pytest.mark.parametrize("walk", ["uniform", "nb", "dw:0.3", "tensor"])
    def test_routes_agree_on_every_walk_kind(self, graph, walk):
        g = (oracles.random_undirected(10, 8, 4) if graph == "random_undirected"
             else oracles.random_digraph(9, 12, 4))   # no dangling edges
        ch = {"uniform": uniform_edge_chain,
              "nb": nonbacktracking_edge_chain,
              "dw:0.3": lambda g: downweighted_edge_chain(g, 0.3),
              "tensor": lambda g: random_tensor_chain(g, 5)}[walk](g)
        assert check_irreducible(ch)[0]
        pdata = pullback_of(ch)
        lifted = secondorder.lifted_hitting_matrix(pdata)
        T = secondorder.hitting_matrix(pdata)
        assert np.abs(T - lifted).max() <= 1e-8
        # the check lives inside: a negative tolerance makes it fire
        strict = dataclasses.replace(TOL, route_agreement=-1.0)
        with pytest.raises(InvariantViolation, match="^hitting matrix routes disagree by "):
            secondorder.lifted_hitting_matrix(pdata, tol=strict)

    def test_zero_diagonal_exact(self, petersen):
        ch = downweighted_edge_chain(petersen, 0.2)
        pdata = pullback_of(ch)
        T = secondorder.hitting_matrix(pdata)
        assert np.array_equal(np.diag(T), np.zeros(10))

    def test_uniform_equals_classical_matrix(self, k4):
        ch = uniform_edge_chain(k4)
        pdata = pullback_of(ch)
        T = secondorder.lifted_hitting_matrix(pdata)
        classical = hitting_matrix(uniform_node_chain(k4)).matrix
        assert np.abs(T - classical).max() <= 1e-8
        off = T[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 3.0, atol=1e-8)

    def test_stacks_node_hitting_columns_in_node_space(self, petersen, monkeypatch):
        pdata = pullback_of(nonbacktracking_edge_chain(petersen))
        want = np.column_stack([secondorder.node_hitting_times(pdata, k)
                                for k in range(petersen.n)])
        import walktimes._solvers as solvers

        def refuse(*args, **kwargs):
            raise AssertionError("an edge-state system was factored")
        monkeypatch.setattr(secondorder.fo, "hitting_matrix", refuse)
        monkeypatch.setattr(solvers, "chain_steps", refuse)
        T = secondorder.hitting_matrix(pdata)
        assert isinstance(T, np.ndarray) and T.shape == (petersen.n, petersen.n)
        assert np.array_equal(T, want)

    def test_nb_vs_classical_c4(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        pdata = pullback_of(ch)
        walk = secondorder.hitting_matrix(pdata)
        classical = hitting_matrix(uniform_node_chain(c4)).matrix
        assert walk[0, 2] == pytest.approx(2.0, abs=1e-10)
        assert classical[0, 2] == pytest.approx(4.0, abs=1e-10)

    def test_random_graph_routes(self):
        g = oracles.random_undirected(12, 10, 33)
        ch = downweighted_edge_chain(g, 0.35)
        pdata = pullback_of(ch)
        lifted = secondorder.lifted_hitting_matrix(pdata)
        assert np.abs(secondorder.hitting_matrix(pdata) - lifted).max() <= 1e-8

    def test_size_cap_on_lifted_route(self, petersen, monkeypatch):
        small = dataclasses.replace(TOL, dense_edge_cap=10)
        ch = nonbacktracking_edge_chain(petersen)
        pdata = pullback_of(ch)
        calls = count_splu(monkeypatch)
        with pytest.raises(SizeCapError):
            secondorder.lifted_hitting_matrix(pdata, tol=small)
        assert calls == []   # the cap fires before any node solve
        # hitting_matrix ignores the cap on edges
        assert secondorder.hitting_matrix(pdata, tol=small).shape == (10, 10)


class TestRandomTarget:
    def test_k33_uniform_condition_holds(self, k33):
        ch = uniform_edge_chain(k33)
        pdata = pullback_of(ch)
        rt = secondorder.random_target(pdata)
        assert rt.condition_holds
        assert rt.spread <= 1e-9

    def test_k4_uniform_condition_holds(self, k4):
        ch = uniform_edge_chain(k4)
        pdata = pullback_of(ch)
        rt = secondorder.random_target(pdata)
        assert rt.condition_holds
        assert rt.spread <= 1e-9
        # uniform edge chain behaves classically: kappa = (3/4) * 3
        assert rt.kappa == pytest.approx(2.25, abs=1e-10)

    def test_access_vector_matches_matrix(self, petersen):
        ch = nonbacktracking_edge_chain(petersen)
        pdata = pullback_of(ch)
        T = secondorder.hitting_matrix(pdata)
        rt = secondorder.random_target(pdata)
        expect = T @ pdata.node_density
        assert np.allclose(rt.access, expect, atol=1e-12)

    def test_vertex_transitive_nb(self, petersen):
        ch = nonbacktracking_edge_chain(petersen)
        pdata = pullback_of(ch)
        rt = secondorder.random_target(pdata)
        assert rt.condition_holds
        assert rt.spread <= 1e-9


def random_tensor_chain(g, seed):
    """Tensor walk with random positive weights on every next step."""
    return edge_chain_from_tensor(g, oracles.random_step_weights(g, seed))


def count_splu(monkeypatch):
    import walktimes._solvers as solvers
    calls = []
    real = solvers.splu

    def counted(A, *args, **kwargs):
        calls.append(A.shape[0])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(solvers, "splu", counted)
    return calls


def count_inverses(monkeypatch):
    """Sizes of the dense inverses formed: node-space bases, classical matrices."""
    calls = []
    real = np.linalg.inv

    def counted(A):
        calls.append(A.shape[0])
        return real(A)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def budgets():
    """The node-space base's byte budget, then none: the sparse LU route."""
    import walktimes._solvers as solvers
    return solvers._DENSE_BYTES, 0


class TestReachSolveOnlyOnReducibleChains:
    def irreducible_chains(self, k33, petersen):
        g = oracles.random_undirected(12, 10, 7)
        return [uniform_edge_chain(k33), nonbacktracking_edge_chain(petersen),
                downweighted_edge_chain(petersen, 0.3),
                random_tensor_chain(g, 3)]

    def test_times_bitwise_equal_to_reach_path(self, k33, petersen):
        for ch in self.irreducible_chains(k33, petersen):
            assert check_irreducible(ch)[0]
            for k in range(ch.graph.n):
                leaving, entering = secondorder._boundary_masks(ch, k)
                time, _, phi = chain_steps(ch, leaving, entering)
                reach_time, _, _ = expected_steps(
                    ch.matrix, leaving, entering, assume_sure=False
                )
                assert np.array_equal(time, reach_time)
                assert np.all(phi == 1.0)

    def test_one_factorization_per_chain(self, petersen, monkeypatch):
        # the base system, at full size: one dense inverse within the
        # byte budget, one sparse LU above it
        import walktimes._solvers as solvers
        for budget in budgets():
            monkeypatch.setattr(solvers, "_DENSE_BYTES", budget)
            pdata = pullback_of(nonbacktracking_edge_chain(petersen))
            calls, dense = count_splu(monkeypatch), count_inverses(monkeypatch)
            secondorder.hitting_matrix(pdata)
            assert (dense, calls) == (([petersen.n], []) if budget else ([], [petersen.n]))

    def test_one_factorization_at_scale(self, monkeypatch):
        # a 600-node, 1,800-edge core: one LU per target would be 1,200
        import walktimes._solvers as solvers
        g = oracles.random_undirected(600, 1200, 2)
        assert g.m == 3600
        for budget in budgets():
            monkeypatch.setattr(solvers, "_DENSE_BYTES", budget)
            calls, dense = count_splu(monkeypatch), count_inverses(monkeypatch)
            T = secondorder.hitting_matrix(pullback_of(nonbacktracking_edge_chain(g)))
            base = ([g.n], []) if budget else ([], [g.n])
            assert (dense, calls) == base and np.all(np.isfinite(T))
            # the classical matrix takes one dense fundamental matrix
            classical = hitting_matrix(uniform_node_chain(g))
            assert (dense, calls) == (base[0] + [g.n], base[1])
            assert classical.kappa_spread <= 1e-8

    def test_reducible_chains_take_reach_path(self, c3, c4, monkeypatch):
        for g in (c3, c4):
            ch = nonbacktracking_edge_chain(g)
            irreducible, comps = check_irreducible(ch)
            assert not irreducible and len(comps) == 2
            for e in range(g.m):
                calls = count_splu(monkeypatch)
                sol = mean_hitting_times(ch, [e])
                # one LU per solve with unknowns: every state reaches the
                # target surely or never, so only the steps take one
                assert len(calls) == 1
                own = next(c for c in comps if e in c)
                expect_inf = np.ones(g.m, dtype=bool)
                expect_inf[own] = False
                assert np.array_equal(np.isinf(sol.time), expect_inf)
                assert np.all(sol.probability[expect_inf] == 0.0)
            for k in range(g.n):
                sol = secondorder.mean_hitting_times(ch, k)
                leaving, entering = secondorder._boundary_masks(ch, k)
                reach_time, _, phi = expected_steps(
                    ch.matrix, leaving, entering, assume_sure=False
                )
                assert np.array_equal(sol.time, reach_time)
                assert np.array_equal(sol.probability, phi)
        # state 0 reaches the target by chance, state 3 surely: one LU
        # for the reach probabilities, one for the steps
        from walktimes.chains import Chain
        calls = count_splu(monkeypatch)
        sol = mean_hitting_times(Chain(*oracles.chance_digraph(), "nodes"), [1])
        assert len(calls) == 2
        assert sol.time.tolist() == [np.inf, 0.0, np.inf, 1.0, np.inf]
        assert sol.probability.tolist() == [0.5, 1.0, 0.0, 1.0, 0.0]

    def test_route_both_on_reducible_chain_fails_fast(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        with pytest.raises(InvariantViolation, match="never reaches"):
            secondorder.lifted_hitting_matrix(pullback_of(ch))

    def test_lifted_route_on_reducible_bistochastic_chain(self, k4, monkeypatch):
        # the permutation walk carries the uniform density but splits
        # in two: the edge time matrix fails before any dense work
        ch = edge_chain_from_tensor(k4, {t: 1.0 for t in K4_PERMUTATION})
        pdata = pullback_of(ch)
        calls = count_splu(monkeypatch)
        monkeypatch.setattr(np.linalg, "inv", None)
        with pytest.raises(InvariantViolation) as err:
            secondorder.lifted_hitting_matrix(pdata)
        assert str(err.value) == (
            "hitting time is infinite: some state never reaches the target set")
        assert calls == []


class TestNodeSpaceRoute:
    """Built-in walks on irreducible chains are solved over node unknowns."""

    @staticmethod
    def no_edge_route(monkeypatch):
        import walktimes._solvers as solvers

        def refuse(*args, **kwargs):
            raise AssertionError("the target went to the edge route")
        monkeypatch.setattr(solvers, "chain_steps", refuse)

    @staticmethod
    def assert_matches_edge_system(ch, k):
        time = secondorder.mean_hitting_times(ch, k).time
        leaving, entering = secondorder._boundary_masks(ch, k)
        want, _, _ = expected_steps(ch.matrix, leaving, entering, assume_sure=False)
        assert np.all(np.abs(time - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_matches_edge_system(self, monkeypatch):
        self.no_edge_route(monkeypatch)
        graphs = [oracles.random_digraph(9, 14, s) for s in range(1, 5)]
        graphs += [oracles.random_undirected(n, extra, s)
                   for s in range(1, 5) for n, extra in ((10, 3), (14, 12))]
        served = 0
        for g in graphs:
            walks = [uniform_edge_chain(g)]
            if not dangling_edges(g):
                walks += [nonbacktracking_edge_chain(g), downweighted_edge_chain(g, 0.3)]
            for ch in walks:
                if not check_irreducible(ch)[0]:
                    continue
                for k in range(g.n):
                    self.assert_matches_edge_system(ch, k)
                served += 1
        assert served >= 30

    def test_forced_pairs_stay_unknowns(self, monkeypatch):
        # the bow-tie's degree-2 nodes force the nb walk both ways along
        # the edge between them
        bowtie = oracles.undirected(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        ch = nonbacktracking_edge_chain(bowtie)
        self.no_edge_route(monkeypatch)
        forced = _node_system(ch).forced
        assert sorted(bowtie.edges[e] for e in forced) == [(0, 1), (1, 0), (3, 4), (4, 3)]
        for k in range(bowtie.n):
            self.assert_matches_edge_system(ch, k)

    def test_every_edge_touches_target(self, path3, monkeypatch):
        ch = uniform_edge_chain(path3)
        self.no_edge_route(monkeypatch)
        calls = count_splu(monkeypatch)
        time = secondorder.mean_hitting_times(ch, 1).time
        assert time.tolist() == [float(j == 1) for _, j in path3.edges]
        assert calls == []
        for k in range(path3.n):
            self.assert_matches_edge_system(ch, k)

    def test_node_sets_match_edge_system(self, k4, k33, petersen, monkeypatch):
        self.no_edge_route(monkeypatch)
        bowtie = oracles.undirected(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        graphs = [k4, k33, petersen, bowtie]
        graphs += [oracles.random_digraph(12, 10, s) for s in range(1, 4)]
        graphs += [oracles.random_undirected(14, 8, s) for s in range(1, 3)]
        rng = np.random.default_rng(11)
        seen = dict.fromkeys(["internal edge", "forced pair kept", "forced pair cut",
                              "base node", "base pair freed"], 0)
        served = 0
        for g in graphs:
            walks = [uniform_edge_chain(g)]
            if not dangling_edges(g):
                walks += [nonbacktracking_edge_chain(g), downweighted_edge_chain(g, 0.3)]
            for ch in walks:
                if not check_irreducible(ch)[0]:
                    continue
                ns = _node_system(ch)
                # the base target, its set with other nodes, its neighbours
                k0 = int(np.flatnonzero(ns.base_pinned[:g.n])[0])
                near = sorted(set(g.src[g.dst == k0]) | set(g.dst[g.src == k0]))
                sets = [rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False)
                        for _ in range(6)]
                sets += [[k0], [k0, (k0 + 1) % g.n], [k0, *near[:2]], near]
                sets += [[j] for j in near]
                if g is bowtie:
                    # S = {0, 1} holds the forced pair, {0} cuts it, {2} keeps both;
                    # k0 = 0 pins the pair next to it, which {3} frees
                    assert k0 == 0
                    sets += [[2], [0], [0, 1], [2, 3], [1, 3], [3], [3, 4]]
                forced = ns.forced
                for S in sets:
                    in_S = np.isin(np.arange(g.n), S)
                    leaving = in_S[g.src]
                    entering = in_S[g.dst] & ~leaving
                    time = node_target_steps(ch, S)[0]
                    want, _, _ = expected_steps(ch.matrix, leaving, entering,
                                                assume_sure=False)
                    assert np.all(np.abs(time - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
                    served += 1
                    interior = ~(leaving | entering)
                    seen["internal edge"] += bool((leaving & in_S[g.dst]).any())
                    seen["forced pair kept"] += bool(interior[forced].any())
                    seen["forced pair cut"] += bool((~interior[forced]).any())
                    seen["base node"] += bool(in_S[k0])
                    seen["base pair freed"] += bool((interior[forced]
                                                     & ns.base_pinned[g.n:]).any())
        assert served >= 100
        assert min(seen.values()) > 0, seen

    def test_large_sets_factor_their_own_system(self, monkeypatch):
        # one node changes a dozen rows of the 120-unknown base system;
        # half the nodes change nearly all of them. Within the byte
        # budget the base is a dense inverse, formed once and cached on
        # the chain, and that set too is a Woodbury correction of it; on
        # the sparse route it is past the Woodbury limit and factors its
        # own reduced system
        import walktimes._solvers as solvers
        g = oracles.random_undirected(120, 240, 1)
        for budget in budgets():
            monkeypatch.setattr(solvers, "_DENSE_BYTES", budget)
            ch = nonbacktracking_edge_chain(g)
            formed = ((([g.n], []), ([], [])) if budget else
                      (([], [g.n]), ([], [g.n // 2])))
            for S, want_formed in zip(([7], np.arange(0, g.n, 2)), formed):
                calls, dense = count_splu(monkeypatch), count_inverses(monkeypatch)
                time = node_target_steps(ch, S)[0]
                assert (dense, calls) == want_formed
                in_S = np.isin(np.arange(g.n), S)
                leaving = in_S[g.src]
                entering = in_S[g.dst] & ~leaving
                want, _, _ = expected_steps(ch.matrix, leaving, entering, assume_sure=False)
                assert np.all(np.abs(time - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_few_sets_keep_the_sparse_base(self, monkeypatch):
        # 300 unknowns, above a size floor lowered to 128: one target set,
        # or a few, takes the sparse LU of the base; a call over every node
        # forms the dense inverse, which then serves the later single sets too
        import walktimes._solvers as solvers
        monkeypatch.setattr(solvers, "_DENSE_SIZE", 128)
        g = oracles.random_undirected(300, 600, 3)
        ch = nonbacktracking_edge_chain(g)
        pdata = pullback_of(ch)
        calls, dense = count_splu(monkeypatch), count_inverses(monkeypatch)
        few = [x for x, _, _ in _node_sets_steps(ch, [(k,) for k in range(5)])]
        assert (dense, calls) == ([], [g.n])
        T = secondorder.hitting_matrix(pdata)
        assert (dense, calls) == ([g.n], [g.n])
        again = [node_target_steps(ch, (k,))[0] for k in range(5)]
        assert (dense, calls) == ([g.n], [g.n])
        for k in range(5):
            leaving = g.src == k
            want, _, _ = expected_steps(ch.matrix, leaving, (g.dst == k) & ~leaving,
                                        assume_sure=False)
            for time in (few[k], again[k]):
                assert np.all(np.abs(time - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            assert np.allclose(T[:, k], pdata.first_step_matrix @ few[k], rtol=1e-12, atol=0)

    def test_sets_solved_in_blocks_keep_their_own_digits(self, petersen, monkeypatch):
        # every node, sets of several sizes, a half-node set (on the sparse
        # route, past the Woodbury limit) and a set whose edges all touch
        # it; chains off the node route too. On either base the digits are
        # those of the set solved alone under the same block width: the
        # dense base's products take the shape of a whole block
        import walktimes._solvers as solvers
        # the strict tolerance rejects every node-space result: its sets
        # take chain_steps, at the default tolerance
        strict = dataclasses.replace(TOL, direct_solve_residual=-1.0)
        node_space = solvers._node_space_steps
        for budget in budgets():
            monkeypatch.setattr(solvers, "_DENSE_BYTES", budget)
            big = oracles.random_undirected(120, 240, 1)
            chains = [nonbacktracking_edge_chain(big), downweighted_edge_chain(petersen, 0.3),
                      uniform_edge_chain(oracles.path_graph(3)), random_tensor_chain(petersen, 5),
                      nonbacktracking_edge_chain(oracles.cycle_graph(4))]
            for ch, tol in [(ch, TOL) for ch in chains] + [(chains[1], strict)]:
                monkeypatch.setattr(solvers, "_node_space_steps",
                                    lambda chain, in_S, sets, _, tol=tol:
                                    node_space(chain, in_S, sets, tol))
                n = ch.graph.n
                sets = [(k,) for k in range(n)] + [(0, n - 1), tuple(range(0, n, 2))]
                for block in (solvers._BLOCK, 3):   # blocks as shipped, then three sets a block
                    monkeypatch.setattr(solvers, "_BLOCK", block)
                    one = [node_target_steps(ch, S)[0] for S in sets]
                    got = [x for x, _, _ in _node_sets_steps(ch, sets)]
                    assert len(got) == len(sets)
                    assert all(np.array_equal(a, b) for a, b in zip(got, one))

    def test_failed_base_factorization_takes_edge_route(self, petersen, monkeypatch):
        # a singular dense base within the byte budget, a failed sparse LU above it
        import walktimes._solvers as solvers
        failed = []

        def fail_first(real, error):
            def factor(A, *args, **kwargs):
                if not failed:
                    failed.append(A.shape[0])
                    raise error
                return real(A, *args, **kwargs)
            return factor

        for budget, owner, name, error in (
                (solvers._DENSE_BYTES, np.linalg, "inv", np.linalg.LinAlgError("Singular matrix")),
                (0, solvers, "splu", RuntimeError("Factor is exactly singular"))):
            monkeypatch.setattr(solvers, "_DENSE_BYTES", budget)
            real = getattr(owner, name)
            for ch in (nonbacktracking_edge_chain(petersen), uniform_edge_chain(petersen)):
                failed.clear()
                monkeypatch.setattr(owner, name, fail_first(real, error))
                got = [node_target_steps(ch, S) for S in ([0], [3, 4])]
                assert failed == [petersen.n] and ch._node_system is False
                monkeypatch.setattr(owner, name, real)
                for S, (time, finite, phi) in zip(([0], [3, 4]), got):
                    in_S = np.isin(np.arange(petersen.n), S)
                    leaving = in_S[petersen.src]
                    want = chain_steps(ch, leaving, in_S[petersen.dst] & ~leaving)
                    for a, b in zip((time, finite, phi), want):
                        assert np.array_equal(a, b)

    def test_hitting_matrix_at_2000_nodes(self, monkeypatch):
        # 12,000 edge states: every target is served from the dense base
        # and passes the edge system's residual test. The reference is an
        # edge-space Krylov solve per target: one sparse LU of this edge
        # system takes about 35 s and 480 MB
        import scipy.sparse as sp
        from scipy.sparse.linalg import bicgstab
        g = oracles.random_undirected(2000, 4000, 1)
        ch = nonbacktracking_edge_chain(g)
        pdata = pullback_of(ch)
        self.no_edge_route(monkeypatch)
        T = secondorder.hitting_matrix(pdata)
        assert isinstance(_node_system(ch).base, np.ndarray)
        assert np.array_equal(np.diag(T), np.zeros(g.n))
        assert np.all(np.isfinite(T)) and np.all(T >= 0)
        P = ch.matrix
        for k in (0, 777, 1999):
            leaving = g.src == k
            entering = (g.dst == k) & ~leaving
            interior = ~(leaving | entering)
            rows = P[interior]
            A = sp.identity(int(interior.sum()), format="csr") - rows[:, interior]
            rhs = 1.0 + np.asarray(rows[:, entering].sum(axis=1)).ravel()
            inner, info = bicgstab(A, rhs, rtol=1e-15, maxiter=10_000)
            assert info == 0
            x = entering.astype(np.float64)
            x[interior] = inner
            want = pdata.first_step_matrix @ x
            assert np.all(np.abs(T[:, k] - want) <= 1e-10 * np.abs(want))

    def test_other_chains_take_edge_route(self, c4, petersen, monkeypatch):
        import walktimes._solvers as solvers
        calls = []
        real = solvers.chain_steps

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(solvers, "chain_steps", counted)
        tensor = random_tensor_chain(oracles.random_undirected(12, 10, 7), 3)
        reducible = nonbacktracking_edge_chain(c4)
        for ch in (tensor, reducible):
            calls.clear()
            for k in range(ch.graph.n):
                secondorder.mean_hitting_times(ch, k)
            assert len(calls) == ch.graph.n
        assert _node_system(tensor) is None
        assert reducible._node_system is None   # never built: reducible chains skip it
        calls.clear()
        secondorder.mean_hitting_times(nonbacktracking_edge_chain(petersen), 0)
        assert calls == []


# a permutation of K4's twelve edges: the cycle 0-1-2-0 and a 9-cycle
# through every other edge, so the chain is reducible but bistochastic
K4_PERMUTATION = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 3),
                  (1, 3, 0), (3, 0, 3), (0, 3, 2), (3, 2, 3), (2, 3, 1), (3, 1, 0)]


def edge_loop_condition(pdata):
    """``random_target``'s condition from one edge-chain return solve per node."""
    chain = pdata.chain
    for k in range(chain.graph.n):
        edges = chain.graph.in_edges(k)
        vals = edge_return_times(chain, edges, pi=pdata.edge_density).per_state[edges]
        if vals.max() - vals.min() > TOL.access_spread * max(1.0, vals.mean()):
            return False
    return True


class TestEdgeChainReturnCrossCheck:
    """Node-space return times against ``firstorder.return_times`` on edge states.

    ``return_times`` takes its set value, and ``random_target`` its
    in-edge return times and condition, from node-space solves; the
    edge chain's own return solve checks them here on every walk kind.
    """

    @staticmethod
    def walks(k4, petersen):
        for g in (k4, petersen, oracles.random_undirected(12, 6, 3),
                  oracles.random_digraph(10, 8, 2)):
            yield uniform_edge_chain(g)
            if not dangling_edges(g):
                yield nonbacktracking_edge_chain(g)
                yield downweighted_edge_chain(g, 0.3)
            yield random_tensor_chain(g, 5)

    def test_set_and_in_edge_returns_match_edge_chain(self, k4, petersen):
        rng = np.random.default_rng(3)
        kinds = set()
        for ch in self.walks(k4, petersen):
            pdata = pullback_of(ch)
            g = ch.graph
            for k in range(g.n):
                x = secondorder.mean_hitting_times(ch, k).time
                edges = g.in_edges(k)
                want = edge_return_times(ch, edges, pi=pdata.edge_density).per_state[edges]
                got = 1.0 + (ch.matrix @ (ch.matrix @ x))[edges]
                assert np.allclose(got, want, rtol=1e-12, atol=0)
            for _ in range(4):
                S = sorted(rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False))
                x = node_target_steps(ch, S)[0]
                got = secondorder._return_time(pdata, S, x, "S", TOL)
                in_edges = np.flatnonzero(np.isin(g.dst, S))
                want = edge_return_times(ch, in_edges, pi=pdata.edge_density).set_mean
                assert got == pytest.approx(want, rel=1e-12)
            kinds.add(ch.kind.split(":")[0])
        assert kinds == {"uniform", "nonbacktracking", "downweighted", "tensor"}

    def test_condition_matches_edge_loop(self, k4, petersen):
        # the permutation walk fails the condition at node 0, before the
        # edge loop reaches node 3, whose in-edges the 3-cycle never enters
        permutation = edge_chain_from_tensor(k4, {t: 1.0 for t in K4_PERMUTATION})
        verdicts = set()
        for ch in [*self.walks(k4, petersen), permutation]:
            pdata = pullback_of(ch)
            holds = secondorder.random_target(pdata).condition_holds
            assert holds == edge_loop_condition(pdata)
            verdicts.add(holds)
        assert verdicts == {True, False}

    def test_node_queries_factor_no_edge_system(self, k33, petersen, monkeypatch):
        import walktimes._solvers as solvers
        calls, dense = count_splu(monkeypatch), count_inverses(monkeypatch)
        for budget in budgets():
            monkeypatch.setattr(solvers, "_DENSE_BYTES", budget)
            for g in (k33, petersen):
                for ch in (uniform_edge_chain(g), nonbacktracking_edge_chain(g),
                           downweighted_edge_chain(g, 0.3)):
                    calls.clear()
                    dense.clear()
                    secondorder.return_times(pullback_of(ch), [0, 2, 3])
                    secondorder.random_target(pullback_of(ch))
                    # one full-size base, a dense inverse or above the byte
                    # budget a sparse LU, serves the three nodes, the set
                    # and every target; none is over edges
                    assert (dense, calls) == (([g.n], []) if budget else ([], [g.n]))


class TestTargetWithoutInEdges:
    def test_both_routes_unreachable(self):
        # node 0 has no in-edges: only the edge leaving it is already there
        g = Graph(3, [(0, 1), (1, 2), (2, 1)])
        ch = uniform_edge_chain(g)
        expect = [0.0, np.inf, np.inf]
        assert secondorder.mean_hitting_times(ch, 0).time.tolist() == expect
        assert secondorder.mean_hitting_times_via_line_graph(ch, 0).tolist() == expect


class TestKernelPaths:
    def test_numpy_and_compiled_kernels_agree(self, petersen, monkeypatch):
        """Every query gives the same bits whether its sparse products run
        in numpy or in scipy's compiled kernels, on either node-space base."""
        import walktimes._solvers as solvers
        import walktimes.chains as chains
        from walktimes import firstorder
        bowtie = oracles.undirected(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        graphs = [petersen, bowtie, oracles.random_undirected(60, 90, 2),
                  oracles.random_digraph(20, 30, 3)]

        def queries(compiled, budget):
            monkeypatch.setattr(chains, "_compiled", lambda work: compiled)
            monkeypatch.setattr(solvers, "_DENSE_BYTES", budget)
            out = []
            for g in graphs:
                walks = [uniform_edge_chain(g), random_tensor_chain(g, 4)]
                if not dangling_edges(g):
                    walks += [nonbacktracking_edge_chain(g), downweighted_edge_chain(g, 0.3)]
                for ch in walks:
                    pdata = pullback_of(ch)
                    access = secondorder.random_target(pdata)
                    out += [secondorder.hitting_matrix(pdata), access.access,
                            np.array([access.kappa, access.spread, access.condition_holds]),
                            secondorder.return_times(pdata, range(g.n)).per_state,
                            secondorder.node_hitting_times(pdata, g.n - 1),
                            secondorder.return_times(pdata, [0, g.n // 2, g.n - 1]).per_state,
                            pdata.pullback.matrix.toarray()]
                out.append(firstorder.hitting_matrix(uniform_node_chain(g)).matrix)
            return out

        for budget in budgets():
            numpy_side, compiled_side = queries(False, budget), queries(True, budget)
            assert len(numpy_side) == len(compiled_side) > 50
            for a, b in zip(numpy_side, compiled_side):
                assert a.tobytes() == b.tobytes()
