from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracles
from walktimes import (
    Chain,
    ChainError,
    Graph,
    ReducibleChainError,
    downweighted_edge_chain,
    edge_chain_from_tensor,
    equilibrium_pullback,
    nonbacktracking_edge_chain,
    stationary_density,
    uniform_edge_chain,
    uniform_node_chain,
)
from walktimes.chains import _solve_density
from walktimes.config import TOL


class TestPullbackEqualsUniformWalk:
    def test_nb_k4(self, k4):
        pdata = equilibrium_pullback(nonbacktracking_edge_chain(k4))
        expect = uniform_node_chain(k4).matrix.toarray()
        got = pdata.pullback.matrix.toarray()
        assert np.abs(got - expect).max() <= 1e-12

    def test_uniform_chain_any_undirected(self):
        for seed in range(3):
            g = oracles.random_undirected(10, 8, seed + 60)
            pdata = equilibrium_pullback(uniform_edge_chain(g))
            expect = uniform_node_chain(g).matrix.toarray()
            assert np.abs(pdata.pullback.matrix.toarray() - expect).max() <= 1e-12

    def test_alpha_independence(self, petersen):
        expect = uniform_node_chain(petersen).matrix.toarray()
        rng = np.random.default_rng(1)
        mats = []
        for alpha in rng.uniform(0.05, 0.95, size=5):
            pdata = equilibrium_pullback(downweighted_edge_chain(petersen, float(alpha)))
            mats.append(pdata.pullback.matrix.toarray())
            assert np.abs(mats[-1] - expect).max() <= 1e-12
        for M in mats[1:]:
            assert np.abs(M - mats[0]).max() <= 1e-12


class TestLiftingRestriction:
    def test_lifting_restriction_identity(self, k33):
        pdata = equilibrium_pullback(uniform_edge_chain(k33))
        LR = (pdata.lifting @ pdata.restriction).toarray()
        assert np.abs(LR - np.eye(k33.n)).max() <= 1e-15

    def test_lifting_rows_stochastic(self, petersen):
        pdata = equilibrium_pullback(downweighted_edge_chain(petersen, 0.3))
        rows = np.asarray(pdata.lifting.sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() <= 1e-15

    def test_restriction_is_indicator(self, k4):
        pdata = equilibrium_pullback(uniform_edge_chain(k4))
        R = pdata.restriction.toarray()
        for e, (_, j) in enumerate(k4.edges):
            row = np.zeros(k4.n)
            row[j] = 1.0
            assert np.array_equal(R[e], row)

    def test_arrival_weights_group_to_one(self):
        g = oracles.random_digraph(8, 10, 2)
        pdata = equilibrium_pullback(uniform_edge_chain(g))
        for i in range(g.n):
            lam = pdata.arrival_weights[list(g.in_edges(i))]
            assert lam.sum() == pytest.approx(1.0, abs=1e-15)


class TestDensities:
    def test_node_density_from_edge_density(self, k33):
        ch = uniform_edge_chain(k33)
        pdata = equilibrium_pullback(ch)
        expect = np.zeros(k33.n)
        for e, (_, j) in enumerate(k33.edges):
            expect[j] += pdata.edge_density[e]
        assert np.allclose(pdata.node_density, expect, atol=1e-15)

    def test_node_density_invariant_for_pullback(self):
        g = oracles.random_undirected(9, 6, 4)
        pdata = equilibrium_pullback(downweighted_edge_chain(g, 0.6))
        pi = pdata.node_density
        resid = np.abs(pi @ pdata.pullback.matrix - pi).max()
        assert resid <= 1e-10

    def test_undirected_closed_forms(self):
        # bistochastic edge chain: node density d_i / sum d, first
        # transitions 1 / d_i, arrival weights 1 / d_i
        g = oracles.random_undirected(8, 5, 8)
        pdata = equilibrium_pullback(nonbacktracking_edge_chain(g))
        deg = g.out_degree.astype(float)
        assert np.allclose(pdata.node_density, deg / deg.sum(), atol=1e-12)
        for e, (i, j) in enumerate(g.edges):
            assert pdata.first_transition[e] == pytest.approx(1 / deg[i], abs=1e-12)
            assert pdata.arrival_weights[e] == pytest.approx(1 / deg[j], abs=1e-12)

    def test_first_transition_rows_sum_one(self):
        g = oracles.random_digraph(7, 8, 5)
        pdata = equilibrium_pullback(uniform_edge_chain(g))
        for i in range(g.n):
            s = pdata.first_transition[list(g.out_edges(i))].sum()
            assert s == pytest.approx(1.0, abs=1e-12)

    def test_first_step_matrix_entries(self, k4):
        pdata = equilibrium_pullback(uniform_edge_chain(k4))
        M = pdata.first_step_matrix.toarray()
        for e, (i, _) in enumerate(k4.edges):
            assert M[i, e] == pdata.first_transition[e]
        assert np.count_nonzero(M) == k4.m


class TestLiftRestrictOps:
    def test_stationary_round_trip(self, petersen):
        ch = downweighted_edge_chain(petersen, 0.25)
        pdata = equilibrium_pullback(ch)
        lifted = pdata.lift(pdata.node_density)
        assert np.abs(lifted - pdata.edge_density).max() <= 1e-12
        back = pdata.restrict(pdata.edge_density)
        assert np.abs(back - pdata.node_density).max() <= 1e-15

    def test_point_mass_lift_on_c4(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        pdata = equilibrium_pullback(ch)
        p = np.zeros(4)
        p[2] = 1.0
        phat = pdata.lift(p)
        for e in c4.in_edges(2):
            assert phat[e] == pytest.approx(0.5, abs=1e-15)
        assert phat.sum() == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_restrict(self, c4):
        pdata = equilibrium_pullback(uniform_edge_chain(c4))
        phat = np.zeros(8)
        phat[c4.edge_id(0, 1)] = 1.0
        p = pdata.restrict(phat)
        assert p[1] == 1.0 and p.sum() == 1.0

    def test_uniform_k4_lift_is_uniform(self, k4):
        pdata = equilibrium_pullback(uniform_edge_chain(k4))
        phat = pdata.lift(np.full(4, 0.25))
        assert np.allclose(phat, np.full(12, 1 / 12), atol=1e-15)

    def test_restrict_after_lift_identity(self):
        g = oracles.random_undirected(7, 6, 9)
        pdata = equilibrium_pullback(uniform_edge_chain(g))
        rng = np.random.default_rng(3)
        p = rng.random(g.n)
        p /= p.sum()
        assert np.abs(pdata.restrict(pdata.lift(p)) - p).max() <= 1e-15


class TestDirectedPullback:
    def test_strongly_connected_digraph(self):
        g = oracles.random_digraph(9, 12, 6)
        ch = uniform_edge_chain(g)
        pdata = equilibrium_pullback(ch)
        P = pdata.pullback.matrix
        rows = np.asarray(P.sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() <= 1e-12
        pihat = stationary_density(ch)
        assert np.abs(pdata.edge_density - pihat).max() <= 1e-12


class TestEquilibriumPullback:
    def test_reducible_bistochastic_fallback(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        pdata = equilibrium_pullback(ch)
        assert np.array_equal(pdata.edge_density, np.full(8, 1 / 8))

    def test_reducible_not_bistochastic_raises(self):
        # the walk can leave {0, 1} for {2, 3} but never come back
        g = Graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        ch = uniform_edge_chain(g)
        assert ch.density is None
        with pytest.raises(ReducibleChainError) as got:
            equilibrium_pullback(ch)
        with pytest.raises(ReducibleChainError) as direct:
            stationary_density(ch)
        assert str(got.value) == str(direct.value)
        assert got.value.components == direct.value.components
        assert len(got.value.components) == 3

    def test_supplied_density_comes_first(self, c4):
        # nb on C4 splits into the two directions of travel; any mix of
        # their uniform densities is invariant
        ch = nonbacktracking_edge_chain(c4)
        clockwise = np.isin(np.arange(8), [c4.edge_id(i, (i + 1) % 4) for i in range(4)])
        pihat = np.where(clockwise, 0.05, 0.2)
        pdata = equilibrium_pullback(ch, pihat=pihat)
        assert np.array_equal(pdata.edge_density, pihat)
        assert np.allclose(pdata.node_density, 0.25, atol=1e-15)
        # a density supplied to the chain wins over the uniform one
        own = Chain(c4, ch.matrix, "edges", density=pihat)
        assert np.array_equal(own.density, pihat)
        assert np.array_equal(equilibrium_pullback(own).edge_density, pihat)

    def test_chain_density_before_solve(self, k4):
        ch = uniform_edge_chain(k4)
        own = Chain(k4, ch.matrix, "edges", density=np.full(12, 1 / 12))
        assert equilibrium_pullback(own).edge_density is own.density

    def test_explicit_density_validated(self, k4):
        ch = uniform_edge_chain(k4)
        bad = np.full(12, 1 / 12)
        bad[0] = 0.5  # not invariant, does not even sum to 1
        with pytest.raises(ChainError):
            equilibrium_pullback(ch, pihat=bad)

    def test_irreducible_always_allowed(self, k4):
        pdata = equilibrium_pullback(nonbacktracking_edge_chain(k4))
        assert np.allclose(pdata.edge_density, np.full(12, 1 / 12), atol=1e-12)

    @pytest.mark.parametrize("g", [oracles.complete_graph(4), oracles.directed_cycle(3)],
                             ids=["k4", "directed-c3"])
    def test_node_chain_rejected(self, g):
        # on the directed 3-cycle n = m, so node states would pass for
        # edge indices if the chain's state set went unchecked
        with pytest.raises(ChainError,
                           match="^second-order statistics require a chain on edges$"):
            equilibrium_pullback(uniform_node_chain(g))


BOWTIE = oracles.undirected(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
BUILT_IN_WALKS = {
    "uniform": uniform_edge_chain,
    "nb": nonbacktracking_edge_chain,
    "dw:0": lambda g: downweighted_edge_chain(g, 0.0),
    "dw:0.3": lambda g: downweighted_edge_chain(g, 0.3),
    "dw:1": lambda g: downweighted_edge_chain(g, 1.0),
}


def count_solves(monkeypatch):
    """Route the pullback's density solve through a call counter."""
    import walktimes.pullback as pullback
    calls = []
    real = pullback.stationary_density

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(pullback, "stationary_density", counted)
    return calls


class TestExactUniformDensity:
    @pytest.mark.parametrize("walk", sorted(BUILT_IN_WALKS))
    def test_built_in_walks_take_uniform_without_solving(self, walk, petersen, monkeypatch):
        import walktimes.pullback as pullback
        graphs = [petersen, BOWTIE] + [oracles.random_undirected(8 + 3 * s, 2 * s + 1, s + 80)
                                      for s in range(1, 5)]
        chains = [BUILT_IN_WALKS[walk](g) for g in graphs]
        solved = [_solve_density(ch.matrix) for ch in chains]

        def refuse(*args, **kwargs):
            raise AssertionError("a chain carrying its density was solved")
        monkeypatch.setattr(pullback, "stationary_density", refuse)
        for ch, pi in zip(chains, solved):
            m = ch.n_states
            pdata = equilibrium_pullback(ch)
            assert np.array_equal(pdata.edge_density, np.full(m, 1 / m))
            # the direct solve stays covered on every walk kind
            assert np.abs(pi - pdata.edge_density).max() <= 1e-12

    @pytest.mark.parametrize("seed", [2, 4, 9])
    def test_nb_on_digraph_solves_once(self, seed, monkeypatch):
        ch = nonbacktracking_edge_chain(oracles.random_digraph(9, 14, seed))
        assert ch.density is None
        calls = count_solves(monkeypatch)
        pdata = equilibrium_pullback(ch)
        assert calls == [1]
        assert np.array_equal(pdata.edge_density, stationary_density(ch))

    def test_tensor_chain_solves_once(self, monkeypatch):
        g = oracles.random_undirected(12, 10, 7)
        ch = edge_chain_from_tensor(g, oracles.random_step_weights(g, 3))
        assert ch.density is None
        calls = count_solves(monkeypatch)
        pdata = equilibrium_pullback(ch)
        assert calls == [1]
        assert np.array_equal(pdata.edge_density, stationary_density(ch))

    def test_almost_bistochastic_chain_solves(self, k4, monkeypatch):
        # move 1e-11 of one row's mass between two columns: rows still sum
        # to 1 and columns to within 1e-11, but the uniform density's
        # residual 2e-11 / 12 exceeds 1e-12, so the chain carries none
        P = uniform_edge_chain(k4).matrix.copy()
        P.data[0] += 1e-11
        P.data[1] -= 1e-11
        ch = Chain(k4, P, "edges")
        uniform = np.full(12, 1 / 12)
        assert ch.density is None
        assert np.abs(P.T @ uniform - uniform).sum() > TOL.stationary_residual
        # a looser stationary bound admits the uniform density
        loose = dataclasses.replace(TOL, stationary_residual=1e-11)
        assert np.array_equal(Chain(k4, P, "edges", tol=loose).density, uniform)
        calls = count_solves(monkeypatch)
        pdata = equilibrium_pullback(ch)
        assert calls == [1]
        assert not np.array_equal(pdata.edge_density, uniform)
        assert np.array_equal(pdata.edge_density, stationary_density(ch))
