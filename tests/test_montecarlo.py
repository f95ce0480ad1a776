from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from walktimes import (
    downweighted_edge_chain,
    edge_chain_from_tensor,
    equilibrium_pullback,
    hitting_matrix,
    mean_hitting_times,
    nonbacktracking_edge_chain,
    simulate_fo_hitting,
    simulate_so_hitting,
    simulate_so_return,
    simulate_so_sweep,
    uniform_edge_chain,
    uniform_node_chain,
)
from walktimes import secondorder


def within(stats, expect, sigmas=3.0):
    slack = sigmas * max(stats.stderr, 1e-12)
    return abs(stats.mean - expect) <= slack


class TestDeterminism:
    def test_same_seed_same_stats(self, k4):
        ch = nonbacktracking_edge_chain(k4)
        pdata = equilibrium_pullback(ch)
        a = simulate_so_hitting(pdata, 0, 2, trials=20_000, seed=7)
        b = simulate_so_hitting(pdata, 0, 2, trials=20_000, seed=7)
        assert a == b

    def test_different_seed_differs(self, k4):
        ch = nonbacktracking_edge_chain(k4)
        pdata = equilibrium_pullback(ch)
        a = simulate_so_hitting(pdata, 0, 2, trials=20_000, seed=7)
        b = simulate_so_hitting(pdata, 0, 2, trials=20_000, seed=8)
        assert a.mean != b.mean

    def test_block_split_invariance(self, k4):
        # totals that do and do not divide the block size must agree on
        # the overlapping substreams; spot-check determinism across sizes
        ch = uniform_edge_chain(k4)
        pdata = equilibrium_pullback(ch)
        a = simulate_so_return(pdata, 1, trials=8192 + 100, seed=3)
        b = simulate_so_return(pdata, 1, trials=8192 + 100, seed=3)
        assert a == b

    def test_sweep_deterministic(self, k33):
        ch = uniform_edge_chain(k33)
        pdata = equilibrium_pullback(ch)
        per_a, ret_a = simulate_so_sweep(pdata, 0, trials=10_000, seed=5)
        per_b, ret_b = simulate_so_sweep(pdata, 0, trials=10_000, seed=5)
        assert ret_a == ret_b
        assert all(x == y for x, y in zip(per_a, per_b))


class TestDeterministicWalks:
    def test_nb_c4_hitting_exact(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        pdata = equilibrium_pullback(ch)
        stats = simulate_so_hitting(pdata, 0, 2, trials=5000, seed=1)
        assert stats.mean == 2.0 and stats.stderr == 0.0
        assert stats.censored == 0

    def test_nb_c4_return_exact(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        pdata = equilibrium_pullback(ch)
        stats = simulate_so_return(pdata, 3, trials=5000, seed=1)
        assert stats.mean == 4.0 and stats.stderr == 0.0

    def test_source_equals_target(self, k4):
        ch = uniform_edge_chain(k4)
        pdata = equilibrium_pullback(ch)
        stats = simulate_so_hitting(pdata, 2, 2, trials=100, seed=0)
        assert stats.mean == 0.0 and stats.trials == 100

    def test_fo_source_in_target_set(self, k4):
        stats = simulate_fo_hitting(uniform_node_chain(k4), 1, {1, 2}, 100, seed=0)
        assert stats.mean == 0.0


class TestAgreementWithAnalytic:
    TRIALS = 40_000

    def test_fo_k4(self, k4):
        ch = uniform_node_chain(k4)
        stats = simulate_fo_hitting(ch, 0, {1}, self.TRIALS, seed=11)
        assert within(stats, 3.0)

    def test_fo_c4(self, c4):
        ch = uniform_node_chain(c4)
        stats = simulate_fo_hitting(ch, 0, {2}, self.TRIALS, seed=12)
        assert within(stats, 4.0)

    def test_fo_set_target(self, petersen):
        ch = uniform_node_chain(petersen)
        S = {3, 7}
        expect = mean_hitting_times(ch, S).time[0]
        stats = simulate_fo_hitting(ch, 0, S, self.TRIALS, seed=13)
        assert within(stats, expect)

    def test_so_nb_c4_neighbor(self, c4):
        ch = nonbacktracking_edge_chain(c4)
        pdata = equilibrium_pullback(ch)
        stats = simulate_so_hitting(pdata, 0, 1, self.TRIALS, seed=14)
        assert within(stats, 2.0)
        assert stats.stderr > 0

    def test_so_downweighted_c4_return(self, c4):
        ch = downweighted_edge_chain(c4, 0.5)
        pdata = equilibrium_pullback(ch)
        stats = simulate_so_return(pdata, 0, self.TRIALS, seed=15)
        assert within(stats, 4.0)

    def test_so_k33_hitting(self, k33):
        ch = nonbacktracking_edge_chain(k33)
        pdata = equilibrium_pullback(ch)
        expect = secondorder.node_hitting_times(pdata, 4)[0]
        stats = simulate_so_hitting(pdata, 0, 4, self.TRIALS, seed=16)
        assert within(stats, expect)

    def test_sweep_matches_analytic(self, k33):
        ch = downweighted_edge_chain(k33, 0.3)
        pdata = equilibrium_pullback(ch)
        per, ret = simulate_so_sweep(pdata, 1, self.TRIALS, seed=17)
        returns = secondorder.return_times(pdata, range(6))
        assert within(ret, returns.per_state[1])
        for k in range(6):
            expect = secondorder.node_hitting_times(pdata, k)[1]
            assert within(per[k], expect)
        assert per[1].mean == 0.0  # the source itself

    def test_directed_fo(self):
        g = oracles.random_digraph(8, 10, 21)
        ch = uniform_node_chain(g)
        expect = mean_hitting_times(ch, [5]).time[0]
        stats = simulate_fo_hitting(ch, 0, {5}, self.TRIALS, seed=18)
        assert within(stats, expect)


class TestCensoring:
    def test_cap_censors_and_flags(self, c4):
        ch = uniform_node_chain(c4)
        stats = simulate_fo_hitting(ch, 0, {2}, trials=2000, seed=9, cap=2)
        assert stats.censored > 0
        assert stats.warning
        assert stats.trials + stats.censored == 2000
        # surviving walks all hit at exactly the shortest path length
        assert stats.mean == 2.0

    def test_all_censored_gives_nan(self, c4):
        ch = uniform_node_chain(c4)
        stats = simulate_fo_hitting(ch, 0, {2}, trials=500, seed=9, cap=1)
        assert stats.censored == 500 and stats.trials == 0
        assert math.isnan(stats.mean)

    def test_zero_censored_on_easy_chain(self, k4):
        ch = uniform_edge_chain(k4)
        pdata = equilibrium_pullback(ch)
        stats = simulate_so_hitting(pdata, 0, 3, trials=20_000, seed=4)
        assert stats.censored == 0


class TestValidation:
    def test_positive_trials_required(self, k4):
        ch = uniform_node_chain(k4)
        with pytest.raises(ValueError, match="positive"):
            simulate_fo_hitting(ch, 0, {1}, trials=0, seed=0)

    def test_stderr_scale(self, c4):
        # NB walk from 0 to 1 takes 1 or 3 steps with equal chance, so
        # the population variance is exactly 1 and the standard error
        # at n trials is close to 1/sqrt(n)
        ch = nonbacktracking_edge_chain(c4)
        pdata = equilibrium_pullback(ch)
        n = 4096
        stats = simulate_so_hitting(pdata, 0, 1, trials=n, seed=2)
        assert stats.stderr == pytest.approx(1 / math.sqrt(n), rel=0.1)


class TestIndexValidation:
    """Sources and targets are checked like the exact routes check them."""

    @pytest.mark.parametrize("targets", [[-1], [7]])
    def test_fo_target_out_of_range(self, k4, targets):
        ch = uniform_node_chain(k4)
        with pytest.raises(ValueError, match="^target state out of range for 4 states$"):
            simulate_fo_hitting(ch, 0, targets, 100, seed=0)

    def test_fo_empty_target_set(self, k4):
        with pytest.raises(ValueError, match="^target set is empty$"):
            simulate_fo_hitting(uniform_node_chain(k4), 0, [], 100, seed=0)

    @pytest.mark.parametrize("source", [-1, 4])
    def test_fo_source_out_of_range(self, k4, source):
        with pytest.raises(ValueError, match=f"^source state {source} out of range"):
            simulate_fo_hitting(uniform_node_chain(k4), source, [1], 100, seed=0)

    @pytest.mark.parametrize("source, target, bad", [(-1, 0, -1), (0, 9, 9), (4, 4, 4)])
    def test_so_hitting_out_of_range(self, k4, source, target, bad):
        ch = uniform_edge_chain(k4)
        pdata = equilibrium_pullback(ch)
        with pytest.raises(ValueError, match=f"^node {bad} out of range$"):
            simulate_so_hitting(pdata, source, target, 100, seed=0)

    @pytest.mark.parametrize("node", [-1, 4])
    def test_so_return_and_sweep_out_of_range(self, k4, node):
        ch = uniform_edge_chain(k4)
        pdata = equilibrium_pullback(ch)
        with pytest.raises(ValueError, match=f"^node {node} out of range$"):
            simulate_so_return(pdata, node, 100, seed=0)
        with pytest.raises(ValueError, match=f"^node {node} out of range$"):
            simulate_so_sweep(pdata, node, 100, seed=0)


def loop_sample(P, rows, u):
    """Reference inverse-CDF draw: scan each row until u <= its cumulative sum."""
    P = P.tocsr()
    out = np.empty(rows.size, dtype=np.int64)
    for n, (r, x) in enumerate(zip(rows, u)):
        a, b = P.indptr[r], P.indptr[r + 1]
        cdf = np.cumsum(P.data[a:b])
        off = 0
        while off < b - a - 1 and x > cdf[off]:
            off += 1
        out[n] = P.indices[a + off]
    return out


def loop_sweep(chain, pdata, source, trials, seed, cap):
    """Reference sweep: one walk at a time on the same random streams."""
    from walktimes import montecarlo as mc
    n = chain.graph.n
    out = chain.graph.out_edges(source)
    probs = pdata.first_transition[out]
    first_cdf = np.cumsum(probs / probs.sum())
    dst = chain.graph.dst
    accs = [mc._Accumulator() for _ in range(n + 1)]
    for b, nb in enumerate(mc._block_sizes(trials)):
        rng = mc._block_rng(seed, b)
        visits = np.full((nb, n), np.inf)
        visits[:, source] = 0.0
        ret = np.full(nb, np.inf)
        pick = np.searchsorted(first_cdf, rng.random(nb), side="right")
        cur = out[np.minimum(pick, out.size - 1)]
        alive = list(range(nb))
        t = 1
        while True:
            still = []
            for w, e in zip(alive, cur):
                x = dst[e]
                if x == source and ret[w] == np.inf:
                    ret[w] = t
                elif visits[w, x] == np.inf:
                    visits[w, x] = t
                if np.isinf(visits[w]).any() or ret[w] == np.inf:
                    still.append((w, e))
            alive = [w for w, _ in still]
            cur = np.array([e for _, e in still], dtype=np.int64)
            if not alive or t >= cap:
                break
            cur = loop_sample(chain.matrix, cur, rng.random(cur.size))
            t += 1
        for k in range(n):
            accs[k].add(visits[:, k], censored=int(np.isinf(visits[:, k]).sum()))
        accs[n].add(ret, censored=int(np.isinf(ret).sum()))
    stats = [a.stats() for a in accs]
    return stats[:n], stats[n]


def hub_cycle(n):
    """Cycle on n nodes whose node 0 also links to every node but 1 and n-1."""
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(0, k) for k in range(2, n - 1)]
    return oracles.undirected(n, pairs)


def uneven_tensor_chain(g, seed):
    """Tensor walk whose rows mix large and nearly-zero step probabilities."""
    rng = np.random.default_rng(seed)
    probs = {}
    for i, j in g.edges:
        nxt = [int(g.dst[f]) for f in g.out_edges(j)]
        w = rng.random(len(nxt)) ** 4 + 1e-9
        for k, p in zip(nxt, w / w.sum()):
            probs[(i, j, k)] = p
    return edge_chain_from_tensor(g, probs)


def breakpoint_draws(P):
    """Draws on every row at 0, at 1, each guide cell threshold c / len
    and each cumulative sum, and one ulp either side of each."""
    rows, draws = [], []
    for r in range(P.shape[0]):
        a, b = P.indptr[r], P.indptr[r + 1]
        u = np.concatenate([[0.0, 1.0], np.arange(b - a) / (b - a),
                            np.cumsum(P.data[a:b])])
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
        u = u[u <= 1.0]
        rows.append(np.full(u.size, r))
        draws.append(u)
    return np.concatenate(rows), np.concatenate(draws)


class TestLoopReference:
    def test_row_sampler_matches_scan(self, petersen):
        from walktimes.montecarlo import GUIDE_MIN_ROW, _RowSampler
        rng = np.random.default_rng(5)
        for ch, guided in (
                (uniform_edge_chain(petersen), False),
                (downweighted_edge_chain(oracles.random_undirected(9, 6, 3), 0.3), False),
                (uniform_edge_chain(oracles.complete_graph(10)), True),
                (uniform_edge_chain(oracles.complete_graph(7)), True),
                (nonbacktracking_edge_chain(hub_cycle(12)), True),
                (uneven_tensor_chain(oracles.random_undirected(12, 40, 4), 6), True)):
            sampler = _RowSampler(ch.matrix)
            assert (sampler.maxlen >= GUIDE_MIN_ROW) == guided
            assert (sampler.guide is not None) == guided
            rows = rng.integers(ch.n_states, size=500)
            P = ch.matrix.tocsr()
            # draws on and just past each row's first cumulative sum, and near 1
            edge = P.data[P.indptr[rows]]
            draws = [(rows, u) for u in (
                rng.random(rows.size), edge, np.nextafter(edge, 1.0),
                np.full(rows.size, np.nextafter(1.0, 0.0)))]
            for rows, u in draws + [breakpoint_draws(P)]:
                want = loop_sample(P, rows, u)
                assert np.array_equal(sampler.sample(rows, u), want)
                if guided:
                    # the guide's start never passes the reference answer
                    a, rowlen = P.indptr[rows], np.diff(P.indptr)[rows]
                    start = sampler.guide[a + (u * sampler.width[rows]).astype(np.int64)]
                    answer = [i + np.flatnonzero(P.indices[i:i + n] == x)[0]
                              for i, n, x in zip(a, rowlen, want)]
                    assert (start >= a).all() and (start <= answer).all()

    def test_sweep_matches_one_walk_at_a_time(self, c4, k33):
        g = oracles.random_undirected(7, 3, 11)
        for ch, source, cap in ((nonbacktracking_edge_chain(c4), 0, 100),
                                (downweighted_edge_chain(g, 0.3), 2, 100),
                                (uniform_edge_chain(k33), 1, 4),
                                (uniform_edge_chain(oracles.complete_graph(10)), 3, 100)):
            pdata = equilibrium_pullback(ch)
            got = simulate_so_sweep(pdata, source, 300, seed=4, cap=cap)
            assert got == loop_sweep(ch, pdata, source, 300, 4, cap)
