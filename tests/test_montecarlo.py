from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from walktimes import (
    QueryError,
    SizeCapError,
    WalkStats,
    WalkTimesError,
    downweighted_edge_chain,
    edge_chain_from_tensor,
    equilibrium_pullback,
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

    @pytest.mark.parametrize("trials", [0, -5])
    def test_zero_time_walks_check_trials(self, k4, trials):
        # a walk that starts on its target takes no step, but its trial
        # count is checked like every other
        pdata = equilibrium_pullback(nonbacktracking_edge_chain(k4))
        ch = uniform_node_chain(k4)
        with pytest.raises(QueryError, match="trial count must be positive"):
            simulate_so_hitting(pdata, 2, 2, trials=trials, seed=0)
        with pytest.raises(QueryError, match="trial count must be positive"):
            simulate_fo_hitting(ch, 1, {1, 3}, trials=trials, seed=0)
        assert simulate_so_hitting(pdata, 2, 2, trials=7, seed=0) == WalkStats(0.0, 0.0, 7, 0)
        assert simulate_fo_hitting(ch, 1, {1, 3}, trials=7, seed=0) == WalkStats(0.0, 0.0, 7, 0)

    def test_blocks_are_formed_as_they_run(self, k33, monkeypatch):
        # 2**62 trials are 2**49 blocks, more than any memory holds as a
        # list: the first block comes back alone, and the sweep's budget
        # check reads only its size
        from walktimes import config
        from walktimes import montecarlo as mc
        assert next(mc._block_sizes(2**62)) == mc.BLOCK
        assert list(mc._block_sizes(2 * mc.BLOCK + 5)) == [mc.BLOCK, mc.BLOCK, 5]
        assert list(mc._block_sizes(mc.BLOCK)) == [mc.BLOCK]
        with pytest.raises(QueryError, match="trial count must be positive"):
            mc._block_sizes(0)
        monkeypatch.setattr(config, "_DENSE_BUDGET", 9 * mc.BLOCK * (k33.n + 1) - 1)
        pdata = equilibrium_pullback(uniform_edge_chain(k33))
        with pytest.raises(SizeCapError, match=f"^the visit times of {mc.BLOCK} walks"):
            simulate_so_sweep(pdata, 0, 2**62, seed=2)

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

    def test_query_errors_share_one_type(self, k4):
        """Each bad query raises QueryError, a WalkTimesError and a ValueError."""
        assert issubclass(QueryError, WalkTimesError)
        assert issubclass(QueryError, ValueError)
        node_chain = uniform_node_chain(k4)
        pdata = equilibrium_pullback(uniform_edge_chain(k4))
        calls = [
            lambda: simulate_fo_hitting(node_chain, 0, {1}, trials=0, seed=0),
            lambda: simulate_fo_hitting(node_chain, 9, {1}, 100, seed=0),
            lambda: mean_hitting_times(node_chain, [7]),
            lambda: mean_hitting_times(node_chain, []),
            lambda: secondorder.mean_hitting_times(pdata.chain, 4),
            lambda: secondorder.return_times(pdata, []),
            lambda: simulate_so_return(pdata, -1, 100, seed=0),
        ]
        for call in calls:
            with pytest.raises(QueryError):
                call()


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


def exact_stats(times, censored):
    """WalkStats of integer walk times from exact rational arithmetic: the
    correctly rounded mean, and the correctly rounded square root of the
    correctly rounded variance of the mean."""
    n = len(times)
    if n == 0:
        return WalkStats(math.nan, math.nan, 0, censored)
    mean = Fraction(sum(times), n)
    var = sum((t - mean) ** 2 for t in times) / (n * (n - 1)) if n > 1 else 0
    return WalkStats(float(mean), math.sqrt(float(var)), n, censored)


def same(a, b):
    """Equal WalkStats, a nan mean equal to a nan mean: repr round-trips floats."""
    return repr(a) == repr(b)


def first_edge_draws(pdata, source):
    """Reference draw of each walk's first edge out of ``source``."""
    out = pdata.chain.graph.out_edges(source)
    probs = pdata.first_transition[out]
    first_cdf = np.cumsum(probs / probs.sum())

    def draw(rng, nb):
        pick = np.searchsorted(first_cdf, rng.random(nb), side="right")
        return out[np.minimum(pick, out.size - 1)]
    return draw


def loop_first_passage(chain, start, t0, stop, trials, seed, cap):
    """Reference first passage: one walk at a time on the same random
    streams, with the exact statistics of the walk times it records."""
    from walktimes import montecarlo as mc
    times, censored = [], 0
    for b, nb in enumerate(mc._block_sizes(trials)):
        rng = mc._block_rng(seed, b)
        cur = start(rng, nb)
        t = t0
        while True:
            live = []
            for e in cur:
                if stop[e]:
                    times.append(t)
                else:
                    live.append(e)
            cur = np.array(live, dtype=np.int64)
            if not live or t >= cap:
                break
            cur = loop_sample(chain.matrix, cur, rng.random(cur.size))
            t += 1
        censored += len(live)
    return exact_stats(times, censored)


def loop_sweep(chain, pdata, source, trials, seed, cap):
    """Reference sweep: one walk at a time on the same random streams, with
    the exact statistics of the first visit and return times it records."""
    from walktimes import montecarlo as mc
    n = chain.graph.n
    start = first_edge_draws(pdata, source)
    dst = chain.graph.dst
    seen = [[] for _ in range(n + 1)]   # column n: first returns
    for b, nb in enumerate(mc._block_sizes(trials)):
        rng = mc._block_rng(seed, b)
        visits = np.full((nb, n), np.inf)
        visits[:, source] = 0.0
        ret = np.full(nb, np.inf)
        cur = start(rng, nb)
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
        for k, col in enumerate(np.column_stack([visits, ret]).T):
            seen[k].append(col)
    cols = [np.concatenate(c) for c in seen]
    stats = [exact_stats([int(t) for t in c[np.isfinite(c)]], int(np.isinf(c).sum()))
             for c in cols]
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


def sampler_chains(petersen):
    """(chain, whether its sampler uses the guide table)."""
    return [(uniform_edge_chain(petersen), False),
            (downweighted_edge_chain(oracles.random_undirected(9, 6, 3), 0.3), False),
            (uniform_edge_chain(oracles.complete_graph(10)), True),
            (uniform_edge_chain(oracles.complete_graph(7)), True),
            (nonbacktracking_edge_chain(hub_cycle(12)), True),
            (uneven_tensor_chain(oracles.random_undirected(12, 40, 4), 6), True)]


class TestLoopReference:
    def test_row_sampler_build_matches_row_loop(self, petersen):
        """The vectorized build gives the per-row loop's arrays bit for bit."""
        from walktimes.montecarlo import _RowSampler
        for ch, guided in sampler_chains(petersen):
            P = ch.matrix.tocsr()
            cdf = P.data.copy()
            guide = np.empty(cdf.size, dtype=np.int64)
            for r in range(P.shape[0]):
                a, b = P.indptr[r], P.indptr[r + 1]
                cdf[a:b] = np.cumsum(cdf[a:b])
                cdf[b - 1] = np.inf
                guide[a:b] = a + np.searchsorted(cdf[a:b], np.arange(b - a) / (b - a))
            sampler = _RowSampler(P)
            assert np.array_equal(sampler.cdf, cdf)
            assert (sampler.guide is not None) == guided
            if guided:
                assert np.array_equal(sampler.guide, guide)

    def test_row_sampler_matches_scan(self, petersen):
        from walktimes.montecarlo import GUIDE_MIN_ROW, _RowSampler
        rng = np.random.default_rng(5)
        for ch, guided in sampler_chains(petersen):
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

    @staticmethod
    def walk_chains(c4, k33):
        """(chain, source, other node, step cap) on the reference chains."""
        g = oracles.random_undirected(7, 3, 11)
        return ((nonbacktracking_edge_chain(c4), 0, 2, 100),
                (downweighted_edge_chain(g, 0.3), 2, 5, 100),
                (uniform_edge_chain(k33), 1, 0, 4),
                (uniform_edge_chain(oracles.complete_graph(10)), 3, 7, 100))

    def test_sweep_matches_one_walk_at_a_time(self, c4, k33, monkeypatch):
        """Same draws, and every mean and stderr is the correctly rounded
        exact statistic of the walk times, also summed over many blocks."""
        from walktimes import montecarlo as mc
        for block, (ch, source, _, cap) in itertools.product(
                (mc.BLOCK, 64), self.walk_chains(c4, k33)):
            monkeypatch.setattr(mc, "BLOCK", block)
            pdata = equilibrium_pullback(ch)
            per, ret = simulate_so_sweep(pdata, source, 300, seed=4, cap=cap)
            want_per, want_ret = loop_sweep(ch, pdata, source, 300, 4, cap)
            assert same(ret, want_ret)
            assert all(same(a, b) for a, b in zip(per, want_per, strict=True))

    @pytest.mark.parametrize("block", [8192, 64])
    def test_first_passage_matches_one_walk_at_a_time(self, c4, k33, petersen, block,
                                                      monkeypatch):
        """Hitting, return and first-order walks: the same draws, and exact
        statistics of the walk times, in one block and in many."""
        from walktimes import montecarlo as mc
        monkeypatch.setattr(mc, "BLOCK", block)
        for ch, source, target, cap in self.walk_chains(c4, k33):
            pdata = equilibrium_pullback(ch)
            dst = ch.graph.dst
            for stop, got in ((target, simulate_so_hitting(pdata, source, target, 300,
                                                           seed=6, cap=cap)),
                              (source, simulate_so_return(pdata, source, 300,
                                                          seed=6, cap=cap))):
                want = loop_first_passage(ch, first_edge_draws(pdata, source), 1,
                                          dst == stop, 300, 6, cap)
                assert same(got, want)
        for g, cap in ((c4, 100), (petersen, 100), (petersen, 3),
                       (oracles.random_digraph(8, 10, 21), 100)):
            ch = uniform_node_chain(g)
            stop = np.zeros(g.n, dtype=bool)
            stop[[g.n - 1, g.n // 2]] = True
            got = simulate_fo_hitting(ch, 0, [g.n - 1, g.n // 2], 300, seed=8, cap=cap)
            want = loop_first_passage(ch, lambda rng, nb: np.zeros(nb, dtype=np.int64), 0,
                                      stop, 300, 8, cap)
            assert same(got, want)


class TestTally:
    """Walk statistics come from exact integer sums of the walk times."""

    def test_times_near_cap_with_small_spread(self):
        from walktimes.montecarlo import _walk_stats
        rng = np.random.default_rng(3)
        for base, n in ((10**6 - 2, 3 * 8192 + 5), (10**6, 2), (2**25 - 3, 40_000)):
            times = [base + int(x) for x in rng.integers(0, 3, size=n)]
            want = exact_stats(times, 7)
            got = _walk_stats(len(times), sum(times), sum(t * t for t in times), 7)
            assert same(got, want)
            assert got.stderr > 0

    def test_equal_times_have_zero_stderr(self):
        from walktimes.montecarlo import _walk_stats
        t = 10**6
        assert same(_walk_stats(5000, 5000 * t, 5000 * t * t, 0),
                    WalkStats(float(t), 0.0, 5000, 0))

    def test_zero_and_one_uncensored_walk(self, c4, k4):
        pdata = equilibrium_pullback(nonbacktracking_edge_chain(k4))
        one = simulate_so_hitting(pdata, 0, 2, trials=1, seed=3)
        assert one.trials == 1 and one.censored == 0 and one.stderr == 0.0
        assert same(one, loop_first_passage(pdata.chain, first_edge_draws(pdata, 0), 1,
                                            pdata.chain.graph.dst == 2, 1, 3, 10**6))
        per, ret = simulate_so_sweep(pdata, 1, trials=1, seed=3)
        assert all(s.trials == 1 and s.stderr == 0.0 for s in per + [ret])
        none = simulate_fo_hitting(uniform_node_chain(c4), 0, {2}, trials=300, seed=9, cap=1)
        assert none.trials == 0 and none.censored == 300
        assert math.isnan(none.mean) and math.isnan(none.stderr)
        per, ret = simulate_so_sweep(pdata, 1, trials=300, seed=9, cap=1)
        assert ret.trials == 0 and ret.censored == 300 and math.isnan(ret.mean)
        assert per[1].mean == 0.0 and per[1].trials == 300   # the source itself

    def test_sweep_cap_boundary(self, k4):
        """A block of walks at the largest sweep cap sums its squared times
        exactly in int64; one step more would not, so the sweep refuses it."""
        from walktimes.montecarlo import BLOCK, SWEEP_CAP
        assert SWEEP_CAP == 2**25 - 1
        at_cap = np.full((BLOCK, 1), SWEEP_CAP, dtype=np.int64)
        assert int(np.einsum("ij,ij->j", at_cap, at_cap)[0]) == BLOCK * SWEEP_CAP**2
        assert BLOCK * (SWEEP_CAP + 1) ** 2 > np.iinfo(np.int64).max
        pdata = equilibrium_pullback(uniform_edge_chain(k4))
        per, ret = simulate_so_sweep(pdata, 0, 500, seed=2, cap=SWEEP_CAP)
        assert ret.censored == 0 and ret == simulate_so_sweep(pdata, 0, 500, seed=2)[1]
        with pytest.raises(QueryError, match="sweep step cap 33554432 exceeds 33554431"):
            simulate_so_sweep(pdata, 0, 500, seed=2, cap=2**25)

    def test_sweep_tallies_within_the_dense_budget(self, k33, monkeypatch):
        """A block's int64 visit times and the mask that counts them, 9
        bytes per walk and column: one byte over the budget, the sweep
        stops before its sampler or tallies exist."""
        from walktimes import config
        from walktimes.montecarlo import BLOCK
        for trials, rows in ((300, 300), (BLOCK + 1, BLOCK)):
            need = 9 * rows * (k33.n + 1)
            monkeypatch.setattr(config, "_DENSE_BUDGET", need)
            pdata = equilibrium_pullback(uniform_edge_chain(k33))
            per, ret = simulate_so_sweep(pdata, 0, trials, seed=2)
            assert ret.trials + ret.censored == trials
            monkeypatch.setattr(config, "_DENSE_BUDGET", need - 1)
            pdata = equilibrium_pullback(uniform_edge_chain(k33))
            with pytest.raises(SizeCapError, match=f"^the visit times of {rows} walks to 6 "
                                                   f"nodes needs {need:,} bytes of dense"):
                simulate_so_sweep(pdata, 0, trials, seed=2)
            assert pdata.chain._sampler is None


class TestSharedSampler:
    def test_one_sampler_per_chain(self, k33, tmp_path, monkeypatch):
        """Every walk on a chain, validate's two pairs included, reuses the
        sampler its first walk built."""
        from walktimes import montecarlo as mc
        from walktimes.cli import main
        built = []
        init = mc._RowSampler.__init__

        def counting(self, P):
            built.append(P.shape)
            init(self, P)
        monkeypatch.setattr(mc._RowSampler, "__init__", counting)
        pdata = equilibrium_pullback(uniform_edge_chain(k33))
        simulate_so_sweep(pdata, 0, 100, seed=1)
        simulate_so_sweep(pdata, 1, 100, seed=1)
        simulate_so_hitting(pdata, 0, 3, 100, seed=1)
        simulate_so_return(pdata, 2, 100, seed=1)
        assert len(built) == 1
        edges = tmp_path / "k33.edges"
        edges.write_text("".join(f"{i} {j}\n" for i, j in k33.edges if i < j))
        built.clear()
        assert main(["validate", "--input", str(edges), "--undirected", "--walk", "nb",
                     "--trials", "200"]) == 0
        assert built == [(18, 18)]
