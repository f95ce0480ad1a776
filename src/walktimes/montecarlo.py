"""Monte Carlo estimates of hitting and return times.

Used as an independent check on the linear-algebra routes. Walks run
in fixed-size blocks; block b draws from its own counter-based
substream (Philox jumped b times), so results are identical for a
given seed and trial count no matter how blocks are scheduled.

Each walk runs until it hits its target or a step cap; capped walks
are reported as censored and excluded from the mean. Estimates carry
the sample standard error of the mean.

Every step is an inverse-CDF draw: the first entry of the row whose
cumulative sum is at least u. On chains with long rows a guide table
(Chen & Asau, 1974) picks where the scan starts; the start is a lower
bound on the answer, so every draw, and hence every result, is the
same as from a scan that starts at the row's first entry. Short rows
skip the guide, whose lookup costs more than the few passes it saves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import TOL
from .errors import ChainError
from .firstorder import _target_mask
from .secondorder import _check_node

__all__ = [
    "WalkStats",
    "simulate_so_hitting",
    "simulate_so_return",
    "simulate_so_sweep",
    "simulate_fo_hitting",
]

BLOCK = 8192
GUIDE_MIN_ROW = 6  # longest row from which the guide table pays


@dataclass(frozen=True)
class WalkStats:
    """Empirical mean of a walk time with its sampling error."""

    mean: float
    stderr: float
    trials: int      # uncensored walks behind the mean
    censored: int    # walks stopped by the step cap

    @property
    def warning(self) -> bool:
        """True when censoring may bias the mean."""
        return self.censored > 0


class _Accumulator:
    """Streaming mean and variance, merged across blocks."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.censored = 0

    def add(self, values: np.ndarray, censored: int):
        self.censored += int(censored)
        values = values[np.isfinite(values)]
        if values.size == 0:
            return
        bcount = values.size
        bmean = float(values.mean())
        bm2 = float(((values - bmean) ** 2).sum())
        delta = bmean - self.mean
        total = self.count + bcount
        self.mean += delta * bcount / total
        self.m2 += bm2 + delta * delta * self.count * bcount / total
        self.count = total

    def stats(self) -> WalkStats:
        if self.count == 0:
            return WalkStats(float("nan"), float("nan"), 0, self.censored)
        if self.count == 1:
            return WalkStats(self.mean, 0.0, 1, self.censored)
        var = self.m2 / (self.count - 1)
        return WalkStats(
            mean=self.mean,
            stderr=float(np.sqrt(max(var, 0.0) / self.count)),
            trials=self.count,
            censored=self.censored,
        )


class _RowSampler:
    """Inverse-CDF sampling of sparse transition rows.

    The cumulative sums of each row end in +inf instead of their last
    value, so a scan that advances while u exceeds the sum stops on
    the row's last entry at the latest.

    When the longest row has at least ``GUIDE_MIN_ROW`` entries, a
    guide table with one cell per entry tells each draw where to start
    scanning. Cell c of a row with L entries holds the first entry
    whose cumulative sum is at least c / L. A draw u in [0, 1] reads
    cell floor(u * w) with w = L (1 - 2**-52) rounded, so u = 1 stays
    in the last cell. Since w < L (1 - 2**-53), the rounded product
    reaches c only when u > c / L: the start never passes the first
    entry with u <= cdf, and the scan returns exactly that entry.
    Chains with shorter rows scan from each row's first entry: there
    the lookup costs more than the few passes it saves.
    """

    def __init__(self, P: sp.csr_matrix):
        P = P.tocsr()
        self.indptr = P.indptr.astype(np.int64)
        self.indices = P.indices.astype(np.int64)
        rowlen = np.diff(self.indptr)
        if (rowlen == 0).any():
            raise ChainError("cannot simulate a chain with an empty row")
        self.maxlen = int(rowlen.max())
        self.cdf = cdf = P.data.copy()
        self.guide = guide = None
        if self.maxlen >= GUIDE_MIN_ROW:
            self.width = rowlen * (1.0 - 2.0**-52)
            self.guide = guide = np.empty(cdf.size, dtype=np.int64)
        for r in range(P.shape[0]):
            a, b = self.indptr[r], self.indptr[r + 1]
            cdf[a:b] = np.cumsum(cdf[a:b])
            cdf[b - 1] = np.inf
            if guide is not None:
                cells = np.arange(b - a) / (b - a)
                guide[a:b] = a + np.searchsorted(cdf[a:b], cells)

    def sample(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next state of each walk in ``rows`` for draws ``u`` in [0, 1]."""
        pos = self.indptr[rows]
        if self.guide is not None:
            pos = self.guide[pos + (u * self.width[rows]).astype(np.int64)]
        for _ in range(self.maxlen - 1):
            adv = u > self.cdf[pos]
            if not adv.any():
                break
            pos += adv
        return self.indices[pos]


def _block_sizes(trials: int) -> list[int]:
    if trials <= 0:
        raise ValueError("trial count must be positive")
    full, rest = divmod(trials, BLOCK)
    return [BLOCK] * full + ([rest] if rest else [])


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(block))


def _first_edges(pdata, source):
    """Draw of each walk's first edge out of ``source``, one uniform per walk."""
    out = pdata.chain.graph.out_edges(source)
    if out.size == 0:
        raise ChainError(f"node {source} has no outgoing edges")
    probs = pdata.first_transition[out]
    first_cdf = np.cumsum(probs / probs.sum())

    def draw(rng, nb):
        pick = np.searchsorted(first_cdf, rng.random(nb), side="right")
        return out[np.minimum(pick, out.size - 1)]
    return draw


def _first_passage(chain, start, t0, stop, trials, seed, cap) -> WalkStats:
    """Lock-step walks until each enters a state marked in ``stop``.

    ``start(rng, nb)`` places a block's walks at time ``t0``; after
    that each step draws one uniform per walk still running.
    """
    sampler = _RowSampler(chain.matrix)
    acc = _Accumulator()
    for b, nb in enumerate(_block_sizes(int(trials))):
        rng = _block_rng(seed, b)
        times = np.full(nb, np.inf)
        cur = start(rng, nb)
        idx = np.arange(nb)
        t = t0
        while True:
            hit = stop[cur]
            times[idx[hit]] = t
            miss = ~hit
            cur, idx = cur[miss], idx[miss]
            if cur.size == 0 or t >= cap:
                break
            cur = sampler.sample(cur, rng.random(cur.size))
            t += 1
        acc.add(times, censored=cur.size)
    return acc.stats()


def simulate_so_hitting(pdata, source, target, trials,
                        seed, cap: int = TOL.simulation_step_cap) -> WalkStats:
    """Empirical mean steps of the walk from one node to another.

    The first step leaves ``source`` along the start distribution of
    ``pdata``; afterwards its edge chain drives the walk. Counts
    node-process steps; ``source == target`` is trivially zero.
    """
    chain = pdata.chain
    source, target = _check_node(chain, source), _check_node(chain, target)
    if source == target:
        return WalkStats(0.0, 0.0, int(trials), 0)
    return _first_passage(chain, _first_edges(pdata, source), 1,
                          chain.graph.dst == target, trials, seed, cap)


def simulate_so_return(pdata, node, trials,
                       seed, cap: int = TOL.simulation_step_cap) -> WalkStats:
    """Empirical mean steps of the walk from a node back to itself."""
    chain = pdata.chain
    node = _check_node(chain, node)
    return _first_passage(chain, _first_edges(pdata, node), 1,
                          chain.graph.dst == node, trials, seed, cap)


def simulate_so_sweep(pdata, source, trials, seed,
                      cap: int = TOL.simulation_step_cap):
    """One batch of walks measuring everything at once from a source.

    Each walk records its first visit time to every node and its first
    return to the source, running until all are observed or the cap
    bites. Returns (per-target WalkStats array indexed by node, return
    WalkStats). Cheaper than one run per target when all targets are
    wanted.
    """
    chain = pdata.chain
    source = _check_node(chain, source)
    n = chain.graph.n
    start = _first_edges(pdata, source)
    sampler = _RowSampler(chain.matrix)
    # column of the node each edge enters; entering the source fills
    # the extra column n, which holds the first return
    dst = chain.graph.dst
    column = np.where(dst == source, n, dst)
    accs = [_Accumulator() for _ in range(n + 1)]
    for b, nb in enumerate(_block_sizes(int(trials))):
        rng = _block_rng(seed, b)
        times = np.full((nb, n + 1), np.inf)
        times[:, source] = 0.0
        cells = times.reshape(-1)
        row_start = np.arange(nb, dtype=np.int64) * (n + 1)
        remaining = np.full(nb, n, dtype=np.int64)  # n-1 other nodes + return
        cur = start(rng, nb)
        t = 1
        while True:
            cell = row_start + column[cur]
            new = np.isinf(cells[cell])
            cells[cell[new]] = t
            remaining -= new
            alive = remaining > 0
            cur, row_start, remaining = cur[alive], row_start[alive], remaining[alive]
            if cur.size == 0 or t >= cap:
                break
            cur = sampler.sample(cur, rng.random(cur.size))
            t += 1
        for k in range(n + 1):
            col = times[:, k]
            accs[k].add(col, censored=int(np.isinf(col).sum()))
    stats = [a.stats() for a in accs]
    return stats[:n], stats[n]


def simulate_fo_hitting(chain, source, targets, trials,
                        seed, cap: int = TOL.simulation_step_cap) -> WalkStats:
    """Empirical mean steps of a first-order chain into a state set."""
    n = chain.n_states
    mark = _target_mask(n, targets)
    source = int(source)
    if not 0 <= source < n:
        raise ValueError(f"source state {source} out of range for {n} states")
    if mark[source]:
        return WalkStats(0.0, 0.0, int(trials), 0)
    return _first_passage(chain, lambda rng, nb: np.full(nb, source, dtype=np.int64),
                          0, mark, trials, seed, cap)
