"""Monte Carlo estimates of hitting and return times.

Used as an independent check on the linear-algebra routes. Walks run
in fixed-size blocks; block b draws from its own counter-based
substream (Philox jumped b times), so results are identical for a
given seed and trial count no matter how blocks are scheduled.

Each walk runs until it hits its target or a step cap; capped walks
are reported as censored and excluded from the mean. Walk times are
integers, so three exact integers carry an estimate: the number of
walks, the sum of their times and the sum of their squared times.
The mean and the sample standard error of the mean are the exact
sample statistics of those walks, rounded once. The sweep sums its
blocks in int64, which is exact for walks shorter than 2**25 steps,
so it rejects larger step caps.

Every step is an inverse-CDF draw: the first entry of the row whose
cumulative sum is at least u. On chains with long rows a guide table
(Chen & Asau, 1974) picks where the scan starts; the start is a lower
bound on the answer, so every draw, and hence every result, is the
same as from a scan that starts at the row's first entry. Short rows
skip the guide, whose lookup costs more than the few passes it saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import ChainError, QueryError
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
# BLOCK walks of at most SWEEP_CAP steps have int64-exact squared sums
SWEEP_CAP = 2**25 - 1


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


def _walk_stats(seen: int, total: int, squares: int, censored: int) -> WalkStats:
    """Statistics of ``seen`` walk times from their exact integer sums.

    The mean and the variance of the mean are each one correctly
    rounded division of Python ints; the standard error is the square
    root of the latter.
    """
    if seen == 0:
        return WalkStats(math.nan, math.nan, 0, censored)
    # n S2 - S1^2 is n (n - 1) times the sample variance, and 0 for one walk
    var_of_mean = (seen * squares - total * total) / (seen * seen * max(seen - 1, 1))
    return WalkStats(total / seen, math.sqrt(var_of_mean), seen, censored)


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

    def __init__(self, P):
        """P: a ``Chain`` or a scipy CSR matrix, rows in stored order."""
        self.indptr = P.indptr.astype(np.int64)
        self.indices = P.indices.astype(np.int64)
        rowlen = np.diff(self.indptr)
        if (rowlen == 0).any():
            raise ChainError("cannot simulate a chain with an empty row")
        self.maxlen = maxlen = int(rowlen.max())
        # one step of every row's running sum per position in the row,
        # adding in the order np.cumsum does
        self.cdf = cdf = P.data.copy()
        live = np.arange(rowlen.size)
        for p in range(1, maxlen):
            live = live[rowlen[live] > p]
            at = self.indptr[live] + p
            cdf[at] += cdf[at - 1]
        cdf[self.indptr[1:] - 1] = np.inf
        self.guide = None
        if maxlen >= GUIDE_MIN_ROW:
            self.width = rowlen * (1.0 - 2.0**-52)
            self.guide = self._guide(rowlen)

    def _guide(self, rowlen: np.ndarray) -> np.ndarray:
        """Per cell, the first entry of its row whose cumulative sum is at
        least the cell's lower edge: a binary search run on all cells at once.
        """
        row = np.repeat(np.arange(rowlen.size), rowlen)
        lo = self.indptr[row]
        hi = self.indptr[row + 1] - 1   # the last entry is +inf
        cells = (np.arange(row.size) - lo) / rowlen[row]
        for _ in range(self.maxlen.bit_length()):
            mid = (lo + hi) // 2
            right = self.cdf[mid] < cells
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        return lo

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


def _sampler(chain) -> _RowSampler:
    """The chain's row sampler, built on its first walk and kept on the chain."""
    if chain._sampler is None:
        chain._sampler = _RowSampler(chain)
    return chain._sampler


def _trial_count(trials) -> int:
    trials = int(trials)
    if trials <= 0:
        raise QueryError("trial count must be positive")
    return trials


def _block_sizes(trials) -> list[int]:
    full, rest = divmod(_trial_count(trials), BLOCK)
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
    sampler = _sampler(chain)
    seen = total = squares = censored = 0
    for b, nb in enumerate(_block_sizes(trials)):
        rng = _block_rng(seed, b)
        cur = start(rng, nb)
        t = t0
        while True:
            hit = stop[cur]
            k = int(np.count_nonzero(hit))
            if k:
                seen, total, squares = seen + k, total + k * t, squares + k * t * t
                cur = cur[~hit]
            if cur.size == 0 or t >= cap:
                break
            cur = sampler.sample(cur, rng.random(cur.size))
            t += 1
        censored += cur.size
    return _walk_stats(seen, total, squares, censored)


def simulate_so_hitting(pdata, source, target, trials,
                        seed, cap: int = TOL.simulation_step_cap) -> WalkStats:
    """Empirical mean steps of the walk from one node to another.

    The first step leaves ``source`` along the start distribution of
    ``pdata``; afterwards its edge chain drives the walk. Counts
    node-process steps; ``source == target`` is trivially zero.
    """
    if _check_node(pdata.chain, source) == _check_node(pdata.chain, target):
        return WalkStats(0.0, 0.0, _trial_count(trials), 0)
    return _node_walks(pdata, source, target, trials, seed, cap)


def simulate_so_return(pdata, node, trials,
                       seed, cap: int = TOL.simulation_step_cap) -> WalkStats:
    """Empirical mean steps of the walk from a node back to itself."""
    return _node_walks(pdata, node, node, trials, seed, cap)


def _node_walks(pdata, source, target, trials, seed, cap) -> WalkStats:
    """The walks of ``simulate_so_hitting``, counted until they enter
    ``target``: from ``source == target``, until they return."""
    chain = pdata.chain
    source, target = _check_node(chain, source), _check_node(chain, target)
    return _first_passage(chain, _first_edges(pdata, source), 1,
                          chain.graph.dst == target, trials, seed, cap)


def simulate_so_sweep(pdata, source, trials, seed,
                      cap: int = TOL.simulation_step_cap):
    """One batch of walks measuring everything at once from a source.

    Each walk records its first visit time to every node and its first
    return to the source, running until all are observed or the cap
    bites. Returns (per-target WalkStats array indexed by node, return
    WalkStats). Cheaper than one run per target when all targets are
    wanted. The cap is at most ``SWEEP_CAP``.
    """
    chain = pdata.chain
    source = _check_node(chain, source)
    if cap > SWEEP_CAP:
        raise QueryError(f"sweep step cap {cap} exceeds {SWEEP_CAP}")
    n = chain.graph.n
    start = _first_edges(pdata, source)
    sampler = _sampler(chain)
    # column of the node each edge enters; entering the source fills
    # the extra column n, which holds the first return
    dst = chain.graph.dst
    column = np.where(dst == source, n, dst)
    sums = np.zeros((4, n + 1), dtype=object)   # Python ints
    for b, nb in enumerate(_block_sizes(trials)):
        rng = _block_rng(seed, b)
        # first visit times, 0 until seen: no walk writes the source's
        # column, whose visits are all at time 0
        times = np.zeros((nb, n + 1), dtype=np.int64)
        cells = times.reshape(-1)
        row_start = np.arange(nb, dtype=np.int64) * (n + 1)
        remaining = np.full(nb, n, dtype=np.int64)  # n-1 other nodes + return
        cur = start(rng, nb)
        t = 1
        while True:
            cell = row_start + column[cur]
            new = cells[cell] == 0
            cells[cell[new]] = t
            remaining -= new
            alive = remaining > 0
            cur, row_start, remaining = cur[alive], row_start[alive], remaining[alive]
            if cur.size == 0 or t >= cap:
                break
            cur = sampler.sample(cur, rng.random(cur.size))
            t += 1
        seen = np.count_nonzero(times, axis=0)
        seen[source] = nb
        sums += np.array([seen, times.sum(axis=0), np.einsum("ij,ij->j", times, times),
                          nb - seen]).astype(object)
    stats = [_walk_stats(*col) for col in sums.T]
    return stats[:n], stats[n]


def simulate_fo_hitting(chain, source, targets, trials,
                        seed, cap: int = TOL.simulation_step_cap) -> WalkStats:
    """Empirical mean steps of a first-order chain into a state set."""
    n = chain.n_states
    mark = _target_mask(n, targets)
    source = int(source)
    if not 0 <= source < n:
        raise QueryError(f"source state {source} out of range for {n} states")
    if mark[source]:
        return WalkStats(0.0, 0.0, _trial_count(trials), 0)
    return _first_passage(chain, lambda rng, nb: np.full(nb, source, dtype=np.int64),
                          0, mark, trials, seed, cap)
