"""Markov chains on graph nodes and on directed edges.

A second-order walk, whose step distribution depends on the previous
and the current node, is handled as a first-order chain on the
directed edges of the host graph: state (i, j) means "previous node i,
current node j", and transitions (i, j) -> (j, k) follow the line
graph. Chains on nodes cover the classical first-order case and the
pullback. Both are one class, ``Chain``, whose ``states`` field says
which set it runs on.

A chain holds its transition matrix as compressed sparse row arrays,
``indptr``, ``indices`` and ``data``, with 64-bit floats and rows
summing to one. Whatever the input (triplets, a dense array or a
scipy matrix), they are canonical, built the way scipy.sparse builds
a matrix from triplets: sorted columns, duplicates summed, exact
zeros dropped. A product with such arrays (``_csr_dot``,
``_csr_tdot``) adds the stored entries one at a time, in stored
order, starting from 0: the order of scipy's CSR kernels, so its
results are bitwise theirs. Every chain builder, the pullbacks and
every query on the node route compute with numpy alone. scipy.sparse
is imported for the sparse factorizations, the density solve,
csgraph, chain files, products of at least ``_COMPILED_WORK``
multiply-adds, and the public view ``Chain.matrix``, built on first
access.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .errors import (
    ChainError,
    ConvergenceError,
    DanglingEdgeError,
    GraphStructureError,
    ReducibleChainError,
)
from .graph import Graph, _continuations, _reached, dangling_edges, line_graph

__all__ = [
    "Chain",
    "uniform_node_chain",
    "uniform_edge_chain",
    "nonbacktracking_edge_chain",
    "downweighted_edge_chain",
    "edge_chain_from_tensor",
    "transition_tensor",
    "stationary_density",
    "check_irreducible",
]


# a product of at least this many multiply-adds (stored entries times
# right-hand sides) runs in scipy's compiled CSR kernels even before
# scipy.sparse is loaded: numpy's passes cost 3-8 times theirs on an
# all-node query's 12,000 x 32 blocks, so such products repay the
# import (0.14-0.19 s). Every product of the benchmark's graphs, up
# to 3,600 edge states, stays below it
_COMPILED_WORK = 2**20


@dataclass(frozen=True)
class _CSR:
    """Compressed sparse row arrays of a matrix, as a ``Chain`` holds them."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @cached_property
    def matrix(self):
        """``scipy.sparse.csr_matrix`` over the arrays, built on first use."""
        return _scipy_csr(self)


def _scipy_csr(A):
    """``scipy.sparse.csr_matrix`` over the CSR arrays of A."""
    import scipy.sparse as sp

    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def _compiled(work: int) -> bool:
    """Whether a product of ``work`` multiply-adds runs in scipy's
    compiled kernels: once scipy.sparse is loaded its import is paid,
    and a product of ``_COMPILED_WORK`` repays it."""
    return work >= _COMPILED_WORK or "scipy.sparse" in sys.modules


def _csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of each stored entry."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _from_triplets(rows, cols, vals, shape: tuple[int, int]) -> _CSR:
    """CSR arrays of the triplets of a matrix of the given shape, sorted
    by row and column, duplicates summed as ``scipy.sparse.coo_matrix``
    sums them (``np.add.reduceat`` over the sorted entries); zeros are
    kept."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals)
    order = np.argsort(rows * shape[1] + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if not new.all():
        start = np.flatnonzero(new)
        rows, cols, vals = rows[start], cols[start], np.add.reduceat(vals, start)
    return _CSR(_indptr(rows, shape[0]), cols, vals, shape)


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Row pointers of entries stored in ascending row order."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr


def _csr_arrays(matrix, n: int, what: str):
    """A chain's canonical CSR arrays (indptr, indices, data) from a
    scipy matrix, triplets ``(data, (rows, cols))`` or a dense array:
    columns sorted, duplicates summed, exact zeros dropped."""
    if hasattr(matrix, "tocoo"):   # scipy.sparse: its triplets, in any order
        if matrix.shape != (n, n):
            raise ChainError(f"transition matrix shape does not match {what} count")
        coo = matrix.tocoo()
        matrix = (coo.data, (coo.row, coo.col))
    if isinstance(matrix, tuple):
        vals, (rows, cols) = matrix
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        inside = ((rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)).all()
    else:
        dense = np.asarray(matrix, dtype=np.float64)
        inside = dense.shape == (n, n)
        if inside:
            rows, cols = np.nonzero(dense)
            vals = dense[rows, cols]
    if not inside:
        raise ChainError(f"transition matrix shape does not match {what} count")
    A = _from_triplets(rows, cols, np.asarray(vals, dtype=np.float64), (n, n))
    keep = A.data != 0
    if keep.all():
        return A.indptr, A.indices, A.data
    return _indptr(_csr_rows(A.indptr)[keep], n), A.indices[keep], A.data[keep]


def _csr_dot(A, x: np.ndarray) -> np.ndarray:
    """A @ x for the CSR arrays of A, x a vector or a 2-D array.

    Each row's stored entries are summed one at a time, in stored
    order, from 0, as scipy's CSR kernels sum them, so the result is
    bitwise ``A.matrix @ x``, which ``_compiled`` products compute. In
    numpy, a float64 vector is one ``np.bincount``; otherwise position
    p of every row with more than p entries is added in one pass, the
    rows ordered longest first so that they form a prefix.
    """
    x = np.asarray(x)
    n = A.indptr.size - 1
    if _compiled(A.indices.size * (x.shape[1] if x.ndim == 2 else 1)):
        return A.matrix @ x
    lengths = np.diff(A.indptr)
    dtype = np.result_type(A.data, x)
    if x.ndim == 1 and dtype == np.float64:
        return np.bincount(_csr_rows(A.indptr), weights=A.data * x[A.indices], minlength=n)
    x = x.astype(dtype, copy=False)
    order = np.argsort(-lengths, kind="stable")
    first, lengths = A.indptr[order], lengths[order]
    acc = np.zeros((n,) + x.shape[1:], dtype=dtype)
    scale = (slice(None),) + (None,) * (x.ndim - 1)
    for p in range(lengths.max(initial=0)):
        c = np.count_nonzero(lengths > p)
        at = first[:c] + p
        term = x[A.indices[at]]
        term *= A.data[at].astype(dtype, copy=False)[scale]
        acc[:c] += term
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _csr_tdot(A, x: np.ndarray) -> np.ndarray:
    """A.T @ x for a float64 vector x, summed as scipy's CSC kernel sums:
    each column's stored entries in ascending row order, from 0."""
    return np.bincount(A.indices, weights=A.data * x[_csr_rows(A.indptr)],
                       minlength=A.shape[1])


def _row_sums(A) -> np.ndarray:
    """Row sums of the CSR arrays of A, as ``A.sum(axis=1)`` forms them in scipy."""
    sums = np.zeros(A.indptr.size - 1)
    full = np.flatnonzero(np.diff(A.indptr))
    if full.size:
        sums[full] = np.add.reduceat(A.data, A.indptr[full])
    return sums


def _validate_rows(P, what: str):
    if not np.isfinite(P.data).all():
        raise ChainError(f"{what} has non-finite transition probabilities")
    if (P.data < 0).any():
        raise ChainError(f"{what} has negative transition probabilities")
    sums = _row_sums(P)
    bad = np.abs(sums - 1.0) > config.TOL.row_sum
    if bad.any():
        idx = int(np.argmax(np.abs(sums - 1.0)))
        raise ChainError(
            f"{what} rows must sum to 1; row {idx} sums to {float(sums[idx])!r}"
        )


def _residual(P, pi: np.ndarray) -> float:
    """Balance residual |P^T pi - pi|_1 of a density; P a chain or a
    scipy CSR matrix."""
    return float(np.abs(_csr_tdot(P, pi) - pi).sum())


def _validate_density(P, pi: np.ndarray, what: str):
    tol = config.TOL.density_residual
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (P.shape[0],):
        raise ChainError(f"{what} density has wrong length")
    if (pi <= 0).any():
        raise ChainError(f"{what} density must be strictly positive")
    if abs(pi.sum() - 1.0) > tol:
        raise ChainError(f"{what} density must sum to 1")
    resid = _residual(P, pi)
    if resid > tol:
        raise ChainError(
            f"{what} density is not invariant: residual {resid:.3e} > {tol:.1e}"
        )
    return pi


class Chain:
    """First-order chain on the nodes or on the directed edges of a graph.

    ``states`` is "nodes" or "edges"; edge states are host edge
    indices. The support must lie within the graph's edge set on
    nodes, and within the directed line graph on edges: a transition
    e -> f needs ter(e) = sou(f).

    ``density`` is the chain's invariant density, and the chain is
    the one place that holds it: a supplied density is validated
    against ``TOL.density_residual``; without one, the uniform density
    is taken when its balance residual meets
    ``TOL.stationary_residual``, the bound a solved density must meet
    (exact for every built-in edge walk on an undirected graph);
    otherwise it is None until ``stationary_density`` solves it, once,
    and stores the result here.
    """

    def __init__(self, graph: Graph, matrix, states: str, density=None,
                 kind="custom"):
        if states not in ("nodes", "edges"):
            raise ChainError(f"chain states must be 'nodes' or 'edges', got {states!r}")
        unit = states[:-1]
        n = graph.n if states == "nodes" else graph.m
        self.indptr, self.indices, self.data = _csr_arrays(matrix, n, unit)
        _validate_rows(self, f"{unit} chain")
        rows = _csr_rows(self.indptr)
        if states == "nodes":
            bad = ~np.isin(rows * n + self.indices, graph.src * n + graph.dst)
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise ChainError(f"transition {rows[k]}->{self.indices[k]} "
                                 "is not an edge of the graph")
        else:
            bad = graph.dst[rows] != graph.src[self.indices]
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                e, f = int(rows[k]), int(self.indices[k])
                raise ChainError(
                    f"transition between edges {graph.edges[e]} and {graph.edges[f]} "
                    "does not follow the line graph"
                )
        self.graph = graph
        self.states = states
        self.kind = kind
        if density is not None:
            density = _validate_density(self, density, f"{unit} chain")
        elif n:
            uniform = np.full(n, 1.0 / n)
            if _residual(self, uniform) <= config.TOL.stationary_residual:
                density = uniform
        self.density = density
        self._components: list[np.ndarray] | None = None
        # node-space hitting system, or False when P lacks the pair form
        self._node_system = None
        self._sampler = None   # Monte Carlo row sampler

    @property
    def n_states(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_states, self.n_states)

    @cached_property
    def matrix(self):
        """The transition matrix as a ``scipy.sparse.csr_matrix`` over
        copies of the chain's arrays, built on first access."""
        return _scipy_csr(_CSR(self.indptr.copy(), self.indices.copy(),
                               self.data.copy(), self.shape))

    def state_label(self, s: int) -> str:
        if self.states == "nodes":
            return self.graph.labels[s]
        i, j = self.graph.edges[s]
        return f"{self.graph.labels[i]}->{self.graph.labels[j]}"

    def __repr__(self):
        return f"Chain({self.kind}, {self.states}={self.n_states})"


def _require_edge_chain(chain):
    if chain.states != "edges":
        raise ChainError("second-order statistics require a chain on edges")


def _require_out_edges(g: Graph):
    if g.n == 0:
        raise GraphStructureError("graph has no nodes")
    sinks = np.flatnonzero(g.out_degree == 0)
    if sinks.size:
        raise GraphStructureError(
            f"every node needs out-degree >= 1; offending nodes {sinks[:8].tolist()}"
        )


def uniform_node_chain(g: Graph) -> Chain:
    """Classical walk: each out-edge of the current node equally likely.

    On an undirected graph the chain carries its exact invariant
    density deg / 2E (Lovasz, 1993), formed from the degree counts.
    """
    _require_out_edges(g)
    deg = g.out_degree.astype(np.float64)
    density = deg / deg.sum() if g.undirected else None
    return Chain(g, (1.0 / deg[g.src], (g.src, g.dst)), "nodes", density=density,
                 kind="uniform")


def _mixed_edge_chain(g: Graph, alpha: float, kind: str) -> Chain:
    """Edge chain mixing the classical step (weight alpha) with the
    never-backtracking step (weight 1 - alpha).

    Builds the line graph once. The never-backtracking probability is
    zero on backtracking line edges.
    """
    _require_out_edges(g)
    lg = line_graph(g)
    data = 1.0 / g.out_degree[g.dst[lg.tail]].astype(np.float64)
    if alpha < 1.0:
        stuck = dangling_edges(g)
        if stuck:
            raise DanglingEdgeError([g.edges[e] for e in stuck])
        nb = np.where(lg.backtracking, 0.0, 1.0 / _continuations(g)[lg.tail])
        data = nb if alpha == 0.0 else alpha * data + (1.0 - alpha) * nb
    return Chain(g, (data, (lg.tail, lg.head)), "edges", kind=kind)


def uniform_edge_chain(g: Graph) -> Chain:
    """Edge chain of the classical walk: the memory is carried but unused."""
    return _mixed_edge_chain(g, 1.0, "uniform")


def nonbacktracking_edge_chain(g: Graph) -> Chain:
    """Walk that never reverses the step it just took.

    From state (i, j) every edge (j, k) with k != i is equally likely.
    Requires no dangling edges: from a dangling edge only the reversal
    continues, leaving an empty transition row.
    """
    return _mixed_edge_chain(g, 0.0, "nonbacktracking")


def downweighted_edge_chain(g: Graph, alpha: float) -> Chain:
    """Mixture chain: backtracking allowed but downweighted.

    ``alpha`` interpolates between the never-backtracking walk (0) and
    the classical walk's edge chain (1).
    """
    if not (0.0 <= alpha <= 1.0):
        raise ChainError(f"mixing weight must lie in [0, 1], got {alpha!r}")
    return _mixed_edge_chain(g, alpha, f"downweighted:{alpha:g}")


def edge_chain_from_tensor(g: Graph, probs) -> Chain:
    """Build an edge chain from explicit (prev, cur, next) probabilities.

    ``probs`` maps node triples (i, j, k) to the probability of
    stepping to k given the walk came to j from i. For every edge
    (i, j) the values over k must sum to 1 and be supported on edges
    (j, k).
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    edge_id = g._edge_index.get
    for (i, j, k), p in probs.items():
        p = float(p)
        if p < 0:
            raise ChainError(f"negative probability for triple ({i},{j},{k})")
        if p == 0.0:
            continue
        e = edge_id((i, j))
        if e is None:
            raise ChainError(f"triple ({i},{j},{k}) starts outside the edge set")
        f = edge_id((j, k))
        if f is None:
            raise ChainError(f"triple ({i},{j},{k}) ends outside the edge set")
        rows.append(e)
        cols.append(f)
        vals.append(p)
    P = _from_triplets(rows, cols, vals, (g.m, g.m))
    sums = _row_sums(P)
    # negated so that a nan sum counts as bad
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= config.TOL.density_residual))
    if bad.size:
        e = int(bad[0])
        raise ChainError(
            f"probabilities for edge {g.edges[e]} sum to {float(sums[e])!r}, expected 1"
        )
    # renormalize the tiny slack so construction-time row checks pass
    # exactly, multiplying by the reciprocal as a diagonal scaling does
    rows = _csr_rows(P.indptr)
    return Chain(g, (P.data * (1.0 / sums)[rows], (rows, P.indices)), "edges", kind="tensor")


def transition_tensor(chain: Chain) -> dict[tuple[int, int, int], float]:
    """Inverse of ``edge_chain_from_tensor`` on the stored support."""
    g = chain.graph
    rows = _csr_rows(chain.indptr)
    out: dict[tuple[int, int, int], float] = {}
    for e, f, v in zip(rows.tolist(), chain.indices.tolist(), chain.data.tolist()):
        i, j = g.edges[e]
        out[(i, j, int(g.dst[f]))] = float(v)
    return out


def check_irreducible(chain) -> tuple[bool, list[np.ndarray]]:
    """Strong connectivity of the support of the transition matrix.

    Returns the verdict and the strongly connected components as
    arrays of state indices. State 0 reaching every state and every
    state reaching state 0 decide it; only a reducible chain has its
    components listed, by ``scipy.sparse.csgraph``.
    """
    if chain._components is None:
        n = chain.indptr.size - 1
        # the transposed pattern: column j lists the states that step to j
        back = _csr_rows(chain.indptr)[np.argsort(chain.indices)]
        first = np.arange(n) == 0
        if (n and _reached(chain.indptr, chain.indices, first).all()
                and _reached(_indptr(chain.indices, n), back, first).all()):
            chain._components = [np.arange(n)]
        else:
            from scipy.sparse import csgraph

            ncomp, labels = csgraph.connected_components(chain.matrix, directed=True,
                                                         connection="strong")
            chain._components = [np.flatnonzero(labels == c) for c in range(ncomp)]
    comps = chain._components
    return len(comps) == 1, comps


# the density of a chain of more states than this is found by power
# iteration alone, without a direct solve first
_POWER_ITERATION_THRESHOLD = 50_000
# power iteration stops once an iterate moves by at most this much in
# the 1-norm; its result is still held to TOL.stationary_residual
_POWER_ITERATION_TOL = 1e-13


def _power_iteration(P, max_iter: int = 200_000) -> np.ndarray:
    # iterate the lazy chain (I + P)/2: same invariant density, aperiodic
    n = P.shape[0]
    PT = P.T.tocsr()
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = 0.5 * (x + PT @ x)
        y /= y.sum()
        if np.abs(y - x).sum() <= _POWER_ITERATION_TOL:
            return y
        x = y
    raise ConvergenceError("power iteration did not converge")


def _normalized(P, pi) -> tuple[np.ndarray, float]:
    pi = np.asarray(pi, dtype=np.float64)
    pi /= pi.sum()
    return pi, _residual(P, pi)


def stationary_density(chain) -> np.ndarray:
    """Unique invariant probability density of an irreducible chain.

    A reducible chain raises ``ReducibleChainError`` with its strongly
    connected components, even when it carries a density. Otherwise
    the chain's own ``density`` is returned; a chain without one is
    solved (``_solve_density``) and keeps the result as its
    ``density``, so each chain is solved at most once.
    """
    irr, comps = check_irreducible(chain)
    if not irr:
        raise ReducibleChainError(comps, what=f"{chain.states[:-1]} chain")
    if chain.density is None:
        chain.density = _solve_density(chain.matrix)
    return chain.density


def _solve_density(P) -> np.ndarray:
    """Invariant density of an irreducible transition matrix.

    Solved directly from the balance equations with a normalization
    row; power iteration takes over for very large chains or when the
    direct solve fails validation. The result is verified to satisfy
    the balance equations within tolerance and to be positive.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    n = P.shape[0]
    pi = None
    if n <= _POWER_ITERATION_THRESHOLD:
        A = (P.T - sp.identity(n, format="csr")).tocsr()
        M = sp.vstack([A[:-1, :], sp.csr_matrix(np.ones((1, n)))]).tocsc()
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            cand = spsolve(M, b)
            if np.all(np.isfinite(cand)):
                pi, resid = _normalized(P, cand)
        except RuntimeError:
            pi = None
    # power iteration runs at most once: as the fallback of a direct
    # solve that failed or failed validation, or as the only route
    if pi is None or resid > config.TOL.stationary_residual or (pi <= 0).any():
        pi, resid = _normalized(P, _power_iteration(P))
        if resid > config.TOL.stationary_residual or (pi <= 0).any():
            raise ConvergenceError(
                f"invariant density failed validation: residual {resid:.3e}"
            )
    return pi
