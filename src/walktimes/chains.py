"""Markov chains on graph nodes and on directed edges.

A second-order walk, whose step distribution depends on the previous
and the current node, is handled as a first-order chain on the
directed edges of the host graph: state (i, j) means "previous node i,
current node j", and transitions (i, j) -> (j, k) follow the line
graph. Chains on nodes cover the classical first-order case and the
pullback. Both are one class, ``Chain``, whose ``states`` field says
which set it runs on.

All transition matrices are compressed sparse row with 64-bit floats,
rows summing to one. Structural zeros are dropped from the support.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve

from .config import TOL, Tolerances
from .errors import (
    ChainError,
    ConvergenceError,
    DanglingEdgeError,
    GraphStructureError,
    ReducibleChainError,
)
from .graph import Graph, _continuations, dangling_edges, line_graph

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


def _validate_rows(P: sp.csr_matrix, tol: float, what: str):
    if not np.isfinite(P.data).all():
        raise ChainError(f"{what} has non-finite transition probabilities")
    if (P.data < 0).any():
        raise ChainError(f"{what} has negative transition probabilities")
    sums = np.asarray(P.sum(axis=1)).ravel()
    bad = np.abs(sums - 1.0) > tol
    if bad.any():
        idx = int(np.argmax(np.abs(sums - 1.0)))
        raise ChainError(
            f"{what} rows must sum to 1; row {idx} sums to {float(sums[idx])!r}"
        )


def _residual(P: sp.csr_matrix, pi: np.ndarray) -> float:
    """Balance residual |P^T pi - pi|_1 of a density."""
    return float(np.abs(P.T @ pi - pi).sum())


def _validate_density(P: sp.csr_matrix, pi: np.ndarray, tol: float, what: str):
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
    the one place that decides it: a supplied density is validated
    against ``tol.density_residual``; without one, the uniform density
    is taken when its balance residual meets
    ``tol.stationary_residual``, the bound a solved density must meet
    (exact for every built-in edge walk on an undirected graph);
    otherwise it is None and ``stationary_density`` solves for it.
    """

    def __init__(self, graph: Graph, matrix, states: str, density=None,
                 kind="custom", tol: Tolerances = TOL):
        if states not in ("nodes", "edges"):
            raise ChainError(f"chain states must be 'nodes' or 'edges', got {states!r}")
        unit = states[:-1]
        n = graph.n if states == "nodes" else graph.m
        P = sp.csr_matrix(matrix, dtype=np.float64)
        P.eliminate_zeros()
        if P.shape != (n, n):
            raise ChainError(f"transition matrix shape does not match {unit} count")
        _validate_rows(P, tol.row_sum, f"{unit} chain")
        coo = P.tocoo()
        if states == "nodes":
            for i, j in zip(coo.row.tolist(), coo.col.tolist()):
                if not graph.has_edge(i, j):
                    raise ChainError(f"transition {i}->{j} is not an edge of the graph")
        else:
            bad = graph.dst[coo.row] != graph.src[coo.col]
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                e, f = int(coo.row[k]), int(coo.col[k])
                raise ChainError(
                    f"transition between edges {graph.edges[e]} and {graph.edges[f]} "
                    "does not follow the line graph"
                )
        self.graph = graph
        self.matrix = P
        self.states = states
        self.kind = kind
        if density is not None:
            density = _validate_density(P, density, tol.density_residual, f"{unit} chain")
        elif n:
            uniform = np.full(n, 1.0 / n)
            if _residual(P, uniform) <= tol.stationary_residual:
                density = uniform
        self.density = density
        self._components: list[np.ndarray] | None = None
        # node-space hitting system, or False when P lacks the pair form
        self._node_system = None

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

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


def uniform_node_chain(g: Graph, tol: Tolerances = TOL) -> Chain:
    """Classical walk: each out-edge of the current node equally likely.

    On an undirected graph the chain carries its exact invariant
    density deg / 2E (Lovasz, 1993), formed from the degree counts.
    """
    _require_out_edges(g)
    deg = g.out_degree.astype(np.float64)
    P = sp.csr_matrix((1.0 / deg[g.src], (g.src, g.dst)), shape=(g.n, g.n))
    density = deg / deg.sum() if g.undirected else None
    return Chain(g, P, "nodes", density=density, kind="uniform", tol=tol)


def _mixed_edge_chain(g: Graph, alpha: float, kind: str, tol: Tolerances) -> Chain:
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
    P = sp.csr_matrix((data, (lg.tail, lg.head)), shape=(g.m, g.m))
    return Chain(g, P, "edges", kind=kind, tol=tol)


def uniform_edge_chain(g: Graph, tol: Tolerances = TOL) -> Chain:
    """Edge chain of the classical walk: the memory is carried but unused."""
    return _mixed_edge_chain(g, 1.0, "uniform", tol)


def nonbacktracking_edge_chain(g: Graph, tol: Tolerances = TOL) -> Chain:
    """Walk that never reverses the step it just took.

    From state (i, j) every edge (j, k) with k != i is equally likely.
    Requires no dangling edges: from a dangling edge only the reversal
    continues, leaving an empty transition row.
    """
    return _mixed_edge_chain(g, 0.0, "nonbacktracking", tol)


def downweighted_edge_chain(g: Graph, alpha: float, tol: Tolerances = TOL) -> Chain:
    """Mixture chain: backtracking allowed but downweighted.

    ``alpha`` interpolates between the never-backtracking walk (0) and
    the classical walk's edge chain (1).
    """
    if not (0.0 <= alpha <= 1.0):
        raise ChainError(f"mixing weight must lie in [0, 1], got {alpha!r}")
    return _mixed_edge_chain(g, alpha, f"downweighted:{alpha:g}", tol)


def edge_chain_from_tensor(g: Graph, probs, tol: Tolerances = TOL) -> Chain:
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
    P = sp.csr_matrix((vals, (rows, cols)), shape=(g.m, g.m))
    P.sum_duplicates()
    sums = np.asarray(P.sum(axis=1)).ravel()
    # negated so that a nan sum counts as bad
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= tol.density_residual))
    if bad.size:
        e = int(bad[0])
        raise ChainError(
            f"probabilities for edge {g.edges[e]} sum to {float(sums[e])!r}, expected 1"
        )
    # renormalize the tiny slack so construction-time row checks pass exactly
    scale = sp.diags(1.0 / sums)
    return Chain(g, scale @ P, "edges", kind="tensor", tol=tol)


def transition_tensor(chain: Chain) -> dict[tuple[int, int, int], float]:
    """Inverse of ``edge_chain_from_tensor`` on the stored support."""
    g = chain.graph
    coo = chain.matrix.tocoo()
    out: dict[tuple[int, int, int], float] = {}
    for e, f, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        i, j = g.edges[e]
        out[(i, j, int(g.dst[f]))] = float(v)
    return out


def check_irreducible(chain) -> tuple[bool, list[np.ndarray]]:
    """Strong connectivity of the support of the transition matrix.

    Returns the verdict and the strongly connected components as
    arrays of state indices.
    """
    if chain._components is None:
        ncomp, labels = csgraph.connected_components(
            chain.matrix, directed=True, connection="strong"
        )
        chain._components = [
            np.flatnonzero(labels == c) for c in range(ncomp)
        ]
    comps = chain._components
    return len(comps) == 1, comps


def _power_iteration(P: sp.csr_matrix, tol: float, max_iter: int = 200_000) -> np.ndarray:
    # iterate the lazy chain (I + P)/2: same invariant density, aperiodic
    n = P.shape[0]
    PT = P.T.tocsr()
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        y = 0.5 * (x + PT @ x)
        y /= y.sum()
        if np.abs(y - x).sum() <= tol:
            return y
        x = y
    raise ConvergenceError("power iteration did not converge")


def _normalized(P: sp.csr_matrix, pi) -> tuple[np.ndarray, float]:
    pi = np.asarray(pi, dtype=np.float64)
    pi /= pi.sum()
    return pi, _residual(P, pi)


def stationary_density(chain, tol: Tolerances = TOL) -> np.ndarray:
    """Unique invariant probability density of an irreducible chain.

    A reducible chain raises ``ReducibleChainError`` with its strongly
    connected components, even when it carries a density. Otherwise
    the chain's own ``density`` is returned, and only a chain without
    one is solved (``_solve_density``).
    """
    irr, comps = check_irreducible(chain)
    if not irr:
        raise ReducibleChainError(comps, what=f"{chain.states[:-1]} chain")
    if chain.density is not None:
        return chain.density
    return _solve_density(chain.matrix, tol)


def _solve_density(P: sp.csr_matrix, tol: Tolerances = TOL) -> np.ndarray:
    """Invariant density of an irreducible transition matrix.

    Solved directly from the balance equations with a normalization
    row; power iteration takes over for very large chains or when the
    direct solve fails validation. The result is verified to satisfy
    the balance equations within tolerance and to be positive.
    """
    n = P.shape[0]
    pi = None
    if n <= tol.power_iteration_threshold:
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
    if pi is None or resid > tol.stationary_residual or (pi <= 0).any():
        pi, resid = _normalized(P, _power_iteration(P, tol.power_iteration_tol))
        if resid > tol.stationary_residual or (pi <= 0).any():
            raise ConvergenceError(
                f"invariant density failed validation: residual {resid:.3e}"
            )
    return pi
