"""Collapsing an edge chain to an equivalent node chain at equilibrium.

An edge chain tracks (previous, current) pairs. Conditioning on the
current node alone, under the invariant edge density, yields a
first-order chain on nodes: the pullback. It is built from two
operators,

    lifting      node i -> in-edges of i, weighted by the conditional
                 probability of having arrived along each edge
    restriction  edge e -> its target node

whose product (lifting then restriction) is the identity on nodes.
The pullback chain is lifting @ edge_matrix @ restriction, and the
node density is the in-edge mass per node. The same data yields the
start distribution over first edges: leaving i along (i, j) with
probability proportional to the invariant mass of (i, j).

``equilibrium_pullback`` is the one constructor, and it picks the
invariant edge density in one place: a supplied ``pihat``, validated;
else the chain's own density; else the exact uniform density when the
chain is bistochastic, as every built-in walk on an undirected graph
is, and that density passes the residual test a solved one must
pass; else the solved density (a reducible chain raises
``ReducibleChainError``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .chains import (
    Chain,
    _require_edge_chain,
    _residual,
    _validate_density,
    check_irreducible,
    stationary_density,
    uniform_density,
)
from .config import TOL, Tolerances
from .errors import ChainError, InvariantViolation

__all__ = [
    "PullbackData",
    "equilibrium_pullback",
]


@dataclass(frozen=True)
class PullbackData:
    """Equilibrium link between an edge chain and its node chain."""

    chain: Chain                  # on edges
    edge_density: np.ndarray      # invariant density over edges
    node_density: np.ndarray      # induced density over nodes
    arrival_weights: np.ndarray   # per edge: P(arrived along e | now at ter(e))
    lifting: sp.csr_matrix        # nodes x edges, rows sum to 1
    restriction: sp.csr_matrix    # edges x nodes, 0/1 target indicator
    pullback: Chain               # collapsed first-order chain on nodes
    first_transition: np.ndarray  # per edge: P(first step uses e | start at sou(e))
    first_step_matrix: sp.csr_matrix  # nodes x edges, first_transition values

    def lift(self, node_density: np.ndarray) -> np.ndarray:
        """Spread a density on nodes over their in-edges."""
        v = np.asarray(node_density, dtype=np.float64)
        return self.arrival_weights * v[self.chain.graph.dst]

    def restrict(self, edge_density: np.ndarray) -> np.ndarray:
        """Collapse a density on edges onto their target nodes."""
        v = np.asarray(edge_density, dtype=np.float64)
        return np.asarray(self.restriction.T @ v).ravel()


def _group_normalize(values: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Scale values so each group sums to one (exactly, in floats)."""
    sums = np.bincount(groups, weights=values, minlength=n_groups)
    if (sums[np.bincount(groups, minlength=n_groups) > 0] <= 0).any():
        raise ChainError("density mass vanishes on a nonempty group")
    out = values / sums[groups]
    # second pass squeezes out the last rounding so group sums hit 1.0
    sums2 = np.bincount(groups, weights=out, minlength=n_groups)
    return out / sums2[groups]


def equilibrium_pullback(chain: Chain, pihat: np.ndarray | None = None,
                         tol: Tolerances = TOL) -> PullbackData:
    """Collapse an edge chain to its equilibrium node chain.

    The invariant edge density is, in this order: ``pihat`` when
    supplied (validated first); the chain's own ``density``; the
    uniform density of a bistochastic chain, accepted when its
    balance residual is within ``tol.stationary_residual``, the bound
    a solved density must meet; otherwise the solved density
    (``stationary_density`` raises ``ReducibleChainError`` with the
    strongly connected components for a reducible chain). The uniform
    density is exact for every built-in walk on an undirected graph,
    and it is invariant, though not unique, for a reducible
    bistochastic chain such as the never-backtracking walk on an
    undirected cycle. The identity lifting @ restriction = I and the
    balance between in- and out-masses per node are enforced. A chain
    on nodes raises ``ChainError``.
    """
    _require_edge_chain(chain)
    g = chain.graph
    if pihat is not None:
        pihat = _validate_density(chain.matrix, pihat, tol.density_residual, "supplied edge")
    elif chain.density is not None:
        pihat = chain.density
    else:
        try:
            pihat = uniform_density(chain, tol)
        except ChainError:
            pihat = None
        if pihat is None or _residual(chain.matrix, pihat) > tol.stationary_residual:
            pihat = stationary_density(chain, tol=tol)

    m, n = g.m, g.n
    node_density = np.bincount(g.dst, weights=pihat, minlength=n)
    if (node_density <= 0).any():
        bad = int(np.flatnonzero(node_density <= 0)[0])
        raise ChainError(f"node {bad} receives no invariant mass")

    # out-mass must match in-mass at stationarity
    out_mass = np.bincount(g.src, weights=pihat, minlength=n)
    balance = np.abs(out_mass - node_density).max()
    if balance > tol.inout_balance:
        raise InvariantViolation(
            f"in/out mass balance violated by {balance:.3e}"
        )

    arrival = _group_normalize(pihat, g.dst, n)
    first = _group_normalize(pihat, g.src, n)

    edge_ids = np.arange(m)
    lifting = sp.csr_matrix((arrival, (g.dst, edge_ids)), shape=(n, m))
    restriction = sp.csr_matrix((np.ones(m), (edge_ids, g.dst)), shape=(m, n))
    first_step = sp.csr_matrix((first, (g.src, edge_ids)), shape=(n, m))

    prod = (lifting @ restriction).tocoo()
    off = prod.row != prod.col
    if off.any():
        raise InvariantViolation("lifting @ restriction has off-diagonal entries")
    if prod.nnz != n or np.abs(prod.data - 1.0).max() > tol.pullback_entry:
        raise InvariantViolation("lifting @ restriction deviates from the identity")

    P = (lifting @ chain.matrix @ restriction).tocsr()
    P.eliminate_zeros()
    node_pi = node_density / node_density.sum()
    collapsed = Chain(g, P, "nodes", density=node_pi, kind=f"pullback:{chain.kind}", tol=tol)

    irr, _ = check_irreducible(chain)
    if irr:
        coll_irr, comps = check_irreducible(collapsed)
        if not coll_irr:
            raise InvariantViolation(
                f"pullback of an irreducible chain split into {len(comps)} components"
            )

    return PullbackData(
        chain=chain,
        edge_density=pihat,
        node_density=node_pi,
        arrival_weights=arrival,
        lifting=lifting,
        restriction=restriction,
        pullback=collapsed,
        first_transition=first,
        first_step_matrix=first_step,
    )

