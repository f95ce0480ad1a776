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

``equilibrium_pullback`` is the one constructor. It decides no
density itself: it takes the density the chain carries (see
``Chain``), else ``stationary_density``'s, which the chain then keeps.

Both operators index edge e by its target, so their products are
sums grouped by node, formed with ``np.bincount`` in the order
scipy's sparse products sum them. ``lifting``, ``restriction`` and
``first_step_matrix`` are scipy CSR views, built on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .chains import (
    Chain,
    _csr_rows,
    _require_edge_chain,
    check_irreducible,
    stationary_density,
)
from .errors import ChainError, InvariantViolation

__all__ = [
    "PullbackData",
    "equilibrium_pullback",
]


def _view(values, rows, cols, shape):
    import scipy.sparse as sp

    return sp.csr_matrix((values, (rows, cols)), shape=shape)


@dataclass(frozen=True)
class PullbackData:
    """Equilibrium link between an edge chain and its node chain."""

    chain: Chain                  # on edges
    edge_density: np.ndarray      # invariant density over edges
    node_density: np.ndarray      # induced density over nodes
    arrival_weights: np.ndarray   # per edge: P(arrived along e | now at ter(e))
    pullback: Chain               # collapsed first-order chain on nodes
    first_transition: np.ndarray  # per edge: P(first step uses e | start at sou(e))

    @cached_property
    def lifting(self):
        """nodes x edges ``scipy.sparse.csr_matrix``, arrival weights; rows sum to 1."""
        g = self.chain.graph
        return _view(self.arrival_weights, g.dst, np.arange(g.m), (g.n, g.m))

    @cached_property
    def restriction(self):
        """edges x nodes ``scipy.sparse.csr_matrix``, the 0/1 target indicator."""
        g = self.chain.graph
        return _view(np.ones(g.m), np.arange(g.m), g.dst, (g.m, g.n))

    @cached_property
    def first_step_matrix(self):
        """nodes x edges ``scipy.sparse.csr_matrix``, first_transition values."""
        g = self.chain.graph
        return _view(self.first_transition, g.src, np.arange(g.m), (g.n, g.m))

    def lift(self, node_density: np.ndarray) -> np.ndarray:
        """Spread a density on nodes over their in-edges."""
        v = np.asarray(node_density, dtype=np.float64)
        return self.arrival_weights * v[self.chain.graph.dst]

    def restrict(self, edge_density: np.ndarray) -> np.ndarray:
        """Collapse a density on edges onto their target nodes."""
        v = np.asarray(edge_density, dtype=np.float64)
        g = self.chain.graph
        return np.bincount(g.dst, weights=v, minlength=g.n)


def _group_normalize(values: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Scale values so each group sums to one (exactly, in floats)."""
    sums = np.bincount(groups, weights=values, minlength=n_groups)
    if (sums[np.bincount(groups, minlength=n_groups) > 0] <= 0).any():
        raise ChainError("density mass vanishes on a nonempty group")
    out = values / sums[groups]
    # second pass squeezes out the last rounding so group sums hit 1.0
    sums2 = np.bincount(groups, weights=out, minlength=n_groups)
    return out / sums2[groups]


def equilibrium_pullback(chain: Chain) -> PullbackData:
    """Collapse an edge chain to its equilibrium node chain.

    The invariant edge density is the chain's own ``density`` (one is
    supplied only through ``Chain(..., density=)``), else the solved
    one (``stationary_density``, which stores it on the chain and
    raises ``ReducibleChainError`` with the strongly connected
    components for a reducible chain). A carried density is used on a
    reducible chain too: the uniform density of the never-backtracking
    walk on an undirected cycle is invariant, though not unique. The
    identity lifting @ restriction = I and the balance between in- and
    out-masses per node are enforced. A chain on nodes raises
    ``ChainError``.
    """
    _require_edge_chain(chain)
    g = chain.graph
    pihat = chain.density if chain.density is not None else stationary_density(chain)

    m, n = g.m, g.n
    node_density = np.bincount(g.dst, weights=pihat, minlength=n)
    if (node_density <= 0).any():
        bad = int(np.flatnonzero(node_density <= 0)[0])
        raise ChainError(f"node {bad} receives no invariant mass")

    # out-mass must match in-mass at stationarity
    out_mass = np.bincount(g.src, weights=pihat, minlength=n)
    balance = np.abs(out_mass - node_density).max()
    if balance > config.TOL.inout_balance:
        raise InvariantViolation(
            f"in/out mass balance violated by {balance:.3e}"
        )

    arrival = _group_normalize(pihat, g.dst, n)
    first = _group_normalize(pihat, g.src, n)

    # lifting @ restriction is diagonal, both operators indexing edge e
    # by its target: entry (i, i) sums the arrival weights into i
    identity = np.bincount(g.dst, weights=arrival, minlength=n)
    if np.count_nonzero(identity) != n or np.abs(identity - 1.0).max() > config.TOL.pullback_entry:
        raise InvariantViolation("lifting @ restriction deviates from the identity")

    # lifting @ P @ restriction: entry (i, k) is the weight of edge
    # f = (i, k), summed over its predecessors e in ascending order
    weight = np.bincount(chain.indices, minlength=m,
                         weights=arrival[_csr_rows(chain.indptr)] * chain.data)
    on = weight != 0
    node_pi = node_density / node_density.sum()
    collapsed = Chain(g, (weight[on], (g.src[on], g.dst[on])), "nodes", density=node_pi,
                      kind=f"pullback:{chain.kind}")

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
        pullback=collapsed,
        first_transition=first,
    )

