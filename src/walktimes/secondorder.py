"""Hitting and return statistics of second-order walks.

The walk's state is the edge (previous, current); hitting a node k
means the current-node process reaches k. Expected times from state
(i, j) satisfy a boundary case split:

    0                                    if i = k (already there)
    1                                    if j = k and i != k
    1 + sum over next edges f of P[e, f] * time[f]   otherwise

Two independent routes compute the same numbers. The direct route
solves the system above. The line-graph route treats the walk as a
plain first-order chain on edges, takes hitting times of the in-edge
set of k, and shifts by one step. Their agreement is a standing
cross-check; so is the equality of node return times with reciprocal
invariant mass.

Edge-level functions take the edge chain. Node-level ones (start-node
hitting times, return times, the hitting matrix, the random target)
take the walk's ``PullbackData``, which carries the chain along with
the equilibrium weights they average over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import firstorder as fo
from ._solvers import chain_steps, reach_probabilities
from .chains import _require_edge_chain
from .config import TOL, Tolerances
from .errors import InvariantViolation
from .pullback import PullbackData

__all__ = [
    "SecondOrderMatrix",
    "RandomTargetData",
    "hitting_probabilities",
    "mean_hitting_times",
    "mean_hitting_times_via_line_graph",
    "node_hitting_times",
    "return_times",
    "hitting_matrix",
    "random_target",
]


def _check_node(chain, k) -> int:
    k = int(k)
    if not (0 <= k < chain.graph.n):
        raise ValueError(f"node {k} out of range")
    return k


@dataclass(frozen=True)
class SecondOrderMatrix:
    """Dense node-to-node expected travel times of a second-order walk."""

    matrix: np.ndarray            # aggregated route, exact zero diagonal
    lifted: np.ndarray | None     # operator route, when computed
    max_route_difference: float | None


@dataclass(frozen=True)
class RandomTargetData:
    """Expected time to a density-drawn random target, per start node."""

    kappa: float             # mean access time over start nodes
    spread: float            # relative spread of access times over start nodes
    condition_holds: bool    # per-node in-edge return times are constant
    access: np.ndarray       # access time per start node


def _boundary_masks(chain, k):
    g = chain.graph
    return g.src == k, g.dst == k


def hitting_probabilities(chain, k, tol: Tolerances = TOL) -> np.ndarray:
    """Per-edge probability that the walk ever visits node k."""
    _require_edge_chain(chain)
    k = _check_node(chain, k)
    leaving, entering = _boundary_masks(chain, k)
    return reach_probabilities(chain.matrix, leaving | entering, tol=tol)


def mean_hitting_times(chain, k, tol: Tolerances = TOL) -> fo.HittingSolution:
    """Expected steps until the walk visits node k, per starting edge.

    Edges leaving k count as already there (0); edges entering k take
    exactly one step of the node process (1). The result's ``target``
    is ``(k,)``.
    """
    _require_edge_chain(chain)
    k = _check_node(chain, k)
    leaving, entering = _boundary_masks(chain, k)
    time, finite, phi = chain_steps(chain, leaving, entering, tol=tol)
    return fo.HittingSolution(target=(k,), probability=phi, time=time, finite=finite)


def mean_hitting_times_via_line_graph(chain, k, tol: Tolerances = TOL) -> np.ndarray:
    """Same quantity through plain first-order machinery on edges.

    The walk visits node k exactly when the edge process enters the
    in-edge set of k, one step before the node process arrives; so the
    time is the first-order hitting time of that edge set plus one,
    except from edges leaving k where it is zero.
    """
    _require_edge_chain(chain)
    k = _check_node(chain, k)
    leaving, entering = _boundary_masks(chain, k)
    if not entering.any():
        # no in-edges: unreachable unless already there
        time = np.full(chain.n_states, np.inf)
        time[leaving] = 0.0
        return time
    sol = fo.mean_hitting_times(chain, np.flatnonzero(entering), tol=tol)
    time = sol.time + 1.0
    time[leaving] = 0.0
    return time


def node_hitting_times(pdata: PullbackData, k, tol: Tolerances = TOL) -> np.ndarray:
    """Expected steps from each start node to node k.

    A start node has not moved yet: average the per-edge times over
    the first-step distribution of its out-edges.
    """
    hitting = mean_hitting_times(pdata.chain, k, tol=tol)
    return np.asarray(pdata.first_step_matrix @ hitting.time).ravel()


def return_times(pdata: PullbackData, S, tol: Tolerances = TOL) -> fo.ReturnData:
    """Mean return times of the node process to each node of S and to S.

    Per node: leave along the first-step distribution, take one step,
    then hit the node from the resulting edge. The result must match
    the reciprocal invariant node mass; likewise for the set value,
    which equals the edge-chain return time to the in-edge set of S.
    Both identities are enforced. ``per_state`` is indexed by node.
    """
    chain = pdata.chain
    g = chain.graph
    nodes = sorted(set(int(i) for i in S))
    if not nodes:
        raise ValueError("target set is empty")
    for k in nodes:
        _check_node(chain, k)
    pi = pdata.node_density
    per_state = np.zeros(g.n)
    for k in nodes:
        sol = mean_hitting_times(chain, k, tol=tol)
        after_step = chain.matrix @ sol.time
        out = g.out_edges(k)
        value = 1.0 + float(pdata.first_transition[out] @ after_step[out])
        expected = float(1.0 / pi[k])
        if abs(value - expected) > tol.return_agreement * max(1.0, expected):
            raise InvariantViolation(
                f"return time to node {k}: formula gives {value!r}, "
                f"reciprocal mass gives {expected!r}"
            )
        per_state[k] = value

    mass = float(pi[nodes].sum())
    set_mean = 1.0 / mass
    # cross-check: the node process returns to S when the edge process
    # returns to the in-edge set of S
    in_edges = np.concatenate([g.in_edges(k) for k in nodes])
    edge_view = fo.return_times(chain, in_edges, pi=pdata.edge_density, tol=tol)
    if abs(edge_view.set_mean - set_mean) > tol.return_agreement * max(1.0, set_mean):
        raise InvariantViolation(
            f"set return time {set_mean!r} disagrees with the edge-level "
            f"value {edge_view.set_mean!r}"
        )
    return fo.ReturnData(
        target=tuple(nodes),
        per_state=per_state,
        set_mean=set_mean,
        density_mass=mass,
    )


def hitting_matrix(pdata: PullbackData, route: str = "both",
                   tol: Tolerances = TOL) -> SecondOrderMatrix:
    """Dense matrix of expected node-to-node times of the walk.

    Route "aggregated" solves the per-edge system for every target and
    averages over first steps; its diagonal is exactly zero. Route
    "lifted" pushes the dense edge-pair time matrix through the
    equilibrium operators: scale each column by the edge's return
    weight to the in-edge set of its target node, collapse, and
    subtract per-target offsets. With route "both" the two must agree
    within tolerance.
    """
    if route not in ("aggregated", "lifted", "both"):
        raise ValueError(f"unknown route {route!r}")
    chain = pdata.chain
    g = chain.graph
    n = g.n

    agg = None
    if route in ("aggregated", "both"):
        agg = np.empty((n, n))
        for k in range(n):
            agg[:, k] = node_hitting_times(pdata, k, tol=tol)

    lifted = None
    if route in ("lifted", "both"):
        pihat = pdata.edge_density
        edge_T = fo.hitting_matrix(chain, pi=pihat, tol=tol)
        scale = np.zeros(g.m)
        offsets = np.zeros(n)
        for k in range(n):
            dec = fo.subset_decomposition(
                chain, g.in_edges(k), pi=pihat, T=edge_T.matrix, tol=tol
            )
            scale += dec.weights
            offsets[k] = dec.offset
        lifted = (pdata.lifting @ (edge_T.matrix * scale[None, :]) @
                  pdata.restriction)
        lifted = np.asarray(lifted) - offsets[None, :]

    diff = None
    if agg is not None and lifted is not None:
        diff = float(np.abs(agg - lifted).max())
        if diff > tol.route_agreement * max(1.0, np.abs(agg).max() * 1e-6):
            raise InvariantViolation(
                f"hitting matrix routes disagree by {diff:.3e}"
            )
    return SecondOrderMatrix(
        matrix=agg if agg is not None else lifted,
        lifted=lifted,
        max_route_difference=diff,
    )


def random_target(pdata: PullbackData, tol: Tolerances = TOL) -> RandomTargetData:
    """Expected time to a target drawn from the invariant node density.

    Also reports whether the per-node condition holds under which the
    access time is constant over start nodes: all in-edges of a node
    must share the same edge-level return time to that node's in-edge
    set.
    """
    chain = pdata.chain
    g = chain.graph
    access = hitting_matrix(pdata, route="aggregated", tol=tol).matrix @ pdata.node_density
    kappa = float(access.mean())
    spread = float((access.max() - access.min()) / max(1.0, abs(kappa)))

    condition = True
    for k in range(g.n):
        edges = g.in_edges(k)
        rd = fo.return_times(chain, edges, pi=pdata.edge_density, tol=tol)
        vals = rd.per_state[edges]
        if vals.max() - vals.min() > tol.access_spread * max(1.0, vals.mean()):
            condition = False
            break
    return RandomTargetData(
        kappa=kappa, spread=spread, condition_holds=condition, access=access
    )
