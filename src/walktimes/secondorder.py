"""Hitting and return statistics of second-order walks.

The walk's state is the edge (previous, current); hitting a node k
means the current-node process reaches k. Expected times from state
(i, j) satisfy a boundary case split:

    0                                    if i = k (already there)
    1                                    if j = k and i != k
    1 + sum over next edges f of P[e, f] * time[f]   otherwise

Two independent routes compute the same numbers. The direct route
solves the system above, with k replaced by a node set S where a
query asks for one; for the built-in walks on an irreducible chain it
does so in node space, where one factorization per chain serves every
target node and set (``_solvers.node_target_steps``), and every other
chain solves it over the edge states. The line-graph route treats the
walk as a plain first-order chain on edges, takes hitting times of the
in-edge set of k with the edge-space solver, and shifts by one step.
``hitting_matrix`` takes the direct route to every node;
``lifted_hitting_matrix`` lifts the edge chain's time matrix instead
and enforces that the two agree. The return times to each node and to
a node set must equal the reciprocal invariant mass, both taken from
the direct route's solve for that node or set.

Edge-level functions take the edge chain. Node-level ones (start-node
hitting times, return times, the hitting matrix, the random target)
take the walk's ``PullbackData``, which carries the chain along with
the equilibrium weights they average over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from . import firstorder as fo
from ._solvers import _node_sets_steps, node_target_steps, reach_probabilities
from .chains import _csr_dot, _require_edge_chain, check_irreducible
from .errors import InvariantViolation, QueryError, ReducibleChainError
from .pullback import PullbackData

__all__ = [
    "RandomTargetData",
    "hitting_probabilities",
    "mean_hitting_times",
    "mean_hitting_times_via_line_graph",
    "node_hitting_times",
    "return_times",
    "hitting_matrix",
    "lifted_hitting_matrix",
    "random_target",
]


def _check_node(chain, k) -> int:
    k = int(k)
    if not (0 <= k < chain.graph.n):
        raise QueryError(f"node {k} out of range")
    return k


@dataclass(frozen=True)
class RandomTargetData:
    """Expected time to a density-drawn random target, per start node."""

    kappa: float             # mean access time over start nodes
    spread: float            # relative spread of access times over start nodes
    condition_holds: bool    # per-node in-edge return times are constant
    access: np.ndarray       # access time per start node


def _start_mean(pdata: PullbackData, x: np.ndarray) -> np.ndarray:
    """``first_step_matrix @ x``: per start node, x averaged over the first
    step, its out-edges summed in ascending edge order."""
    g = pdata.chain.graph
    return np.bincount(g.src, weights=pdata.first_transition * x, minlength=g.n)


def _boundary_masks(chain, k):
    g = chain.graph
    return g.src == k, g.dst == k


def hitting_probabilities(chain, k) -> np.ndarray:
    """Per-edge probability that the walk ever visits node k."""
    _require_edge_chain(chain)
    k = _check_node(chain, k)
    leaving, entering = _boundary_masks(chain, k)
    return reach_probabilities(chain.matrix, leaving | entering)


def mean_hitting_times(chain, k) -> fo.HittingSolution:
    """Expected steps until the walk visits node k, per starting edge.

    Edges leaving k count as already there (0); edges entering k take
    exactly one step of the node process (1). The result's ``target``
    is ``(k,)``.
    """
    _require_edge_chain(chain)
    k = _check_node(chain, k)
    time, finite, phi = node_target_steps(chain, (k,))
    return fo.HittingSolution(target=(k,), probability=phi, time=time, finite=finite)


def mean_hitting_times_via_line_graph(chain, k) -> np.ndarray:
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
    sol = fo.mean_hitting_times(chain, np.flatnonzero(entering))
    time = sol.time + 1.0
    time[leaving] = 0.0
    return time


def node_hitting_times(pdata: PullbackData, k) -> np.ndarray:
    """Expected steps from each start node to node k.

    A start node has not moved yet: average the per-edge times over
    the first-step distribution of its out-edges.
    """
    hitting = mean_hitting_times(pdata.chain, k)
    return _start_mean(pdata, hitting.time)


def _return_time(pdata: PullbackData, nodes, x, name: str) -> float:
    """Return time of the node process to ``nodes``, from x, the times to them.

    Start inside the set in equilibrium, leave along the first-step
    distribution, take one step, then hit the set from the resulting
    edge: 1 + sum over the out-edges f of the set of w_f (P x)_f, with
    w_f = first_transition_f * pi(src f) / pi(set). The result must
    match the reciprocal invariant mass of the set (Kac). When it does
    not and the chain is reducible, the density is one of many
    invariant ones and not the walk's equilibrium: that is a data
    error, ``ReducibleChainError``, not a failed identity.
    """
    chain = pdata.chain
    g = chain.graph
    pi = pdata.node_density
    mass = float(pi[nodes].sum())
    out = np.flatnonzero(np.isin(g.src, nodes))
    w = pdata.first_transition[out] * (pi[g.src[out]] / mass)
    value = 1.0 + float(w @ _csr_dot(chain, x)[out])
    expected = float(1.0 / mass)
    if abs(value - expected) > config.TOL.return_agreement * max(1.0, expected):
        irreducible, components = check_irreducible(chain)
        if not irreducible:
            raise ReducibleChainError(components, what="edge chain")
        raise InvariantViolation(
            f"return time to {name}: formula gives {value!r}, "
            f"reciprocal mass gives {expected!r}"
        )
    return value


def return_times(pdata: PullbackData, S) -> fo.ReturnData:
    """Mean return times of the node process to each node of S and to S.

    Per node: leave along the first-step distribution, take one step,
    then hit the node from the resulting edge. The result must match
    the reciprocal invariant node mass; likewise for the set value,
    taken the same way from one solve for the whole set when S has
    more than one node. Both identities are enforced. ``per_state`` is
    indexed by node.
    """
    chain = pdata.chain
    g = chain.graph
    nodes = sorted(set(int(i) for i in S))
    if not nodes:
        raise QueryError("target set is empty")
    for k in nodes:
        _check_node(chain, k)
    per_state = np.zeros(g.n)
    for k, (x, _, _) in zip(nodes, _node_sets_steps(chain, [(k,) for k in nodes])):
        per_state[k] = _return_time(pdata, [k], x, f"node {k}")
    if len(nodes) > 1:
        x = node_target_steps(chain, nodes)[0]
        _return_time(pdata, nodes, x, f"the {len(nodes)}-node set")

    mass = float(pdata.node_density[nodes].sum())
    return fo.ReturnData(
        target=tuple(nodes),
        per_state=per_state,
        set_mean=1.0 / mass,
        density_mass=mass,
    )


def hitting_matrix(pdata: PullbackData) -> np.ndarray:
    """Dense n x n matrix of expected node-to-node times of the walk.

    Column k holds the per-edge times to node k averaged over first
    steps (``node_hitting_times``); the diagonal is exactly zero.
    """
    n = pdata.chain.graph.n
    config._dense_fits(n * n * 8, f"the hitting matrix of {n} nodes")
    T = np.empty((n, n))
    targets = _node_sets_steps(pdata.chain, [(k,) for k in range(n)])
    for k, (x, _, _) in enumerate(targets):
        T[:, k] = _start_mean(pdata, x)
    return T


def lifted_hitting_matrix(pdata: PullbackData) -> np.ndarray:
    """The same matrix through the edge chain's time matrix, cross-checked.

    Push the dense edge-pair time matrix through the equilibrium
    operators: scale each column by the edge's return weight to the
    in-edge set of its target node, collapse, and subtract per-target
    offsets. The result must agree with ``hitting_matrix`` within
    tolerance, and is returned. A reducible chain raises
    ``ReducibleChainError`` from ``fo.hitting_matrix``, before any
    factorization. Its largest arrays are those that form
    the edge time matrix, 8 m^2 (``fo.hitting_matrix``, whose byte
    budget check comes first); what it holds after that, that matrix,
    its scaled copy and their n x m product, is smaller.
    """
    chain = pdata.chain
    g = chain.graph
    edge_T = fo.hitting_matrix(chain)
    scale = np.zeros(g.m)
    offsets = np.zeros(g.n)
    for k in range(g.n):
        dec = fo.subset_decomposition(chain, g.in_edges(k), T=edge_T.matrix)
        scale += dec.weights
        offsets[k] = dec.offset
    lifted = (pdata.lifting @ (edge_T.matrix * scale[None, :]) @
              pdata.restriction)
    lifted = np.asarray(lifted) - offsets[None, :]

    agg = hitting_matrix(pdata)
    diff = float(np.abs(agg - lifted).max())
    if diff > config.TOL.route_agreement * max(1.0, np.abs(agg).max() * 1e-6):
        raise InvariantViolation(f"hitting matrix routes disagree by {diff:.3e}")
    return lifted


def random_target(pdata: PullbackData) -> RandomTargetData:
    """Expected time to a target drawn from the invariant node density.

    The relative ``spread`` of the access times is reported as 0 when
    it is at most n·ε, the roundoff of the n-term sums that form
    them, and as inf when some access time is. Also reports whether
    the per-node condition holds under which the access time is
    constant over start nodes: all in-edges of a node must share the
    same edge-level return time to that node's in-edge set.

    One pass over the targets serves both. The times x_k to node k give
    its access column, and, since every continuation of an in-edge of
    k leaves k, the in-edge return times 1 + (P P x_k) on in(k).
    """
    chain = pdata.chain
    g = chain.graph
    config._dense_fits(g.n * g.n * 8, f"the access times of {g.n} nodes to each target")
    times = np.empty((g.n, g.n))
    condition = True
    targets = _node_sets_steps(chain, [(k,) for k in range(g.n)])
    for k, (x, _, _) in enumerate(targets):
        times[:, k] = _start_mean(pdata, x)
        if condition:
            vals = 1.0 + _csr_dot(chain, _csr_dot(chain, x))[g.in_edges(k)]
            condition = bool(np.ptp(vals) <= config.TOL.access_spread * max(1.0, vals.mean()))
    access = times @ pdata.node_density
    kappa = float(access.mean())
    spread = (float((access.max() - access.min()) / max(1.0, abs(kappa)))
              if np.isfinite(kappa) else np.inf)
    if spread <= g.n * np.finfo(np.float64).eps:
        spread = 0.0
    return RandomTargetData(
        kappa=kappa, spread=spread, condition_holds=condition, access=access
    )
