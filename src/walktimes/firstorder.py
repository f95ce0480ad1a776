"""Hitting and return statistics of first-order Markov chains.

Works for any chain exposing a row-stochastic ``matrix``; in this
package that is a chain on graph nodes or on directed edges. Expected
hitting times of a set S solve, in minimal nonnegative form,

    tau_i = 0                        for i in S,
    tau_i = 1 + sum_j P_ij tau_j     otherwise,

and are infinite exactly for states that miss S with positive
probability. Return times, the dense pairwise time matrix, and the
decomposition of set hitting times into weighted singleton columns
all come with their defining identities checked at runtime. The time
matrix of an irreducible chain comes from one dense fundamental
matrix, not from one solve per target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._solvers import chain_steps, reach_probabilities
from .chains import (
    _csr_dot,
    _csr_rows,
    _from_triplets,
    check_irreducible,
    stationary_density,
)
from .config import TOL, Tolerances
from .errors import InvariantViolation, QueryError, SizeCapError

__all__ = [
    "HittingSolution",
    "ReturnData",
    "TimeMatrix",
    "SubsetDecomposition",
    "hitting_probabilities",
    "mean_hitting_times",
    "return_times",
    "hitting_matrix",
    "subset_decomposition",
]


def _target_mask(n: int, S) -> np.ndarray:
    idx = np.asarray(sorted(set(int(s) for s in S)), dtype=np.int64)
    if idx.size == 0:
        raise QueryError("target set is empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise QueryError(f"target state out of range for {n} states")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


@dataclass(frozen=True)
class HittingSolution:
    """Per-state reach probabilities and expected times into a set.

    First order: ``target`` lists the target states. Second order
    (``secondorder.mean_hitting_times``): the states are edges and
    ``target`` is ``(k,)``, the node the walk must visit.
    """

    target: tuple[int, ...]
    probability: np.ndarray   # chance of ever entering the target
    time: np.ndarray          # expected steps, inf where divergent
    finite: np.ndarray        # bool mask, time[finite] is finite


@dataclass(frozen=True)
class ReturnData:
    """Mean return times to a set, with the reciprocal-mass identity.

    First order: ``target`` and ``per_state`` index the chain's states.
    Second order (``secondorder.return_times``): both index graph
    nodes, and ``per_state`` holds one entry per node.
    """

    target: tuple[int, ...]
    per_state: np.ndarray     # mean return time from each target state, 0 elsewhere
    set_mean: float           # density-weighted mean over the target
    density_mass: float       # invariant mass of the target


@dataclass(frozen=True)
class TimeMatrix:
    """Dense matrix of expected travel times between all state pairs."""

    matrix: np.ndarray        # [i, k] = expected steps from i to k, zero diagonal
    kappa: float              # density-weighted row mean, constant over rows
    kappa_spread: float       # relative spread of the row means


@dataclass(frozen=True)
class SubsetDecomposition:
    """Set hitting times as a weighted sum of singleton columns."""

    target: tuple[int, ...]
    weights: np.ndarray       # per-state weights, zero off the target set
    offset: float             # constant subtracted from the weighted sum


def hitting_probabilities(chain, S, tol: Tolerances = TOL) -> np.ndarray:
    """Probability of ever reaching the state set S, per start state."""
    mask = _target_mask(chain.n_states, S)
    return reach_probabilities(chain.matrix, mask, tol=tol)


def mean_hitting_times(chain, S, tol: Tolerances = TOL) -> HittingSolution:
    """Expected steps to reach the state set S, per start state.

    States already in S take 0 steps. A state that reaches S with
    probability below one has infinite expected time.
    """
    mask = _target_mask(chain.n_states, S)
    time, finite, phi = chain_steps(chain, mask, tol=tol)
    return HittingSolution(
        target=tuple(int(i) for i in np.flatnonzero(mask)),
        probability=phi,
        time=time,
        finite=finite,
    )


def _entry_times(chain, mask, tol) -> np.ndarray:
    """Expected steps to S per state, all of which must be finite.

    An invariant density does not make the chain irreducible: a
    reducible bistochastic chain carries the uniform density. So the
    reach solve is skipped only when the chain is irreducible; on a
    reducible chain it marks the states that miss S, and any such
    state fails the identity the caller is about to check.
    """
    time, finite, _ = chain_steps(chain, mask, tol=tol)
    if not finite.all():
        raise InvariantViolation(
            "hitting time is infinite: some state never reaches the target set"
        )
    return time


def _singleton_columns(chain, states, tol) -> np.ndarray:
    """Column c holds the expected steps to the single state states[c]."""
    n = chain.n_states
    cols = np.empty((n, len(states)))
    mask = np.zeros(n, dtype=bool)
    for c, k in enumerate(states):
        mask[k] = True
        cols[:, c] = _entry_times(chain, mask, tol)
        mask[k] = False
    return cols


def return_times(chain, S, pi=None, tol: Tolerances = TOL) -> ReturnData:
    """Mean time to come back to the set S, started inside it.

    For each i in S the one-step shift gives
    tau_plus_i = 1 + sum_j P_ij tau_j with tau the hitting times of S.
    The density-weighted mean over S must equal the reciprocal of the
    invariant mass of S; the identity is enforced here.
    """
    if pi is None:
        pi = stationary_density(chain, tol=tol)
    mask = _target_mask(chain.n_states, S)
    tau = _entry_times(chain, mask, tol)
    idx = np.flatnonzero(mask)
    tau_plus = 1.0 + (chain.matrix[idx] @ tau)
    mass = float(pi[idx].sum())
    set_mean = float(pi[idx] @ tau_plus) / mass
    expected = 1.0 / mass
    if abs(set_mean - expected) > tol.kac_agreement * max(1.0, expected):
        raise InvariantViolation(
            f"return time {set_mean!r} disagrees with reciprocal mass {expected!r}"
        )
    per_state = np.zeros(chain.n_states)
    per_state[idx] = tau_plus
    return ReturnData(
        target=tuple(int(i) for i in idx),
        per_state=per_state,
        set_mean=set_mean,
        density_mass=mass,
    )


def _time_residual(P, T, pi) -> np.ndarray:
    """ones - diag(1/pi) - (I - P) T: T's defining equation, zero where it holds."""
    R = 1.0 - (T - _csr_dot(P, T))
    R[np.diag_indices_from(R)] -= 1.0 / pi
    return R


def hitting_matrix(chain, pi=None, tol: Tolerances = TOL) -> TimeMatrix:
    """Dense matrix of expected travel times between all state pairs.

    Column k holds the expected steps to reach k. Every column comes
    from one dense fundamental matrix Z = (I - P + 1 pi')^-1 (Kemeny &
    Snell, 1960): T_ik = (Z_kk - Z_ik) / (pi' Z)_k, where pi' Z = pi'
    in exact arithmetic and the computed one makes the off-diagonal
    equations hold for any pi near the density. One step of iterative
    refinement through Z follows. Checked here: the density-weighted
    row means agree across rows (the random target identity) and the
    matrix satisfies its defining linear equation with zero diagonal.
    """
    n = chain.n_states
    if n > tol.dense_edge_cap:
        raise SizeCapError(
            f"dense time matrix for {n} states exceeds the cap "
            f"({tol.dense_edge_cap}); raise Tolerances.dense_edge_cap to force"
        )
    if pi is None:
        pi = stationary_density(chain, tol=tol)
    if not check_irreducible(chain)[0]:
        # some state misses some other: that column is infinite
        raise InvariantViolation(
            "hitting time is infinite: some state never reaches the target set"
        )
    A = np.eye(n)
    # minus P, each stored entry subtracted in turn, as scipy's toarray sums them
    np.subtract.at(A, (_csr_rows(chain.indptr), chain.indices), chain.data)
    A += pi[None, :]
    Z = np.linalg.inv(A)
    T = (np.diag(Z)[None, :] - Z) / (pi @ Z)[None, :]
    # the correction solves (I - P) D = R with zero diagonal; each
    # column's diagonal entry, the return equation, is redundant, so
    # it is set to keep the column orthogonal to pi and solvable
    # in extended precision, entries sorted as scipy's astype sorts them
    wide = _from_triplets(_csr_rows(chain.indptr), chain.indices,
                          chain.data.astype(np.longdouble), chain.shape)
    R = _time_residual(wide, T.astype(np.longdouble), pi)
    R[np.diag_indices(n)] = np.diag(R) - (pi @ R) / pi
    D = Z @ R.astype(np.float64)
    T += D - np.diag(D)[None, :]

    row_means = T @ pi
    kappa = float(row_means.mean())
    spread = float((row_means.max() - row_means.min()) / max(1.0, abs(kappa)))
    if spread > tol.kemeny_spread:
        raise InvariantViolation(
            f"density-weighted row means of the time matrix vary by {spread:.3e}"
        )
    resid = np.abs(_time_residual(chain, T, pi)).max()
    if resid > tol.t_matrix_residual * max(1.0, np.abs(T).max() * 1e-6):
        raise InvariantViolation(
            f"time matrix violates its linear equation: residual {resid:.3e}"
        )
    return TimeMatrix(matrix=T, kappa=kappa, kappa_spread=spread)


def subset_decomposition(chain, S, pi=None, T=None,
                         tol: Tolerances = TOL) -> SubsetDecomposition:
    """Express hitting times of a set through its singleton columns.

    The hitting time vector of S equals a convex combination of the
    singleton hitting columns of the members, minus a constant:
    weights_i = pi_i * (mean return time to S started at i), and the
    constant is the weighted mean time from any member of S to the
    members (independent of the chosen member). Both facts are
    verified numerically before returning.

    ``T`` may carry a precomputed time matrix to reuse its columns.
    """
    if pi is None:
        pi = stationary_density(chain, tol=tol)
    n = chain.n_states
    mask = _target_mask(n, S)
    idx = np.flatnonzero(mask)
    tau = _entry_times(chain, mask, tol)
    tau_plus = 1.0 + (chain.matrix[idx] @ tau)

    weights = np.zeros(n)
    weights[idx] = pi[idx] * tau_plus
    wsum = weights.sum()
    if abs(wsum - 1.0) > tol.weight_sum:
        raise InvariantViolation(
            f"decomposition weights sum to {wsum!r}, expected 1"
        )

    cols = T[:, idx] if T is not None else _singleton_columns(chain, idx, tol)

    # the constant, evaluated at every member of S, must not vary
    offsets = cols[idx] @ weights[idx]
    off = float(offsets.mean())
    off_spread = float(np.abs(offsets - off).max())
    if off_spread > tol.subset_offset_spread * max(1.0, abs(off)):
        raise InvariantViolation(
            f"decomposition offset varies over the set by {off_spread:.3e}"
        )

    recon = cols @ weights[idx] - off
    resid = np.abs(recon - tau).max()
    if resid > tol.subset_identity * max(1.0, np.abs(tau).max() * 1e-6):
        raise InvariantViolation(
            f"subset decomposition identity failed: residual {resid:.3e}"
        )
    return SubsetDecomposition(
        target=tuple(int(i) for i in idx),
        weights=weights,
        offset=off,
    )
