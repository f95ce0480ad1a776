"""Minimal nonnegative solutions of hitting-type linear systems.

Both quantities of interest are the smallest nonnegative solutions of
fixed-point equations in the transition matrix:

    reach probability   x = P x          off the target, x = 1 on it
    expected steps      x = 1 + P x      off the boundary, with fixed
                                         boundary values 0 and 1

The primary route solves the interior linear system directly with a
sparse LU factorization and validates the result (finiteness, sign,
residual). When the direct solve fails validation, a monotone
fixed-point iteration from zero takes over; it converges to the
minimal solution from below, and divergence beyond a threshold flags
states whose expectation is infinite.

States that reach the target with probability < 1 have infinite
expected steps; they are excluded from the linear system up front via
the reach probabilities, which keeps the interior matrix nonsingular.
On an irreducible chain every state reaches every target surely, so
``chain_steps`` runs the reach solve only on reducible chains: one
sparse LU per target on an irreducible chain, two on a reducible one.

``node_target_steps`` answers the second-order question "how long
until the walk visits the node set S" in node space when it can. The
built-in edge chains (``uniform``, ``nb``, ``dw:alpha``) have the form

    P = diag(c) H T' - diag(d) J

where H and T are the edge-by-node head and tail indicators, J swaps
each edge with its reversal, c_e is the probability of every
continuation of e other than its reversal and d_e = c_e - P[e, rev e].
Writing S_j for the sum of the unknowns over the out-edges of node j,
each interior equation reads x_e + d_e x_(rev e) = 1 + c_e S_(head e).
Solving each reversal pair in closed form gives
x_e = g0_e + alpha_e S_(head e) + beta_e S_(tail e) with coefficients
that do not depend on the target. A target set S drops S_j for every
j in S and moves the pair terms of the edges entering S from outside
onto the diagonals of their tails; an interior edge has both ends
outside S, so every reversal pair stays whole. Each target set costs
one sparse LU with n - |S| unknowns and the graph's adjacency pattern
instead of one over the edge states; this is the algebra behind the
Ihara-Bass identity (Bass 1992; Kempton 2016). A pair whose 2x2 block is
singular, a walk forced both ways along an edge, keeps its two edge
unknowns in the reduced system. Each result takes one step of
iterative refinement on the edge system, whose residual test
(``_direct_solve``'s) then decides: a rejected target goes to
``chain_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .chains import check_irreducible
from .config import TOL, Tolerances
from .errors import ConvergenceError
from .graph import _continuations

__all__ = ["reach_probabilities", "expected_steps", "chain_steps", "node_target_steps"]

# a reversal pair whose 2x2 block has a smaller determinant keeps its
# edge unknowns: eliminating it would amplify roundoff by 1/det
_PAIR_PIVOT = 2.0**-10


def _direct_solve(B: sp.csr_matrix, rhs: np.ndarray, tol: Tolerances):
    """Solve (I - B) x = rhs; None when the factorization is unusable."""
    n = B.shape[0]
    A = (sp.identity(n, format="csr") - B).tocsc()
    try:
        x = splu(A).solve(rhs)
    except RuntimeError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    resid = np.abs(A @ x - rhs).max()
    if resid > tol.direct_solve_residual * max(1.0, np.abs(x).max()):
        return None
    return x


def _iterate_affine(B: sp.csr_matrix, rhs: np.ndarray, cap: float | None,
                    tol: Tolerances):
    """Monotone iteration x <- rhs + B x from zero.

    Returns (x, diverged_mask). With ``cap`` set, components that grow
    beyond it are flagged as diverged (infinite expectation) and the
    iteration restarts without them.
    """
    n = B.shape[0]
    alive = np.ones(n, dtype=bool)
    while True:
        idx = np.flatnonzero(alive)
        Bs = B[idx][:, idx]
        r = rhs[idx]
        x = np.zeros(len(idx))
        converged = False
        for _ in range(tol.max_sweeps):
            y = r + Bs @ x
            if not np.all(y >= x - 1e-9 * np.maximum(1.0, np.abs(x))):
                raise ConvergenceError(
                    "fixed-point iteration lost monotonicity"
                )
            if cap is not None and (y > cap).any():
                bad = idx[np.flatnonzero(y > cap)]
                alive[bad] = False
                break
            if np.abs(y - x).max() <= tol.iteration_tol * max(1.0, np.abs(y).max()):
                x = y
                converged = True
                break
            x = y
        else:
            raise ConvergenceError(
                "fixed-point iteration exhausted its sweep budget"
            )
        if converged:
            full = np.zeros(n)
            full[idx] = x
            return full, ~alive
        # restart with the diverged components removed


def reach_probabilities(P: sp.csr_matrix, target: np.ndarray,
                        tol: Tolerances = TOL) -> np.ndarray:
    """Probability of ever entering the target set, per state.

    Minimal nonnegative solution: 1 on the target, the average of the
    successors' values elsewhere. States that cannot reach the target
    get exact zeros.
    """
    n = P.shape[0]
    target = np.asarray(target, dtype=bool)
    phi = np.ones(n)
    interior = np.flatnonzero(~target)
    if interior.size == 0:
        return phi
    rows = P[interior]
    B = rows[:, interior]
    c = np.asarray(rows[:, target].sum(axis=1)).ravel()
    x = _direct_solve(B, c, tol)
    if x is None or (x < -1e-9).any() or (x > 1 + 1e-9).any():
        x, _ = _iterate_affine(B, c, cap=None, tol=tol)
    phi[interior] = np.clip(x, 0.0, 1.0)
    return phi


def expected_steps(P: sp.csr_matrix, zero_boundary: np.ndarray,
                   one_boundary: np.ndarray | None = None, *,
                   assume_sure: bool, tol: Tolerances = TOL):
    """Expected steps to absorption with fixed boundary values.

    States in ``zero_boundary`` are pinned to 0, states in
    ``one_boundary`` (disjoint, optional) to 1; every other state i
    satisfies x_i = 1 + sum_j P_ij x_j. Returns (x, finite, phi) where
    x holds inf for states whose expectation diverges.

    ``assume_sure`` skips the reach solve and takes every reach
    probability to be 1, which holds on an irreducible chain.
    """
    n = P.shape[0]
    zero_boundary = np.asarray(zero_boundary, dtype=bool)
    if one_boundary is None:
        one_boundary = np.zeros(n, dtype=bool)
    else:
        one_boundary = np.asarray(one_boundary, dtype=bool) & ~zero_boundary
    boundary = zero_boundary | one_boundary

    if assume_sure:
        phi = np.ones(n)
    else:
        phi = reach_probabilities(P, boundary, tol=tol)

    x = np.full(n, np.inf)
    x[zero_boundary] = 0.0
    x[one_boundary] = 1.0
    finite = phi >= 1.0 - tol.finite_probability
    work = np.flatnonzero(finite & ~boundary)
    if work.size:
        rows = P[work]
        B = rows[:, work]
        rhs = 1.0 + np.asarray(rows[:, one_boundary].sum(axis=1)).ravel()
        sol = _direct_solve(B, rhs, tol)
        if sol is None or (sol < -1e-9).any():
            sol, diverged = _iterate_affine(
                B, rhs, cap=tol.divergence_threshold, tol=tol
            )
            sol = np.where(diverged, np.inf, sol)
        x[work] = np.maximum(sol, 0.0)
    return x, np.isfinite(x), phi


def chain_steps(chain, zero_boundary: np.ndarray,
                one_boundary: np.ndarray | None = None,
                tol: Tolerances = TOL):
    """``expected_steps`` on a chain's transition matrix.

    The reach solve runs only when the chain is reducible, where it is
    what finds the infinite times; the strong-connectivity verdict is
    cached on the chain.
    """
    return expected_steps(chain.matrix, zero_boundary, one_boundary,
                          assume_sure=check_irreducible(chain)[0], tol=tol)


def _pair_form(chain):
    """Per-edge (c, d, rev) with P = diag(c) H T' - diag(d) J, or None.

    Every continuation of e other than its reversal must be in the
    support with one common probability c_e. ``rev`` is the index of
    each edge's reversal, -1 where it is not an edge (d is 0 there).
    A row whose only continuation is its reversal takes
    c = P[e, rev e], so d = 0.
    """
    g, P = chain.graph, chain.matrix
    if not P.has_canonical_format:
        return None
    m = g.m
    ids = sp.csr_matrix((np.arange(1, m + 1), (g.src, g.dst)), shape=(g.n, g.n))
    rev = np.asarray(ids[g.dst, g.src]).ravel().astype(np.int64) - 1
    rows = np.repeat(np.arange(m), np.diff(P.indptr))
    back = P.indices == rev[rows]
    on = ~back
    b = np.zeros(m)
    b[rows[back]] = P.data[back]
    c = np.zeros(m)
    c[rows[on]] = P.data[on]
    cont = _continuations(g)
    count = np.bincount(rows[on], minlength=m)
    if not ((P.data[on] == c[rows[on]]).all() and (count == cont).all()):
        return None
    c = np.where(cont == 0, b, c)
    return c, np.where(rev >= 0, c - b, 0.0), rev


@dataclass(frozen=True)
class _NodeSystem:
    """Target-independent part of the node-space hitting system.

    Unknowns are S_j for every node j, then x_e for each edge of a
    ``forced`` pair. Row j reads S_j = sum of x over the out-edges of
    j, an eliminated edge e = (i, j) written as
    x_e = (h_e - d_e h_(rev e)) / det_e + alpha_e S_j + beta_e S_i
    for interior right-hand side h; the row of forced edge e reads
    x_e + d_e x_(rev e) - c_e S_j = h_e.
    """

    matrix: sp.coo_matrix
    d: np.ndarray
    rev: np.ndarray       # reversal of each edge, 0 where d is 0
    inv_det: np.ndarray   # zero on forced edges, like alpha and beta
    alpha: np.ndarray
    beta: np.ndarray
    forced: np.ndarray    # edge index of each extra unknown


def _assemble_node_system(chain) -> _NodeSystem | None:
    form = _pair_form(chain)
    if form is None:
        return None
    c, d, rev = form
    g = chain.graph
    n = g.n
    r = np.maximum(rev, 0)   # d is 0 where there is no reversal
    det = 1.0 - d * d[r]
    forced = np.abs(det) < _PAIR_PIVOT
    det[forced] = np.inf   # zeroes the closed-form coefficients
    alpha = c / det
    beta = -d * c[r] / det
    fe = np.flatnonzero(forced)
    slot = np.full(g.m, -1, dtype=np.int64)
    slot[fe] = n + np.arange(fe.size)
    size = n + fe.size
    e = np.flatnonzero(~forced)
    rows = np.concatenate([np.arange(size), g.src[e], g.src[e],
                           g.src[fe], slot[fe], slot[fe]])
    cols = np.concatenate([np.arange(size), g.dst[e], g.src[e],
                           slot[fe], slot[r[fe]], g.dst[fe]])
    vals = np.concatenate([np.ones(size), -alpha[e], -beta[e],
                           -np.ones(fe.size), d[fe], -c[fe]])
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(size, size))
    matrix.sum_duplicates()
    return _NodeSystem(matrix, d, r, 1.0 / det, alpha, beta, fe)


def _node_system(chain) -> _NodeSystem | None:
    """The chain's node-space system, built once and cached on it."""
    if chain._node_system is None:
        chain._node_system = _assemble_node_system(chain) or False
    return chain._node_system or None


def _node_space_steps(chain, in_S, leaving, entering, tol: Tolerances):
    """Times to the node set ``in_S`` (a node mask) through the
    node-space system; None when it does not apply or its result fails
    the edge system's validation."""
    ns = _node_system(chain)
    if ns is None:
        return None
    g = chain.graph
    n = g.n
    x = entering.astype(np.float64)   # boundary values: 0 leaving, 1 entering
    interior = ~(leaving | entering)
    if not interior.any():
        return x
    M = ns.matrix
    size = M.shape[0]
    keep = np.ones(size, dtype=bool)
    keep[:n] = ~in_S
    keep[n:] = interior[ns.forced]
    at = np.cumsum(keep) - 1
    on = keep[M.row] & keep[M.col]
    # edges entering S from outside are on the boundary: their pair
    # terms leave the diagonal entries of their tails
    tails = g.src[entering]
    rows = at[np.concatenate([M.row[on], tails])]
    cols = at[np.concatenate([M.col[on], tails])]
    vals = np.concatenate([M.data[on], ns.beta[entering]])
    A = sp.csc_matrix((vals, (rows, cols)), shape=(at[-1] + 1,) * 2)
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return None

    def solve(h, known):
        """Interior x for right-hand side h, boundary values ``known``."""
        g0 = (h - ns.d * h[ns.rev]) * ns.inv_det
        fixed = np.bincount(g.src, weights=np.where(interior, g0, known), minlength=n)
        full = np.zeros(size)
        full[keep] = lu.solve(np.concatenate([fixed, h[ns.forced]])[keep])
        S = full[:n]
        y = g0 + ns.alpha * S[g.dst] + ns.beta * S[g.src]
        y[ns.forced] = full[n:]
        return y[interior]

    # solve, then one step of iterative refinement on the edge system:
    # writing x through the node sums cancels digits the edge residual
    # recovers
    h = interior.astype(np.float64)
    x[interior] = solve(h, x)
    if not np.all(np.isfinite(x)):
        return None
    h[interior] = 1.0 + (chain.matrix @ x)[interior] - x[interior]
    x[interior] += solve(h, 0.0)
    # the test _direct_solve applies, on the interior edge equations
    w = x[interior]
    if not np.all(np.isfinite(w)) or (w < -1e-9).any():
        return None
    resid = np.abs(w - (chain.matrix @ x)[interior] - 1.0).max()
    if resid > tol.direct_solve_residual * max(1.0, np.abs(w).max()):
        return None
    x[interior] = np.maximum(w, 0.0)
    return x


def node_target_steps(chain, S, tol: Tolerances = TOL):
    """``chain_steps`` to the second-order target node set S of an edge chain.

    Edges leaving S are pinned to 0 and edges entering S from outside
    to 1. Irreducible chains of the pair form (module docstring) are
    solved in node space; other chains, and node-space results that
    fail validation, take ``chain_steps``.
    """
    g = chain.graph
    in_S = np.isin(np.arange(g.n), S)
    leaving = in_S[g.src]
    entering = in_S[g.dst] & ~leaving
    if check_irreducible(chain)[0]:
        x = _node_space_steps(chain, in_S, leaving, entering, tol)
        if x is not None:
            return x, np.ones(g.m, dtype=bool), np.ones(g.m)
    return chain_steps(chain, leaving, entering, tol)
