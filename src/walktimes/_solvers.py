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
outside S, so every reversal pair stays whole. This is the algebra
behind the Ihara-Bass identity (Bass 1992; Kempton 2016): one unknown
per node and the graph's adjacency pattern instead of one unknown per
edge state. A pair whose 2x2 block is singular, a
walk forced both ways along an edge, keeps its two edge unknowns.

One sparse LU per chain serves every target set. The chain factors,
once, the full-size system of a base node k0 of least in-degree,
each unknown k0 drops held at zero by a unit row. Another set S
changes only the rows of S and k0, of the forced-pair unknowns they
drop, and of the tails of the in-edges of S and k0, whose diagonals
gain or lose pair terms; Woodbury's identity turns those r rows into
r base solves and one dense r x r solve. A set with r above
64 + N/16, for N unknowns, factors its own reduced system instead,
which is then the cheaper route. ``_node_sets_steps`` solves many
sets in blocks: the array work is shared, while each set keeps its
own base and capacitance solves and so the digits
``node_target_steps`` gives it. Each result takes one step of
iterative refinement on the edge system, its residual formed in
extended precision, and the residual test of ``_direct_solve`` then
decides: a rejected target, like a failed base factorization, goes to
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
# a target set whose correction changes more than this many rows, plus
# one per 16 unknowns, factors its own system: past it the correction's
# base solves cost more than a factorization (measured crossovers near
# 80, 110 and 150 rows at 100, 600 and 2,000 unknowns)
_WOODBURY_ROWS = 64
# entries of the edge-by-set arrays one block of target sets holds:
# on a 100-node graph blocks of 27 sets run as fast as one block of all
# 100, whose arrays added 6 MB to a command's peak memory
_BLOCK = 2**14


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

    ``base`` factors the system of the target node ``k0`` at full
    size, each unknown it drops (``base_pinned``) held at zero by a
    unit row, with the pair terms of k0's in-edges on the diagonals
    of their tails (``base_diag``). Every other target set changes a
    few of its rows.
    """

    matrix: sp.csr_matrix
    tails: sp.csr_matrix       # node-by-edge tail indicator: sums over out-edges
    chain_ext: sp.csr_matrix   # the chain's matrix in extended precision
    d: np.ndarray
    rev: np.ndarray       # reversal of each edge, 0 where d is 0
    inv_det: np.ndarray   # zero on forced edges, like alpha and beta
    alpha: np.ndarray
    beta: np.ndarray
    forced: np.ndarray    # edge index of each extra unknown
    base: object          # SuperLU of the k0 system
    base_pinned: np.ndarray
    base_diag: np.ndarray


def _target_rows(g, tails, beta, forced, in_S):
    """(pinned, diag, interior) of the node sets in the columns of the
    mask ``in_S`` (n x K).

    ``pinned`` marks the unknowns each set drops: S_j for j in S and
    the forced edges off the interior. ``diag`` holds, per unknown,
    the pair terms of the edges entering S from outside, which leave
    the diagonals of their tails.
    """
    leaving = in_S[g.src]
    entering = in_S[g.dst] & ~leaving
    interior = ~(leaving | entering)
    pinned = np.concatenate([in_S, ~interior[forced]])
    diag = np.zeros(pinned.shape)
    diag[:g.n] = tails @ (beta[:, None] * entering)
    return pinned, diag, interior


def _factor(A: sp.spmatrix):
    """SuperLU of a node system, None when the factorization fails."""
    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return None


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
    tails = sp.csr_matrix((np.ones(g.m), (g.src, np.arange(g.m))), shape=(n, g.m))
    # the base target has the fewest in-edges: its rows enter every
    # other target's correction
    k0 = int(np.argmin(np.bincount(g.dst, minlength=n)))
    pinned, diag, _ = _target_rows(g, tails, beta, fe, (np.arange(n) == k0)[:, None])
    pinned, diag = pinned[:, 0], diag[:, 0]
    on = ~pinned[matrix.row]
    idx = np.arange(size)
    lu = _factor(sp.coo_matrix((np.concatenate([matrix.data[on], np.where(pinned, 1.0, diag)]),
                                (np.concatenate([matrix.row[on], idx]),
                                 np.concatenate([matrix.col[on], idx]))), shape=(size, size)))
    if lu is None:
        return None
    return _NodeSystem(matrix.tocsr(), tails, chain.matrix.astype(np.longdouble),
                       d, r, 1.0 / det, alpha, beta, fe, lu, pinned, diag)


def _node_system(chain) -> _NodeSystem | None:
    """The chain's node-space system and base LU, built once and cached on it."""
    if chain._node_system is None:
        chain._node_system = _assemble_node_system(chain) or False
    return chain._node_system or None


def _set_solver(ns: _NodeSystem, pinned, diag, cols):
    """Solver of the node systems of the target sets in ``cols``, the
    columns of the unknown masks ``pinned`` and ``diag`` (N x K).

    A set's system differs from the base only in the rows R where an
    unknown becomes or stops being pinned, or its diagonal pair terms
    change: B_S = B_0 + U V' with U the columns R of the identity and
    V' those rows of B_S - B_0. Woodbury's identity (Hager, SIAM
    Review 31, 1989) gives B_S^-1 b = y - W C^-1 V' y with
    y = B_0^-1 b, W = B_0^-1 U and the |R|-sized capacitance
    C = I + V' W. When |R| is a large share of the unknowns, its base
    solves and dense work cost more than a factorization, and the
    set's reduced system, without its pinned unknowns, is factored
    instead. Sets with equally many rows R share each array
    operation; every set still takes its own base solves and its own
    capacitance solve, so its digits do not depend on the other sets.

    Returns the solver, which maps right-hand sides (N x K), whose
    pinned entries it takes as zero, to the solutions, and the mask of
    the columns it cannot serve.
    """
    size, K = pinned.shape
    keep, keep0 = ~pinned, ~ns.base_pinned[:, None]
    changed = (pinned != ns.base_pinned[:, None]) | (keep & keep0 & (diag != ns.base_diag[:, None]))
    rows = changed.sum(axis=0)
    failed = np.zeros(K, dtype=bool)
    direct, woodbury = [], []
    for r in np.unique(rows[cols]):
        ks = cols[rows[cols] == r]
        if r > _WOODBURY_ROWS + size // 16:
            for k in ks:
                idx = np.flatnonzero(keep[:, k])
                lu = _factor(ns.matrix[idx][:, idx] + sp.diags(diag[idx, k]))
                failed[k] = lu is None
                if lu is not None:
                    direct.append((k, idx, lu))
            continue
        R = np.nonzero(changed[:, ks].T)[1].reshape(ks.size, r)   # row R[i] of set ks[i]
        i = np.arange(ks.size)[:, None]
        # a row that turns into a unit row gains e_i - M_i, one that stops
        # being one M_i - e_i: V' = diag(sign) M[R] + diag(shift) I[R]
        sign = keep[R, ks[:, None]] - keep0[R, 0].astype(np.float64)
        shift = (np.where(keep[R, ks[:, None]], diag[R, ks[:, None]], 0.0)
                 - np.where(keep0[R, 0], ns.base_diag[R], 0.0) - sign)
        U = np.zeros((ks.size, size, r))
        U[i, R, np.arange(r)] = 1.0
        W = np.stack([ns.base.solve(u) for u in U])
        MW = (ns.matrix @ W.transpose(1, 0, 2).reshape(size, -1)).reshape(size, ks.size, r)
        C = np.eye(r) + sign[..., None] * MW.transpose(1, 0, 2)[i, R] + shift[..., None] * W[i, R]
        woodbury.append((ks, R, sign, shift, W, C))

    def solve(b):
        b = np.where(keep, b, 0.0)
        z = np.zeros(b.shape)
        for k, idx, lu in direct:
            z[idx, k] = lu.solve(b[idx, k])
        for ks, R, sign, shift, W, C in woodbury:
            y = np.column_stack([ns.base.solve(b[:, k]) for k in ks])
            i = np.arange(ks.size)[:, None]
            v = sign * (ns.matrix @ y)[R, i] + shift * y[R, i]
            try:
                c = np.linalg.solve(C, v[..., None])
            except np.linalg.LinAlgError:   # a singular capacitance matrix
                failed[ks] = True
                continue
            z[:, ks] = y - (W @ c)[..., 0].T
        return z
    return solve, failed


def _node_space_steps(chain, in_S, tol: Tolerances):
    """Times to the node sets in the columns of the node mask ``in_S``
    (n x K) through the node-space system: an m x K array, and the
    mask of the columns it serves. A column is not served when the
    system does not apply or its result fails the edge system's
    validation."""
    g = chain.graph
    n = g.n
    x = (in_S[g.dst] & ~in_S[g.src]).astype(np.float64)   # boundary values
    served = (in_S[g.src] | in_S[g.dst]).all(axis=0)   # no interior edge
    if served.all():
        return x, served
    ns = _node_system(chain)
    if ns is None:
        return x, served
    pinned, diag, interior = _target_rows(g, ns.tails, ns.beta, ns.forced, in_S)
    solver, failed = _set_solver(ns, pinned, diag, np.flatnonzero(~served))

    def solve(h, known):
        """x for right-hand sides h on the interior, boundary values ``known``."""
        g0 = (h - ns.d[:, None] * h[ns.rev]) * ns.inv_det[:, None]
        fixed = ns.tails @ np.where(interior, g0, known)
        full = solver(np.concatenate([fixed, h[ns.forced]]))
        S = full[:n]
        y = g0 + ns.alpha[:, None] * S[g.dst] + ns.beta[:, None] * S[g.src]
        y[ns.forced] = full[n:]
        return y

    def settle(y):
        """y on the interior of the columns still solved, x elsewhere."""
        failed[~np.isfinite(y).all(axis=0, where=interior)] = True
        return np.where(interior & ~failed, y, x)

    # solve, then one step of iterative refinement on the edge system:
    # writing x through the node sums cancels digits the edge residual,
    # formed in extended precision, recovers
    x = settle(solve(interior.astype(np.float64), x))
    xl = x.astype(np.longdouble)
    h = np.where(interior, 1.0 + ns.chain_ext @ xl - xl, 0.0).astype(np.float64)
    x = settle(x + solve(h, 0.0))
    # the test _direct_solve applies, on the interior edge equations
    w = np.where(interior, x, 0.0)
    resid = np.abs(np.where(interior, w - chain.matrix @ x - 1.0, 0.0)).max(axis=0)
    failed |= (w < -1e-9).any(axis=0)
    failed |= resid > tol.direct_solve_residual * np.maximum(1.0, np.abs(w).max(axis=0))
    return np.where(interior, np.maximum(x, 0.0), x), served | ~failed


def node_target_steps(chain, S, tol: Tolerances = TOL):
    """``chain_steps`` to the second-order target node set S of an edge chain.

    Edges leaving S are pinned to 0 and edges entering S from outside
    to 1. Irreducible chains of the pair form (module docstring) are
    solved in node space; other chains, and node-space results that
    fail validation, take ``chain_steps``.
    """
    return next(_node_sets_steps(chain, [S], tol))


def _node_sets_steps(chain, sets, tol: Tolerances = TOL):
    """``node_target_steps`` for each node set in ``sets``, in turn.

    The sets are solved together in blocks; the digits of a set do not
    depend on the other sets in its block.
    """
    g = chain.graph
    in_S = np.zeros((g.n, len(sets)), dtype=bool)
    for c, S in enumerate(sets):
        in_S[np.asarray(S, dtype=np.int64), c] = True
    step = max(1, _BLOCK // g.m)
    for i in range(0, len(sets), step):
        block = in_S[:, i:i + step]
        served = np.zeros(block.shape[1], dtype=bool)
        if check_irreducible(chain)[0]:
            x, served = _node_space_steps(chain, block, tol)
        for k in range(block.shape[1]):
            if served[k]:
                yield x[:, k], np.ones(g.m, dtype=bool), np.ones(g.m)
            else:
                leaving = block[g.src, k]
                yield chain_steps(chain, leaving, block[g.dst, k] & ~leaving, tol)
