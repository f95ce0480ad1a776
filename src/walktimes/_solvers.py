"""Minimal nonnegative solutions of hitting-type linear systems.

Both quantities of interest are the smallest nonnegative solutions of
fixed-point equations in the transition matrix:

    reach probability   x = P x          off the target, x = 1 on it
    expected steps      x = 1 + P x      off the boundary, with fixed
                                         boundary values 0 and 1

Which states have infinite expectations is a property of the support
graph of the transition matrix, not of the numbers on it (Norris,
*Markov Chains*, 1997, section 1.3). ``_reach_masks`` reads two masks
off it by breadth-first search: ``can``, the states with a path into
the target, and ``sure``, those with no path, outside the target, to
a state outside ``can``. A walk from a ``sure`` state enters the target
with probability 1 and in finite expected time; from any other state
it can miss the target, and its expected time is infinite. The reach
probability is 1 on ``sure`` and 0 off ``can``; only the states in
between, which reach the target by chance, take a linear solve. That
system, and the expected-steps system on the ``sure`` states off the
target, are nonsingular: every one of their states has a path out of
them.

Both systems are solved directly with a sparse LU factorization, and
the result is validated (finiteness, sign, residual). They, and the
sparse base LU below, are what load scipy.sparse: the node route
computes on the chain's CSR arrays and the graph's index arrays with
numpy (``chains._csr_dot``). A solve that
fails validation raises ``ConvergenceError``. On an irreducible chain
every state reaches every target surely, so ``chain_steps`` skips the
masks and takes one sparse LU per target; a reducible chain pays a
reach LU only when some state reaches the target by chance.

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

One base per chain serves every target set: the full-size system B0
of a base node k0 of least in-degree, each unknown k0 drops held at
zero by a unit row. A call that solves many target sets, or any call
on a small system, inverts it once; G = B0^-1 is the fundamental
matrix of the walk absorbed at k0 (Kemeny and Snell, 1960). Other
calls, and systems whose inverse would not fit ``_DENSE_BYTES``
(N > 2,896 unknowns), take one sparse LU of B0. Another set S changes
only the rows R of S and k0, of the forced-pair unknowns they drop,
and of the tails of the in-edges of S and k0, whose diagonals gain or
lose pair terms. Woodbury's identity (Hager, SIAM Review 31, 1989)
turns those rows into the columns R of G, or |R| sparse base solves,
and one dense |R| x |R| solve. On the sparse route a set with |R|
above 64 + N/16 factors its own reduced system instead, which is then
the cheaper route. With G, a set's first right-hand side differs from
that of the empty set only near S, so its base solution is a cached
vector plus a few columns of G. ``_node_sets_steps`` solves sets in
blocks of ``_BLOCK``: the array work is shared, while each set keeps
its own products, of one shape whatever its block, and so the digits
``node_target_steps`` gives it on either base. Each result takes one
step of iterative refinement on the edge system, its residual formed
in extended precision. The residual test of ``_direct_solve`` then
decides: a rejected target, like a singular base, goes to
``chain_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (
    _CSR,
    _csr_dot,
    _csr_rows,
    _from_triplets,
    _scipy_csr,
    check_irreducible,
)
from .config import TOL, Tolerances
from .errors import ConvergenceError
from .graph import _reached, _reversals

__all__ = ["reach_probabilities", "expected_steps", "chain_steps", "node_target_steps"]

# a reversal pair whose 2x2 block has a smaller determinant keeps its
# edge unknowns: eliminating it would amplify roundoff by 1/det
_PAIR_PIVOT = 2.0**-10
# the node-space base is inverted densely only while the inverse and
# the three more arrays of its size that forming it holds, in float64,
# fit this many bytes (N <= 2,896 unknowns); a larger one keeps the
# sparse LU of its base system
_DENSE_BYTES = 2**28
# within that budget, a system of at most this many unknowns is always
# inverted: the sparse route loads scipy.sparse and its factorization
# (0.19-0.26 s per process). As fresh processes, return-times --set on
# nb walks of synthetic cores took 0.33 s dense against 0.50 s sparse at
# 900 unknowns, 0.44 against 0.53 at 1,200, 0.65 against 0.68 at 1,500
# and 0.84 against 0.68 at 1,800, with one BLAS thread
_DENSE_SIZE = 1500
# a larger one is inverted for a call that solves at least one target
# set per this many unknowns, and otherwise takes the sparse LU: on nb
# walks of synthetic cores, with one BLAS thread, the inverse paid off
# from about 16 sets at 300 unknowns, 38 at 600, 55 at 1,000 and 90 at
# 2,000
_DENSE_SETS = 20
# on the sparse route, a target set whose correction changes more than
# this many rows, plus one per 16 unknowns, factors its own system: past
# it the correction's base solves cost more than a factorization
# (measured crossovers near 80, 110 and 150 rows at 100, 600 and 2,000
# unknowns)
_WOODBURY_ROWS = 64
# target sets in one block. A block's refinement is one product of the
# dense inverse with exactly this many right-hand sides, zero-padded:
# BLAS rounds a product by its shape, so a set's digits do not depend
# on its block. On a 2,000-node core, all 2,000 targets took as long
# in blocks of 32 as of 64, whose arrays added 26 MB to the peak
_BLOCK = 32


def splu(A, **kwargs):
    """SuperLU of the sparse matrix A.

    ``scipy.sparse.linalg`` is imported on the first call, so queries
    that factor no sparse system never load it.
    """
    from scipy.sparse.linalg import splu as superlu

    return superlu(A, **kwargs)


def _direct_solve(B, rhs: np.ndarray, tol: Tolerances):
    """Solve (I - B) x = rhs; None when the factorization is unusable."""
    import scipy.sparse as sp

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


def _validated_solve(B, rhs: np.ndarray, tol: Tolerances,
                     what: str, upper: float = np.inf) -> np.ndarray:
    """``_direct_solve``, its solution within [-1e-9, ``upper``]; a
    rejected solve raises ``ConvergenceError``."""
    x = _direct_solve(B, rhs, tol)
    if x is None or (x < -1e-9).any() or (x > upper).any():
        raise ConvergenceError(f"direct solve of the {what} failed its validation")
    return x


def _reach_masks(P, target: np.ndarray):
    """(can, sure) of the target mask on the support of P, whose stored
    entries are its nonzeros as in a ``Chain``'s matrix: the states
    with a path into the target, and those with no path, outside the
    target, to a state outside ``can``."""
    back = P.tocsc()   # column j lists the states that step to j
    can = _reached(back.indptr, back.indices, target)
    return can, ~_reached(back.indptr, back.indices, ~can, stop=target)


def _reach(P, target: np.ndarray, tol: Tolerances):
    """(reach probabilities, ``sure`` mask) of the target mask."""
    can, sure = _reach_masks(P, target)
    phi = sure.astype(np.float64)
    chance = np.flatnonzero(can & ~sure)
    if chance.size:
        rows = P[chance]
        c = np.asarray(rows[:, sure].sum(axis=1)).ravel()
        x = _validated_solve(rows[:, chance], c, tol, "reach probabilities", 1 + 1e-9)
        phi[chance] = np.clip(x, 0.0, 1.0)
    return phi, sure


def reach_probabilities(P, target: np.ndarray,
                        tol: Tolerances = TOL) -> np.ndarray:
    """Probability of ever entering the target set, per state.

    Minimal nonnegative solution: 1 on the target, the average of the
    successors' values elsewhere. States that reach the target surely
    get exact ones, states that cannot reach it exact zeros.
    """
    return _reach(P, np.asarray(target, dtype=bool), tol)[0]


def expected_steps(P, zero_boundary: np.ndarray,
                   one_boundary: np.ndarray | None = None, *,
                   assume_sure: bool, tol: Tolerances = TOL):
    """Expected steps to absorption with fixed boundary values.

    States in ``zero_boundary`` are pinned to 0, states in
    ``one_boundary`` (disjoint, optional) to 1; every other state i
    satisfies x_i = 1 + sum_j P_ij x_j. Returns (x, finite, phi) where
    x holds inf for the states that can miss the boundary.

    ``assume_sure`` skips the reach masks and takes every reach
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
        phi, finite = np.ones(n), np.ones(n, dtype=bool)
    else:
        phi, finite = _reach(P, boundary, tol)

    x = np.full(n, np.inf)
    x[zero_boundary] = 0.0
    x[one_boundary] = 1.0
    work = np.flatnonzero(finite & ~boundary)
    if work.size:
        rows = P[work]
        rhs = 1.0 + np.asarray(rows[:, one_boundary].sum(axis=1)).ravel()
        x[work] = np.maximum(_validated_solve(rows[:, work], rhs, tol, "expected steps"), 0.0)
    return x, finite, phi


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
    c = P[e, rev e], so d = 0. The chain's arrays must be canonical.
    """
    g = chain.graph
    m = g.m
    rows = _csr_rows(chain.indptr)
    if ((np.diff(chain.indices) <= 0) & (rows[1:] == rows[:-1])).any():
        return None
    rev = _reversals(g)
    back = chain.indices == rev[rows]
    on = ~back
    b = np.zeros(m)
    b[rows[back]] = chain.data[back]
    c = np.zeros(m)
    c[rows[on]] = chain.data[on]
    cont = g.out_degree[g.dst] - (rev >= 0)
    count = np.bincount(rows[on], minlength=m)
    if not ((chain.data[on] == c[rows[on]]).all() and (count == cont).all()):
        return None
    c = np.where(cont == 0, b, c)
    return c, np.where(rev >= 0, c - b, 0.0), rev


@dataclass
class _NodeSystem:
    """Target-independent part of the node-space hitting system.

    Unknowns are S_j for every node j, then x_e for each edge of a
    ``forced`` pair. Row j reads S_j = sum of x over the out-edges of
    j, an eliminated edge e = (i, j) written as
    x_e = (h_e - d_e h_(rev e)) / det_e + alpha_e S_j + beta_e S_i
    for interior right-hand side h: x = ``pair`` h + ``lift`` S. The
    row of forced edge e reads x_e + d_e x_(rev e) - c_e S_j = h_e.

    ``base_entries`` holds the triplets of B0, the system of the
    target node ``k0`` at full size, each unknown it drops
    (``base_pinned``) held at zero by a unit row, with the pair terms
    of k0's in-edges on the diagonals of their tails (``base_diag``).
    Every other target set changes a few of its rows. ``base`` is
    B0^-1, dense, or the SuperLU of B0, made by the first call that
    needs it (``_factor_base``). ``rhs0`` is the first right-hand side
    of the empty target set, every edge interior, and ``y0`` its
    solution through the dense base.
    """

    matrix: _CSR          # canonical, as scipy's COO sums duplicates
    tails: _CSR           # node-by-edge tail indicator: sums over out-edges
    residual: _CSR        # [P - I | 1], extended precision: [x; 1] to 1 + P x - x
    pair: _CSR            # edge-by-edge, zero on forced edges, like lift
    lift: _CSR            # edge-by-node
    beta: np.ndarray
    forced: np.ndarray    # edge index of each extra unknown
    base_entries: tuple   # (values, (rows, cols)) of B0, duplicates to be summed
    base_pinned: np.ndarray
    base_diag: np.ndarray
    rhs0: np.ndarray
    base: object = None   # dense B0^-1, or the SuperLU of B0
    y0: np.ndarray | None = None


def _target_rows(g, beta, forced, in_S):
    """(pinned, diag, interior) of the node sets in the columns of the
    mask ``in_S`` (n x K).

    ``pinned`` marks the unknowns each set drops: S_j for j in S and
    the forced edges off the interior. ``diag`` holds, per unknown,
    the pair terms of the edges entering S from outside, which leave
    the diagonals of their tails: summed per tail and set in
    ascending edge order.
    """
    leaving = in_S[g.src]
    entering = in_S[g.dst] & ~leaving
    interior = ~(leaving | entering)
    pinned = np.concatenate([in_S, ~interior[forced]])
    diag = np.zeros(pinned.shape)
    e, k = np.nonzero(entering)
    np.add.at(diag, (g.src[e], k), beta[e])
    return pinned, diag, interior


def _factor(A):
    """SuperLU of a scipy sparse node system, None when the factorization fails."""
    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return None


def _factor_base(ns: _NodeSystem, sets: int) -> bool:
    """Make ``ns.base`` serve a call that solves ``sets`` target sets;
    False when B0 is singular.

    Within ``_DENSE_BYTES``, a system of at most ``_DENSE_SIZE``
    unknowns, or a call of at least one set per ``_DENSE_SETS``
    unknowns, forms the dense inverse: its O(N^3) cost pays off over
    many sets, whose base solves become products. Any other call takes
    the sparse LU of B0. Once formed, the dense inverse serves every
    later call.
    """
    size = ns.base_pinned.size
    if isinstance(ns.base, np.ndarray):
        return True
    if (4 * size**2 * 8 <= _DENSE_BYTES
            and (size <= _DENSE_SIZE or sets * _DENSE_SETS >= size)):
        vals, (rows, cols) = ns.base_entries
        BT = np.zeros((size, size))
        np.add.at(BT, (cols, rows), vals)   # B0^T, as its scipy toarray sums it
        try:
            # column-major, so the columns Woodbury takes are contiguous
            G = np.linalg.inv(BT).T
        except np.linalg.LinAlgError:
            return False
        ns.base, ns.y0 = G, G @ ns.rhs0
    elif ns.base is None:
        import scipy.sparse as sp

        ns.base = _factor(sp.csc_matrix(ns.base_entries, shape=(size, size)))
    return ns.base is not None


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
    matrix = _from_triplets(
        np.concatenate([np.arange(size), g.src[e], g.src[e], g.src[fe], slot[fe], slot[fe]]),
        np.concatenate([np.arange(size), g.dst[e], g.src[e], slot[fe], slot[r[fe]], g.dst[fe]]),
        np.concatenate([np.ones(size), -alpha[e], -beta[e], -np.ones(fe.size), d[fe], -c[fe]]),
        (size, size))
    tails = _CSR(g._out_ptr, g._out_order, np.ones(g.m), (n, g.m))
    # the base target has the fewest in-edges: its rows enter every
    # other target's correction
    k0 = int(np.argmin(np.bincount(g.dst, minlength=n)))
    pinned, diag, _ = _target_rows(g, beta, fe, (np.arange(n) == k0)[:, None])
    pinned, diag = pinned[:, 0], diag[:, 0]
    mrows = _csr_rows(matrix.indptr)
    on = ~pinned[mrows]
    idx = np.arange(size)
    base = (np.concatenate([matrix.data[on], np.where(pinned, 1.0, diag)]),
            (np.concatenate([mrows[on], idx]), np.concatenate([matrix.indices[on], idx])))
    edges = np.concatenate([np.arange(g.m), np.arange(g.m)])
    pair = _from_triplets(edges, np.concatenate([np.arange(g.m), r]),
                          np.concatenate([1.0 / det, -d / det]), (g.m, g.m))
    lift = _from_triplets(edges, np.concatenate([g.dst, g.src]),
                          np.concatenate([alpha, beta]), (g.m, n))
    rhs0 = np.concatenate([_csr_dot(tails, _csr_dot(pair, np.ones(g.m))), np.ones(fe.size)])
    rows = _csr_rows(chain.indptr)
    residual = _from_triplets(
        np.concatenate([rows, np.arange(g.m), np.arange(g.m)]),
        np.concatenate([chain.indices, np.arange(g.m), np.full(g.m, g.m)]),
        np.concatenate([chain.data, -np.ones(g.m), np.ones(g.m)]).astype(np.longdouble),
        (g.m, g.m + 1))
    return _NodeSystem(matrix, tails, residual, pair, lift, beta, fe, base, pinned, diag, rhs0)


def _node_system(chain) -> _NodeSystem | None:
    """The chain's node-space system, built once and cached on it."""
    if chain._node_system is None:
        chain._node_system = _assemble_node_system(chain) or False
    return chain._node_system or None


def _base_solve(ns: _NodeSystem, b, first: bool):
    """B0^-1 b for the right-hand sides in the columns of b, at most
    ``_BLOCK`` of them.

    Through the sparse LU, one solve per column. With the dense base,
    a ``first`` right-hand side differs from ``rhs0`` only near its
    set: its solution is ``y0`` plus those columns of G. Any other
    block is one product with G, padded to ``_BLOCK`` columns.
    """
    G = ns.base
    y = np.empty(b.shape)
    if not isinstance(G, np.ndarray):
        for k in range(b.shape[1]):
            y[:, k] = G.solve(b[:, k])
        return y
    if first:
        delta = b - ns.rhs0[:, None]
        for k in range(b.shape[1]):
            D = np.flatnonzero(delta[:, k])
            y[:, k] = ns.y0 + G[:, D] @ delta[D, k]
        return y
    padded = np.zeros((_BLOCK, b.shape[0]))
    padded[:b.shape[1]] = b.T
    return (padded @ G.T)[:b.shape[1]].T


def _set_solver(ns: _NodeSystem, pinned, diag, cols):
    """Solver of the node systems of the target sets in ``cols``, the
    columns of the unknown masks ``pinned`` and ``diag`` (N x K).

    A set's system differs from the base only in the rows R where an
    unknown becomes or stops being pinned, or its diagonal pair terms
    change: B_S = B_0 + U V' with U the columns R of the identity and
    V' those rows of B_S - B_0. Woodbury's identity gives
    B_S^-1 b = y - W C^-1 V' y with y = B_0^-1 b, W = B_0^-1 U and the
    |R|-sized capacitance C = I + V' W, which needs only the rows R of
    the system. With the dense base W is the columns R of B0^-1. With
    the sparse LU, W takes |R| base solves, and a set whose |R| is a
    large share of the unknowns factors its own reduced system, without
    its pinned unknowns, instead. Sets with equally many rows R share
    each array operation; every set still takes its own products and
    its own capacitance solve, so its digits do not depend on the other
    sets.

    Returns the solver and the mask of the columns it cannot serve.
    The solver maps right-hand sides (N x K), whose pinned entries it
    takes as zero, to the solutions; ``first`` marks a first pass's
    right-hand sides (``_base_solve``).
    """
    size, K = pinned.shape
    dense = isinstance(ns.base, np.ndarray)
    keep, keep0 = ~pinned, ~ns.base_pinned[:, None]
    changed = (pinned != ns.base_pinned[:, None]) | (keep & keep0 & (diag != ns.base_diag[:, None]))
    rows = changed.sum(axis=0)
    failed = np.zeros(K, dtype=bool)
    direct, groups = [], []
    for r in np.unique(rows[cols]):
        ks = cols[rows[cols] == r]
        if not dense and r > _WOODBURY_ROWS + size // 16:
            import scipy.sparse as sp

            M = _scipy_csr(ns.matrix)
            for k in ks:
                idx = np.flatnonzero(keep[:, k])
                lu = _factor(M[idx][:, idx] + sp.diags(diag[idx, k]))
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
        if dense:
            W = np.ascontiguousarray(ns.base[:, R].transpose(1, 0, 2))
        else:
            U = np.zeros((ks.size, size, r))
            U[i, R, np.arange(r)] = 1.0
            W = np.stack([ns.base.solve(u) for u in U])
        # the rows R of M, set i's columns moved to i * size: block
        # diagonal, so one product serves every set of the group
        starts = ns.matrix.indptr[R.ravel()]
        counts = ns.matrix.indptr[R.ravel() + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(counts)])
        at = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        MR = _CSR(indptr, ns.matrix.indices[at] + np.repeat(np.arange(ks.size * r) // r, counts)
                  * size, ns.matrix.data[at], (ks.size * r, ks.size * size))
        MW = _csr_dot(MR, W.reshape(ks.size * size, r)).reshape(ks.size, r, r)
        C = np.eye(r) + sign[..., None] * MW + shift[..., None] * W[i, R]
        groups.append((ks, R, sign, shift, W, MR, C))
    woodbury = np.concatenate([np.zeros(0, dtype=np.int64)] + [ks for ks, *_ in groups])

    def solve(b, first):
        b = np.where(keep, b, 0.0)
        z = np.zeros(b.shape)
        for k, idx, lu in direct:
            z[idx, k] = lu.solve(b[idx, k])
        y = np.zeros(b.shape)
        y[:, woodbury] = _base_solve(ns, b[:, woodbury], first)
        for ks, R, sign, shift, W, MR, C in groups:
            yk = y[:, ks]
            i = np.arange(ks.size)[:, None]
            v = sign * _csr_dot(MR, yk.T.ravel()).reshape(R.shape) + shift * yk[R, i]
            try:
                c = np.linalg.solve(C, v[..., None])
            except np.linalg.LinAlgError:   # a singular capacitance matrix
                failed[ks] = True
                continue
            z[:, ks] = yk - (W @ c)[..., 0].T
        return z
    return solve, failed


def _node_space_steps(chain, in_S, sets: int, tol: Tolerances):
    """Times to the node sets in the columns of the node mask ``in_S``
    (n x K), one block of a call that solves ``sets`` target sets,
    through the node-space system: an m x K array, and the mask of the
    columns it serves. A column is not served when the system does not
    apply or its result fails the edge system's validation."""
    g = chain.graph
    n = g.n
    x = (in_S[g.dst] & ~in_S[g.src]).astype(np.float64)   # boundary values
    served = (in_S[g.src] | in_S[g.dst]).all(axis=0)   # no interior edge
    if served.all():
        return x, served
    ns = _node_system(chain)
    if ns is None:
        return x, served
    if not _factor_base(ns, sets):
        chain._node_system = False
        return x, served
    pinned, diag, interior = _target_rows(g, ns.beta, ns.forced, in_S)
    solver, failed = _set_solver(ns, pinned, diag, np.flatnonzero(~served))

    def solve(h, known, first):
        """x for right-hand sides h on the interior, boundary values ``known``."""
        g0 = _csr_dot(ns.pair, h)
        fixed = _csr_dot(ns.tails, np.where(interior, g0, known))
        full = solver(np.concatenate([fixed, h[ns.forced]]), first)
        failed[~np.isfinite(full).all(axis=0)] = True
        y = g0 + _csr_dot(ns.lift, full[:n])
        y[ns.forced] = full[n:]
        return y

    def settle(y):
        """y on the interior of the columns still solved, x elsewhere."""
        return np.where(interior & ~failed, y, x)

    # solve, then one step of iterative refinement on the edge system:
    # writing x through the node sums cancels digits the edge residual,
    # formed in extended precision, recovers
    x = settle(solve(interior.astype(np.float64), x, True))
    xl = np.concatenate([x, np.ones((1, x.shape[1]))], dtype=np.longdouble)
    h = np.where(interior, _csr_dot(ns.residual, xl).astype(np.float64), 0.0)
    x = settle(x + solve(h, 0.0, False))
    # the test _direct_solve applies, on the interior edge equations; the
    # boundary values are 0 and 1
    resid = np.abs(np.where(interior, x - _csr_dot(chain, x) - 1.0, 0.0)).max(axis=0)
    failed |= (x < -1e-9).any(axis=0)
    failed |= resid > tol.direct_solve_residual * np.maximum(1.0, np.abs(x).max(axis=0))
    return np.maximum(x, 0.0), served | ~failed


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
    depend on the other sets in its block. How many sets the call
    solves picks the node-space base (``_factor_base``).
    """
    g = chain.graph
    in_S = np.zeros((g.n, len(sets)), dtype=bool)
    for c, S in enumerate(sets):
        in_S[np.asarray(S, dtype=np.int64), c] = True
    for i in range(0, len(sets), _BLOCK):
        block = in_S[:, i:i + _BLOCK]
        served = np.zeros(block.shape[1], dtype=bool)
        if check_irreducible(chain)[0]:
            x, served = _node_space_steps(chain, block, len(sets), tol)
        for k in range(block.shape[1]):
            if served[k]:
                yield x[:, k], np.ones(g.m, dtype=bool), np.ones(g.m)
            else:
                leaving = block[g.src, k]
                yield chain_steps(chain, leaving, block[g.dst, k] & ~leaving, tol)
