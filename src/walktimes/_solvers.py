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
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .chains import check_irreducible
from .config import TOL, Tolerances
from .errors import ConvergenceError

__all__ = ["reach_probabilities", "expected_steps", "chain_steps"]


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
