"""Numerical tolerances and size caps used throughout the package.

Every identity, residual and route check compares against one field
of ``TOL``, so every bound lives in one place. Each check reads
``config.TOL`` when it runs: replacing ``TOL`` (for instance with
``dataclasses.replace``) changes the bound of every later check.
``SIMULATION_STEP_CAP`` and ``OUTPUT_DIGITS`` are defaults, not bounds.

Dense memory has one cap, in bytes: ``_dense_fits`` holds every dense
array sized by a product of two problem sizes (states, nodes, walks),
with the transients that forming it holds, to ``_DENSE_BUDGET``. Over
it the node-space base takes its sparse LU instead of its dense
inverse; every other caller raises ``SizeCapError`` before it
allocates anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeCapError


@dataclass(frozen=True)
class Tolerances:
    # construction-time checks
    row_sum: float = 1e-12              # rows of a transition matrix sum to 1
    density_residual: float = 1e-10     # residual of a supplied invariant density
    stationary_residual: float = 1e-12  # residual of a freshly solved density
    inout_balance: float = 1e-10        # in-sum vs out-sum of the edge density

    # linear solvers
    direct_solve_residual: float = 1e-10  # relative residual accepted from LU

    # identity checks
    kac_agreement: float = 1e-10        # return time vs reciprocal density mass
    kemeny_spread: float = 1e-8         # density-weighted row means of T agree
    t_matrix_residual: float = 1e-8     # linear equation satisfied by T
    subset_identity: float = 1e-8       # set hitting vs weighted singleton columns
    subset_offset_spread: float = 1e-9  # the subtracted constant is constant
    weight_sum: float = 1e-10           # decomposition weights sum to 1
    equivalence: float = 1e-10          # direct vs line-graph second-order times
    route_agreement: float = 1e-8       # aggregated vs lifted hitting matrix
    return_agreement: float = 1e-9      # formula vs reciprocal-density return time
    access_spread: float = 1e-9         # per-edge return times constant per node
    pullback_entry: float = 1e-12       # pullback chain entries


TOL = Tolerances()

# bytes of dense arrays one computation may hold at its peak: about a
# third of a 7 GB machine, so the guard fires before the machine runs
# out of memory
_DENSE_BUDGET = 2**31


def _dense_fits(nbytes: int, what: str | None = None) -> bool:
    """True when ``nbytes`` of dense arrays fit ``_DENSE_BUDGET``. With
    ``what``, the arrays being formed, a larger need raises
    ``SizeCapError`` instead."""
    if nbytes <= _DENSE_BUDGET:
        return True
    if what is None:
        return False
    raise SizeCapError(f"{what} needs {nbytes:,} bytes of dense arrays, "
                       f"over the budget of {_DENSE_BUDGET:,} bytes")

# number of significant digits in user-facing numeric output
OUTPUT_DIGITS = 12

# steps a simulated walk may take before it counts as censored: the
# default of ``--cap`` and ``cap=``, not a check bound
SIMULATION_STEP_CAP = 1_000_000


def fmt(x: float) -> str:
    """Format a float with the standard number of significant digits;
    nan, inf and -inf print as such."""
    return f"{x:.{OUTPUT_DIGITS}g}"
