"""Hitting and return times of first- and second-order random walks.

A second-order walk chooses its next node from the previous and the
current one; it is analyzed as a first-order chain on directed edges.
The package builds those chains (classical, never-backtracking,
backtrack-downweighted, or from explicit step probabilities), solves
the linear systems for hitting probabilities and expected hitting and
return times, collapses edge chains to equilibrium node chains, and
cross-checks every quantity along independent routes, including a
Monte Carlo sampler.
"""

from . import firstorder, secondorder
from .chains import (
    Chain,
    check_irreducible,
    downweighted_edge_chain,
    edge_chain_from_tensor,
    is_bistochastic,
    nonbacktracking_edge_chain,
    stationary_density,
    transition_tensor,
    uniform_density,
    uniform_edge_chain,
    uniform_node_chain,
)
from .config import TOL, Tolerances
from .errors import (
    ChainError,
    ConvergenceError,
    DanglingEdgeError,
    GraphFormatError,
    GraphStructureError,
    InvariantViolation,
    ReducibleChainError,
    SizeCapError,
    WalkTimesError,
)
from .firstorder import (
    HittingSolution,
    ReturnData,
    SubsetDecomposition,
    TimeMatrix,
    hitting_matrix,
    hitting_probabilities,
    mean_hitting_times,
    return_times,
    subset_decomposition,
)
from .graph import (
    Graph,
    LineGraphMap,
    StripResult,
    dangling_edges,
    diameter,
    is_strongly_connected,
    line_graph,
    load_edge_list,
    load_matrix_market,
    read_graph,
    strip_leaves,
)
from .io import load_chain, load_transition_file, save_chain
from .montecarlo import (
    WalkStats,
    simulate_fo_hitting,
    simulate_so_hitting,
    simulate_so_return,
    simulate_so_sweep,
)
from .pullback import PullbackData, equilibrium_pullback
from .secondorder import RandomTargetData, SecondOrderMatrix

__version__ = "0.1.0"

__all__ = [
    "firstorder",
    "secondorder",
    "Chain",
    "check_irreducible",
    "downweighted_edge_chain",
    "edge_chain_from_tensor",
    "is_bistochastic",
    "nonbacktracking_edge_chain",
    "stationary_density",
    "transition_tensor",
    "uniform_density",
    "uniform_edge_chain",
    "uniform_node_chain",
    "TOL",
    "Tolerances",
    "ChainError",
    "ConvergenceError",
    "DanglingEdgeError",
    "GraphFormatError",
    "GraphStructureError",
    "InvariantViolation",
    "ReducibleChainError",
    "SizeCapError",
    "WalkTimesError",
    "HittingSolution",
    "ReturnData",
    "SubsetDecomposition",
    "TimeMatrix",
    "hitting_matrix",
    "hitting_probabilities",
    "mean_hitting_times",
    "return_times",
    "subset_decomposition",
    "Graph",
    "LineGraphMap",
    "StripResult",
    "dangling_edges",
    "diameter",
    "is_strongly_connected",
    "line_graph",
    "load_edge_list",
    "load_matrix_market",
    "read_graph",
    "strip_leaves",
    "load_chain",
    "load_transition_file",
    "save_chain",
    "WalkStats",
    "simulate_fo_hitting",
    "simulate_so_hitting",
    "simulate_so_return",
    "simulate_so_sweep",
    "PullbackData",
    "equilibrium_pullback",
    "RandomTargetData",
    "SecondOrderMatrix",
]
