"""Hitting and return times of first- and second-order random walks.

A second-order walk chooses its next node from the previous and the
current one; it is analyzed as a first-order chain on directed edges.
The package builds those chains (classical, never-backtracking,
backtrack-downweighted, or from explicit step probabilities), solves
the linear systems for hitting probabilities and expected hitting and
return times, collapses edge chains to equilibrium node chains, and
cross-checks every quantity along independent routes, including a
Monte Carlo sampler.

Importing the package loads none of its submodules: each public name
is imported from the submodule that defines it on first use. Graphs
and chain construction need numpy alone, and so do the built-in walks
on undirected graphs, tensor walks of the same form, their pullbacks,
their node-space queries and their samples; sparse factorizations
(the edge-state route of every other chain) and density solves
import scipy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it (a submodule names itself)
_HOME = {
    "firstorder": "firstorder",
    "secondorder": "secondorder",
    **dict.fromkeys((
        "Chain", "check_irreducible", "downweighted_edge_chain",
        "edge_chain_from_tensor", "nonbacktracking_edge_chain",
        "stationary_density", "transition_tensor", "uniform_edge_chain",
        "uniform_node_chain",
    ), "chains"),
    **dict.fromkeys(("TOL", "Tolerances"), "config"),
    **dict.fromkeys((
        "ChainError", "ConvergenceError", "DanglingEdgeError", "GraphFormatError",
        "GraphStructureError", "InvariantViolation", "QueryError",
        "ReducibleChainError", "SizeCapError", "WalkTimesError",
    ), "errors"),
    **dict.fromkeys((
        "HittingSolution", "ReturnData", "SubsetDecomposition", "TimeMatrix",
        "hitting_matrix", "hitting_probabilities", "mean_hitting_times",
        "return_times", "subset_decomposition",
    ), "firstorder"),
    **dict.fromkeys((
        "Graph", "LineGraphMap", "StripResult", "dangling_edges", "diameter",
        "is_strongly_connected", "line_graph", "load_edge_list",
        "load_matrix_market", "read_graph", "strip_leaves",
    ), "graph"),
    **dict.fromkeys(("load_chain", "load_transition_file", "save_chain"), "io"),
    **dict.fromkeys((
        "WalkStats", "simulate_fo_hitting", "simulate_so_hitting",
        "simulate_so_return", "simulate_so_sweep",
    ), "montecarlo"),
    **dict.fromkeys(("PullbackData", "equilibrium_pullback"), "pullback"),
    "RandomTargetData": "secondorder",
}

__all__ = list(_HOME)


def __getattr__(name):
    """Import a public name's submodule on first use (PEP 562)."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
