"""Every check bound in ``config.TOL`` is read when its check runs.

Each bound is swapped for one no result can meet, on an input that
passes at the shipped bound: its check fires, or for the two bounds
that decide a reported verdict instead of raising, the verdict flips.
A bound bound to a name at import time would keep passing.
"""
from __future__ import annotations

import dataclasses

import pytest

import oracles
from walktimes import (
    ChainError,
    ConvergenceError,
    InvariantViolation,
    Tolerances,
    edge_chain_from_tensor,
    equilibrium_pullback,
    nonbacktracking_edge_chain,
    stationary_density,
    uniform_edge_chain,
    uniform_node_chain,
)
from walktimes import firstorder as fo
from walktimes import secondorder as so
from walktimes.cli import main

IMPOSSIBLE = -1.0


def node_chain():
    return uniform_node_chain(oracles.petersen_graph())


def nb_pullback():
    return equilibrium_pullback(nonbacktracking_edge_chain(oracles.petersen_graph()))


# bound -> (check, error, message) for the bounds whose check raises
RAISES = {
    "row_sum": (node_chain, ChainError, "rows must sum to 1"),
    # the classical walk on an undirected graph passes its density deg / 2E
    "density_residual": (node_chain, ChainError, "density must sum to 1"),
    "stationary_residual": (
        lambda: stationary_density(uniform_node_chain(oracles.directed_cycle(3))),
        ConvergenceError, "invariant density failed validation"),
    "inout_balance": (nb_pullback, InvariantViolation, "in/out mass balance"),
    "direct_solve_residual": (
        lambda: fo.mean_hitting_times(node_chain(), [0]),
        ConvergenceError, "direct solve of the expected steps"),
    "kac_agreement": (lambda: fo.return_times(node_chain(), [0, 3]),
                      InvariantViolation, "disagrees with reciprocal mass"),
    "kemeny_spread": (lambda: fo.hitting_matrix(node_chain()),
                      InvariantViolation, "row means of the time matrix vary"),
    "t_matrix_residual": (lambda: fo.hitting_matrix(node_chain()),
                          InvariantViolation, "violates its linear equation"),
    "subset_identity": (lambda: fo.subset_decomposition(node_chain(), [0, 3]),
                        InvariantViolation, "subset decomposition identity failed"),
    "subset_offset_spread": (lambda: fo.subset_decomposition(node_chain(), [0, 3]),
                             InvariantViolation, "decomposition offset varies"),
    "weight_sum": (lambda: fo.subset_decomposition(node_chain(), [0, 3]),
                   InvariantViolation, "decomposition weights sum to"),
    "route_agreement": (lambda: so.lifted_hitting_matrix(nb_pullback()),
                        InvariantViolation, "hitting matrix routes disagree"),
    "return_agreement": (lambda: so.return_times(nb_pullback(), [0]),
                         InvariantViolation, "return time to node 0"),
    "pullback_entry": (nb_pullback, InvariantViolation, "lifting @ restriction deviates"),
}


def equivalence_verdict(path, capsys):
    """validate's verdict on the direct against the line-graph route."""
    main(["validate", "--input", str(path), "--undirected", "--trials", "50"])
    lines = capsys.readouterr().out.splitlines()
    return next(line.split()[0] for line in lines if "edge-time-equivalence" in line)


# bound -> verdict, for the bounds that decide a reported result
VERDICTS = {
    "equivalence": equivalence_verdict,
    "access_spread": lambda path, capsys: so.random_target(
        equilibrium_pullback(uniform_edge_chain(oracles.complete_bipartite(3, 3)))
    ).condition_holds,
}


def test_every_check_bound_is_covered():
    checks = {f.name for f in dataclasses.fields(Tolerances)}
    assert len(checks) == 16
    assert RAISES.keys() | VERDICTS.keys() == checks
    assert not RAISES.keys() & VERDICTS.keys()


@pytest.mark.parametrize("field", list(RAISES))
def test_check_fires_at_an_impossible_bound(field, bounds):
    check, error, message = RAISES[field]
    check()
    with bounds(**{field: IMPOSSIBLE}), pytest.raises(error, match=message):
        check()


def test_tensor_rows_are_checked_against_the_density_bound(bounds):
    g = oracles.complete_graph(4)
    probs = oracles.random_step_weights(g, 1)
    edge_chain_from_tensor(g, probs)
    with bounds(density_residual=IMPOSSIBLE), pytest.raises(
            ChainError, match="probabilities for edge .* sum to"):
        edge_chain_from_tensor(g, probs)


@pytest.mark.parametrize("field", list(VERDICTS))
def test_verdict_flips_at_an_impossible_bound(field, bounds, tmp_path, capsys):
    path = tmp_path / "k4.edges"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    verdict = VERDICTS[field]
    shipped = verdict(path, capsys)
    with bounds(**{field: IMPOSSIBLE}):
        swapped = verdict(path, capsys)
    assert (shipped, swapped) in (("PASS", "FAIL"), (True, False))
