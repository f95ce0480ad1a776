from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from walktimes import read_graph
from walktimes.cli import main
from walktimes.errors import InvariantViolation

C4_EDGES = "a b\nb c\nc d\nd a\n"
K4_EDGES = "\n".join(
    f"{u} {v}" for u, v in
    [("0", "1"), ("0", "2"), ("0", "3"), ("1", "2"), ("1", "3"), ("2", "3")]
) + "\n"
PATH_EDGES = "a b\nb c\n"
TRANSCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_transcript.py"


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.edges"
    p.write_text(C4_EDGES, encoding="utf-8")
    return str(p)


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.edges"
    p.write_text(K4_EDGES, encoding="utf-8")
    return str(p)


@pytest.fixture
def path_file(tmp_path):
    p = tmp_path / "path.edges"
    p.write_text(PATH_EDGES, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_c4_line(self, capsys, c4_file):
        code, out, _ = run(capsys, "info", "--input", c4_file, "--undirected")
        assert code == 0
        assert out == "4 4 2 | 4 4 2\n"

    def test_pendant_graph_strips(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(C4_EDGES + "a e\n", encoding="utf-8")
        code, out, _ = run(capsys, "info", "--input", str(p), "--undirected")
        assert code == 0
        assert out == "5 5 3 | 4 4 2\n"

    def test_directed_has_no_strip_block(self, capsys, tmp_path):
        p = tmp_path / "d.edges"
        p.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
        code, out, _ = run(capsys, "info", "--input", str(p))
        assert code == 0
        assert out == "3 3 2\n"

    def test_json_mode(self, capsys, c4_file):
        code, out, _ = run(capsys, "info", "--input", c4_file,
                           "--undirected", "--json")
        doc = json.loads(out)
        assert doc["input"] == {"nodes": 4, "edges": 4, "diameter": 2}
        assert doc["stripped"] == {"nodes": 4, "edges": 4, "diameter": 2}


class TestStrip:
    def test_emits_one_line_per_undirected_edge(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(C4_EDGES + "a e\ne f\n", encoding="utf-8")
        code, out, _ = run(capsys, "strip", "--input", str(p), "--undirected")
        assert code == 0
        lines = out.strip().splitlines()
        assert sorted(lines) == ["a b", "b c", "c d", "d a"]

    def test_out_file_and_summary(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(C4_EDGES + "d e\n", encoding="utf-8")
        dest = tmp_path / "core.edges"
        code, out, _ = run(capsys, "strip", "--input", str(p), "--undirected",
                           "--out", str(dest))
        assert code == 0
        assert "removed 1 nodes; kept 4 nodes, 4 edges" in out
        assert len(dest.read_text(encoding="utf-8").strip().splitlines()) == 4

    def test_json_reports_removed_labels(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text(C4_EDGES + "a x\n", encoding="utf-8")
        code, out, _ = run(capsys, "strip", "--input", str(p),
                           "--undirected", "--json")
        doc = json.loads(out)
        assert doc["removed"] == ["x"]
        assert doc["kept_nodes"] == 4 and doc["kept_edges"] == 4


class TestHitting:
    def test_c4_nb_versus_classical(self, capsys, c4_file):
        code, out, _ = run(capsys, "hitting", "--input", c4_file,
                           "--undirected", "--walk", "nb")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("node,classical_mean,walk_mean,"
                            "ratio_walk_classical,ratio_classical_walk")
        for line in lines[1:]:
            node, mc, mw, rwc, rcw = line.split(",")
            assert float(mc) == 2.5
            assert float(mw) == 1.5
            assert float(rwc) == 0.6

    def test_target_filter(self, capsys, c4_file):
        code, out, _ = run(capsys, "hitting", "--input", c4_file,
                           "--undirected", "--walk", "nb", "--target", "c")
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("c,")

    def test_target_row_is_the_full_row(self, capsys, tmp_path, monkeypatch):
        """On every transcript graph and walk kind, ``--target`` prints the
        target's row of the full table from one second-order column, without
        the second-order matrix."""
        from walktimes import secondorder as so
        spec = importlib.util.spec_from_file_location("cli_transcript", TRANSCRIPT)
        transcript = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(transcript)
        matrix = so.hitting_matrix

        def no_matrix(*args, **kwargs):
            raise AssertionError("hitting --target built the second-order matrix")

        compared = 0
        for name, (_, undirected) in transcript.GRAPHS.items():
            graph, tensor, labels = transcript.write_graph(tmp_path, name)
            base = ["--input", graph] + (["--undirected"] if undirected else [])
            for walk in transcript.WALKS:
                argv = ["hitting", *base, "--walk",
                        f"tensor:{tensor}" if walk == "tensor" else walk]
                monkeypatch.setattr(so, "hitting_matrix", matrix)
                code, out, err = run(capsys, *argv)
                lines = out.splitlines(keepends=True)
                monkeypatch.setattr(so, "hitting_matrix", no_matrix)
                for label in labels:
                    got = run(capsys, *argv, "--target", label)
                    if code:
                        assert got == (code, out, err)
                        continue
                    row = next(r for r in lines[1:] if r.split(",")[0] == label)
                    assert got == (0, lines[0] + row, err)
                    compared += 1
        assert compared > 100

    def test_byte_stable(self, capsys, k4_file):
        _, first, _ = run(capsys, "hitting", "--input", k4_file,
                          "--undirected", "--walk", "dw:0.5")
        _, second, _ = run(capsys, "hitting", "--input", k4_file,
                           "--undirected", "--walk", "dw:0.5")
        assert first == second

    def test_full_matrices_written(self, capsys, k4_file, tmp_path):
        prefix = str(tmp_path / "k4")
        code, out, _ = run(capsys, "hitting", "--input", k4_file,
                           "--undirected", "--walk", "uniform",
                           "--full", prefix)
        assert code == 0
        classical = (tmp_path / "k4.classical.csv").read_text(encoding="utf-8")
        walk = (tmp_path / "k4.walk.csv").read_text(encoding="utf-8")
        assert classical.splitlines()[0] == "source,0,1,2,3"
        # uniform edge walk collapses to the classical chain on K4
        assert classical == walk

    def test_uniform_walk_ratio_one(self, capsys, k4_file):
        code, out, _ = run(capsys, "hitting", "--input", k4_file,
                           "--undirected", "--walk", "uniform")
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-10)


class TestAccess:
    def test_k4_uniform_summary(self, capsys, k4_file):
        code, out, err = run(capsys, "access", "--input", k4_file,
                             "--undirected", "--walk", "uniform")
        assert code == 0
        assert "kappa 2.25 spread 0 condition_holds true" in err
        lines = out.strip().splitlines()
        assert lines[0] == "node,access_time"
        assert all(line.endswith(",2.25") for line in lines[1:])

    def test_json_includes_condition(self, capsys, k4_file):
        code, out, _ = run(capsys, "access", "--input", k4_file,
                           "--undirected", "--walk", "uniform", "--json")
        doc = json.loads(out)
        assert doc["condition_holds"] is True
        assert doc["kappa"] == 2.25

    def test_infinite_kappa_gives_infinite_spread(self, capsys, k4_file, tmp_path):
        # every step has probability 1 and permutes K4's edges in two
        # cycles: 0->1->2->0, and 1->0->2->1->3->0->3->2->3->1->0, the
        # only one through node 3, so the 3-cycle never reaches node 3
        walk = tmp_path / "permutation.txt"
        walk.write_text("".join(f"{i} {j} {k} 1.0\n" for i, j, k in [
            (0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 3),
            (1, 3, 0), (3, 0, 3), (0, 3, 2), (3, 2, 3), (2, 3, 1), (3, 1, 0)]))
        argv = ["access", "--input", k4_file, "--undirected", "--walk", f"tensor:{walk}"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == "kappa inf spread inf condition_holds false\n"
        assert out.splitlines()[1:] == ["0,inf", "1,inf", "2,inf", "3,1.91666666667"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert (json.loads(out)["kappa"], json.loads(out)["spread"]) == ("inf", "inf")


class TestReducibleReturn:
    """K4 under the permutation walk: the uniform density is not its equilibrium."""

    @pytest.fixture
    def walk(self, tmp_path):
        p = tmp_path / "permutation.txt"
        p.write_text("".join(f"{i} {j} {k} 1.0\n" for i, j, k in [
            (0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 3),
            (1, 3, 0), (3, 0, 3), (0, 3, 2), (3, 2, 3), (2, 3, 1), (3, 1, 0)]))
        return f"tensor:{p}"

    @pytest.mark.parametrize("argv", [
        ("return-times",),
        ("simulate", "--kind", "return", "--source", "3"),
    ])
    def test_failed_return_identity_is_a_data_error(self, capsys, k4_file, walk, argv):
        code, out, err = run(capsys, *argv, "--input", k4_file, "--undirected",
                             "--walk", walk)
        assert (code, out) == (2, "")
        assert err == ("error: edge chain is reducible: "
                       "2 strongly connected components of sizes 3, 9\n")

    def test_validate_without_a_finite_pair_skips_monte_carlo(self, capsys, k4_file, walk):
        # seed 4 draws two pairs the walk never connects
        code, out, _ = run(capsys, "validate", "--seed", "4", "--input", k4_file,
                           "--undirected", "--walk", walk)
        assert code == 0, out
        assert "SKIP monte-carlo: no pair has a finite time" in out.splitlines()

    def test_identity_that_holds_still_answers(self, capsys, k4_file, walk):
        code, out, err = run(capsys, "return-times", "--set", "0,1", "--input", k4_file,
                             "--undirected", "--walk", walk)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "set,2"


class TestAlphaSweep:
    def test_c4_ratios(self, capsys, c4_file):
        code, out, err = run(capsys, "alpha-sweep", "--input", c4_file,
                             "--undirected", "--alpha-grid", "0,0.5,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,node,hitting_mean,ratio_to_uniform"
        byalpha = {}
        for line in lines[1:]:
            a, node, mean, ratio = line.split(",")
            byalpha.setdefault(a, set()).add((mean, ratio))
        assert byalpha["0"] == {("1.5", "0.6")}
        assert byalpha["1"] == {("2.5", "1")}
        assert "alpha 1 ratio_min 1 ratio_mean 1 ratio_max 1" in err

    def test_alpha_one_exactly_one(self, capsys, k4_file):
        code, out, _ = run(capsys, "alpha-sweep", "--input", k4_file,
                           "--undirected", "--alpha-grid", "0.25,1", "--json")
        doc = json.loads(out)
        for row in doc["rows"]:
            if row[0] == 1:
                assert row[3] == 1
        top = {s["alpha"]: s for s in doc["summary"]}
        assert top[1]["ratio_min"] == 1 and top[1]["ratio_max"] == 1

    def test_bad_grid_is_data_error(self, capsys, c4_file):
        code, _, err = run(capsys, "alpha-sweep", "--input", c4_file,
                           "--undirected", "--alpha-grid", "0,zebra")
        assert code == 2
        assert "alpha grid" in err


class TestReturnTimes:
    def test_c4_nb_values(self, capsys, c4_file):
        code, out, _ = run(capsys, "return-times", "--input", c4_file,
                           "--undirected", "--walk", "nb")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node,return_time"
        assert all(line.endswith(",4") for line in lines[1:])

    def test_set_return(self, capsys, c4_file):
        code, out, _ = run(capsys, "return-times", "--input", c4_file,
                           "--undirected", "--walk", "nb", "--set", "a,b")
        lines = out.strip().splitlines()
        assert "a,4" in lines and "b,4" in lines
        assert lines[-1] == "set,2"

    @pytest.mark.parametrize("labels", ["", ","])
    def test_empty_label_in_set_is_an_input_error(self, capsys, c4_file, labels):
        # an empty --set names the empty label, as "," does; it never
        # means every node
        code, out, err = run(capsys, "return-times", "--input", c4_file,
                             "--undirected", "--walk", "nb", "--set", labels)
        assert (code, out) == (2, "")
        assert err == "error: unknown node label ''\n"


class TestSimulate:
    def test_deterministic_walk_zero_z(self, capsys, c4_file):
        code, out, _ = run(capsys, "simulate", "--input", c4_file,
                           "--undirected", "--walk", "nb", "--source", "a",
                           "--target", "c", "--trials", "2000")
        assert code == 0
        lines = out.strip().splitlines()
        row = lines[1].split(",")
        assert row[1] == "2" and row[2] == "0"  # exact mean, no spread
        assert row[4] == "0"                    # nothing censored

    def test_return_kind(self, capsys, c4_file):
        code, out, _ = run(capsys, "simulate", "--input", c4_file,
                           "--undirected", "--walk", "dw:0.5", "--kind",
                           "return", "--source", "b", "--trials", "5000",
                           "--seed", "3")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[5] == "4"  # analytic return time
        assert abs(float(row[6])) < 4.0

    def test_first_order(self, capsys, k4_file):
        code, out, _ = run(capsys, "simulate", "--input", k4_file,
                           "--undirected", "--order", "1", "--walk", "uniform",
                           "--source", "0", "--target", "1",
                           "--trials", "5000", "--seed", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[5] == "3"
        assert abs(float(row[6])) < 4.0

    def test_repeat_run_identical(self, capsys, c4_file):
        args = ("simulate", "--input", c4_file, "--undirected", "--walk",
                "dw:0.3", "--kind", "return", "--source", "a",
                "--trials", "3000", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_hitting_needs_target(self, capsys, c4_file):
        code, _, err = run(capsys, "simulate", "--input", c4_file,
                           "--undirected", "--source", "a")
        assert code == 2
        assert "target" in err


class TestValidate:
    def test_c4_nb_passes_with_skips(self, capsys, c4_file):
        code, out, _ = run(capsys, "validate", "--input", c4_file,
                           "--undirected", "--walk", "nb",
                           "--trials", "4000")
        assert code == 0
        assert "PASS chain-construction" in out
        assert "SKIP equilibrium-checks" in out
        assert "2 components" in out
        assert "PASS edge-time-equivalence" in out
        assert "PASS monte-carlo" in out

    def test_triangle_nb_reducible_but_equivalence_holds(self, capsys, tmp_path):
        p = tmp_path / "c3.edges"
        p.write_text("a b\nb c\nc a\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--input", str(p),
                           "--undirected", "--walk", "nb",
                           "--trials", "2000")
        assert code == 0
        assert "SKIP equilibrium-checks" in out
        assert "PASS edge-time-equivalence" in out

    def test_k4_all_walks_pass(self, capsys, k4_file):
        for walk in ("uniform", "nb", "dw:0.5"):
            code, out, _ = run(capsys, "validate", "--input", k4_file,
                               "--undirected", "--walk", walk,
                               "--trials", "4000")
            assert code == 0, out
            assert "PASS irreducible" in out
            assert "PASS invariant-density" in out
            assert "PASS node-return-identity" in out
            assert "PASS set-return-identity" in out

    def test_json_shape(self, capsys, k4_file):
        code, out, _ = run(capsys, "validate", "--input", k4_file,
                           "--undirected", "--walk", "uniform",
                           "--trials", "2000", "--json")
        doc = json.loads(out)
        assert doc["ok"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "edge-time-equivalence" in names

    @staticmethod
    def monte_carlo_line(out):
        return next(line for line in out.splitlines() if "monte-carlo" in line)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_censored_pairs_are_skipped(self, capsys, tmp_path, seed):
        # with one step allowed most walks on the chorded 6-cycle are
        # censored; their mean says nothing about the exact time
        p = tmp_path / "c6-chord.edges"
        p.write_text("a b\nb c\nc d\nd e\ne f\nf a\na d\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--input", str(p), "--undirected",
                           "--trials", "100", "--cap", "1", "--seed", str(seed))
        assert code == 0, out
        line = self.monte_carlo_line(out)
        assert "deterministic" not in line
        # every node has two neighbours or more: one step never
        # reaches another node surely
        assert line.startswith("SKIP monte-carlo: ")
        assert "walks censored)" in line

    def test_single_walk_is_skipped(self, capsys, tmp_path):
        p = tmp_path / "c4-chord.edges"
        p.write_text("a b\nb c\nc d\nd a\na c\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--input", str(p), "--undirected",
                           "--trials", "1")
        assert code == 0, out
        assert self.monte_carlo_line(out) == (
            "SKIP monte-carlo: b->c skipped (1 walk); d->a skipped (1 walk)")

    def test_no_pair_joins_a_node_to_itself(self, capsys, tmp_path):
        # at the default seed the second pair was once drawn as d->d,
        # whose time is 0 and whose walks test nothing
        p = tmp_path / "c4-chord.edges"
        p.write_text("a b\nb c\nc d\nd a\na c\n", encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--input", str(p), "--undirected",
                           "--trials", "1")
        assert code == 0, out
        pairs = [part.split()[0].split("->")
                 for part in self.monte_carlo_line(out).split(": ", 1)[1].split("; ")]
        assert len(pairs) == 2
        assert all(i != k for i, k in pairs), pairs

    def test_zero_spread_of_many_walks_is_an_exact_match(self, capsys, c4_file):
        # seed 8 draws two pairs the nb walk on C4 always takes in the
        # same number of steps
        code, out, _ = run(capsys, "validate", "--input", c4_file, "--undirected",
                           "--seed", "8")
        assert code == 0, out
        assert self.monte_carlo_line(out) == "PASS monte-carlo: deterministic walks"

    @pytest.mark.filterwarnings("error")
    def test_unreachable_targets_raise_no_warning(self, capsys, tmp_path):
        # 0 <-> 1 -> 2 <-> 3: nodes 0 and 1 are unreachable from 2 and 3
        p = tmp_path / "reducible.edges"
        p.write_text("0 1\n1 0\n1 2\n2 3\n3 2\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", "--input", str(p),
                             "--walk", "uniform", "--trials", "2000")
        assert (code, err) == (0, "")
        assert "PASS edge-time-equivalence: max deviation" in out

    @pytest.mark.parametrize("walk", ["nb", "dw:0", "dw:0.3"])
    def test_unsuitable_input_is_an_input_error(self, capsys, path_file, walk):
        # the same exit code and message as every other subcommand
        for command in ("validate", "hitting"):
            code, out, err = run(capsys, command, "--input", path_file,
                                 "--undirected", "--walk", walk)
            assert (code, out) == (2, "")
            assert err == "error: dangling edges present: 1->0, 1->2\n"


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("command", ["info", "strip"])
    def test_strip_flag_only_where_honoured(self, capsys, c4_file, command):
        code, out, err = run(capsys, command, "--input", c4_file,
                             "--undirected", "--strip")
        assert (code, out) == (1, "")
        assert err.endswith("walktimes: error: unrecognized arguments: --strip\n")

    def test_usage_error_missing_required(self, capsys):
        assert main(["info"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--source", "a", "--target", "c", "--trials", "0"),
         "argument --trials: must be at least 1, got 0"),
        (("validate", "--trials", "0"),
         "argument --trials: must be at least 1, got 0"),
        (("simulate", "--source", "a", "--target", "c", "--seed", "-1"),
         "argument --seed: must be in [0, 2**128), got -1"),
        (("validate", "--seed", str(2**128)),
         f"argument --seed: must be in [0, 2**128), got {2**128}"),
        (("simulate", "--source", "a", "--target", "c", "--trials", "x"),
         "argument --trials: invalid int value: 'x'"),
        (("simulate", "--source", "a", "--target", "c", "--cap", "0"),
         "argument --cap: must be at least 1, got 0"),
        (("simulate", "--source", "a", "--target", "c", "--cap", "-5"),
         "argument --cap: must be at least 1, got -5"),
        (("validate", "--cap", "0"),
         "argument --cap: must be at least 1, got 0"),
    ])
    def test_usage_error_bad_trials_or_seed(self, capsys, c4_file, argv,
                                            message):
        code, out, err = run(capsys, argv[0], "--input", c4_file,
                             "--undirected", *argv[1:])
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"walktimes {argv[0]}: error: {message}"]
        assert "Traceback" not in err

    def test_largest_seed_accepted(self, capsys, c4_file):
        code, out, _ = run(capsys, "simulate", "--input", c4_file,
                           "--undirected", "--source", "a", "--target", "c",
                           "--trials", "10", "--seed", str(2**128 - 1))
        assert code == 0
        assert out.splitlines()[1].startswith("hitting a->c,2,0,10,0,")

    def test_data_error_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "info", "--input",
                           str(tmp_path / "absent.edges"))
        assert code == 2

    def test_data_error_malformed_input(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("a b c d\n", encoding="utf-8")
        code, _, err = run(capsys, "info", "--input", str(p))
        assert code == 2
        assert "line 1" in err

    def test_data_error_dangling_nb(self, capsys, path_file):
        code, _, err = run(capsys, "hitting", "--input", path_file,
                           "--undirected", "--walk", "nb")
        assert code == 2
        assert "dangling" in err

    @pytest.mark.parametrize("command", ["hitting", "access", "return-times",
                                         "validate", "alpha-sweep"])
    def test_data_error_graph_strips_to_nothing(self, capsys, path_file, command):
        code, out, err = run(capsys, command, "--input", path_file,
                             "--undirected", "--strip")
        assert (code, out) == (2, "")
        assert err == "error: graph has no nodes\n"

    def test_data_error_bad_walk(self, capsys, c4_file):
        code, _, err = run(capsys, "hitting", "--input", c4_file,
                           "--undirected", "--walk", "zigzag")
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_data_error_non_finite_probability(self, capsys, c4_file,
                                               tmp_path, value):
        # the classical walk on C4, with the step on line 3 made non-finite
        ring = "abcd"
        lines = []
        for x in range(4):
            for step in (1, -1):
                j = (x + step) % 4
                for k in (j + 1, j - 1):
                    lines.append(f"{ring[x]} {ring[j]} {ring[k % 4]} 0.5")
        lines[2] = lines[2].replace("0.5", value)
        tensor = tmp_path / "steps.tsv"
        tensor.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "return-times", "--input", c4_file,
                             "--undirected", "--walk", f"tensor:{tensor}")
        assert code == 2
        assert out == ""
        assert err == f"error: line 3: bad probability '{value}'\n"

    @pytest.mark.parametrize("walk_file", [False, True])
    def test_data_error_not_utf8(self, capsys, c4_file, tmp_path, walk_file):
        binary = tmp_path / "blob.bin"
        binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
        if walk_file:
            argv = ("return-times", "--input", c4_file, "--undirected",
                    "--walk", f"tensor:{binary}")
        else:
            argv = ("info", "--input", str(binary))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_invariant_failure_maps_to_three(self, capsys, c4_file,
                                             monkeypatch):
        import walktimes.cli as cli

        def boom(_):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setattr(cli, "diameter", boom)
        code, _, err = run(capsys, "info", "--input", c4_file, "--undirected")
        assert code == 3
        assert "invariant failure" in err


    def test_rejected_direct_solve_maps_to_three(self, capsys, k4_file, tmp_path,
                                                 monkeypatch):
        # a tensor walk solves over its edge states: a solve rejected by
        # its validation ends the command, with no fallback
        import walktimes._solvers as solvers
        walk = tmp_path / "uniform.txt"
        walk.write_text("".join(f"{i} {j} {k} 0.333333333333333333\n"
                                for i in range(4) for j in range(4) for k in range(4)
                                if len({i, j}) == 2 and k != j))
        monkeypatch.setattr(solvers, "_direct_solve", lambda *args: None)
        code, out, err = run(capsys, "hitting", "--input", k4_file, "--undirected",
                             "--walk", f"tensor:{walk}")
        assert code == 3
        assert out == ""
        assert err == ("invariant failure: direct solve of the expected steps "
                       "failed its validation\n")

    def test_query_error_maps_to_two(self, capsys, c4_file, monkeypatch):
        from walktimes import secondorder as so
        real = so.return_times
        monkeypatch.setattr(so, "return_times", lambda pdata, S: real(pdata, [9]))
        code, out, err = run(capsys, "return-times", "--input", c4_file, "--undirected")
        assert code == 2
        assert out == ""
        assert err == "error: node 9 out of range\n"


class TestOutputFile:
    def test_out_writes_file(self, capsys, c4_file, tmp_path):
        dest = tmp_path / "info.txt"
        code, out, _ = run(capsys, "info", "--input", c4_file,
                           "--undirected", "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text(encoding="utf-8") == "4 4 2 | 4 4 2\n"

    def test_tensor_walk_from_file(self, capsys, c4_file, tmp_path):
        tensor = tmp_path / "steps.tsv"
        rows = []
        for (i, j, k) in [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "a"),
                          ("d", "a", "b"), ("b", "a", "d"), ("a", "d", "c"),
                          ("d", "c", "b"), ("c", "b", "a")]:
            rows.append(f"{i} {j} {k} 1.0")
        tensor.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "return-times", "--input", c4_file,
                           "--undirected", "--walk", f"tensor:{tensor}")
        assert code == 0
        assert all(line.endswith(",4")
                   for line in out.strip().splitlines()[1:])


def fresh(*argv):
    """Run a fresh interpreter on the package sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# the sparse factorization and the component listing, with scipy.linalg,
# which scipy.sparse.linalg imports
SOLVER_PACKAGES = ("scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.linalg")
LOADED_SOLVERS = f"sorted(m for m in {SOLVER_PACKAGES!r} if m in sys.modules)"


def core_file(tmp_path, n=100):
    """The benchmark's n-node synthetic core (a Hamiltonian cycle and 2n
    chords, seed 1) as an edge-list file."""
    g = oracles.random_undirected(n, 2 * n, 1)
    p = tmp_path / f"core{n}.edges"
    p.write_text("".join(f"{i} {j}\n" for i, j in g.edges if i < j), encoding="utf-8")
    return str(p)


class TestStartup:
    """info, strip and usage errors start without scipy, and so do the
    built-in walks on undirected graphs: their chains, pullbacks and
    node-space queries compute on numpy arrays, and systems of up to
    1,500 unknowns take a dense node-space base. ``validate``,
    first-order simulation, tensor walks and directed graphs still load
    scipy, for the sparse factorizations and the density solve.
    """

    @pytest.mark.parametrize("argv, exit_code", [
        (["info"], 0),
        (["info", "--json"], 0),
        (["strip"], 0),
        (["info", "--bogus"], 1),
    ], ids=["info", "info-json", "strip", "usage-error"])
    def test_light_commands_load_no_scipy(self, c4_file, argv, exit_code):
        child = ("import json, sys\n"
                 "from walktimes.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 f"print(json.dumps([code, {LOADED_SCIPY}]))")
        done = fresh("-c", child, *argv, "--input", c4_file, "--undirected")
        assert done.stdout.splitlines()[-1] == json.dumps([exit_code, []]), done.stderr

    def test_bare_import_loads_no_scipy(self):
        done = fresh("-c", f"import json, sys, walktimes; print(json.dumps({LOADED_SCIPY}))")
        assert done.stdout == "[]\n", done.stderr

    def test_solver_command_runs_as_a_process(self, capsys, c4_file):
        argv = ["hitting", "--input", c4_file, "--undirected"]
        done = fresh("-m", "walktimes.cli", *argv)
        assert done.returncode == 0, done.stderr
        assert done.stdout == run(capsys, *argv)[1]

    @pytest.mark.parametrize("argv", [
        ["hitting"],
        ["access"],
        ["alpha-sweep"],
        ["return-times"],
        ["return-times", "--set", "0,1"],
        ["simulate", "--source", "0", "--target", "2", "--trials", "200"],
    ], ids=["hitting", "access", "alpha-sweep", "return-times", "return-times-set", "simulate"])
    def test_builtin_walks_load_no_sparse_factorization(self, capsys, k4_file, tmp_path, argv):
        # no scipy module at all, on K4 and on a 100-node core; the process
        # computes in numpy, this one in scipy's kernels, to the same bytes
        child = ("import json, sys\n"
                 "from walktimes.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 f"print(json.dumps([code, {LOADED_SCIPY}]))")
        for path in (k4_file, core_file(tmp_path)):
            args = [*argv, "--input", path, "--undirected"]
            done = fresh("-c", child, *args)
            *out, loaded = done.stdout.splitlines(keepends=True)
            assert loaded == json.dumps([0, []]) + "\n", done.stderr
            assert "".join(out) == run(capsys, *args)[1]

    def test_library_setup_loads_no_sparse_factorization(self, k4_file, tmp_path):
        child = ("import json, sys\n"
                 "from walktimes import (equilibrium_pullback, nonbacktracking_edge_chain,\n"
                 "                       read_graph, strip_leaves)\n"
                 "g = strip_leaves(read_graph(sys.argv[1], undirected=True)).graph\n"
                 "equilibrium_pullback(nonbacktracking_edge_chain(g))\n"
                 f"print(json.dumps({LOADED_SCIPY}))")
        for path in (k4_file, core_file(tmp_path)):
            done = fresh("-c", child, path)
            assert done.stdout == "[]\n", done.stderr

    @pytest.mark.parametrize("argv", [
        ["validate", "--trials", "200", "--undirected"],
        ["simulate", "--order", "1", "--walk", "uniform", "--source", "0", "--target", "2",
         "--trials", "200", "--undirected"],
        ["hitting", "--walk", "tensor:STEPS", "--undirected"],
        ["hitting", "--walk", "uniform"],
    ], ids=["validate", "simulate-order-1", "tensor", "directed"])
    def test_other_routes_load_scipy(self, tmp_path, argv):
        # validate and first-order simulation factor sparse systems, a
        # tensor walk (here the classical one) has no node-space form, and
        # the walk on a directed graph solves for its density
        if "--undirected" not in argv:
            path = tmp_path / "digraph.edges"
            path.write_text("".join(f"{i} {j}\n" for i, j in oracles.random_digraph(12, 12, 1).edges),
                            encoding="utf-8")
        else:
            path = core_file(tmp_path, 12)
            g = read_graph(path, undirected=True)
            steps = tmp_path / "core12.steps"
            steps.write_text("".join(f"{g.labels[i]} {g.labels[j]} {g.labels[k]} "
                                     f"{1 / int(g.out_degree[j])!r}\n"
                                     for i, j in g.edges for k in g.dst[g.out_edges(j)]),
                             encoding="utf-8")
            argv = [a.replace("STEPS", str(steps)) for a in argv]
        child = ("import json, sys\n"
                 "from walktimes.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 f"print(json.dumps([code, 'scipy.sparse' in {LOADED_SCIPY}]))")
        done = fresh("-c", child, *argv, "--input", str(path))
        assert done.stdout.splitlines()[-1] == json.dumps([0, True]), done.stderr

    def test_validate_still_loads_them(self, k4_file, c4_file):
        child = ("import json, sys\n"
                 "from walktimes.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 f"print(json.dumps({LOADED_SOLVERS}))")
        # the line-graph route factors edge systems; C4's nb chain is
        # reducible, so its components are listed too
        for path, loaded in ((k4_file, ["scipy.linalg", "scipy.sparse.linalg"]),
                             (c4_file, sorted(SOLVER_PACKAGES))):
            done = fresh("-c", child, "validate", "--trials", "200",
                         "--input", path, "--undirected")
            assert done.stdout.splitlines()[-1] == json.dumps(loaded), done.stderr
