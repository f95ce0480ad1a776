from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from walktimes import (
    ChainError,
    GraphFormatError,
    edge_chain_from_tensor,
    load_chain,
    load_transition_file,
    nonbacktracking_edge_chain,
    save_chain,
    stationary_density,
    uniform_node_chain,
)
from walktimes.io import csv_text, json_text, write_csv


class TestChainRoundTrip:
    def test_edge_chain(self, k4, tmp_path):
        ch = nonbacktracking_edge_chain(k4)
        base = str(tmp_path / "nb_k4")
        mtx, sidecar = save_chain(ch, base)
        back = load_chain(base)
        assert back.states == "edges"
        assert back.kind == ch.kind
        assert np.array_equal(back.matrix.toarray(), ch.matrix.toarray())
        assert back.graph.edges == k4.edges
        assert back.graph.labels == k4.labels

    def test_built_in_sidecar_holds_density(self, k4, tmp_path):
        base = str(tmp_path / "nb_k4")
        _, sidecar = save_chain(nonbacktracking_edge_chain(k4), base)
        with open(sidecar, encoding="utf-8") as fh:
            assert json.load(fh)["density"] == [1 / 12] * 12
        assert np.array_equal(load_chain(base).density, np.full(12, 1 / 12))

    def test_node_chain_with_density(self, tmp_path):
        g = oracles.random_undirected(8, 5, 13)
        ch = uniform_node_chain(g)
        pi = stationary_density(ch)
        ch = type(ch)(g, ch.matrix, "nodes", density=pi, kind=ch.kind)
        base = str(tmp_path / "walk")
        save_chain(ch, base)
        back = load_chain(base)
        assert back.states == "nodes"
        assert np.allclose(back.density, pi, atol=1e-15)

    def test_tensor_chain_with_density(self, k4, tmp_path):
        rng = np.random.default_rng(4)
        probs = {}
        for i, j in k4.edges:
            nxt = [k4.edges[f][1] for f in k4.out_edges(j)]
            w = rng.uniform(0.1, 1.0, len(nxt))
            probs.update({(i, j, k): p for k, p in zip(nxt, w / w.sum())})
        ch = edge_chain_from_tensor(k4, probs)
        ch = type(ch)(k4, ch.matrix, "edges", density=stationary_density(ch), kind=ch.kind)
        base = str(tmp_path / "tensor_k4")
        save_chain(ch, base)
        back = load_chain(base)
        assert back.states == "edges"
        assert back.kind == "tensor"
        assert np.array_equal(back.matrix.toarray(), ch.matrix.toarray())
        assert np.array_equal(back.density, ch.density)

    def test_unknown_states_rejected(self, c4, tmp_path):
        base = str(tmp_path / "nb_c4")
        _, sidecar = save_chain(nonbacktracking_edge_chain(c4), base)
        with open(sidecar, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["states"] = "arcs"
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(ChainError, match="'nodes' or 'edges', got 'arcs'"):
            load_chain(base)

    def test_missing_sidecar(self, tmp_path):
        with pytest.raises(GraphFormatError, match="sidecar"):
            load_chain(str(tmp_path / "nothing"))

    def test_write_is_stable(self, c4, tmp_path):
        ch = nonbacktracking_edge_chain(c4)
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        save_chain(ch, a)
        save_chain(ch, b)
        for ext in (".mtx", ".json"):
            assert open(a + ext, "rb").read() == open(b + ext, "rb").read()


class TestTransitionFile:
    def test_parses_and_builds_chain(self, c4):
        lines = []
        for (i, j, k), p in sorted(
            {(0, 1, 2): 1.0, (1, 2, 3): 1.0, (2, 3, 0): 1.0, (3, 0, 1): 1.0,
             (1, 0, 3): 1.0, (0, 3, 2): 1.0, (3, 2, 1): 1.0, (2, 1, 0): 1.0}.items()
        ):
            lines.append(f"{i} {j} {k} {p}")
        text = "# explicit non-backtracking steps on the 4-cycle\n" + "\n".join(lines)
        probs = load_transition_file(text, c4)
        ch = edge_chain_from_tensor(c4, probs)
        expect = nonbacktracking_edge_chain(c4)
        assert np.array_equal(ch.matrix.toarray(), expect.matrix.toarray())

    def test_unknown_label(self, c4):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_transition_file("0 1 9 1.0", c4)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_probability(self, c4, text):
        with pytest.raises(GraphFormatError) as exc:
            load_transition_file(f"# steps\n0 1 2 0.5\n0 1 0 {text}\n", c4)
        assert str(exc.value) == f"line 3: bad probability {text!r}"

    def test_wrong_field_count(self, c4):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_transition_file("# ok\n0 1 2\n", c4)

    def test_bad_probability(self, c4):
        with pytest.raises(GraphFormatError, match="probability"):
            load_transition_file("0 1 2 lots", c4)

    def test_duplicate_triple(self, c4):
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_transition_file("0 1 2 0.5\n0 1 2 0.5", c4)

    def test_empty_file(self, c4):
        with pytest.raises(GraphFormatError, match="no entries"):
            load_transition_file("# only comments\n", c4)


class TestCsv:
    def test_numeric_formatting(self):
        text = csv_text(["a", "b"], [[1.0 / 3.0, 2]])
        assert text == "a,b\n0.333333333333,2\n"

    def test_bool_cells(self):
        assert csv_text(["x"], [[True], [False]]) == "x\ntrue\nfalse\n"

    def test_quoting(self):
        text = csv_text(["label"], [['pla,in'], ['has "q"'], ["two\nlines"]])
        lines = text.splitlines()
        assert lines[1] == '"pla,in"'
        assert lines[2] == '"has ""q"""'

    def test_special_floats(self):
        text = csv_text(["v"], [[float("inf")], [float("nan")]])
        assert text.splitlines()[1:] == ["inf", "nan"]

    def test_fmt(self):
        from walktimes.config import fmt
        values = [float("nan"), float("inf"), float("-inf"), np.float64("inf"),
                  1.0 / 3.0, -2.5, 0.0, 1e20, 2, 123456789012345.0]
        assert [fmt(v) for v in values] == ["nan", "inf", "-inf", "inf", "0.333333333333",
                                            "-2.5", "0", "1e+20", "2", "1.23456789012e+14"]

    def test_write_csv(self, tmp_path):
        p = tmp_path / "out.csv"
        write_csv(str(p), ["n"], [[1], [2]])
        assert p.read_text(encoding="utf-8") == "n\n1\n2\n"


class TestJson:
    def test_deterministic_and_sorted(self):
        a = json_text({"b": 1, "a": 2})
        b = json_text({"a": 2, "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_bool_survives(self):
        doc = json.loads(json_text({"ok": True, "bad": False}))
        assert doc["ok"] is True and doc["bad"] is False

    def test_numpy_scalars(self):
        doc = json.loads(json_text({
            "f": np.float64(0.5), "i": np.int64(3),
            "arr": np.arange(3), "flag": np.bool_(True),
        }))
        assert doc == {"f": 0.5, "i": 3, "arr": [0, 1, 2], "flag": True}

    def test_non_finite_as_strings(self):
        doc = json.loads(json_text({"v": float("inf"), "w": float("nan")}))
        assert doc["v"] == "inf" and doc["w"] == "nan"

    def test_precision_rounding(self):
        doc = json.loads(json_text({"v": 0.1234567890123456789}))
        assert doc["v"] == 0.123456789012


def test_cli_import_leaves_scipy_io_out():
    # only save_chain and load_chain read Matrix Market files
    code = "import sys, walktimes.cli; print('scipy.io' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
