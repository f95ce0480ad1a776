#!/usr/bin/env python3
"""Print a byte-exact transcript of the CLI on a fixed matrix of small graphs.

Writes seven small graphs (C4, K4, a 3-node path, a bow-tie, C4 with a
pendant, a directed 3-cycle with a chord and a reducible directed
graph) and a step-probability file for each to a temporary
directory. Then runs a fixed list of subcommands through
``walktimes.cli.main`` in-process, with the walks ``uniform``, ``nb``,
``dw:0``, ``dw:0.3``, ``dw:1`` and ``tensor:``. Prints one JSON record
per command: argv, exit code, stdout, stderr and the text of any file
the command wrote. The temporary directory shows as ``<tmp>``, and a
warning's ``path/walktimes/module.py:line:`` as ``walktimes/module.py:``.

Diffing the transcripts of two checkouts shows every change of CLI
bytes between them:

    python scripts/cli_transcript.py > after.jsonl
    (cd ../parent && python scripts/cli_transcript.py) > before.jsonl
    diff before.jsonl after.jsonl
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from walktimes.cli import main  # noqa: E402

# name -> (edge lines, undirected)
GRAPHS = {
    "c4": (["a b", "b c", "c d", "d a"], True),
    "k4": (["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"], True),
    "path3": (["a b", "b c"], True),
    "bowtie": (["a b", "b c", "c a", "c d", "d e", "e c"], True),
    "c4-pendant": (["a b", "b c", "c d", "d a", "a e"], True),
    "directed": (["0 1", "1 2", "2 0", "0 2"], False),
    "reducible": (["0 1", "1 0", "1 2", "2 3", "3 2"], False),
}
WALKS = ["uniform", "nb", "dw:0", "dw:0.3", "dw:1", "tensor"]
TRIALS = "2000"


def tensor_lines(edges: list[tuple[str, str]]) -> list[str]:
    """Step probabilities over (prev, cur, next) with uneven fixed weights."""
    out_nb: dict[str, list[str]] = {}
    for u, v in edges:
        out_nb.setdefault(u, []).append(v)
    lines = []
    for i, j in edges:
        nexts = out_nb.get(j, [])
        weights = [1 + (ord(i[0]) + 2 * ord(k[0])) % 3 for k in nexts]
        total = sum(weights)
        lines += [f"{i} {j} {k} {w / total!r}" for k, w in zip(nexts, weights)]
    return lines


def write_graph(tmp: Path, name: str) -> tuple[str, str, list[str]]:
    lines, undirected = GRAPHS[name]
    edges = [tuple(line.split()) for line in lines]
    if undirected:
        edges += [(v, u) for u, v in edges]
    labels = list(dict.fromkeys(x for e in edges for x in e))
    graph = tmp / f"{name}.edges"
    graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tensor = tmp / f"{name}.steps"
    tensor.write_text("\n".join(tensor_lines(edges)) + "\n", encoding="utf-8")
    return str(graph), str(tensor), labels


def commands(tmp: Path, name: str):
    graph, tensor, labels = write_graph(tmp, name)
    base = ["--input", graph] + (["--undirected"] if GRAPHS[name][1] else [])
    out = str(tmp / "out" / "result.txt")
    s, t = labels[0], labels[1]
    yield ["info", *base]
    yield ["info", *base, "--json"]
    yield ["info", *base, "--strip"]
    yield ["strip", *base]
    yield ["strip", *base, "--json"]
    yield ["strip", *base, "--out", out]
    yield ["strip", *base, "--strip"]
    yield ["alpha-sweep", *base, "--alpha-grid", "0,0.5"]
    yield ["alpha-sweep", *base, "--alpha-grid", "0.3,1", "--json"]
    yield ["alpha-sweep", *base, "--alpha-grid", "0,1", "--out", out]
    yield ["alpha-sweep", *base, "--strip", "--alpha-grid", "0.5"]
    yield ["simulate", *base, "--order", "1", "--walk", "uniform",
           "--source", s, "--target", t, "--trials", TRIALS, "--seed", "3"]
    for walk in WALKS:
        w = ["--walk", f"tensor:{tensor}" if walk == "tensor" else walk]
        yield ["hitting", *base, *w]
        yield ["hitting", *base, *w, "--json"]
        yield ["hitting", *base, *w, "--target", t]
        yield ["hitting", *base, *w, "--strip"]
        yield ["hitting", *base, *w, "--full", str(tmp / "out" / "full")]
        yield ["access", *base, *w]
        yield ["access", *base, *w, "--json"]
        yield ["access", *base, *w, "--out", out]
        yield ["return-times", *base, *w]
        yield ["return-times", *base, *w, "--set", f"{s},{t}"]
        yield ["return-times", *base, *w, "--json"]
        yield ["simulate", *base, *w, "--source", s, "--target", t,
               "--trials", TRIALS, "--seed", "1"]
        yield ["simulate", *base, *w, "--kind", "return", "--source", s,
               "--trials", TRIALS, "--seed", "2", "--json"]
        yield ["validate", *base, *w, "--trials", TRIALS, "--seed", "4"]
        yield ["validate", *base, *w, "--trials", TRIALS, "--json"]


def run(argv: list[str], tmp: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except Exception:
            code = "uncaught"
            traceback.print_exc(limit=0)
    outdir = tmp / "out"
    files = {}
    for path in sorted(outdir.iterdir()):
        files[path.name] = path.read_text(encoding="utf-8")
        path.unlink()
    record = {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
              "stderr": stderr.getvalue(), "files": files}
    text = json.dumps(record).replace(str(tmp), "<tmp>")
    # a warning names the checkout and line it was raised at
    return json.loads(re.sub(r'[^\s"]*/(walktimes/\w+\.py):\d+:', r"\1:", text))


def main_transcript() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "out").mkdir()
        for graph in GRAPHS:
            for argv in commands(tmp, graph):
                print(json.dumps(run(argv, tmp), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main_transcript())
