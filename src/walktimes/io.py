"""Serialization: chains on disk, tensor files, CSV and JSON output.

A chain is stored as a Matrix Market file for the transition matrix
plus a JSON sidecar holding the host graph, the state set ("nodes" or
"edges"), the chain kind, and the invariant density when known.
Numeric output uses a fixed significant digit count so repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .config import fmt
from .errors import GraphFormatError
from .graph import Graph, _records

__all__ = [
    "save_chain",
    "load_chain",
    "load_transition_file",
    "csv_text",
    "write_csv",
    "json_text",
]


def save_chain(chain, base: str) -> tuple[str, str]:
    """Write a chain as <base>.mtx plus <base>.json; returns the paths."""
    import scipy.io  # lazily: only chain files need it
    mtx_path = base + ".mtx"
    json_path = base + ".json"
    scipy.io.mmwrite(mtx_path, chain.matrix.tocoo(), precision=17)
    g = chain.graph
    density = chain.density
    doc = {
        "states": chain.states,
        "kind": chain.kind,
        "n": g.n,
        "edges": [[int(i), int(j)] for i, j in g.edges],
        "undirected": g.undirected,
        "labels": list(g.labels),
        "density": None if density is None else [float(x) for x in density],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return mtx_path, json_path


def load_chain(base: str):
    """Read a chain written by ``save_chain``."""
    import scipy.io

    from .chains import Chain

    json_path = base + ".json"
    mtx_path = base + ".mtx"
    if not os.path.exists(json_path):
        raise GraphFormatError(f"missing sidecar {json_path}")
    with open(json_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("states", "kind", "n", "edges", "undirected", "labels"):
        if key not in doc:
            raise GraphFormatError(f"sidecar lacks field {key!r}")
    g = Graph(
        doc["n"],
        [tuple(e) for e in doc["edges"]],
        undirected=doc["undirected"],
        labels=doc["labels"],
    )
    M = scipy.io.mmread(mtx_path)
    density = doc.get("density")
    density = None if density is None else np.asarray(density, dtype=np.float64)
    return Chain(g, M, doc["states"], density=density, kind=doc["kind"])


def load_transition_file(stream, g: Graph) -> dict[tuple[int, int, int], float]:
    """Parse explicit step probabilities keyed by node-label triples.

    One entry per line: previous, current, next label and the
    probability. Lines starting with ``#`` or ``%`` are ignored.
    """
    out: dict[tuple[int, int, int], float] = {}
    for no, parts in _records(stream):
        if len(parts) != 4:
            raise GraphFormatError(
                "expected 'prev cur next probability'", line=no
            )
        try:
            i, j, k = (g.label_id(p) for p in parts[:3])
        except Exception as exc:
            raise GraphFormatError(str(exc), line=no) from None
        try:
            p = float(parts[3])
        except ValueError:
            p = math.nan
        if not math.isfinite(p):
            raise GraphFormatError(f"bad probability {parts[3]!r}", line=no)
        key = (i, j, k)
        if key in out:
            raise GraphFormatError(f"duplicate triple {parts[:3]}", line=no)
        out[key] = p
    if not out:
        raise GraphFormatError("transition file holds no entries")
    return out


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return fmt(float(x))
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    s = str(x)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def csv_text(header, rows) -> str:
    """Render rows as CSV with the standard numeric format."""
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header, rows) -> None:
    text = csv_text(header, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _jsonable(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if v != v or v in (float("inf"), float("-inf")):
            return fmt(v)
        return float(fmt(v))
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def json_text(doc) -> str:
    """Deterministic JSON with the standard numeric precision."""
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
