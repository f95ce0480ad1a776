"""The set-up every query command pays, through the public library API.

Reads and strips a graph, builds its non-backtracking edge chain and
the equilibrium pullback, and prints the node density as JSON so the
benchmark can check it against deg(k) / sum(deg).

    python3 perfbench/prelude.py GRAPH_FILE
"""

from __future__ import annotations

import json
import sys


def run(path: str) -> dict:
    import walktimes

    g = walktimes.strip_leaves(walktimes.read_graph(path, undirected=True)).graph
    chain = walktimes.nonbacktracking_edge_chain(g)
    pdata = walktimes.equilibrium_pullback(chain)
    return {
        "labels": list(g.labels),
        "node_density": [float(x) for x in pdata.node_density],
    }


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1])))
