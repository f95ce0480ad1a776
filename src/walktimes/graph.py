"""Finite directed graphs and their directed line graphs.

A graph is a fixed node set ``0..n-1`` with an ordered tuple of directed
edges and no self-loops. Undirected graphs are stored as symmetric
digraphs (both orientations present) with ``undirected=True``. Edge
indices are stable: edge ``e`` always refers to ``edges[e]``.

Instances are immutable after construction; derived structures are
precomputed so shared read access is safe.

The module needs numpy alone: ``diameter`` is a bit-packed
breadth-first search, ``is_strongly_connected`` a breadth-first search
each way from node 0, and only ``Graph.adjacency`` imports scipy,
when it is called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphFormatError, GraphStructureError

__all__ = [
    "Graph",
    "LineGraphMap",
    "StripResult",
    "load_edge_list",
    "load_matrix_market",
    "read_graph",
    "strip_leaves",
    "line_graph",
    "dangling_edges",
    "diameter",
    "is_strongly_connected",
]


def _group(keys: np.ndarray, n: int):
    """Edge indices grouped by key, stably, with group offsets and sizes."""
    order = np.argsort(keys, kind="stable")
    order.flags.writeable = False
    sizes = np.bincount(keys, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return order, offsets, sizes


class Graph:
    """Directed graph with stable edge indices.

    Parameters
    ----------
    n : number of nodes
    edges : iterable of (source, target) pairs, no self-loops, no duplicates
    undirected : the edge set is symmetric and should be treated as
        orientations of undirected edges
    labels : optional external node names; defaults to "0".."n-1"
    """

    def __init__(self, n, edges, undirected=False, labels=None):
        edges = [(int(i), int(j)) for i, j in edges]
        if n < 0:
            raise GraphStructureError("node count must be nonnegative")
        edge_index: dict[tuple[int, int], int] = {}
        for idx, (i, j) in enumerate(edges):
            if not (0 <= i < n and 0 <= j < n):
                raise GraphStructureError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise GraphStructureError(f"self-loop at node {i}")
            if (i, j) in edge_index:
                raise GraphStructureError(f"duplicate edge ({i},{j})")
            edge_index[(i, j)] = idx
        if undirected:
            for i, j in edges:
                if (j, i) not in edge_index:
                    raise GraphStructureError(
                        f"undirected graph missing reverse of ({i},{j})"
                    )
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise GraphStructureError("label count does not match node count")

        self._n = int(n)
        self._edges = tuple(edges)
        self._undirected = bool(undirected)
        self._labels = labels
        # a duplicated label names its first node
        self._label_index = {lab: i for i, lab in reversed(list(enumerate(labels)))}
        self._edge_index = edge_index
        m = len(edges)
        self._src = np.fromiter((i for i, _ in edges), dtype=np.int64, count=m)
        self._dst = np.fromiter((j for _, j in edges), dtype=np.int64, count=m)
        self._out_order, self._out_ptr, self._out_degree = _group(self._src, n)
        self._in_order, self._in_ptr, self._in_degree = _group(self._dst, n)

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def undirected(self) -> bool:
        return self._undirected

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def src(self) -> np.ndarray:
        """Source node of each edge, aligned with edge indices."""
        return self._src

    @property
    def dst(self) -> np.ndarray:
        """Target node of each edge, aligned with edge indices."""
        return self._dst

    @property
    def out_degree(self) -> np.ndarray:
        return self._out_degree

    @property
    def in_degree(self) -> np.ndarray:
        return self._in_degree

    def out_edges(self, i: int) -> np.ndarray:
        """Indices of edges leaving node i, in edge-index order (read-only)."""
        return self._out_order[self._out_ptr[i]:self._out_ptr[i + 1]]

    def in_edges(self, i: int) -> np.ndarray:
        """Indices of edges entering node i, in edge-index order (read-only)."""
        return self._in_order[self._in_ptr[i]:self._in_ptr[i + 1]]

    def edge_id(self, i: int, j: int) -> int:
        """Index of edge (i, j); KeyError if absent."""
        return self._edge_index[(i, j)]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._edge_index

    def undirected_edge_count(self) -> int:
        """Number of undirected edges (pairs) for symmetric graphs."""
        if not self._undirected:
            raise GraphStructureError("graph is not marked undirected")
        return self.m // 2

    def adjacency(self):
        """0/1 adjacency matrix as a ``scipy.sparse.csr_matrix``."""
        import scipy.sparse as sp  # lazily: reading and stripping need no scipy
        data = np.ones(self.m, dtype=np.float64)
        return sp.csr_matrix((data, (self._src, self._dst)), shape=(self._n, self._n))

    def label_id(self, label: str) -> int:
        """Node index for an external label; GraphStructureError if unknown."""
        try:
            return self._label_index[label]
        except KeyError:
            raise GraphStructureError(f"unknown node label {label!r}") from None

    def __repr__(self):
        kind = "undirected" if self._undirected else "directed"
        return f"Graph({kind}, n={self._n}, m={self.m})"


@dataclass(frozen=True)
class LineGraphMap:
    """Directed line graph of a host graph.

    Line-graph nodes are the host's edges. There is one line edge
    ``e -> f`` for every pair with ``ter(e) = sou(f)``; a line edge is
    backtracking when additionally ``ter(f) = sou(e)``. Dropping the
    backtracking line edges leaves the Hashimoto graph.
    """

    host: Graph
    tail: np.ndarray          # line edge source, as host edge index
    head: np.ndarray          # line edge target, as host edge index
    backtracking: np.ndarray  # bool per line edge

    @property
    def n_line_edges(self) -> int:
        return len(self.tail)

    def as_graph(self, include_backtracking: bool = True) -> Graph:
        """Materialize the line graph (or Hashimoto graph) as a Graph.

        Nodes are host edge indices; labels read "i->j" in host labels.
        """
        g = self.host
        labels = [f"{g.labels[i]}->{g.labels[j]}" for i, j in g.edges]
        if include_backtracking:
            pairs = zip(self.tail.tolist(), self.head.tolist())
        else:
            keep = ~self.backtracking
            pairs = zip(self.tail[keep].tolist(), self.head[keep].tolist())
        return Graph(g.m, list(pairs), undirected=False, labels=labels)


@dataclass(frozen=True)
class StripResult:
    """Outcome of iterated removal of low-degree nodes."""

    graph: Graph
    old_to_new: np.ndarray  # -1 for removed nodes
    removed: tuple[int, ...]  # removed node ids in the input graph


def _tokenize(stream) -> list[tuple[int, str]]:
    """Split text input into (line_number, stripped_content) pairs."""
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream.read().splitlines()
    return [(no, line.strip()) for no, line in enumerate(lines, start=1)]


def _records(stream):
    """(line_number, fields) of each line that is not blank or a # or % comment."""
    for no, line in _tokenize(stream):
        if line and not line.startswith(("#", "%")):
            yield no, line.split()


def load_edge_list(stream, undirected=False) -> Graph:
    """Parse a whitespace-separated edge list.

    One edge per line, two node labels per edge. Lines starting with
    ``#`` or ``%`` and blank lines are ignored. Labels are arbitrary
    tokens; nodes are numbered in first-appearance order. Duplicate
    edges are dropped. With ``undirected=True`` each line contributes
    both orientations.

    ``stream`` is a text file object or a string holding the content.
    """
    ids: dict[str, int] = {}
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def node(tok: str) -> int:
        if tok not in ids:
            ids[tok] = len(labels)
            labels.append(tok)
        return ids[tok]

    for no, parts in _records(stream):
        if len(parts) != 2:
            raise GraphFormatError(
                f"expected two node labels, got {len(parts)}", line=no
            )
        i, j = node(parts[0]), node(parts[1])
        if i == j:
            raise GraphFormatError(f"self-loop at label {parts[0]!r}", line=no)
        for a, b in ((i, j), (j, i)) if undirected else ((i, j),):
            if (a, b) not in seen:
                seen.add((a, b))
                edges.append((a, b))
    return Graph(len(labels), edges, undirected=undirected, labels=labels)


def load_matrix_market(stream, undirected=False) -> Graph:
    """Parse a Matrix Market coordinate pattern file as a graph.

    Supports ``matrix coordinate pattern`` with ``general`` or
    ``symmetric`` symmetry. A symmetric file yields an undirected
    graph; a general file yields a directed graph unless
    ``undirected=True`` forces symmetrization. Entries are 1-based;
    self-loops are rejected; duplicates are dropped.
    """
    rows = _tokenize(stream)
    if not rows:
        raise GraphFormatError("empty input")
    no, header = rows[0]
    parts = header.lower().split()
    if len(parts) < 4 or parts[0] != "%%matrixmarket":
        raise GraphFormatError("missing %%MatrixMarket header", line=no)
    if parts[1:4] != ["matrix", "coordinate", "pattern"]:
        raise GraphFormatError(
            "only 'matrix coordinate pattern' files are supported", line=no
        )
    symmetry = parts[4] if len(parts) > 4 else "general"
    if symmetry not in ("general", "symmetric"):
        raise GraphFormatError(f"unsupported symmetry {symmetry!r}", line=no)

    body = [(no, ln) for no, ln in rows[1:] if ln and not ln.startswith("%")]
    if not body:
        raise GraphFormatError("missing size line")
    no, size_line = body[0]
    parts = size_line.split()
    if len(parts) != 3:
        raise GraphFormatError("size line must be 'rows cols nnz'", line=no)
    try:
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError:
        raise GraphFormatError("size line must hold three integers", line=no)
    if nrows != ncols:
        raise GraphFormatError(
            f"adjacency matrix must be square, got {nrows}x{ncols}", line=no
        )
    entries = body[1:]
    if len(entries) != nnz:
        raise GraphFormatError(
            f"expected {nnz} entries, found {len(entries)}"
        )

    symmetric = symmetry == "symmetric" or undirected
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, line in entries:
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError("entry must hold two indices", line=no)
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            raise GraphFormatError("entry indices must be integers", line=no)
        if not (0 <= i < nrows and 0 <= j < nrows):
            raise GraphFormatError(f"index out of range: {parts[0]} {parts[1]}", line=no)
        if i == j:
            raise GraphFormatError(f"self-loop at node {i + 1}", line=no)
        for a, b in ((i, j), (j, i)) if symmetric else ((i, j),):
            if (a, b) not in seen:
                seen.add((a, b))
                edges.append((a, b))
    labels = [str(i + 1) for i in range(nrows)]
    return Graph(nrows, edges, undirected=symmetric, labels=labels)


def read_graph(path, fmt="edge-list", undirected=False) -> Graph:
    """Load a graph from a file path in the named format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "edge-list":
        return load_edge_list(text, undirected=undirected)
    if fmt == "matrix-market":
        return load_matrix_market(text, undirected=undirected)
    raise GraphFormatError(f"unknown format {fmt!r}")


def strip_leaves(g: Graph) -> StripResult:
    """Iteratively remove nodes of undirected degree <= 1.

    Requires an undirected graph. Removing a leaf can create new
    leaves, so removal repeats until every remaining node has degree
    at least 2. Surviving nodes are relabeled compactly, preserving
    relative order and labels.
    """
    if not g.undirected:
        raise GraphStructureError("degree stripping requires an undirected graph")
    alive = [True] * g.n
    nbrs = [set() for _ in range(g.n)]
    for i, j in g.edges:
        nbrs[i].add(j)
    queue = [i for i in range(g.n) if len(nbrs[i]) <= 1]
    while queue:
        i = queue.pop()
        if not alive[i]:
            continue
        alive[i] = False
        for j in nbrs[i]:
            nbrs[j].discard(i)
            if alive[j] and len(nbrs[j]) <= 1:
                queue.append(j)
        nbrs[i].clear()

    old_to_new = np.full(g.n, -1, dtype=np.int64)
    kept = [i for i in range(g.n) if alive[i]]
    for new, old in enumerate(kept):
        old_to_new[old] = new
    edges = [
        (int(old_to_new[i]), int(old_to_new[j]))
        for i, j in g.edges
        if alive[i] and alive[j]
    ]
    labels = [g.labels[i] for i in kept]
    removed = tuple(i for i in range(g.n) if not alive[i])
    stripped = Graph(len(kept), edges, undirected=True, labels=labels)
    return StripResult(graph=stripped, old_to_new=old_to_new, removed=removed)


def line_graph(g: Graph) -> LineGraphMap:
    """Directed line graph: one node per edge, e -> f iff ter(e) = sou(f)."""
    # edge e = (i, j) continues along the out-edges of j, in edge-index order
    counts = g.out_degree[g.dst]
    tail = np.repeat(np.arange(g.m), counts)
    offset = np.arange(tail.size) - (np.cumsum(counts) - counts)[tail]
    head = g._out_order[g._out_ptr[g.dst[tail]] + offset]
    return LineGraphMap(host=g, tail=tail, head=head,
                        backtracking=g.dst[head] == g.src[tail])


def _reversals(g: Graph) -> np.ndarray:
    """Per edge (i, j): the index of edge (j, i), -1 where it is not an edge."""
    key = g.src * g.n + g.dst
    order = np.argsort(key)
    want = g.dst * g.n + g.src
    at = order[np.minimum(np.searchsorted(key, want, sorter=order), g.m - 1)]
    return np.where(key[at] == want, at, -1)


def _continuations(g: Graph) -> np.ndarray:
    """Per edge (i, j): the number of edges (j, k) with k != i."""
    return g.out_degree[g.dst] - (_reversals(g) >= 0)


def dangling_edges(g: Graph) -> list[int]:
    """Edges (i, j) whose only continuation is the immediate reversal.

    Edge (i, j) is dangling when node j's single outgoing edge is
    (j, i). A walk that may not backtrack is stuck there.
    """
    stuck = (_continuations(g) == 0) & (g.out_degree[g.dst] > 0)
    return np.flatnonzero(stuck).tolist()


def diameter(g: Graph) -> int:
    """Largest unweighted shortest-path distance over ordered node pairs.

    Raises for graphs where some node cannot reach some other node.

    A bit-packed breadth-first search from every node at once: row i
    holds, one bit per node, the nodes within d steps of i. Each level
    ORs into every row the rows of its out-neighbours, so a level costs
    O(m * n / 64) word operations and the rows take n**2 / 8 bytes.
    """
    n = g.n
    if n <= 1:
        return 0
    words = -(-n // 64)
    reach = np.zeros((n, words), dtype=np.uint64)
    nodes = np.arange(n)
    reach[nodes, nodes // 64] = np.left_shift(np.uint64(1), (nodes % 64).astype(np.uint64))
    full = np.full(words, np.uint64(2**64 - 1))
    if n % 64:
        full[-1] = np.uint64(2 ** (n % 64) - 1)
    # out-neighbours grouped by source; reduceat needs the nonempty groups
    nbrs = g.dst[g._out_order]
    has_out = g.out_degree > 0
    starts = g._out_ptr[:-1][has_out]
    levels = 0
    while not (reach == full).all():
        grown = reach.copy()
        grown[has_out] |= np.bitwise_or.reduceat(reach[nbrs], starts, axis=0)
        if np.array_equal(grown, reach):
            raise GraphStructureError("graph is not connected; diameter undefined")
        reach = grown
        levels += 1
    return levels


def _reached(ptr: np.ndarray, nbrs: np.ndarray, start: np.ndarray,
             stop: np.ndarray | None = None) -> np.ndarray:
    """Mask of the states reached from the states in the mask ``start``,
    the successors of state i being ``nbrs[ptr[i]:ptr[i + 1]]``, by
    paths that enter no state of the mask ``stop`` (disjoint from
    ``start``): breadth first, one pass per level."""
    seen = start.copy() if stop is None else start | stop
    frontier = np.flatnonzero(start)
    while frontier.size:
        starts = ptr[frontier]
        counts = ptr[frontier + 1] - starts
        # the positions in nbrs of the frontier's successors
        pos = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        found = nbrs[pos]
        frontier = np.unique(found[~seen[found]])
        seen[frontier] = True
    return seen if stop is None else seen & ~stop


def is_strongly_connected(g: Graph) -> bool:
    """True when every node can reach every other by directed paths."""
    if g.n <= 1:
        return True
    first = np.arange(g.n) == 0
    return bool(_reached(g._out_ptr, g.dst[g._out_order], first).all()
                and _reached(g._in_ptr, g.src[g._in_order], first).all())
