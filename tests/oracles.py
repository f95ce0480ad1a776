"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: plain-Python BFS, dense fixed-point
iteration, eigendecompositions.  None of it shares code with the package
under test, so agreement is meaningful.
"""
from __future__ import annotations

import numpy as np

from walktimes import Graph

# ---------------------------------------------------------------------------
# graph builders


def undirected(n: int, pairs) -> Graph:
    edges = []
    for i, j in pairs:
        edges.append((i, j))
        edges.append((j, i))
    return Graph(n, edges, undirected=True)


def cycle_graph(n: int) -> Graph:
    return undirected(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return undirected(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def path_graph(n: int) -> Graph:
    return undirected(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return undirected(10, outer + spokes + inner)


def directed_cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_undirected(n: int, extra: int, seed: int) -> Graph:
    """Connected undirected graph with min degree >= 2.

    A Hamiltonian cycle guarantees both properties; `extra` chords are
    added on top.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = [(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)]
    have = {frozenset(p) for p in pairs}
    budget = min(extra, n * (n - 1) // 2 - n)
    while budget > 0:
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i == j or frozenset((i, j)) in have:
            continue
        have.add(frozenset((i, j)))
        pairs.append((i, j))
        budget -= 1
    return undirected(n, pairs)


def random_digraph(n: int, extra: int, seed: int) -> Graph:
    """Strongly connected digraph: directed cycle plus random arcs."""
    rng = np.random.default_rng(seed)
    arcs = [(i, (i + 1) % n) for i in range(n)]
    have = set(arcs)
    budget = extra
    while budget > 0:
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i == j or (i, j) in have:
            continue
        have.add((i, j))
        arcs.append((i, j))
        budget -= 1
    return Graph(n, arcs)


def escape_digraph() -> Graph:
    """Two directed 3-cycles joined by a single one-way arc 0 -> 3.

    From the first cycle the walk may leak into the second and never
    return, so hitting probabilities toward cycle-one targets are < 1.
    """
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    return Graph(6, arcs)


def chance_digraph() -> tuple[Graph, np.ndarray]:
    """A digraph and a transition matrix on it in which state 0 reaches
    state 1 only by chance and state 3 reaches it surely.

    From 0 the walk steps to 1 or, with the same probability, into the
    closed pair 2 <-> 4; 1 and 3 alternate.
    """
    arcs = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 1), (4, 2)]
    P = np.zeros((5, 5))
    P[0, 1] = P[0, 2] = 0.5
    P[1, 3] = P[2, 4] = P[3, 1] = P[4, 2] = 1.0
    return Graph(5, arcs), P


def pendant_decorated(core: Graph, n_pendants: int, seed: int) -> Graph:
    """Attach degree-1 pendants (plus one 2-chain) to an undirected core.

    strip_leaves must peel everything back to `core` exactly, including
    the cascade through the chain.
    """
    rng = np.random.default_rng(seed)
    pairs = {frozenset((int(i), int(j))) for i, j in core.edges if i < j}
    pairs = [tuple(sorted(p)) for p in pairs]
    n = core.n
    for _ in range(n_pendants):
        anchor = int(rng.integers(core.n))
        pairs.append((anchor, n))
        n += 1
    # two-link chain: removal must cascade
    anchor = int(rng.integers(core.n))
    pairs.append((anchor, n))
    pairs.append((n, n + 1))
    n += 2
    return undirected(n, pairs)


def random_step_weights(g: Graph, seed: int) -> dict[tuple[int, int, int], float]:
    """Random positive (prev, cur, next) step probabilities on every edge.

    Input for ``edge_chain_from_tensor``: a second-order walk with no
    structure beyond its support, bistochastic only by accident.
    """
    rng = np.random.default_rng(seed)
    probs = {}
    for i, j in g.edges:
        nxt = [int(g.dst[f]) for f in g.out_edges(j)]
        w = rng.uniform(0.1, 1.0, size=len(nxt))
        for k, p in zip(nxt, w / w.sum()):
            probs[(i, j, k)] = p
    return probs


# ---------------------------------------------------------------------------
# plain-Python graph oracles


def adjacency_lists(g: Graph) -> list[list[int]]:
    out = [[] for _ in range(g.n)]
    for i, j in g.edges:
        out[int(i)].append(int(j))
    return out


def bfs_distances(adj: list[list[int]], source: int) -> list[float]:
    dist = [float("inf")] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == float("inf"):
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter_oracle(g: Graph) -> int:
    adj = adjacency_lists(g)
    best = 0.0
    for s in range(g.n):
        best = max(best, max(bfs_distances(adj, s)))
    return int(best)


def strongly_connected_oracle(g: Graph) -> bool:
    adj = adjacency_lists(g)
    radj = [[] for _ in range(g.n)]
    for i, j in g.edges:
        radj[int(j)].append(int(i))
    fwd = bfs_distances(adj, 0)
    bwd = bfs_distances(radj, 0)
    return all(d < float("inf") for d in fwd + bwd)


def line_pairs_oracle(edges) -> list[tuple[int, int, bool]]:
    """All composable edge pairs (e, f) with ter(e) = sou(f), by double loop."""
    out = []
    for e, (i, j) in enumerate(edges):
        for f, (a, b) in enumerate(edges):
            if j == a:
                out.append((e, f, b == i))
    return out


# ---------------------------------------------------------------------------
# dense Markov-chain oracles


def stationary_eig(P: np.ndarray) -> np.ndarray:
    """Stationary density via the eigenvector of P^T at eigenvalue 1."""
    w, v = np.linalg.eig(P.T)
    k = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(v[:, k])
    pi = np.abs(pi)
    return pi / pi.sum()


def reach_fixed_point(P: np.ndarray, ones, zeros=(), sweeps: int = 10_000):
    """Minimal nonnegative solution of the reach system by iteration from 0."""
    n = P.shape[0]
    ones = set(int(s) for s in ones)
    zeros = set(int(s) for s in zeros)
    interior = [s for s in range(n) if s not in ones and s not in zeros]
    phi = np.zeros(n)
    for s in ones:
        phi[s] = 1.0
    for _ in range(sweeps):
        nxt = P[interior] @ phi
        if np.max(np.abs(nxt - phi[interior])) < 1e-15:
            phi[interior] = nxt
            break
        phi[interior] = nxt
    return phi


def steps_fixed_point(P: np.ndarray, zeros, ones=(), sweeps: int = 10_000):
    """Value iteration for expected steps; entries that blow up are inf.

    zeros: boundary states with value 0.  ones: boundary states with
    value 1 (used by the edge-level second-order systems).
    """
    n = P.shape[0]
    zeros = set(int(s) for s in zeros)
    ones = set(int(s) for s in ones)
    interior = [s for s in range(n) if s not in zeros and s not in ones]
    tau = np.zeros(n)
    for s in ones:
        tau[s] = 1.0
    for _ in range(sweeps):
        nxt = 1.0 + P[interior] @ tau
        if np.max(np.abs(nxt - tau[interior])) < 1e-13:
            tau[interior] = nxt
            break
        tau[interior] = nxt
    tau = np.where(tau > 1e9, np.inf, tau)
    return tau


def cycle_hitting_time(n: int, k: int) -> float:
    """Uniform walk on the n-cycle: mean time from 0 to k is k(n-k)."""
    return float(k * (n - k))
