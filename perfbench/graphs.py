"""Seeded synthetic graphs and the facts the checker needs about them.

A core is a Hamiltonian cycle plus random chords, so it is connected
and every node has degree >= 2. Pendant nodes and one two-link chain
are attached on top; stripping degree-1 nodes must cascade back to
exactly the core. The same (n_core, core_edges, pendants, seed) always
gives byte-identical files.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csgraph, csr_matrix


class SyntheticGraph:
    """An undirected core with pendants; nodes are labelled 0..n-1."""

    def __init__(self, n_core: int, core_edges: int, pendants: int, seed: int):
        if core_edges < n_core or core_edges > n_core * (n_core - 1) // 2:
            raise ValueError("core edge count must lie between n and n(n-1)/2")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n_core)
        core = [(int(perm[i]), int(perm[(i + 1) % n_core])) for i in range(n_core)]
        have = {frozenset(p) for p in core}
        while len(core) < core_edges:
            i, j = int(rng.integers(n_core)), int(rng.integers(n_core))
            if i == j or frozenset((i, j)) in have:
                continue
            have.add(frozenset((i, j)))
            core.append((i, j))
        extra = []
        n = n_core
        for _ in range(pendants):
            extra.append((int(rng.integers(n_core)), n))
            n += 1
        # two-link chain: stripping must cascade through it
        extra.append((int(rng.integers(n_core)), n))
        extra.append((n, n + 1))
        n += 2
        self.n_core = n_core
        self.n = n
        self.core_edges = core
        self.edges = core + extra

    @staticmethod
    def _text(pairs) -> str:
        return "".join(f"{i} {j}\n" for i, j in pairs)

    def edge_list_text(self) -> str:
        """The raw graph, one undirected edge per line."""
        return self._text(self.edges)

    def core_edge_list_text(self) -> str:
        """The 2-core the program's `strip` must find."""
        return self._text(self.core_edges)

    def core_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_core, dtype=np.int64)
        for i, j in self.core_edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def facts(self) -> dict:
        """Sizes of the raw graph, the core and the core's nb edge chain."""
        deg = self.core_degrees()
        return {
            "nodes": self.n,
            "edges": len(self.edges),
            "core_nodes": self.n_core,
            "core_edges": len(self.core_edges),
            "edge_states": int(deg.sum()),
            # directed line graph: edge (i, j) continues along every (j, k)
            "line_graph_edges": int((deg * deg).sum()),
            "diameter": diameter(self.n, self.edges),
            "core_diameter": diameter(self.n_core, self.core_edges),
        }


def adjacency(n: int, pairs) -> csr_matrix:
    a = np.asarray(pairs, dtype=np.int64)
    rows = np.concatenate([a[:, 0], a[:, 1]])
    cols = np.concatenate([a[:, 1], a[:, 0]])
    return csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def diameter(n: int, pairs) -> int:
    dist = csgraph.shortest_path(adjacency(n, pairs), unweighted=True)
    return int(dist.max())


def classical_hitting_matrix(n: int, pairs) -> np.ndarray:
    """Mean hitting times T_ij of the simple walk, dense.

    Fundamental matrix Z = (I - P + 1 pi^T)^-1 (Kemeny and Snell):
    T_ij = (Z_jj - Z_ij) / pi_j, with a zero diagonal.
    """
    A = adjacency(n, pairs).toarray()
    deg = A.sum(axis=1)
    P = A / deg[:, None]
    pi = deg / deg.sum()
    Z = np.linalg.inv(np.eye(n) - P + np.outer(np.ones(n), pi))
    T = (np.diag(Z)[None, :] - Z) / pi[None, :]
    np.fill_diagonal(T, 0.0)
    return T
