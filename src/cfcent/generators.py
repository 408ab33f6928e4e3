"""Synthetic graph generators used by the CLI and the test suite.

All generators return unit-weight graphs with identity node labels.
Random generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .graph import Graph

__all__ = [
    "path_graph",
    "grid_graph",
    "star_graph",
    "complete_graph",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
]


def path_graph(n: int) -> Graph:
    """Path on ``n`` nodes: 0-1-2-...-(n-1)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    u = np.arange(n - 1, dtype=np.int64)
    return Graph.from_edges(u, u + 1, n=n)


def grid_graph(k: int) -> Graph:
    """The k-by-k two-dimensional 4-neighbor grid, nodes numbered row by row."""
    if k < 1:
        raise DomainError("grid dimensions must be >= 1")
    ids = np.arange(k * k, dtype=np.int64).reshape(k, k)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return Graph.from_edges(u, v, n=k * k)


def star_graph(n: int) -> Graph:
    """Star on ``n`` nodes: center 0 joined to n-1 leaves."""
    if n < 2:
        raise DomainError("n must be >= 2")
    leaves = np.arange(1, n, dtype=np.int64)
    return Graph.from_edges(np.zeros(n - 1, dtype=np.int64), leaves, n=n)


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` nodes."""
    if n < 2:
        raise DomainError("n must be >= 2")
    u, v = np.triu_indices(n, 1)
    return Graph.from_edges(u.astype(np.int64), v.astype(np.int64), n=n)


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) random graph; may be disconnected (take the LCC for solves).

    Pairs are sampled by geometric skipping over the linearized upper
    triangle, so memory stays proportional to the number of edges.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if not 0 < p < 1:
        raise DomainError("p must be in (0, 1)")
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    us: list[int] = []
    vs: list[int] = []
    # Walk the pair indices with geometric gaps; expected work O(p * n^2).
    t = -1
    log_q = np.log1p(-p)
    row_start = 0  # linear index of pair (row, row+1)
    row = 0
    while True:
        gap = int(np.log1p(-rng.random()) / log_q) + 1
        t += gap
        if t >= total:
            break
        while t >= row_start + (n - 1 - row):
            row_start += n - 1 - row
            row += 1
        us.append(row)
        vs.append(row + 1 + (t - row_start))
    return Graph.from_edges(
        np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64), n=n
    )


def barabasi_albert_graph(n: int, m0: int, seed: int) -> Graph:
    """Preferential-attachment graph: each new node attaches ``m0`` edges.

    Starts from a complete seed graph on ``m0 + 1`` nodes.  Attachment
    targets are drawn from an urn holding every edge endpoint, which makes
    the draw probability proportional to the current degree; duplicate
    targets are rejected so the graph stays simple.
    """
    if m0 < 1:
        raise DomainError("m0 must be >= 1")
    if n < m0 + 2:
        raise DomainError("n must be at least m0 + 2")
    rng = np.random.default_rng(seed)
    us: list[int] = []
    vs: list[int] = []
    urn: list[int] = []
    for i in range(m0 + 1):
        for j in range(i):
            us.append(j)
            vs.append(i)
            urn.append(i)
            urn.append(j)
    for v in range(m0 + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m0:
            chosen.add(urn[rng.integers(len(urn))])
        for u in sorted(chosen):
            us.append(u)
            vs.append(v)
            urn.append(u)
            urn.append(v)
    return Graph.from_edges(
        np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64), n=n
    )
