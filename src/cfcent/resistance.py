"""Effective resistance between node pairs, exact and sketched.

The exact route solves one Laplacian system per unit source/sink supply.
The amortized route solves ``L z_x = e_x - 1/n`` once per node ``x`` and
recovers any pairwise resistance from four entries of the node
solutions; :func:`node_solution_chunks` streams those solutions in
fixed-width blocks, and :func:`node_solution` caches them.  The sketched
route projects the edge-space embedding whose pairwise squared distances
are the resistances onto a random low-dimensional subspace, at the cost
of one solve per sketch row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .graph import Graph, incidence_and_weights
from .solver import BLOCK_COLUMNS, MultigridHierarchy, SolverConfig, solve, solve_many

__all__ = [
    "SupplySpec",
    "ResistanceSketch",
    "effective_resistance",
    "resistances_from_node",
    "node_solution_chunks",
    "node_solution",
    "build_sketch",
    "sketch_distance",
    "sketch_distance_sums",
]


@dataclass(frozen=True)
class SupplySpec:
    """Unit current injection: +1 at ``source``, -1 at ``sink``."""

    source: int
    sink: int

    def __post_init__(self):
        if self.source == self.sink:
            raise DomainError("source and sink must differ")

    def vector(self, n: int) -> np.ndarray:
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise DomainError("supply nodes out of range")
        b = np.zeros(n)
        b[self.source] = 1.0
        b[self.sink] = -1.0
        return b


def effective_resistance(
    hierarchy: MultigridHierarchy,
    u: int,
    v: int,
    config: SolverConfig | None = None,
) -> float:
    """Potential difference at ``u`` and ``v`` under a unit u-v supply.

    Returns exactly 0 for ``u == v`` without solving; positive for
    distinct nodes of a connected graph.
    """
    n = hierarchy.n
    if not (0 <= u < n and 0 <= v < n):
        raise DomainError("node ids out of range")
    if u == v:
        return 0.0
    potential = solve(hierarchy, SupplySpec(u, v).vector(n), config)
    return float(potential.values[u] - potential.values[v])


def node_solution_chunks(
    hierarchy: MultigridHierarchy,
    nodes: Sequence[int],
    config: SolverConfig | None = None,
    threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream the solutions of ``L z_x = e_x - (1/n) 1`` for ``nodes``.

    Yields ``(chunk, z)`` in node order, where ``chunk`` holds the next
    ``BLOCK_COLUMNS * max(1, threads)`` node ids and row ``i`` of ``z`` is
    the mean-centered solution for ``chunk[i]``.  Each chunk is one
    :func:`solve_many` call; chunks start on block boundaries, so every
    value is independent of ``threads``.  Only the current chunk is held,
    so memory is ``O(BLOCK_COLUMNS * threads * n)`` for any node count.
    """
    n = hierarchy.n
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
        raise DomainError("node ids out of range")
    width = BLOCK_COLUMNS * max(1, threads)
    for start in range(0, nodes.size, width):
        chunk = nodes[start : start + width]
        supplies = np.full((chunk.size, n), -1.0 / n)
        supplies[np.arange(chunk.size), chunk] += 1.0
        solved = solve_many(hierarchy, supplies, config, threads=threads)
        del supplies  # stacking the rows then holds two chunk arrays, not three
        z = np.vstack([pot.values for pot in solved])
        del solved  # hold only ``z`` while the caller works
        yield chunk, z


def node_solution(
    hierarchy: MultigridHierarchy,
    nodes: Sequence[int],
    config: SolverConfig | None = None,
    cache: dict[int, np.ndarray] | None = None,
    threads: int = 1,
) -> dict[int, np.ndarray]:
    """Mean-centered solutions of ``L z_x = e_x - (1/n) 1`` for each node.

    Passing a ``cache`` dict makes repeated calls reuse earlier solves;
    the same dict can be shared by many resistance queries.  The cache
    holds one n-vector per node, so callers that need each solution only
    once should stream :func:`node_solution_chunks` instead.
    """
    cache = cache if cache is not None else {}
    missing = sorted({int(x) for x in nodes} - cache.keys())
    for chunk, z in node_solution_chunks(hierarchy, missing, config, threads):
        cache.update(zip(chunk.tolist(), z))
    return cache


def resistances_from_node(
    hierarchy: MultigridHierarchy,
    v: int,
    targets: Sequence[int],
    config: SolverConfig | None = None,
    cache: dict[int, np.ndarray] | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Effective resistances from ``v`` to every target node.

    Uses the cached node solutions, so computing resistances from many
    query nodes to a shared target set costs one solve per distinct node
    instead of one per pair.  Agrees with the pairwise route to within
    the solver tolerance.
    """
    n = hierarchy.n
    targets = np.asarray(targets, dtype=np.int64)
    if not (0 <= v < n) or (targets.size and (targets.min() < 0 or targets.max() >= n)):
        raise DomainError("node ids out of range")
    cache = node_solution(
        hierarchy, np.r_[targets, v], config, cache=cache, threads=threads
    )
    z_v = cache[int(v)]
    size = targets.size
    at_v = np.fromiter((cache[int(w)][v] for w in targets), np.float64, size)
    at_w = np.fromiter((cache[int(w)][w] for w in targets), np.float64, size)
    out = (z_v[v] - z_v[targets]) - at_v + at_w
    out[targets == v] = 0.0
    return out


@dataclass(frozen=True)
class ResistanceSketch:
    """Random projection whose column distances approximate resistances.

    ``z`` has one mean-centered row per projection direction; the squared
    Euclidean distance between columns u and v estimates the effective
    resistance d(u, v) with distortion controlled by ``epsilon``.
    """

    z: np.ndarray
    k: int
    epsilon: float
    seed: int
    max_residual: float = 0.0

    def __post_init__(self):
        self.z.setflags(write=False)

    @property
    def n(self) -> int:
        return self.z.shape[1]


def sketch_dimension(n: int, epsilon: float) -> int:
    """Number of projection rows: ``ceil(ln(n) / epsilon^2)``, at least 1."""
    return max(1, math.ceil(math.log(n) / epsilon**2))


def build_sketch(
    g: Graph,
    hierarchy: MultigridHierarchy,
    epsilon: float,
    seed: int,
    config: SolverConfig | None = None,
    threads: int = 1,
) -> ResistanceSketch:
    """Project the resistance embedding onto ``k`` random directions.

    Each projection row uses i.i.d. +-1/sqrt(k) signs, is pushed through
    the weighted incidence matrix by sparse multiplication, and is then
    solved against the Laplacian.  Deterministic for a fixed seed.

    Signs are drawn ``BLOCK_COLUMNS`` rows at a time, which leaves the
    random stream as one draw of all k rows would make it, and rows are
    pushed and solved in chunks of ``BLOCK_COLUMNS * threads`` that start
    on block boundaries, so ``z`` is independent of ``threads``.  Besides
    ``z``, memory is ``O(BLOCK_COLUMNS * threads * (n + m))``.
    """
    if not 0 < epsilon <= 1:
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    n, m = g.n, g.m
    if hierarchy.n != n:
        raise DomainError("hierarchy does not match graph")
    k = sketch_dimension(n, epsilon)
    b_inc, weights = incidence_and_weights(g)
    scaled_t = b_inc.multiply(np.sqrt(weights)[:, None]).T.tocsr()  # n x m
    del b_inc, weights

    rng = np.random.default_rng(seed)
    inv_sqrt_k = 1.0 / math.sqrt(k)
    z = np.empty((k, n))
    max_res = 0.0
    width = BLOCK_COLUMNS * max(1, threads)
    for start in range(0, k, width):
        # The chunk's right-hand sides are staged in the rows of ``z`` that
        # their solutions then overwrite.
        rhs = z[start : start + width]
        for lo in range(0, rhs.shape[0], BLOCK_COLUMNS):
            hi = min(lo + BLOCK_COLUMNS, rhs.shape[0])
            # Transposed on conversion, so the sparse product reads a
            # C-ordered m x rows block without a relayout copy.
            q_block = rng.integers(0, 2, size=(hi - lo, m)).T.astype(np.float64, order="C")
            q_block *= 2.0
            q_block -= 1.0
            q_block *= inv_sqrt_k
            rhs[lo:hi] = (scaled_t @ q_block).T
            del q_block  # the dense m-wide signs are dead once pushed to node space

        # Each row is a signed combination of incidence rows, so it must sum
        # to zero already; re-centering only removes accumulated roundoff.
        row_sums = rhs.sum(axis=1)
        scale = np.abs(rhs).sum(axis=1) + 1.0
        assert np.all(np.abs(row_sums) <= 1e-8 * scale), "sketch right-hand sides unbalanced"
        rhs -= rhs.mean(axis=1, keepdims=True)

        solved = solve_many(hierarchy, rhs, config, threads=threads)
        for row, pot in enumerate(solved):
            rhs[row] = pot.values
            max_res = max(max_res, pot.achieved_residual)
        del solved, pot  # each row is a view that keeps the chunk alive
    return ResistanceSketch(z=z, k=k, epsilon=epsilon, seed=seed, max_residual=max_res)


def sketch_distance(sketch: ResistanceSketch, u: int, v: int) -> float:
    """Squared Euclidean distance between sketch columns ``u`` and ``v``."""
    n = sketch.n
    if not (0 <= u < n and 0 <= v < n):
        raise DomainError("node ids out of range")
    if u == v:
        return 0.0
    diff = sketch.z[:, u] - sketch.z[:, v]
    return float(diff @ diff)


def sketch_distance_sums(
    sketch: ResistanceSketch, nodes: Sequence[int] | None = None
) -> np.ndarray:
    """Sum of sketch distances from each given node to all nodes.

    Evaluates ``sum_w ||z_v - z_w||^2`` in closed form from column norms
    and the product of the sketch with its row sums, avoiding the
    quadratic pairwise expansion and any copy of the sketch.
    """
    z = sketch.z
    col_sq = np.einsum("ij,ij->j", z, z)
    total_sq = col_sq.sum()
    cross = z.T @ z.sum(axis=1)
    n = sketch.n
    sums = total_sq + n * col_sq - 2.0 * cross
    if nodes is None:
        return sums
    idx = np.asarray(nodes, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DomainError("node ids out of range")
    return sums[idx]
