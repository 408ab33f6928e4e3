"""Effective resistance between node pairs, exact and sketched.

The exact route solves one Laplacian system per unit source/sink supply.
The amortized route solves ``L z_x = e_x - 1/n`` once per node ``x``
(:func:`node_solution_chunks` streams those solutions in fixed-width
blocks); row ``x`` of the solutions is row ``x`` of the pseudoinverse
L+, so a pairwise resistance is ``R(t, s) = L+_tt + L+_ss - 2 L+_st``,
the diagonal rule.  :func:`resistance_sums` is the one place that
applies it, summing the resistances from each target to a set of sources.
The sketched route projects the edge-space embedding whose pairwise
squared distances are the resistances onto a random low-dimensional
subspace, at the cost of one solve per sketch row; :func:`sketch_blocks`
streams the solved rows in fixed-width blocks, and :func:`sketch_dimension`
sizes the sketch for a distortion.  Every route reads the graph from the
hierarchy alone: its finest level is the Laplacian.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .solver import BLOCK_COLUMNS, MultigridHierarchy, _thread_count, solve_many

__all__ = [
    "effective_resistance",
    "node_solution_chunks",
    "resistance_sums",
    "sketch_dimension",
    "sketch_blocks",
]

SIGN_ROWS = 8  # sketch rows drawn and pushed per step, so the dense signs take O(8 m)


def _node_ids(nodes: Sequence[int], n: int) -> np.ndarray:
    """``nodes`` as a 1-D int64 array; :class:`DomainError` unless every
    id is an integer in ``[0, n)``."""
    ids = np.asarray(nodes).reshape(-1)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise DomainError("node ids must be integers")
    ids = ids.astype(np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise DomainError("node ids out of range")
    return ids


def effective_resistance(hierarchy: MultigridHierarchy, u: int, v: int) -> float:
    """Potential difference at ``u`` and ``v`` under a unit u-v supply.

    Returns exactly 0 for ``u == v`` without solving; positive for
    distinct nodes of a connected graph.
    """
    n = hierarchy.n
    u, v = _node_ids([u, v], n).tolist()
    if u == v:
        return 0.0
    b = np.zeros(n)
    b[u] = 1.0
    b[v] = -1.0
    x, _ = solve_many(hierarchy, b)
    return float(x[0, u] - x[0, v])


def node_solution_chunks(
    hierarchy: MultigridHierarchy,
    nodes: Sequence[int],
    *,
    threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream the solutions of ``L z_x = e_x - (1/n) 1`` for ``nodes``.

    Yields ``(chunk, z)`` in node order, where ``chunk`` holds the next
    ``BLOCK_COLUMNS * threads`` node ids and row ``i`` of ``z`` is
    the mean-centered solution for ``chunk[i]``; ``z`` is the array
    :func:`solve_many` returned.  Each chunk is one :func:`solve_many`
    call; chunks start on block boundaries, so every value is independent
    of ``threads``.  Only the current chunk is held, so memory is
    ``O(BLOCK_COLUMNS * threads * n)`` for any node count.  Node ids must
    be integers in ``[0, n)`` and ``threads`` at least 1, else
    :class:`DomainError`.
    """
    n = hierarchy.n
    nodes = _node_ids(nodes, n)
    width = BLOCK_COLUMNS * _thread_count(threads)
    for start in range(0, nodes.size, width):
        chunk = nodes[start : start + width]
        supplies = np.full((chunk.size, n), -1.0 / n)
        supplies[np.arange(chunk.size), chunk] += 1.0
        z, _ = solve_many(hierarchy, supplies, threads=threads)
        del supplies  # hold only ``z`` while the caller works
        yield chunk, z


def resistance_sums(
    hierarchy: MultigridHierarchy,
    targets: Sequence[int],
    sources: Sequence[int],
    *,
    threads: int = 1,
) -> np.ndarray:
    """Entry ``i`` is ``sum_s R(targets[i], s)`` over the distinct ``sources``.

    L+ is symmetric, so ``R(t, s) = L+_tt + L+_ss - 2 L+_st`` needs only
    the diagonal of L+ and the source rows at the targets.  Each distinct
    node is solved once (:func:`node_solution_chunks`): the sources stream
    first and each keeps its diagonal entry and its entries at the
    targets, an ``|S| x |T|`` block; the targets that are not sources
    stream next and keep only their diagonal entry.  The sum is
    ``|S| L+_tt + sum_s L+_ss - 2 sum_s L+_st``, the last term added in
    source order, so it is exactly 0 for ``t == s`` with one source and
    does not depend on ``threads``.  Memory is
    ``O(BLOCK_COLUMNS * threads * n + |S| * |T| + n)``.
    """
    n = hierarchy.n
    targets = _node_ids(targets, n)
    sources = np.unique(_node_ids(sources, n))
    diag = np.empty(n)
    kept = np.empty((sources.size, targets.size))
    done = 0
    for chunk, z in node_solution_chunks(hierarchy, sources, threads=threads):
        diag[chunk] = z[np.arange(chunk.size), chunk]
        kept[done : done + chunk.size] = z[:, targets]
        done += chunk.size
    rest = np.setdiff1d(targets, sources)
    for chunk, z in node_solution_chunks(hierarchy, rest, threads=threads):
        diag[chunk] = z[np.arange(chunk.size), chunk]
    return sources.size * diag[targets] + diag[sources].sum() - 2.0 * kept.sum(axis=0)


def sketch_dimension(n: int, epsilon: float) -> int:
    """Number of projection rows: ``ceil(ln(n) / epsilon^2)``, at least 1.

    The one check of ``epsilon``: it must lie in (0, 1].
    """
    if not 0 < epsilon <= 1:
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    return max(1, math.ceil(math.log(n) / epsilon**2))


def sketch_blocks(
    hierarchy: MultigridHierarchy,
    k: int,
    seed: int,
    *,
    threads: int = 1,
) -> Iterator[np.ndarray]:
    """Stream the ``k`` rows of the resistance sketch, solved, in node space.

    Projects the resistance embedding onto ``k`` random directions: each
    row uses i.i.d. +-1/sqrt(k) signs, is pushed through the weighted
    incidence matrix ``B^T W^(1/2)`` by sparse multiplication, and is then
    solved against the Laplacian, so the squared distance between columns
    u and v of the ``k x n`` sketch estimates the effective resistance
    R(u, v); ``k = sketch_dimension(n, epsilon)`` gives distortion
    ``epsilon``.  The incidence is read off the hierarchy's finest
    Laplacian ``L = B^T W B``: edge ``e = (u, v)``, ``u < v``, in
    ``(u, v)`` order, is column ``e`` with ``+sqrt(-L_uv)`` at ``u`` and
    ``-sqrt(-L_uv)`` at ``v``.

    Rows are drawn, pushed and solved in chunks of
    ``BLOCK_COLUMNS * threads``, and each solved chunk is yielded as its
    consecutive ``BLOCK_COLUMNS``-row blocks of mean-centered rows, in
    order; the generator holds no chunk once its last block is yielded.
    Signs are drawn ``SIGN_ROWS`` rows at a time, which leaves the random
    stream as one draw of all k rows would make it, so every value is
    independent of ``threads``.  Memory is
    ``O(BLOCK_COLUMNS * threads * n + SIGN_ROWS * m)``.  A ``k`` or
    ``threads`` below 1 raises :class:`DomainError` when the first block
    is asked for.
    """
    if k < 1:
        raise DomainError(f"sketch dimension must be >= 1, got {k}")
    width = BLOCK_COLUMNS * _thread_count(threads)
    n = hierarchy.n
    upper = sp.triu(hierarchy.levels[0].matrix, k=1, format="coo")
    m = upper.nnz
    root_w = np.sqrt(-upper.data)
    scaled_t = sp.csc_matrix(
        (np.stack([root_w, -root_w], axis=1).ravel(),
         np.stack([upper.row, upper.col], axis=1).ravel(),
         np.arange(0, 2 * m + 1, 2)),
        shape=(n, m),
    ).tocsr()
    del upper, root_w

    rng = np.random.default_rng(seed)
    inv_sqrt_k = 1.0 / math.sqrt(k)
    for start in range(0, k, width):
        rhs = np.empty((min(width, k - start), n))
        for lo in range(0, rhs.shape[0], SIGN_ROWS):
            hi = min(lo + SIGN_ROWS, rhs.shape[0])
            # Transposed on conversion, so the sparse product reads a
            # C-ordered m x rows block without a relayout copy.
            q_block = rng.integers(0, 2, size=(hi - lo, m)).T.astype(np.float64, order="C")
            q_block *= 2.0
            q_block -= 1.0
            q_block *= inv_sqrt_k
            rhs[lo:hi] = (scaled_t @ q_block).T
            del q_block  # the dense m-wide signs are dead once pushed to node space

        # Each row is a signed combination of incidence rows, so it must
        # sum to zero already; re-centering only removes accumulated roundoff.
        row_sums = rhs.sum(axis=1)
        scale = np.abs(rhs).sum(axis=1) + 1.0
        assert np.all(np.abs(row_sums) <= 1e-8 * scale), "sketch right-hand sides unbalanced"
        rhs -= rhs.mean(axis=1, keepdims=True)

        z, _ = solve_many(hierarchy, rhs, threads=threads)
        del rhs
        for lo in range(0, z.shape[0], BLOCK_COLUMNS):
            yield z[lo : lo + BLOCK_COLUMNS]
        del z  # hold no chunk while the next one is drawn and solved
