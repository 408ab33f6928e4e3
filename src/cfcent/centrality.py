"""Closeness-style centrality scores on connected graphs.

Five measures share the :class:`ScoreTable` result type: exact
current-flow closeness, its pivot-sampling and random-projection
estimators, shortest-path closeness, and the degree-based asymptotic
surrogate.  All five score a node by the one closeness rule
``c(v) = (n - 1) / sum_w d(v, w)``, with ``d`` the measure's distance
(:func:`_closeness`).  Scores of a connected graph with at least two
nodes are always positive.  The three current-flow measures read the
graph from the hierarchy alone, whose finest level is its Laplacian; the
other two read the :class:`Graph`.  :func:`score` dispatches on the measure.
Exact closeness solves the Laplacian for the nodes of a second cover
only: an independent set F1 of the graph and one F2 of the Schur
complement left by eliminating F1 are left over, and their pseudoinverse
diagonal follows from the solutions of the nodes solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import DomainError, UndefinedScoreError
from .graph import Graph
from .resistance import (
    _node_ids, node_solution_chunks, resistance_sums, sketch_blocks, sketch_dimension,
)
from .solver import MultigridHierarchy, _greedy_independent_set, _schur_complement

__all__ = [
    "CURRENT_FLOW",
    "Measure",
    "ScoreTable",
    "score",
    "cf_closeness_exact",
    "cf_closeness_sampling",
    "cf_closeness_projection",
    "sp_closeness",
    "degree_asymptotic",
]

SP_BLOCK_ROWS = 64  # query rows per shortest-path search, so memory is O(64 n)


class Measure(Enum):
    CF_EXACT = "cf_exact"
    CF_SAMPLING = "cf_sampling"
    CF_PROJECTION = "cf_projection"
    SP_CLOSENESS = "sp_closeness"
    DEGREE_ASYMPTOTIC = "degree_asymptotic"


CURRENT_FLOW = (Measure.CF_EXACT, Measure.CF_SAMPLING, Measure.CF_PROJECTION)


@dataclass(frozen=True)
class ScoreTable:
    """Centrality scores keyed by node id, with the producing parameters."""

    measure: Measure
    params: dict
    scores: dict[int, float]

    def vector(self, nodes: Sequence[int]) -> np.ndarray:
        return np.array([self.scores[int(v)] for v in nodes])


def _check_query(n: int, query_nodes: Sequence[int]) -> list[int]:
    if n < 2:
        raise DomainError("centrality needs a connected graph with n >= 2")
    nodes = _node_ids(query_nodes, n).tolist()
    if not nodes:
        raise DomainError("query node list is empty")
    return nodes


def _closeness(
    measure: Measure,
    params: dict,
    n: int,
    nodes: list[int],
    sums: np.ndarray,
    scale: float = 1.0,
) -> ScoreTable:
    """The closeness rule all five measures share: node ``nodes[i]`` scores
    ``scale * (n - 1) / sums[i]``, where ``sums[i]`` is its distance sum.

    A nonpositive sum raises :class:`UndefinedScoreError`.
    """
    scores: dict[int, float] = {}
    for v, total in zip(nodes, sums.tolist()):
        if total <= 0.0:
            raise UndefinedScoreError(f"distance sum of node {v} is {total}; score undefined")
        scores[v] = scale * (n - 1) / total
    return ScoreTable(measure, params, scores)


def pivot_set(n: int, k: int, seed: int) -> np.ndarray:
    """The shared pivot sample: k distinct nodes, uniform over subsets."""
    if not 1 <= k <= n:
        raise DomainError(f"pivot count must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False))


def _independent_set(lap: sp.csr_matrix) -> np.ndarray:
    """Greedy maximal independent set by ascending degree, ties by id.

    The nodes are visited in stable order of their stored entries in the
    Laplacian row ``lap``, which holds the diagonal besides the neighbors,
    so the count is one more than the unweighted degree for every node
    and orders the same; :func:`_greedy_independent_set` takes each node
    none of whose neighbors was taken.  Never every node: on a connected
    Laplacian that happens only for one node, which is then left out.
    Returns a boolean mask by node id.
    """
    mask = _greedy_independent_set(lap, np.argsort(np.diff(lap.indptr), kind="stable"))
    if mask.all():
        mask[-1:] = False
    return mask


def cf_closeness_exact(
    hierarchy: MultigridHierarchy,
    query_nodes: Sequence[int],
    *,
    threads: int = 1,
) -> ScoreTable:
    """Current-flow closeness from resistances to every other node.

    Exact up to the solver tolerance.  On a connected graph the resistance
    sum is ``sum_w R(v, w) = n L+_vv + tr L+``, so only the diagonal of
    the pseudoinverse is needed.  It is solved for on a second cover C2
    only, in two rounds of one identity, row ``v`` of ``L L+ = I - 11^T/n``
    with the symmetry of L+:

    * Round 1: F1 is the greedy maximal independent set by ascending
      degree (:func:`_independent_set`) and C1 the other nodes.  With
      ``w_vu = -L_vu`` and ``d_v = L_vv``, every neighbor of ``v`` in F1
      lies in C1 and ``L+_vv = (1 - 1/n + sum_u w_vu L+_uv) / d_v``.
    * Round 2: eliminating F1 leaves the Schur complement
      ``S = L_CC - W D_F^-1 W^T`` on C1, ``W = -L_{C1 F1}``
      (:func:`_schur_complement`), and ``S L+_{C1, v} = e_v - c`` for
      ``v`` in C1, with ``c = (1 + W D_F^-1 1) / n``.  F2 is
      :func:`_independent_set` of S, never all of C1, and C2 the rest of
      C1.  For ``v`` in F2, with ``s_vx = -S_vx`` and ``x`` over its
      S-neighbors, all in C2,
      ``L+_vv = (1 - c_v + sum_x s_vx L+_xv) / S_vv``, and for ``w`` in F1
      adjacent to ``v``, whose column of ``S L+`` is ``W_{:, w} / d_w - c``,
      ``L+_vw = (W_vw / d_w - c_v + sum_x s_vx L+_xw) / S_vv``.

    Only the rows of C2 are solved, each once, by
    :func:`node_solution_chunks`: 340 of 1000 nodes on BA 1000 m0=3, 1 on
    a star.  Substituting the F2 entries ``L+_vw`` into round 1 makes each
    diagonal entry a fixed combination of entries of the solved rows: a
    C2 node reads its own, an F2 node its S-neighbors', and an F1 node
    the C2 rows with the weights ``W_{C2 F1} + s_{C2 F2} S_F2^-1 W_{F2 F1}``,
    besides terms that read no solution.  Each chunk gathers its terms,
    one per (row, column, weight), and they are summed per column in row
    order after the last chunk, so the scores do not depend on
    ``threads``.  Memory is ``O(BLOCK_COLUMNS * threads * n + m + nnz(S))``
    plus one term per C2-F1 pair that those weights join.  The distance
    sum ``n L+_vv + tr L+`` goes to :func:`_closeness`.
    """
    lap = hierarchy.levels[0].matrix
    n = hierarchy.n
    nodes = _check_query(n, query_nodes)
    in_f1 = _independent_set(lap)
    f1, c1 = np.flatnonzero(in_f1), np.flatnonzero(~in_f1)
    schur, w_cf, d_f = _schur_complement(lap, in_f1)
    shift = (1.0 + w_cf @ (1.0 / d_f)) / n  # c, by position in C1
    in_f2 = _independent_set(schur)
    f2, c2 = np.flatnonzero(in_f2), np.flatnonzero(~in_f2)  # positions in C1
    f2_nodes, c2_nodes = c1[f2], c1[c2]
    s_f2 = schur.diagonal()[f2]
    w_f2 = w_cf[f2]
    c2_to_f2 = -schur[c2][:, f2]
    c2_to_f1 = w_cf[c2] + c2_to_f2 @ sp.diags(1.0 / s_f2) @ w_f2
    # The F2 terms of round 1 that read no solution.
    f1_known = (w_f2.multiply(w_f2).T @ (1.0 / s_f2)) / d_f - w_f2.T @ (shift[f2] / s_f2)

    gather = sp.hstack([sp.identity(c2.size), c2_to_f2, c2_to_f1], format="csr")
    row = np.repeat(np.arange(c2.size), np.diff(gather.indptr))
    col = np.concatenate([c2_nodes, f2_nodes, f1])[gather.indices]  # the blocks' nodes
    weight = gather.data
    terms = np.empty(weight.size)
    done = 0
    for chunk, z in node_solution_chunks(hierarchy, c2_nodes, threads=threads):
        lo, hi = np.searchsorted(row, [done, done + chunk.size])
        terms[lo:hi] = weight[lo:hi] * z[row[lo:hi] - done, col[lo:hi]]
        done += chunk.size
    diag = np.bincount(col, weights=terms, minlength=n)  # C2 holds its own entry
    diag[f2_nodes] = (1.0 - shift[f2] + diag[f2_nodes]) / s_f2
    diag[f1] = (1.0 - 1.0 / n + f1_known + diag[f1]) / d_f
    sums = n * diag[nodes] + float(diag.sum())
    return _closeness(Measure.CF_EXACT, {"tau": hierarchy.tau}, n, nodes, sums)


def cf_closeness_sampling(
    hierarchy: MultigridHierarchy,
    query_nodes: Sequence[int],
    k: int,
    seed: int,
    *,
    threads: int = 1,
) -> ScoreTable:
    """Pivot-sampling estimator of current-flow closeness.

    One pivot set of ``k`` distinct nodes is drawn uniformly (without
    replacement) and shared by every query node; the resistance sum over
    pivots (:func:`resistance_sums`) goes to :func:`_closeness` with the
    scale k/n, which estimates the sum over all nodes.  It takes each
    resistance by the diagonal rule ``R(v, p) = L+_vv + L+_pp - 2 L+_pv``,
    whose sum over every node is exact closeness's ``n L+_vv + tr L+``.
    Each pivot and query node is solved once; the pivot rows are kept
    only at the query nodes, and the diagonal entry of every solved node,
    so memory is ``O(BLOCK_COLUMNS * threads * n + k * q + n)`` for
    ``q`` query nodes.  A zero pivot distance sum (possible only for k=1
    with the query node as the pivot) raises :class:`UndefinedScoreError`.
    """
    n = hierarchy.n
    nodes = _check_query(n, query_nodes)
    sums = resistance_sums(hierarchy, nodes, pivot_set(n, k, seed), threads=threads)
    params = {"k": k, "seed": seed, "tau": hierarchy.tau}
    return _closeness(Measure.CF_SAMPLING, params, n, nodes, sums, scale=k / n)


def cf_closeness_projection(
    hierarchy: MultigridHierarchy,
    query_nodes: Sequence[int],
    epsilon: float,
    seed: int,
    *,
    threads: int = 1,
) -> ScoreTable:
    """Projection estimator: closeness from sketched resistance sums.

    The sketch ``z`` has ``k = sketch_dimension(n, epsilon)``
    mean-centered rows, so the sketched distance sum is
    ``sum_w ||z_v - z_w||^2 = sum_w ||z_w||^2 + n ||z_v||^2`` and only
    each node's ``||z_v||^2`` is needed.  It is added up per block of
    :func:`sketch_blocks`, in block order, as the blocks stream past, so
    the scores do not depend on ``threads`` and no ``k x n`` array is
    held: memory is ``O(BLOCK_COLUMNS * threads * n + SIGN_ROWS * m)``.
    The sketched sums go to :func:`_closeness`.
    """
    n = hierarchy.n
    nodes = _check_query(n, query_nodes)
    k = sketch_dimension(n, epsilon)
    col_sq = np.zeros(n)
    for z in sketch_blocks(hierarchy, k, seed, threads=threads):
        col_sq += np.einsum("ij,ij->j", z, z)
        del z  # hold no chunk while the next one is solved
    sums = col_sq.sum() + n * col_sq[nodes]
    params = {"epsilon": epsilon, "k": k, "seed": seed, "tau": hierarchy.tau}
    return _closeness(Measure.CF_PROJECTION, params, n, nodes, sums)


def sp_closeness(g: Graph, query_nodes: Sequence[int]) -> ScoreTable:
    """Shortest-path closeness; path length is the sum of edge weights.

    Breadth-first distances are used when all weights are 1, otherwise a
    priority-queue search.  The query nodes are searched from
    ``SP_BLOCK_ROWS`` at a time and each block of distance rows is
    reduced to its row sums before the next, so memory is
    ``O(SP_BLOCK_ROWS * n)`` for any number of query nodes.  The sums go
    to :func:`_closeness`.
    """
    nodes = _check_query(g.n, query_nodes)
    adjacency = g.adjacency_matrix()
    unweighted = bool(np.all(g.weights == 1.0))
    sums = []
    for start in range(0, len(nodes), SP_BLOCK_ROWS):
        block = nodes[start : start + SP_BLOCK_ROWS]
        dist = dijkstra(adjacency, indices=block, unweighted=unweighted, directed=False)
        if not np.all(np.isfinite(dist)):
            raise DomainError("graph is not connected")
        sums.append(dist.sum(axis=1))
    return _closeness(Measure.SP_CLOSENESS, {}, g.n, nodes, np.concatenate(sums))


def degree_asymptotic(g: Graph, query_nodes: Sequence[int]) -> ScoreTable:
    """Degree-based limit score: the distance is ``d(v, w) = 1/d_v + 1/d_w``
    for weighted degrees ``d``.

    The sum over ``w != v`` is ``(n - 1)/d_v + sum_{w != v} 1/d_w``, taken
    for every query node at once from the global sum of reciprocal
    degrees in O(n + m), and goes to :func:`_closeness`.
    """
    nodes = _check_query(g.n, query_nodes)
    deg = g.degrees()
    if np.any(deg <= 0):
        raise DomainError("graph is not connected")
    inv = 1.0 / deg
    n = g.n
    sums = (n - 1) * inv[nodes] + (inv.sum() - inv[nodes])
    return _closeness(Measure.DEGREE_ASYMPTOTIC, {}, n, nodes, sums)


def score(
    measure: Measure,
    g: Graph,
    hierarchy: MultigridHierarchy | None,
    query_nodes: Sequence[int],
    *,
    pivots: int = 20,
    epsilon: float = 0.2,
    seed: int = 0,
    threads: int = 1,
) -> ScoreTable:
    """Scores of one measure.

    The :data:`CURRENT_FLOW` measures read ``hierarchy`` only and the
    other two ``g`` only; the argument a measure does not read may be
    ``None``.  ``pivots`` is the pivot count of sampling, ``epsilon`` the
    distortion of projection, and ``seed`` draws either one's sample.
    """
    if measure is Measure.SP_CLOSENESS:
        return sp_closeness(g, query_nodes)
    if measure is Measure.DEGREE_ASYMPTOTIC:
        return degree_asymptotic(g, query_nodes)
    if measure is Measure.CF_EXACT:
        return cf_closeness_exact(hierarchy, query_nodes, threads=threads)
    if measure is Measure.CF_SAMPLING:
        return cf_closeness_sampling(hierarchy, query_nodes, pivots, seed, threads=threads)
    if measure is Measure.CF_PROJECTION:
        return cf_closeness_projection(hierarchy, query_nodes, epsilon, seed, threads=threads)
    raise DomainError(f"unknown measure {measure!r}")
