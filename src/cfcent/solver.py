"""Multigrid solver for Laplacian systems of connected graphs.

Each level is coarsened by one rule, as in LAMG (Livne & Brandt 2012):
eliminate, else aggregate, else stop.  Elimination removes an independent
set of low-degree nodes exactly via the Schur complement; aggregation
partitions nodes by the affinity of relaxed test vectors and coarsens with
the Galerkin product of the piecewise-constant interpolation.  Each must
remove ``MIN_REDUCTION`` of the level's nodes; where neither does, the
level is the coarsest.  Before the first aggregation, where elimination
first stops, a fixed probe decides whether aggregation pays at all: if
Jacobi-preconditioned conjugate gradients converges there within
``PROBE_ITERATIONS``, as on expanders such as Barabasi-Albert graphs
(Mihail, Papadimitriou & Saberi 2006), that level is the coarsest, kept
without a pseudoinverse, and solves iterate on it preconditioned by two
damped-Jacobi sweeps, a polynomial in ``D^-1 L`` (Saad 1985); meshes and
widely spread edge weights fail the probe and aggregate.  The probe column
and the aggregation test vectors each draw from a generator of their own
seeded with ``SETUP_SEED``, so ``setup`` takes only ``tau`` and the
hierarchy depends on the Laplacian alone.
Elimination, aggregation seeding and the smoother's color classes pick
their independent sets with one greedy loop over the nodes; aggregation
attaches the other nodes in rounds of whole-array passes over the level's
edges.  Each aggregation candidate level is split once into color classes,
one greedy independent set after another in descending degree order, each
stored as its own block of update rows, ``-a_vj / a_vv`` and ``1 / a_vv``
on the stacked block ``[x; b]``; the same classes smooth the test vectors
and serve the V-cycle.  The V-cycle smooths with multicolor Gauss-Seidel,
one sparse product and one row scatter per class, restricts through a
stored transpose of the interpolation, and scales the coarse-grid
correction by an energy line search taken on the coarse Galerkin
operator.  Each of its levels works on one stacked block that its parent
fills.  A solve restricts its block once through the leading
elimination levels, which are exact, and runs one flexible conjugate
gradient routine on the reduced system with one V-cycle as the
preconditioner of every iteration (a reduced system that is the coarsest
level is solved directly, or, when it passed the probe, preconditioned by
the two Jacobi sweeps); each column is back-substituted to the finest
level when it converges.  Columns that run out of iterations, break down
or miss the tolerance when their residual is recomputed on the finest
level are finished by the safety net: the same path, restrict, iterate
and back-substitute, with a Jacobi preconditioner on the reduced system.
The contract is a recomputed relative residual at most ``tau`` for every
column, or :class:`ConvergenceError` when even the safety net misses it.

The V-cycle is only a preconditioner, so it runs in float32 from the
reduced system down: smoothing, residuals, transfers, line searches, the
elimination levels below the reduced system and the coarsest solve.  The
color classes, the aggregation interpolation and its transpose are built
in float32, and the test vectors are relaxed in float32 on those classes;
``setup`` casts only what depends on a level's place in the hierarchy,
once.  The Jacobi sweeps on a probe-passed reduced system run in float32
too, on a float32 copy of its matrix values.  The flexible conjugate
gradient routine takes the cycle's or the sweeps' float32 result as it
is (Notay 2000).  That routine, the leading elimination levels, the level
matrices, the affinities, the recomputed finest residual, the safety net
and the ``tau`` check stay in float64, so the contract is unchanged.

Singularity of the Laplacian is handled by mean-centering supplies and
iterates; a coarsest level that did not pass the probe keeps its dense
pseudoinverse ``L+ = (L + J/n)^-1 - J/n``, so a coarsest solve is one
dense product.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .errors import ConvergenceError, DomainError

__all__ = [
    "LevelKind",
    "ColorClass",
    "Level",
    "MultigridHierarchy",
    "setup",
    "coarsen_eliminate",
    "coarsen_aggregate",
    "color_classes",
    "relaxed_test_vectors",
    "solve_many",
]

# Fixed algorithm parameters; ``setup`` takes only ``tau``.
AFFINITY_THRESHOLD = 0.5
AGGREGATION_TEST_VECTORS = 4
TEST_VECTOR_SWEEPS = 3
ELIMINATION_DEGREE_CAP = 4    # most neighbors of an eliminated node
MAX_AGGREGATE_SIZE = 8        # unbounded growth destroys mesh convergence
MIN_REDUCTION = 0.10          # a stage must shrink the level by 10% to be used
SMOOTHING_STEPS = (1, 2)      # (pre, post) multicolor Gauss-Seidel sweeps
MAX_DIRECT_SIZE = 200         # levels this small are solved directly
MAX_CYCLES = 100              # flexible-PCG iterations per column, then the net
PROBE_ITERATIONS = 30         # Jacobi-CG probe cap; BA 16k to 1M needs 11-12,
                              # ER 20k 15, grid 100 (fails) 155
JACOBI_WEIGHT = 0.8           # damping of the sweeps on a probe-passed level;
                              # w (2 - w l) > 0 on [0, 2], bipartite graphs too
SETUP_SEED = 0                # seeds the probe column and, separately, the
                              # aggregation test vectors
BLOCK_COLUMNS = 64            # fixed so results never depend on thread count
STOP_MARGIN = 0.9             # iterate slightly past tau so independently
                              # recomputed residuals stay below it


class LevelKind(Enum):
    ELIMINATION = "elimination"
    AGGREGATION = "aggregation"
    COARSEST = "coarsest"


@dataclass(frozen=True)
class ColorClass:
    """One Gauss-Seidel color class: pairwise non-adjacent nodes and their
    update rows in float32, the V-cycle's precision.

    On a level of ``n`` nodes the rows act on the stacked block ``[x; b]``
    of ``2 n`` rows: node ``v``'s row holds ``-a_vj / a_vv`` at column
    ``j != v`` and ``1 / a_vv`` at column ``n + v``, so one product gives
    the class's new ``x`` (:func:`_sweep`)."""

    nodes: np.ndarray
    rows: sp.csr_matrix


@dataclass
class Level:
    """One hierarchy level: its Laplacian plus transfer data to the next.

    ``matrix32`` is ``matrix`` in float32, sharing its index arrays, on
    the levels whose matrix the V-cycle multiplies and on a probe-passed
    coarsest level, which the Jacobi sweeps multiply; what else only the
    cycle reads is float32 too: ``p``, its transpose ``pt`` as CSR (the
    restriction) and ``colors`` as they are built, the rest as
    :func:`_store_cycle_data_in_single` casts it.
    """

    kind: LevelKind
    matrix: sp.csr_matrix
    matrix32: sp.csr_matrix | None = None
    # elimination transfer
    f_nodes: np.ndarray | None = None
    c_nodes: np.ndarray | None = None
    f_degree: np.ndarray | None = None
    w_cf: sp.csr_matrix | None = None
    # aggregation transfer and smoother
    p: sp.csr_matrix | None = None
    pt: sp.csr_matrix | None = None
    colors: tuple[ColorClass, ...] = ()
    # coarsest-level dense pseudoinverse
    pinv: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass
class SolveStats:
    """Aggregate bookkeeping across solves on one hierarchy.

    ``cycles`` counts V-cycle applications summed over columns;
    ``iterations`` counts flexible-CG iterations of both passes summed
    over columns; ``fallback_solves`` counts columns finished by the
    safety net.
    """

    solves: int = 0
    max_residual: float = 0.0
    fallback_solves: int = 0
    cycles: int = 0
    iterations: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(
        self, residuals: np.ndarray, fallbacks: int, cycles: int, iterations: int
    ) -> None:
        with self._lock:
            self.solves += residuals.size
            if residuals.size:
                self.max_residual = max(self.max_residual, float(residuals.max()))
            self.fallback_solves += fallbacks
            self.cycles += cycles
            self.iterations += iterations


@dataclass
class MultigridHierarchy:
    """The levels, finest first, and the relative residual ``tau`` every
    solve on them must reach."""

    levels: list[Level]
    tau: float
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def n(self) -> int:
        return self.levels[0].size

    @property
    def level_sizes(self) -> list[int]:
        return [lvl.size for lvl in self.levels]

    def describe(self) -> list[dict]:
        """One entry per level, finest first: kind, size, matrix nonzeros,
        number of smoother color classes (0 off aggregation levels), the
        bytes of every array the level keeps, shared ones once, and, on
        the reduced system only, the preconditioner its solves use
        (:func:`_preconditioner`; ``None`` on the other levels)."""
        top = _top(self.levels)
        return [
            {
                "kind": lvl.kind.value,
                "size": lvl.size,
                "nnz": int(lvl.matrix.nnz),
                "colors": len(lvl.colors),
                "bytes": _level_bytes(lvl),
                "preconditioner": _preconditioner(lvl) if j == top else None,
            }
            for j, lvl in enumerate(self.levels)
        ]


def _level_bytes(level: Level) -> int:
    """Bytes of the arrays ``level`` keeps; an array that several of its
    matrices share (``matrix32``'s index arrays) counts once."""
    matrices = [level.matrix, level.matrix32, level.w_cf, level.p, level.pt]
    matrices += [cls.rows for cls in level.colors]
    arrays = [level.f_nodes, level.c_nodes, level.f_degree, level.pinv]
    arrays += [cls.nodes for cls in level.colors]
    arrays += [
        a for m in matrices if m is not None for a in (m.data, m.indices, m.indptr)
    ]
    buffers = {(a.ctypes.data, a.nbytes) for a in arrays if a is not None}
    return sum(nbytes for _, nbytes in buffers)


def _max_abs(matrix: sp.spmatrix) -> float:
    return float(np.abs(matrix.data).max()) if matrix.nnz else 0.0


def _rebuild_laplacian(
    matrix: sp.spmatrix, transpose: sp.csr_matrix | None = None
) -> sp.csr_matrix:
    """Symmetrize and restore exact zero row sums after sparse products.

    Off-diagonal entries that turned nonnegative through roundoff are
    dropped; the diagonal is rebuilt as minus the off-diagonal row sum,
    so every level is a Laplacian by construction, and it is stored even
    where it is 0.  ``transpose`` is ``matrix.T`` as CSR, for a caller
    that already has it.  The rows come out sorted.
    """
    matrix = matrix.tocsr()
    sym = (matrix + (matrix.T if transpose is None else transpose)) * 0.5
    n = sym.shape[0]
    rows = np.repeat(np.arange(n), np.diff(sym.indptr))
    keep = (sym.indices != rows) & (sym.data < 0)
    # Summed in storage order, before any sorting, so the diagonal keeps
    # its bits whatever order the product left the rows in.
    diag = np.bincount(rows[keep], weights=-sym.data[keep], minlength=n)
    sym.data[~keep] = 0.0
    sym.eliminate_zeros()
    # The identity stores every diagonal slot, so a zero diagonal stays.
    lap = sym + sp.eye(n, format="csr")
    lap.setdiag(diag)
    lap.sort_indices()
    return lap


def _validate_laplacian(matrix: sp.spmatrix) -> sp.csr_matrix:
    if matrix.shape[0] != matrix.shape[1]:
        raise DomainError("matrix must be square")
    if matrix.shape[0] == 0:
        raise DomainError("matrix is empty")
    matrix = matrix.tocsr()
    if not np.isfinite(matrix.data).all():
        raise DomainError("matrix has a non-finite entry")
    n = matrix.shape[0]
    scale = _max_abs(matrix)
    tol = 1e-12 * n * max(scale, 1.0)
    # One transpose serves the symmetry check and the rebuild.
    transpose = matrix.T.tocsr()
    asym = matrix - transpose
    if asym.nnz and np.abs(asym.data).max() > tol:
        raise DomainError("matrix is not symmetric")
    rowsums = np.asarray(matrix.sum(axis=1)).ravel()
    if np.abs(rowsums).max(initial=0.0) > tol:
        raise DomainError("row sums are not zero; not a Laplacian")
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    off = matrix.indices != rows
    if off.any() and matrix.data[off].max() > tol:
        raise DomainError("positive off-diagonal entry; not a Laplacian")
    # Connectivity on the rebuilt matrix, whose edges are the negative
    # entries alone: stored zeros and roundoff-positive entries are gone.
    lap = _rebuild_laplacian(matrix, transpose)
    if breadth_first_order(lap, 0, return_predecessors=False).size < n:
        raise DomainError("Laplacian graph is not connected")
    return lap


def _off_diagonal_degree(matrix: sp.csr_matrix) -> np.ndarray:
    """Per node, the stored entries of its row off the diagonal."""
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
    return np.bincount(rows[matrix.indices != rows], minlength=n)


def _greedy_independent_set(matrix: sp.csr_matrix, order: np.ndarray) -> np.ndarray:
    """Greedy independent set as a boolean mask: the nodes of ``order`` are
    visited in that order, and each is taken unless a node of its row of
    ``matrix`` was taken before it."""
    # Memoryviews hand out one row's entries as ints at a time, faster than
    # numpy slices and without a list of every entry of the level.
    indptr, indices = memoryview(matrix.indptr), memoryview(matrix.indices)
    blocked = [False] * matrix.shape[0]
    taken = []
    for i in order.tolist():
        if not blocked[i]:
            taken.append(i)
            for j in indices[indptr[i]:indptr[i + 1]]:
                blocked[j] = True
    mask = np.zeros(matrix.shape[0], dtype=bool)
    mask[taken] = True
    return mask


def _schur_complement(
    matrix: sp.csr_matrix, in_f: np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Eliminate the independent set ``in_f`` (a boolean mask) exactly.

    With F the masked nodes and C the others, both in ascending id,
    returns ``(S, w_cf, d_f)``: the Schur complement
    ``S = L_CC - w_cf D_F^-1 w_cf^T`` on C, again a Laplacian
    (:func:`_rebuild_laplacian`), the weights ``w_cf = -L_CF`` and the
    diagonal ``d_f`` of ``L_FF``, which is diagonal because F is
    independent.
    """
    f, c = np.flatnonzero(in_f), np.flatnonzero(~in_f)
    d_f = matrix.diagonal()[f]
    rows_c = matrix[c]
    w_cf = -rows_c[:, f]
    schur = rows_c[:, c] - w_cf @ sp.diags(1.0 / d_f) @ w_cf.T
    return _rebuild_laplacian(schur), w_cf, d_f


def coarsen_eliminate(matrix: sp.csr_matrix) -> tuple[sp.csr_matrix, Level | None]:
    """Exact Schur-complement elimination of an independent low-degree set.

    The set is :func:`_greedy_independent_set` over the nodes with at most
    ``ELIMINATION_DEGREE_CAP`` neighbors in ascending id, and never all of
    the nodes.  Returns the Schur complement on the remaining nodes (again
    a Laplacian) and the elimination level that transfers to it, or
    ``(matrix, None)`` when fewer than ``MIN_REDUCTION`` of the nodes are
    selected; that is decided before the Schur complement is built, so a
    rejected elimination costs only the selection.
    """
    matrix = matrix.tocsr()
    n = matrix.shape[0]
    offdeg = _off_diagonal_degree(matrix)
    in_f = _greedy_independent_set(matrix, np.flatnonzero(offdeg <= ELIMINATION_DEGREE_CAP))
    if in_f.all():
        in_f[-1:] = False  # never eliminate every node
    if in_f.sum() < MIN_REDUCTION * n:
        return matrix, None

    schur, w_cf, d_f = _schur_complement(matrix, in_f)
    return schur, Level(
        kind=LevelKind.ELIMINATION,
        matrix=matrix,
        f_nodes=np.flatnonzero(in_f),
        c_nodes=np.flatnonzero(~in_f),
        f_degree=d_f,
        w_cf=w_cf,
    )


def relaxed_test_vectors(colors: Sequence[ColorClass], rng: np.random.Generator) -> np.ndarray:
    """``AGGREGATION_TEST_VECTORS`` mean-free random vectors smoothed by
    multicolor Gauss-Seidel sweeps on Lx=0 over the level's color classes
    ``colors``, which partition its nodes and so give its size.

    The standard-normal draw is cast to float32 once and swept in float32,
    the precision of the classes, as the upper half of a stacked block
    whose lower half, the right-hand side, is zero; the vectors only rank
    the affinities, which :func:`coarsen_aggregate` computes in float64.
    """
    n = sum(cls.nodes.size for cls in colors)
    stacked = np.zeros((2 * n, AGGREGATION_TEST_VECTORS), dtype=np.float32)
    vectors = stacked[:n]
    vectors[...] = rng.standard_normal((n, AGGREGATION_TEST_VECTORS))
    vectors -= vectors.mean(axis=0, keepdims=True)
    for _ in range(TEST_VECTOR_SWEEPS):
        _sweep(colors, stacked)
    vectors -= vectors.mean(axis=0, keepdims=True)
    return vectors


def _upper_edges(matrix: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Every edge once as ``(u, v)`` with ``u < v``, grouped by ``u``."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    upper = matrix.indices > rows
    return rows[upper], matrix.indices[upper]


def coarsen_aggregate(
    matrix: sp.csr_matrix, test_vectors: np.ndarray, seeds: np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Affinity-based aggregation with Galerkin coarse operator.

    The affinity of two nodes is the squared normalized inner product of
    their test-vector samples, computed once per edge.  ``seeds`` is the
    boolean mask of the aggregate seeds; :func:`setup` passes the greedy
    independent set in ascending id (:func:`_greedy_independent_set`),
    which keeps aggregates compact.  The other nodes then attach in rounds
    until none does: every unattached node proposes to its best eligible
    neighbor (already aggregated, affinity above the threshold, aggregate
    below ``MAX_AGGREGATE_SIZE``; highest affinity first, ties to the
    lowest id), and each aggregate accepts proposals in ascending node id
    up to its free room.  Nodes left over become singletons.  The cap
    matters on smooth problems: nearly every affinity clears the
    threshold there, and unbounded aggregates grow into shapes that
    piecewise-constant interpolation cannot represent.  Attachment works
    on whole arrays; its Python loops run over rounds and test vectors,
    and only the seeding visits one node at a time.

    Returns the coarse Laplacian ``P.T @ L @ P`` and the interpolation
    ``P``, which has one unit entry per row: node ``i`` belongs to
    aggregate ``P.indices[i]``.  ``P`` is float32, the V-cycle's precision;
    its unit entries are exact, and the Galerkin product upcasts them, so
    the coarse Laplacian is the float64 one.  A partition always exists;
    with all-singleton aggregates the stage is simply non-reducing.
    """
    matrix = matrix.tocsr()
    n = matrix.shape[0]
    u, v = _upper_edges(matrix)

    # Affinities on one triangle, one test vector at a time, in place, so
    # the temporaries are a few floats per edge.
    x = np.asarray(test_vectors, dtype=np.float64)
    norms2 = np.einsum("ij,ij->i", x, x)
    aff = np.zeros(u.size)
    for col in x.T:
        aff += col[u] * col[v]
    aff *= aff
    denom = norms2[u] * norms2[v]
    # A zero norm means a zero test-vector row, so its affinity stays 0.
    np.divide(aff, denom, out=aff, where=denom > 0)
    strong = aff > AFFINITY_THRESHOLD
    # Directed strong edges out of the non-seeds, each node's entries in
    # preference order: highest affinity, then lowest neighbor id.
    out_u = strong & ~seeds[u]
    out_v = strong & ~seeds[v]
    node = np.r_[u[out_u], v[out_v]]
    nbr = np.r_[v[out_u], u[out_v]]
    order = np.lexsort((nbr, -np.r_[aff[out_u], aff[out_v]], node))
    node, nbr = node[order], nbr[order]

    n_seeds = int(seeds.sum())
    agg = -np.ones(n, dtype=np.int64)
    agg[seeds] = np.arange(n_seeds)
    room = np.full(n_seeds + 1, MAX_AGGREGATE_SIZE - 1)
    room[-1] = 0  # agg == -1 reads this: not aggregated, not eligible
    while node.size:
        target = agg[nbr]
        eligible = np.flatnonzero(room[target] > 0)
        if eligible.size == 0:
            break
        first = eligible[np.r_[True, node[eligible[1:]] != node[eligible[:-1]]]]
        who, where = node[first], target[first]
        # Per aggregate, proposals in ascending node id (stable sort keeps
        # ``who`` ascending within a target) fill the free room.
        by = np.argsort(where, kind="stable")
        grouped = where[by]
        rank = np.arange(by.size) - np.searchsorted(grouped, grouped)
        accepted = by[rank < room[grouped]]
        agg[who[accepted]] = where[accepted]
        room[:-1] -= np.bincount(where[accepted], minlength=n_seeds)
        # Drop attached nodes and edges into aggregates that are full.
        target = agg[nbr]
        live = (agg[node] < 0) & ((target < 0) | (room[target] > 0))
        node, nbr = node[live], nbr[live]

    left = agg < 0
    n_agg = n_seeds + int(left.sum())
    agg[left] = np.arange(n_seeds, n_agg)
    p = sp.csr_matrix((np.ones(n, dtype=np.float32), (np.arange(n), agg)), shape=(n, n_agg))
    return _rebuild_laplacian(p.T @ matrix @ p), p


def _tie_break(n: int) -> np.ndarray:
    """Fixed pseudo-random key per node id (the splitmix64 finalizer).

    It orders nodes of equal degree for :func:`color_classes`.  Being
    seedless, it keeps the classes independent of the test vectors' draw
    and of the thread count.  Any fixed key would do, but changing it changes
    every hierarchy.
    """
    z = np.arange(n, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def color_classes(matrix: sp.csr_matrix) -> tuple[ColorClass, ...]:
    """Partition the nodes of a level into Gauss-Seidel color classes.

    First-fit coloring in descending priority: each node gets the smallest
    color that none of its higher-priority neighbors has.  Priority is the
    off-diagonal degree, ties broken by :func:`_tie_break`, so the classes
    depend on the matrix pattern alone.  Color ``c`` is the
    :func:`_greedy_independent_set` over the nodes left after colors
    ``0 .. c - 1``, in priority order.  Returns one :class:`ColorClass`
    per color: its ascending node ids and their float32 update rows on the
    stacked block ``[x; b]``.  The rows are made in one pass over the
    level's stored entries, each diagonal slot becoming the ``b`` slot, so
    they keep the level's pattern and entry order.
    """
    matrix = matrix.tocsr()
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    on_diag = matrix.indices == rows
    values = (np.where(on_diag, 1.0, -matrix.data) / matrix.diagonal()[rows]).astype(np.float32)
    update = sp.csr_matrix((values, matrix.indices + n * on_diag, matrix.indptr), shape=(n, 2 * n))
    order = np.lexsort((_tie_break(n), _off_diagonal_degree(matrix)))[::-1]
    classes = []
    while order.size:
        taken = _greedy_independent_set(matrix, order)
        nodes = np.flatnonzero(taken)
        classes.append(ColorClass(nodes, update[nodes]))
        order = order[~taken[order]]
    return tuple(classes)


def _single(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix`` with float32 values, sharing its index arrays."""
    return sp.csr_matrix(
        (matrix.data.astype(np.float32), matrix.indices, matrix.indptr), shape=matrix.shape
    )


def _top(levels: Sequence[Level]) -> int:
    """The first level that is not an elimination level: a solve's
    reduced system, and the level its V-cycles start from."""
    return next(j for j, lvl in enumerate(levels) if lvl.kind is not LevelKind.ELIMINATION)


def _preconditioner(level: Level) -> str:
    """What preconditions the flexible CG on ``level`` as a reduced system:
    ``"cycle"`` on an aggregation level, ``"direct"`` on a coarsest level
    with its pseudoinverse, ``"jacobi"`` on one that passed setup's probe
    (:func:`_jacobi_converges`) and keeps no pseudoinverse: two damped
    Jacobi sweeps in float32 (:func:`_jacobi_sweeps`)."""
    if level.kind is not LevelKind.COARSEST:
        return "cycle"
    return "direct" if level.pinv is not None else "jacobi"


def _store_cycle_data_in_single(levels: list[Level]) -> None:
    """Cast to float32 what the V-cycle or the Jacobi sweeps read,
    depending on each level's place in the hierarchy.

    The cycle is the preconditioner of a float64 flexible CG, which
    accepts an inexact, varying preconditioner (Notay 2000), so it runs
    from ``levels[top]`` down in single precision.  The classes, ``p`` and
    ``pt`` of the aggregation levels are built in float32; what is cast
    here is what the place decides: the transfers of the elimination
    levels below ``top``, the coarsest pseudoinverse unless the coarsest
    level is ``top`` (a solve then applies it once, exactly), and
    ``matrix32`` on the levels the cycle multiplies and on a coarsest
    level without a pseudoinverse, which passed the probe and whose
    matrix the sweeps multiply (:func:`_jacobi_sweeps`); it is the only
    float32 array of such a hierarchy.  ``matrix`` stays float64
    everywhere, as do the leading elimination levels, which a solve
    restricts and back-substitutes through exactly.
    """
    top = _top(levels)
    for j in range(top, len(levels)):
        level = levels[j]
        if level.kind is LevelKind.AGGREGATION:
            # The residual and, on the next level, the line search.
            for lvl in (level, levels[j + 1]):
                if lvl.matrix32 is None:
                    lvl.matrix32 = _single(lvl.matrix)
        elif level.kind is LevelKind.ELIMINATION:
            level.w_cf = _single(level.w_cf)
            level.f_degree = level.f_degree.astype(np.float32)
        elif level.pinv is None:
            # A probe-passed reduced system: its Jacobi sweeps' product.
            level.matrix32 = _single(level.matrix)
        elif j > top:
            level.pinv = level.pinv.astype(np.float32)


def _pseudoinverse(matrix: sp.csr_matrix) -> np.ndarray:
    """Dense ``L+ = (L + J/n)^-1 - J/n`` of a connected-graph Laplacian:
    adding the all-ones ``J/n`` lifts the null space to eigenvalue 1."""
    n = matrix.shape[0]
    pinv = np.linalg.inv(matrix.toarray() + 1.0 / n)
    pinv -= 1.0 / n
    return pinv


def _direct_solve(level: Level, b: np.ndarray) -> np.ndarray:
    x = level.pinv @ b
    x -= x.mean(axis=0, keepdims=True)
    return x


def _jacobi(matrix: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """The Jacobi preconditioner of ``matrix``: a block scaled row by row
    by the inverse diagonal."""
    dinv = 1.0 / np.maximum(matrix.diagonal(), np.finfo(float).tiny)[:, None]
    return lambda r: dinv * r


def _jacobi_sweeps(level: Level) -> Callable[[np.ndarray], np.ndarray]:
    """Two damped-Jacobi sweeps from zero on a probe-passed ``level``, in
    float32: ``z = w D^-1 (2 r - L w D^-1 r)`` with ``w = JACOBI_WEIGHT``.

    On ``D^-1 L``, whose spectrum lies in ``[0, 2]``, this is the
    polynomial ``w (2 - w l)``, positive there, so the preconditioner is
    SPD on bipartite graphs too.  Beside the float64 ``r`` it holds two
    float32 blocks: ``y = 2 w D^-1 r``, made straight from ``r``, and the
    product ``L y``, which the second sweep overwrites with
    ``y - (w / 2) D^-1 L y``.  Doubling and halving are exact, so these
    are the bits of ``2 y' - w D^-1 L y'`` for ``y' = w D^-1 r``, one
    pass fewer.
    """
    tiny = np.finfo(float).tiny
    wdinv = (JACOBI_WEIGHT / np.maximum(level.matrix.diagonal(), tiny)).astype(np.float32)[:, None]
    twice, minus_half = 2 * wdinv, -0.5 * wdinv

    def sweeps(r: np.ndarray) -> np.ndarray:
        y = np.multiply(twice, r, dtype=np.float32)
        z = level.matrix32 @ y
        z *= minus_half
        z += y
        return z

    return sweeps


def _jacobi_iteration_cap(n: int) -> int:
    """Most Jacobi-preconditioned iterations a column of an ``n``-node
    system gets, in the main pass on a Jacobi reduced level and in the
    safety net alike."""
    return max(2000, int(50 * np.sqrt(n)))


def _jacobi_converges(matrix: sp.csr_matrix, tau: float) -> bool:
    """Setup's probe: whether Jacobi-preconditioned :func:`_fcg` on
    ``matrix`` reaches ``STOP_MARGIN * tau`` within ``PROBE_ITERATIONS``
    on one mean-centered standard-normal column drawn from a generator of
    its own, seeded with ``SETUP_SEED``.

    Expanders such as Barabasi-Albert and Erdos-Renyi graphs pass it in a
    bounded number of iterations; meshes, which lack a spectral gap, and
    widely spread edge weights fail it.
    """
    b = np.random.default_rng(SETUP_SEED).standard_normal((matrix.shape[0], 1))
    b -= b.mean()
    iteration = _fcg(
        matrix, np.zeros_like(b), b, _column_norms(b), STOP_MARGIN * tau,
        PROBE_ITERATIONS, _jacobi(matrix),
    )
    _, _, converged = next(iteration)
    return bool(converged[0])


def setup(matrix: sp.spmatrix, *, tau: float = 1e-5) -> MultigridHierarchy:
    """Build the multigrid hierarchy for a connected-graph Laplacian.

    ``tau`` is the relative residual every solve on the hierarchy must
    reach, in (0, 1): the zero vector already meets a residual of 1.
    The hierarchy depends on the matrix alone: the aggregation test
    vectors draw from a generator seeded with ``SETUP_SEED``.  One rule
    per level above ``MAX_DIRECT_SIZE``: eliminate if
    :func:`coarsen_eliminate` gives a level, else aggregate if that removes
    at least ``MIN_REDUCTION`` of the nodes, else stop.  An aggregation
    whose seeds are too few to reach that bound even with every aggregate
    full is not attempted.  The coarsest level
    gets the dense pseudoinverse; it is at most ``MAX_DIRECT_SIZE`` or the
    level where coarsening stalled, which happens on dense levels.

    The first level that elimination does not reduce, under elimination
    levels alone, is first probed (:func:`_jacobi_converges`).  If
    Jacobi-preconditioned CG converges there, aggregation would cost more
    than it saves: that level becomes the coarsest, with no pseudoinverse,
    and solves precondition their iteration on it with two damped-Jacobi
    sweeps (:func:`_jacobi_sweeps`).  The probe
    builds its own generator from ``SETUP_SEED`` and draws nothing from the
    test vectors' one, so hierarchies that fail it are the ones
    aggregation builds without it.  A clique, where nothing is
    eliminated or aggregated, passes: Jacobi is exact on its mean-free
    vectors.
    """
    if not 0 < tau < 1:
        raise DomainError(f"tau must be in (0, 1), got {tau}")
    current = _validate_laplacian(matrix)
    rng = np.random.default_rng(SETUP_SEED)
    levels: list[Level] = []
    probe_passed = False

    while current.shape[0] > MAX_DIRECT_SIZE:
        coarse, level = coarsen_eliminate(current)
        if level is None:
            if all(lvl.kind is LevelKind.ELIMINATION for lvl in levels):
                probe_passed = _jacobi_converges(current, tau)
                if probe_passed:
                    break
            # A seed gathers at most MAX_AGGREGATE_SIZE - 1 other nodes, so
            # too few seeds fail the stage before it is colored or relaxed.
            seeds = _greedy_independent_set(current, np.arange(current.shape[0]))
            if (MAX_AGGREGATE_SIZE - 1) * seeds.sum() < MIN_REDUCTION * current.shape[0]:
                break
            # One coloring serves the test vectors and the smoother.
            colors = color_classes(current)
            vectors = relaxed_test_vectors(colors, rng)
            coarse, p = coarsen_aggregate(current, vectors, seeds)
            if current.shape[0] - coarse.shape[0] < MIN_REDUCTION * current.shape[0]:
                break
            level = Level(LevelKind.AGGREGATION, current, p=p, pt=p.T.tocsr(), colors=colors)
        levels.append(level)
        current = coarse

    levels.append(
        Level(
            kind=LevelKind.COARSEST,
            matrix=current,
            pinv=None if probe_passed else _pseudoinverse(current),
        )
    )
    sizes = [lvl.size for lvl in levels]
    assert all(a > b for a, b in zip(sizes, sizes[1:])), sizes
    _store_cycle_data_in_single(levels)
    return MultigridHierarchy(levels=levels, tau=tau)


def _cycle(levels: list[Level], j: int, block: np.ndarray) -> np.ndarray:
    """One V-cycle for ``L x = b`` starting from zero, on level ``j``.

    ``block`` is the stacked ``[x; b]`` of ``2 n`` rows, ``n`` the level's
    size: the caller fills the lower half with ``b``, which is only read,
    and the cycle returns ``x``, written into the upper half except on the
    coarsest level.  Each level fills its child's block the same way and,
    while the coarser levels run, holds nothing else of its own size.  A
    solve passes a float32 block, the precision of the cycle's level data.
    """
    level = levels[j]
    x, b = np.split(block, 2)
    if level.kind is LevelKind.COARSEST:
        return _direct_solve(level, b)

    if level.kind is LevelKind.ELIMINATION:
        # Exact transfer: no smoothing around elimination levels.
        nc = level.c_nodes.size
        child = np.empty((2 * nc, b.shape[1]), dtype=block.dtype)
        scaled = _eliminate_restrict(level, b, child[nc:])
        return _eliminate_interpolate(level, _cycle(levels, j + 1, child), scaled, x)

    # Pre-smoothing sweeps the classes forward from a zero initial guess,
    # post-smoothing sweeps them in reverse.
    nu1, nu2 = SMOOTHING_STEPS
    x[...] = 0
    for _ in range(nu1):
        _sweep(level.colors, block)
    residual = level.matrix32 @ x
    np.subtract(b, residual, out=residual)
    rc = level.pt @ residual
    del residual
    nc = rc.shape[0]
    child = np.empty((2 * nc, b.shape[1]), dtype=block.dtype)
    child[nc:] = rc
    del rc
    xc = _cycle(levels, j + 1, child)
    # Energy line search on the coarse correction d = P xc; plain
    # aggregation under-corrects without it.  Both inner products are
    # taken on the coarse level: <r, d> = <P^T r, xc>, with P^T r read
    # back from the child's block, and <d, L d> = <xc, P^T L P xc>, whose
    # operator is the next level's.
    num = np.einsum("ij,ij->j", child[nc:], xc)
    den = np.einsum("ij,ij->j", xc, levels[j + 1].matrix32 @ xc)
    alpha = np.divide(num, den, out=np.ones_like(num), where=den > 0)
    xc *= alpha
    x += level.p @ xc
    del xc, child
    for _ in range(nu2):
        _sweep(level.colors[::-1], block)
    return x


def _eliminate_restrict(level: Level, b: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """Reduce ``L x = b`` exactly through an elimination level.

    Writes the reduced right-hand side ``b_c + W_cf D_f^-1 b_f`` into
    ``bc`` and returns ``D_f^-1 b_f``, which :func:`_eliminate_interpolate`
    needs back.  ``b`` is only read.
    """
    scaled = b[level.f_nodes]
    scaled /= level.f_degree[:, None]
    # ``clip`` never clips valid ids; unlike the default it writes into
    # ``bc`` without a buffer.
    np.take(b, level.c_nodes, axis=0, out=bc, mode="clip")
    bc += level.w_cf @ scaled
    return scaled


def _eliminate_interpolate(
    level: Level, xc: np.ndarray, scaled: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Back-substitute ``x_f = D_f^-1 (b_f + W_cf^T x_c)`` under the reduced
    solution ``xc``, given ``scaled = D_f^-1 b_f``, into the level's ``x``,
    which it returns."""
    x[level.c_nodes] = xc
    xf = level.w_cf.T @ xc
    xf /= level.f_degree[:, None]
    xf += scaled
    x[level.f_nodes] = xf
    return x


def _sweep(classes: Sequence[ColorClass], stacked: np.ndarray) -> None:
    """One Gauss-Seidel sweep in place on the upper half ``x`` of
    ``stacked = [x; b]``, a color class at a time.

    Nodes of one class are not adjacent, so updating them together is
    exactly a point Gauss-Seidel sweep in class order.  A class costs one
    sparse product, which runs without the GIL, and one row scatter.
    Each column's arithmetic is independent of the other columns of the
    block.
    """
    for cls in classes:
        stacked[cls.nodes] = cls.rows @ stacked


def _column_norms(block: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", block, block))


def _fcg(
    matrix: sp.csr_matrix,
    x: np.ndarray,
    r: np.ndarray,
    norm: np.ndarray,
    stop: float,
    max_iters: int,
    precondition: Callable[[np.ndarray], np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Flexible preconditioned CG on ``matrix x = b`` per column of ``x``.

    ``x`` is the starting iterate and ``r = b - matrix @ x`` its residual
    for a mean-centered ``b``; ``precondition(r)`` returns the preconditioned
    residual, which is then centered.  Each direction is made conjugate
    to the previous one only, with the Polak-Ribiere ``beta`` (Notay
    2000), so a nonlinear preconditioner such as a V-cycle with a line
    search is allowed.  A column leaves when ``|r| <= stop * norm``, when
    it breaks down (``<p, Lp> <= 0`` or ``<r, z> <= 0``) or after
    ``max_iters`` iterations.  Each time columns leave, yields
    ``(done, x_done, converged)``: the mask of the leaving columns among
    those still iterating, their iterates, and which of them met the
    stop test.  The arrays are narrowed before the yield, so a caller
    that drops its own ``x`` and ``r`` after creating the generator
    holds the leaving columns beside the remaining ones only.
    """
    # Per column: iterate x, residual r, direction p and L p, in
    # contiguous arrays that are narrowed only on an iteration where a
    # column leaves.  ``alpha`` and ``rz`` (= <r, z>) of the last step give
    # the Polak-Ribiere beta = <z_new, r_new - r> / rz = -alpha <z_new, Lp> / rz
    # from the L p already in hand, so no copy of the old r is kept.
    # Starting from alpha = 0 and L p = 0 makes the first beta 0.
    p = np.zeros_like(r)
    lp = np.zeros_like(r)
    alpha = np.zeros(norm.size)
    rz = np.ones(norm.size)
    broken = np.zeros(norm.size, dtype=bool)
    for step in range(max_iters + 1):
        conv = _column_norms(r) / norm <= stop
        done = conv | broken | (step == max_iters)
        if done.any():
            x_done = x.compress(done, axis=1)
            # ``compress`` keeps the arrays C-ordered (``a[:, keep]`` would
            # not); one array at a time, so only one is held twice.
            keep = ~done
            x = x.compress(keep, axis=1)
            r = r.compress(keep, axis=1)
            p = p.compress(keep, axis=1)
            lp = lp.compress(keep, axis=1)
            norm, alpha, rz = norm[keep], alpha[keep], rz[keep]
            yield done, x_done, conv[done]
            del x_done
            if not norm.size:
                return
        z = precondition(r)
        z -= z.mean(axis=0, keepdims=True)
        beta = -alpha * np.einsum("ij,ij->j", z, lp) / rz
        del lp
        rz = np.einsum("ij,ij->j", r, z)
        p *= beta
        p += z
        del z  # freed before L p is made; a V-cycle's float32 z cannot hold the steps
        lp = matrix @ p
        plp = np.einsum("ij,ij->j", p, lp)
        broken = (plp <= 0) | (rz <= 0)
        alpha = np.divide(rz, plp, out=np.zeros_like(rz), where=~broken)
        x += p * alpha
        r -= lp * alpha


def _solve_block(
    hierarchy: MultigridHierarchy,
    rows: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Solve ``L x = b`` for every row ``b`` of ``rows`` into that row of ``out``.

    One path solves a set of columns, as LAMG's solve phase does (Livne &
    Brandt 2012): restrict them once through the leading elimination
    levels to the reduced system ``S x_c = b_c + W_cf D_f^-1 b_f`` of the
    first other level, iterate there with flexible conjugate gradients
    (:func:`_fcg`), and back-substitute ``x_f = D_f^-1 (b_f + W_cf^T x_c)``
    per column as it leaves the iteration.  A column stops when its
    reduced residual falls below ``STOP_MARGIN * tau`` of its fine
    right-hand side's norm, which is exact: after back-substitution the
    fine residual equals the reduced one on the C rows and is zero on the
    F rows.  The path runs twice.  First on every column from zero, with
    the reduced level's preconditioner (:func:`_preconditioner`): one
    V-cycle from it per iteration, for at most ``MAX_CYCLES`` iterations;
    on a coarsest level with a pseudoinverse, a direct solve, which needs
    no cycle; on a coarsest level that passed setup's probe, two float32
    damped-Jacobi sweeps (:func:`_jacobi_sweeps`), for at most
    :func:`_jacobi_iteration_cap` iterations.  Then, as the
    safety net, on the columns that reach the cap, break down
    (``<p, Lp> <= 0`` or ``<r, z> <= 0``) or whose residual, recomputed
    from the finest matrix, exceeds ``tau``: float64 Jacobi on the reduced
    matrix, from the columns' current solutions restricted to the reduced
    nodes, for at most :func:`_jacobi_iteration_cap` iterations.  A
    column the net leaves above ``tau`` raises :class:`ConvergenceError`.

    Every column runs its own iteration and leaves the loop at its own
    convergence step.  Its low-order bits may still depend on which
    columns share the block, because numpy reduces a one-column array in
    a different order than a wider one; callers that need reproducible
    bits keep block composition fixed, as :func:`solve_many` does.
    Writes mean-centered solutions into ``out`` (same shape as ``rows``)
    and returns independently recomputed relative residuals.
    """
    levels = hierarchy.levels
    matrix = levels[0].matrix
    n = matrix.shape[0]
    if rows.shape[1] != n:
        raise DomainError(f"right-hand side length {rows.shape[1]} != {n}")

    # One row at a time, so the check holds one row-sized temporary.
    l1 = np.array([np.abs(row).sum() for row in rows])
    bad = ~np.isfinite(l1)
    if bad.any():
        raise DomainError(f"supply vector columns {np.nonzero(bad)[0].tolist()} are not finite")
    imbalance = np.abs(rows.sum(axis=1))
    bad = imbalance > 1e-10 * np.maximum(l1, np.finfo(float).tiny)
    if bad.any():
        raise DomainError(
            f"supply vector columns {np.nonzero(bad)[0].tolist()} are not balanced"
        )
    bnorm = _column_norms(rows.T)
    nonzero = bnorm > 0
    out[~nonzero] = 0.0
    tau = hierarchy.tau
    top = _top(levels)
    reduced = levels[top]
    cycles = iterations = 0

    def reduced_solve(
        cols: np.ndarray,
        x: np.ndarray | None,
        max_iters: int,
        precondition: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Solve columns ``cols`` on the reduced system from the fine
        iterate ``x`` (``None``: from zero, or directly on a reduced level
        with a pseudoinverse), writing each column's fine solution,
        re-centered, into its row of ``out`` as it leaves; returns the
        columns that missed the stop test."""
        # ``take`` on the transposed rows gathers a C-ordered block, so
        # sparse products on it need no relayout copy.
        b = rows.T.take(cols, axis=1)
        b -= b.mean(axis=0, keepdims=True)
        scaled = []  # D_f^-1 b_f per elimination level, for back-substitution
        for level in levels[:top]:
            # The list alone holds each D_f^-1 b_f, so narrowing frees it.
            b, fine = np.empty((level.c_nodes.size, b.shape[1])), b
            scaled.append(_eliminate_restrict(level, fine, b))
            del fine
            if x is not None:
                x = x[level.c_nodes]
        if x is None and reduced.pinv is not None:
            x = _direct_solve(reduced, b)
        if x is None:
            x = np.zeros_like(b)
        else:
            b -= reduced.matrix @ x

        def counted(r: np.ndarray) -> np.ndarray:
            nonlocal iterations
            iterations += r.shape[1]
            return precondition(r)

        iteration = _fcg(
            reduced.matrix, x, b, bnorm[cols], STOP_MARGIN * tau, max_iters, counted
        )
        del x, b  # the iteration alone holds them, so narrowing frees them
        missed = []
        for done, x, converged in iteration:
            finished, cols = cols[done], cols[~done]
            missed.append(finished[~converged])
            # The iteration has narrowed its arrays, so the finished
            # columns' fine solutions never sit beside the full ones.
            f_done = [f_part.compress(done, axis=1) for f_part in scaled]
            scaled = [f_part.compress(~done, axis=1) for f_part in scaled]
            for level in reversed(levels[:top]):
                x = _eliminate_interpolate(
                    level, x, f_done.pop(), np.empty((level.size, x.shape[1]))
                )
            out[finished] = x.T
            del x
            for i in finished:
                out[i] -= out[i].mean()
        return np.concatenate(missed)

    def v_cycle(r: np.ndarray) -> np.ndarray:
        nonlocal cycles
        cycles += r.shape[1]
        block = np.empty((2 * r.shape[0], r.shape[1]), dtype=np.float32)
        block[r.shape[0]:] = r
        return _cycle(levels, top, block)

    def residuals() -> np.ndarray:
        residual = matrix @ out.T
        np.subtract(rows.T, residual, out=residual)
        return np.where(nonzero, _column_norms(residual) / np.where(nonzero, bnorm, 1.0), 0.0)

    jacobi = _jacobi(reduced.matrix)
    jacobi_cap = _jacobi_iteration_cap(n)
    if _preconditioner(reduced) == "jacobi":
        precondition, max_iters = _jacobi_sweeps(reduced), jacobi_cap
    else:
        precondition, max_iters = v_cycle, MAX_CYCLES
    active = np.flatnonzero(nonzero)
    missed = reduced_solve(active, None, max_iters, precondition) if active.size else active
    res = residuals()
    cols = np.union1d(missed, np.flatnonzero(res > tau))
    if cols.size:
        # The safety net: the same path, preconditioned by Jacobi on the
        # reduced matrix, from the columns' current solutions.
        reduced_solve(cols, out.T.take(cols, axis=1), jacobi_cap, jacobi)
        res = residuals()
    # Recorded before any raise, so a failed block still shows its work.
    hierarchy.stats.record(res, cols.size, cycles, iterations)
    if (res[cols] > tau).any():
        raise ConvergenceError(
            f"{int((res[cols] > tau).sum())} solve(s) failed to reach tau={tau:g}",
            best_residual=float(res[cols].max()),
        )
    return res


def _thread_count(threads: int) -> int:
    """``threads``; :class:`DomainError` unless it is at least 1."""
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    return threads


def solve_many(
    hierarchy: MultigridHierarchy,
    supplies: Sequence[Sequence[float]] | np.ndarray,
    *,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve many systems over one hierarchy; results are bitwise
    independent of execution order and of ``threads``.

    ``supplies`` holds one right-hand side per row; a 1-D array is a
    single supply, returned as row 0.  Returns ``(x, residuals)``: the
    C-ordered ``(count, n)`` array whose row ``i`` is the mean-centered
    solution for supply ``i``, and the ``(count,)`` recomputed relative
    residuals.  Rows are solved in blocks of ``BLOCK_COLUMNS`` whose
    boundaries depend only on the row count, so every block, and every
    bit of its result, is the same whichever worker runs it.  A row may
    differ at roundoff from the same supply solved in another batch (see
    :func:`_solve_block`).  ``threads`` below 1 raises :class:`DomainError`.
    """
    threads = _thread_count(threads)
    stacked = np.asarray(supplies, dtype=np.float64)
    if stacked.ndim == 1:
        stacked = stacked.reshape(1, -1)
    count = stacked.shape[0]
    x = np.empty((count, hierarchy.n))
    residuals = np.zeros(count)
    blocks = [
        (start, min(start + BLOCK_COLUMNS, count))
        for start in range(0, count, BLOCK_COLUMNS)
    ]

    def run(bounds: tuple[int, int]) -> None:
        lo, hi = bounds
        residuals[lo:hi] = _solve_block(hierarchy, stacked[lo:hi], x[lo:hi])

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, blocks))
    else:
        for bounds in blocks:
            run(bounds)
    return x, residuals
