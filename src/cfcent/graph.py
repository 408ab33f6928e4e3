"""Immutable weighted undirected graphs in compressed adjacency form.

The :class:`Graph` type is the single source of truth for node count,
edge count and edge weights.  Weights are strictly positive conductances;
self-loops are never stored and duplicate edges are merged by summing
their weights (conductances in parallel add).  Every adjacency is built
by scipy's CSR conversion, whose index arrays are int32 where they fit:
parallel edges are summed once on the upper triangle, which is then
mirrored, so both directions of an edge hold the same float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import CapacityError, DomainError, EdgeListParseError

__all__ = [
    "Graph",
    "load_edge_list",
    "largest_connected_component",
    "laplacian",
    "insert_noise_edges",
]


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph stored as the arrays of its CSR adjacency.

    Attributes
    ----------
    indptr, indices, weights
        The arrays of a scipy CSR adjacency matrix: the neighbors of node
        ``u`` are ``indices[indptr[u]:indptr[u+1]]``, strictly ascending,
        with matching ``weights``.  Every edge appears twice (once per
        endpoint) with bitwise equal weight.
    node_labels
        Original external identifier of each node, preserved across
        id compaction and component extraction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    node_labels: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.node_labels is None:
            object.__setattr__(self, "node_labels", np.arange(self.n, dtype=np.int64))
        for arr in (self.indptr, self.indices, self.weights, self.node_labels):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def m(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node (row sums of the adjacency)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return np.bincount(src, weights=self.weights, minlength=self.n)

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs, _ = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return pos < nbrs.size and nbrs[pos] == v

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges as (u, v, w) with u < v, sorted by (u, v).

        This is the canonical deterministic edge enumeration used for
        incidence matrices and file output.
        """
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = src < self.indices
        return src[keep], self.indices[keep], self.weights[keep]

    def adjacency_matrix(self) -> sp.csr_matrix:
        """The adjacency as a read-only CSR matrix over the graph's own arrays."""
        return sp.csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        ncomp, _ = connected_components(self.adjacency_matrix(), directed=False)
        return ncomp == 1

    @staticmethod
    def from_edges(
        u: Sequence[int],
        v: Sequence[int],
        w: Sequence[float] | None = None,
        n: int | None = None,
        node_labels: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from parallel endpoint arrays.

        Self-loops are dropped, duplicate undirected edges are merged by
        summing their weights, and the adjacency is symmetrized.  Raises
        :class:`DomainError` on unequal lengths, nonpositive or non-finite
        weights and node ids outside ``[0, n)``.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if w is None:
            w = np.ones(u.size)
        else:
            w = np.asarray(w, dtype=np.float64)
        if u.size != v.size or u.size != w.size:
            raise DomainError("endpoint and weight arrays must have equal length")
        if u.size and (np.any(w <= 0) or not np.all(np.isfinite(w))):
            raise DomainError("edge weights must be finite and strictly positive")

        loops = u == v
        if loops.any():
            u, v, w = u[~loops], v[~loops], w[~loops]
        if n is None:
            n = int(max(u.max(initial=-1), v.max(initial=-1)) + 1)
        if u.size and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n):
            raise DomainError("node ids out of range")

        # Parallel edges are summed once, on the upper triangle, and then
        # mirrored, so both directions of an edge hold the same float.
        upper = sp.csr_matrix((w, (np.minimum(u, v), np.maximum(u, v))), shape=(n, n))
        a = upper + upper.T
        return Graph(indptr=a.indptr, indices=a.indices, weights=a.data, node_labels=node_labels)


def load_edge_list(stream: IO[str] | Iterable[str], one_indexed: bool = False) -> Graph:
    """Read a whitespace-separated edge list into a :class:`Graph`.

    Each non-comment line is ``u v`` or ``u v w`` with ``w > 0``; a missing
    weight defaults to 1.  Fields are separated by ASCII whitespace.  Lines
    starting with ``#`` or ``%`` and blank lines are skipped.  Self-loops
    are dropped, duplicate edges merge by weight summation, and edge
    direction is ignored.  Node ids need not be contiguous: they are
    compacted and the original ids are kept as ``node_labels``.

    The whole input is tokenized and converted with array operations;
    only when that fails is the first offending line searched for, by
    bisection over line prefixes, to report it.

    Raises
    ------
    EdgeListParseError
        for malformed lines (reported with their line number).
    DomainError
        for nonpositive weights.
    """
    if hasattr(stream, "read"):
        text = stream.read()
    else:
        text = "\n".join(line.rstrip("\r\n") for line in stream)
    data = text.encode()
    min_id = 1 if one_indexed else 0
    try:
        us, vs, ws = _parse_edges(data, min_id)
    except (EdgeListParseError, DomainError):
        _raise_first_bad_line(data, min_id)
        raise

    labels, ids = np.unique(np.r_[us, vs], return_inverse=True)
    return Graph.from_edges(ids[:us.size], ids[us.size:], ws, n=labels.size, node_labels=labels)


_BLANK = np.zeros(256, dtype=bool)
_BLANK[list(b" \t\n\r\x0b\x0c")] = True  # what ``bytes.split()`` splits on
_COMMENT = np.frombuffer(b"#%", dtype=np.uint8)


def _parse_edges(
    data: bytes, min_id: int, first_line: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges ``(u, v, w)`` of an edge-list buffer, self-loops dropped.

    Raises for a bad line, not always the first one.  On a single line
    (numbered ``first_line``) the error is the one a line-by-line reader
    would raise, which is how :func:`_raise_first_bad_line` reports it.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    step = np.diff(np.r_[True, _BLANK[buf], True].view(np.int8))
    starts = np.flatnonzero(step == -1)
    ends = np.flatnonzero(step == 1)
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    head = np.flatnonzero(np.diff(line, prepend=-1))  # first token of each line
    fields = np.diff(head, append=starts.size)
    content = ~np.isin(buf[starts[head]], _COMMENT)
    head, fields = head[content], fields[content]
    lineno = line[head] + first_line

    def text(k: int) -> str:
        return data[starts[head[k]]:ends[head[k] + fields[k] - 1]].decode()

    def first(bad: np.ndarray) -> int | None:
        return int(np.argmax(bad)) if bad.any() else None

    if (k := first((fields < 2) | (fields > 3))) is not None:
        raise EdgeListParseError(int(lineno[k]), f"expected 2 or 3 fields, got {fields[k]}")
    try:
        u = _numbers(buf, starts[head], ends[head], np.int64)
        v = _numbers(buf, starts[head + 1], ends[head + 1], np.int64)
    except (ValueError, OverflowError):
        raise EdgeListParseError(int(lineno[0]), f"invalid node id in {text(0)!r}") from None
    if (k := first((u < min_id) | (v < min_id))) is not None:
        raise EdgeListParseError(int(lineno[k]), f"node id below {min_id} in {text(k)!r}")
    weighted = fields == 3
    w = np.ones(u.size)
    try:
        w[weighted] = _numbers(buf, starts[head[weighted] + 2], ends[head[weighted] + 2], np.float64)
    except ValueError:
        raise EdgeListParseError(int(lineno[0]), f"invalid weight in {text(0)!r}") from None
    if (k := first(~np.isfinite(w))) is not None:
        raise EdgeListParseError(int(lineno[k]), f"non-finite weight in {text(k)!r}")
    if (k := first(w <= 0)) is not None:
        raise DomainError(f"line {lineno[k]}: weight must be positive, got {float(w[k])}")
    loop = u == v
    return u[~loop], v[~loop], w[~loop]


def _numbers(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, dtype) -> np.ndarray:
    """The tokens ``buf[starts[i]:ends[i]]`` converted to ``dtype`` by
    numpy's string parsing, gathered one character position at a time."""
    lengths = ends - starts
    width = int(lengths.max(initial=1))
    chars = np.zeros((starts.size, width), dtype=np.uint8)
    for j in range(width):
        has = lengths > j
        chars[has, j] = buf[starts[has] + j]
    return chars.view(f"S{width}").ravel().astype(dtype)


def _raise_first_bad_line(data: bytes, min_id: int) -> None:
    """Raise the error of the first line a line-by-line reader rejects.

    A prefix of the input fails to parse exactly when it contains a bad
    line, so bisection over prefixes finds the first one, which is then
    parsed alone for its own message.
    """
    cut = np.r_[0, np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1, len(data)]
    good, bad = 0, cut.size - 1  # line counts of a parsing and a failing prefix
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_edges(data[:cut[mid]], min_id)
            good = mid
        except (EdgeListParseError, DomainError):
            bad = mid
    _parse_edges(data[cut[bad - 1]:cut[bad]], min_id, first_line=bad)


def largest_connected_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Extract the largest connected component of ``g``.

    Returns the induced subgraph together with the kept old node ids as
    an ascending int64 array: new id ``i`` is old id ``keep[i]``.  Ties
    between equal-size components are broken in favor of the component
    containing the smallest original node label.
    """
    if g.n == 0:
        raise DomainError("cannot extract a component of an empty graph")
    a = g.adjacency_matrix()
    ncomp, comp = connected_components(a, directed=False)
    if ncomp == 1:
        return g, np.arange(g.n, dtype=np.int64)
    sizes = np.bincount(comp)
    largest = sizes[comp] == sizes.max()
    chosen = comp[largest][np.argmin(g.node_labels[largest])]
    keep = np.flatnonzero(comp == chosen)
    sub = a[keep][:, keep]
    return Graph(sub.indptr, sub.indices, sub.data, g.node_labels[keep]), keep


def laplacian(g: Graph) -> sp.csr_matrix:
    """Weighted graph Laplacian: degrees on the diagonal, minus adjacency."""
    a = g.adjacency_matrix()
    deg = np.asarray(a.sum(axis=1)).ravel()
    lap = sp.diags(deg, format="csr") - a
    return lap.tocsr()


def insert_noise_edges(
    g: Graph, fraction: float, anchors: Sequence[int], seed: int
) -> Graph:
    """Add ``ceil(fraction * m)`` unit-weight edges anchored at given nodes.

    Each new edge connects a uniform anchor to a uniform node of the
    graph; draws producing self-loops or already-present edges are
    rejected and resampled: an edge of ``g`` is found in its sorted
    adjacency row, and only the new edges are kept aside, so memory
    beyond the result is ``O(fraction * m)``.  Deterministic for a fixed
    seed (anchor order does not matter).

    Raises :class:`CapacityError` when the requested number of edges
    cannot be placed within a bounded number of attempts.
    """
    if not 0 < fraction <= 0.5:
        raise DomainError(f"fraction must be in (0, 0.5], got {fraction}")
    anchors = np.unique(np.asarray(anchors, dtype=np.int64))
    if anchors.size == 0:
        raise DomainError("anchors must be nonempty")
    if anchors.min() < 0 or anchors.max() >= g.n:
        raise DomainError("anchor ids out of range")
    if g.m == 0:
        raise DomainError("graph has no edges")

    target = int(np.ceil(fraction * g.m))
    placed: dict[tuple[int, int], None] = {}  # the new edges, in placing order
    rng = np.random.default_rng(seed)
    attempts = 0
    max_attempts = 200 * target + 1000
    while len(placed) < target:
        if attempts >= max_attempts:
            raise CapacityError(
                f"placed only {len(placed)} of {target} edges after {attempts} attempts"
            )
        attempts += 1
        a = int(anchors[rng.integers(anchors.size)])
        b = int(rng.integers(g.n))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in placed or g.has_edge(a, b):
            continue
        placed[key] = None

    new_u, new_v = np.array(list(placed), dtype=np.int64).reshape(-1, 2).T
    eu, ev, ew = g.edge_array()
    return Graph.from_edges(
        np.r_[eu, new_u],
        np.r_[ev, new_v],
        np.r_[ew, np.ones(new_u.size)],
        n=g.n,
        node_labels=g.node_labels.copy(),
    )
