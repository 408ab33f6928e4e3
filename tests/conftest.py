import tracemalloc

import numpy as np
import pytest

from cfcent import Graph, largest_connected_component


def traced_peak_bytes(fn):
    """Peak bytes that ``fn()`` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_connected_graph(n, rng, extra_edge_prob=0.15, weighted=False):
    """Random connected graph: spanning tree plus extra random edges."""
    us, vs = [], []
    for v in range(1, n):
        us.append(int(rng.integers(v)))
        vs.append(v)
    pairs = rng.random((n, n)) < extra_edge_prob
    iu, iv = np.nonzero(np.triu(pairs, 1))
    us.extend(iu.tolist())
    vs.extend(iv.tolist())
    if weighted:
        w = rng.uniform(0.2, 3.0, size=len(us))
    else:
        w = np.ones(len(us))
    return Graph.from_edges(np.asarray(us), np.asarray(vs), w, n=n)


def spread_weights(g, span, seed=0):
    """``g`` with edge weights 10^U(-span, span).  From a span of 2 up,
    Jacobi-preconditioned CG needs too many iterations for setup's probe,
    so such a graph keeps its aggregation levels and V-cycles."""
    us, vs, _ = g.edge_array()
    weights = 10.0 ** np.random.default_rng(seed).uniform(-span, span, us.size)
    return Graph.from_edges(us, vs, weights, n=g.n)


def hierarchy_arrays(h):
    """Every array of every level, by level and name, for bitwise comparison."""
    arrays = {}
    for j, lvl in enumerate(h.levels):
        arrays[j, "kind"] = np.array(lvl.kind.value)
        matrices = {"matrix": lvl.matrix, "matrix32": lvl.matrix32, "w_cf": lvl.w_cf, "p": lvl.p}
        matrices.update({f"class{c}": cls.rows for c, cls in enumerate(lvl.colors)})
        for name, m in matrices.items():
            if m is not None:
                for part in ("data", "indices", "indptr"):
                    arrays[j, name, part] = getattr(m, part)
        for name in ("f_nodes", "c_nodes", "f_degree", "pinv"):
            if getattr(lvl, name) is not None:
                arrays[j, name] = getattr(lvl, name)
        for c, cls in enumerate(lvl.colors):
            arrays[j, f"class{c}", "nodes"] = cls.nodes
            arrays[j, f"class{c}", "dinv"] = cls.dinv
    return arrays


def dense_laplacian(g):
    lap = np.zeros((g.n, g.n))
    eu, ev, ew = g.edge_array()
    for u, v, w in zip(eu, ev, ew):
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


def resistance_matrix_oracle(g):
    """All-pairs effective resistances from the dense pseudoinverse."""
    pinv = np.linalg.pinv(dense_laplacian(g))
    d = np.diag(pinv)
    return d[:, None] + d[None, :] - 2.0 * pinv


def cf_scores_oracle(g):
    """Current-flow closeness of every node from the pseudoinverse."""
    r = resistance_matrix_oracle(g)
    return (g.n - 1) / r.sum(axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
