import io
import time
import tracemalloc

import numpy as np
import pytest

from cfcent import (
    CapacityError,
    DomainError,
    EdgeListParseError,
    Graph,
    insert_noise_edges,
    laplacian,
    largest_connected_component,
    load_edge_list,
)
from cfcent.generators import barabasi_albert_graph, complete_graph, path_graph

from conftest import random_connected_graph


def load(text, **kw):
    return load_edge_list(io.StringIO(text), **kw)


class TestLoadEdgeList:
    def test_p3(self):
        g = load("0 1\n1 2\n")
        assert g.n == 3 and g.m == 2
        assert np.all(g.weights == 1.0)

    def test_duplicate_edges_merge_by_weight_sum(self):
        # parallel conductances add; direction is ignored
        g = load("0 1 2.0\n1 0 3.0\n")
        assert g.n == 2 and g.m == 1
        lap = laplacian(g).toarray()
        assert lap == pytest.approx(np.array([[5.0, -5.0], [-5.0, 5.0]]))

    def test_self_loop_dropped_and_n_from_remaining_lines(self):
        g = load("0 0\n1 2\n")
        assert g.m == 1
        assert g.n == 2  # node 0 appears only in the dropped loop
        assert list(g.node_labels) == [1, 2]

    def test_missing_weight_defaults_to_one(self):
        g = load("0 1\n0 1 2.5\n")
        assert g.m == 1
        assert g.weights[0] == pytest.approx(3.5)

    def test_comments_and_blank_lines(self):
        g = load("# header\n% other comment\n\n0 1\n")
        assert g.m == 1

    def test_non_contiguous_ids_compacted_with_labels(self):
        g = load("10 30\n30 77\n")
        assert g.n == 3
        assert list(g.node_labels) == [10, 30, 77]

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListParseError) as err:
            load("0 1\nnot numbers\n")
        assert err.value.line_number == 2

    def test_wrong_field_count(self):
        with pytest.raises(EdgeListParseError):
            load("0 1 2 3\n")

    def test_nonpositive_weight_is_domain_error(self):
        with pytest.raises(DomainError):
            load("0 1 0.0\n")
        with pytest.raises(DomainError):
            load("0 1 -2\n")

    def test_one_indexed_rejects_zero(self):
        with pytest.raises(EdgeListParseError):
            load("0 1\n", one_indexed=True)
        g = load("1 2\n", one_indexed=True)
        assert g.n == 2 and list(g.node_labels) == [1, 2]


def _reference_load(text, one_indexed=False):
    """Line-by-line reader: the edges, or the exception for the first bad line."""
    us, vs, ws = [], [], []
    min_id = 1 if one_indexed else 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            return EdgeListParseError(lineno, f"expected 2 or 3 fields, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            return EdgeListParseError(lineno, f"invalid node id in {line!r}")
        if u < min_id or v < min_id:
            return EdgeListParseError(lineno, f"node id below {min_id} in {line!r}")
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                return EdgeListParseError(lineno, f"invalid weight in {line!r}")
            if not np.isfinite(w):
                return EdgeListParseError(lineno, f"non-finite weight in {line!r}")
            if w <= 0:
                return DomainError(f"line {lineno}: weight must be positive, got {w}")
        if u != v:
            us.append(u)
            vs.append(v)
            ws.append(w)
    return us, vs, ws


class TestLoadMatchesLineByLineReader:
    GOOD = ["0 1", "1 2 2.5", " 3\t4 ", "# comment", "% 1 2 3 4", "", "  ", "7 7",
            "8 9 1e-3", "0 5", "10 11 +3", "12 13 .5", "-0 14"]
    BAD = ["a b", "1 2 3 4", "1", "1 x", "2 3 zz", "2 3 inf", "2 3 nan", "2 3 0",
           "2 3 -1", "-1 2", "0 1 2 # trailing"]

    def test_random_files_give_the_same_graph_or_error(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            lines = [self.GOOD[i] for i in rng.integers(0, len(self.GOOD), rng.integers(1, 25))]
            for _ in range(int(rng.integers(0, 3))):
                lines[int(rng.integers(0, len(lines)))] = self.BAD[int(rng.integers(0, len(self.BAD)))]
            text = "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")
            one_indexed = bool(rng.random() < 0.3)
            want = _reference_load(text, one_indexed)
            if isinstance(want, Exception):
                with pytest.raises(type(want)) as err:
                    load(text, one_indexed=one_indexed)
                assert str(err.value) == str(want)
                assert getattr(err.value, "line_number", None) == getattr(want, "line_number", None)
                continue
            g = load(text, one_indexed=one_indexed)
            us, vs, ws = want
            if not us:
                assert g.n == 0
                continue
            labels = np.unique(us + vs)
            expected = Graph.from_edges(
                np.searchsorted(labels, us), np.searchsorted(labels, vs), ws, n=labels.size
            )
            assert np.array_equal(g.node_labels, labels)
            assert np.array_equal(g.indptr, expected.indptr)
            assert np.array_equal(g.indices, expected.indices)
            assert np.array_equal(g.weights, expected.weights)

    def test_iterable_of_lines(self):
        g = load_edge_list(["0 1", "1 2\n", "# c", "2 3 2"])
        assert g.m == 3 and g.weights.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(["0 1\n", "1 x\n"])
        assert err.value.line_number == 2


def _random_multigraph(seed, n=6, edges=50):
    """Many parallel edges (and some self-loops) with weights 10^U(-8, 8)."""
    rng = np.random.default_rng(seed)
    u, v = rng.integers(0, n, (2, edges))
    return Graph.from_edges(u, v, 10.0 ** rng.uniform(-8, 8, edges), n=n)


class TestGraphInvariants:
    def test_symmetry_positivity_no_self_loops(self, rng):
        graphs = [random_connected_graph(int(rng.integers(2, 30)), rng, weighted=True)
                  for _ in range(20)]
        # Three or more parallel copies must still merge to one float in
        # both directions.
        graphs += [_random_multigraph(s) for s in range(200)]
        for g in graphs:
            a = g.adjacency_matrix()
            assert (a != a.T).nnz == 0
            assert np.all(g.weights > 0)
            assert a.diagonal().sum() == 0

    def test_adjacency_matrix_shares_the_graph_arrays(self, rng):
        g = random_connected_graph(25, rng, weighted=True)
        a = g.adjacency_matrix()
        for mine, theirs in [(g.indptr, a.indptr), (g.indices, a.indices),
                             (g.weights, a.data)]:
            assert np.shares_memory(mine, theirs)

    def test_neighbor_lists_sorted(self, rng):
        # Edges in random order and direction, with parallel copies.
        multigraphs = [_random_multigraph(7), _random_multigraph(7, n=80, edges=400)]
        split = Graph.from_edges([0, 1, 3, 5, 4, 6], [1, 2, 2, 6, 6, 5], n=9)
        lcc, _ = largest_connected_component(split)
        assert lcc.n == 4
        for g in [random_connected_graph(25, rng), *multigraphs, lcc]:
            for u in range(g.n):
                nbrs, _ = g.neighbors(u)
                assert np.all(np.diff(nbrs) > 0)

    def test_immutable(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.weights[0] = 9.0

    def test_has_edge(self):
        g = path_graph(3)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)


class TestLargestConnectedComponent:
    def test_connected_graph_identity(self):
        g = path_graph(3)
        sub, keep = largest_connected_component(g)
        assert sub.n == 3 and sub.m == 2
        assert keep.dtype == np.int64 and keep.tolist() == [0, 1, 2]

    def test_p3_plus_isolated_edge(self):
        g = Graph.from_edges([0, 1, 3], [1, 2, 4], n=5)
        sub, keep = largest_connected_component(g)
        assert sub.n == 3 and sub.m == 2
        assert keep.dtype == np.int64 and keep.tolist() == [0, 1, 2]

    def test_tie_broken_by_smallest_original_id(self):
        g = Graph.from_edges([2, 0], [3, 1], n=4)  # components {2,3} and {0,1}
        sub, keep = largest_connected_component(g)
        assert sub.n == 2
        assert keep.dtype == np.int64 and keep.tolist() == [0, 1]

    def test_many_tied_components_keep_the_smallest_label_quickly(self):
        # 50,000 disjoint edges: every component ties for largest.
        rng = np.random.default_rng(0)
        ids = rng.permutation(100_000)
        labels = rng.choice(500_000, 100_000, replace=False)
        g = Graph.from_edges(ids[0::2], ids[1::2], n=100_000, node_labels=labels)
        start = time.perf_counter()
        sub, keep = largest_connected_component(g)
        elapsed = time.perf_counter() - start
        assert sub.n == 2 and sub.m == 1
        assert labels.min() in sub.node_labels
        assert np.array_equal(sub.node_labels, labels[keep])
        assert elapsed < 0.5

    def test_labels_preserved(self):
        g = load("5 6\n8 9\n8 7\n")  # {5,6} and {7,8,9}
        sub, _ = largest_connected_component(g)
        assert sorted(sub.node_labels.tolist()) == [7, 8, 9]

    def test_result_is_connected(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 40))
            edges = rng.integers(0, n, size=(n, 2))
            mask = edges[:, 0] != edges[:, 1]
            if not mask.any():
                continue
            g = Graph.from_edges(edges[mask, 0], edges[mask, 1], n=n)
            sub, _ = largest_connected_component(g)
            assert sub.is_connected()

    def test_empty_graph_rejected(self):
        g = load("0 0\n")
        assert g.n == 0
        with pytest.raises(DomainError):
            largest_connected_component(g)


class TestFromEdges:
    @pytest.mark.parametrize(
        "u, v, w, n, message",
        [
            ([0, 1], [1], None, None, "equal length"),
            ([0, 1], [1, 2], [1.0], None, "equal length"),
            ([0, 1], [1, 2], [1.0, 0.0], None, "strictly positive"),
            ([0, 1], [1, 2], [1.0, np.inf], None, "finite"),
            ([0, 1], [1, 3], None, 3, "out of range"),
        ],
        ids=["endpoints", "weights", "zero-weight", "infinite-weight", "id-at-n"],
    )
    def test_bad_input_is_a_domain_error(self, u, v, w, n, message):
        with pytest.raises(DomainError, match=message):
            Graph.from_edges(u, v, w, n=n)


class TestLaplacian:
    def test_p2_unit(self):
        lap = laplacian(path_graph(2)).toarray()
        assert lap == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_k3(self):
        lap = laplacian(complete_graph(3)).toarray()
        assert np.all(np.diag(lap) == 2.0)
        assert lap[0, 1] == lap[1, 2] == -1.0

    def test_single_weighted_edge(self):
        g = Graph.from_edges([0], [1], [2.5])
        lap = laplacian(g).toarray()
        assert lap == pytest.approx(np.array([[2.5, -2.5], [-2.5, 2.5]]))

    def test_zero_row_sums(self, rng):
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 50)), rng, weighted=True)
            lap = laplacian(g)
            bound = 1e-12 * g.n * g.weights.max()
            assert np.abs(lap @ np.ones(g.n)).max() <= bound


class TestInsertNoiseEdges:
    def test_ceiling_rule_on_p3(self):
        g = path_graph(3)
        out = insert_noise_edges(g, 0.01, anchors=[0], seed=1)
        assert out.m == 3  # ceil(0.01 * 2) = 1 new edge

    def test_deterministic(self):
        g = path_graph(30)
        a = insert_noise_edges(g, 0.2, anchors=[0, 5], seed=7)
        b = insert_noise_edges(g, 0.2, anchors=[5, 0], seed=7)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_capacity_error_on_saturated_anchor(self):
        with pytest.raises(CapacityError):
            insert_noise_edges(complete_graph(3), 0.34, anchors=[0], seed=0)

    def test_new_edges_touch_anchors(self):
        g = path_graph(40)
        anchors = [3, 17]
        out = insert_noise_edges(g, 0.25, anchors=anchors, seed=3)
        eu, ev, _ = out.edge_array()
        base = set(zip(*map(np.ndarray.tolist, g.edge_array()[:2])))
        new = [e for e in zip(eu.tolist(), ev.tolist()) if e not in base]
        assert len(new) == int(np.ceil(0.25 * g.m))
        assert all(u in anchors or v in anchors for u, v in new)

    def test_fraction_bounds(self):
        g = path_graph(4)
        with pytest.raises(DomainError):
            insert_noise_edges(g, 0.0, anchors=[0], seed=0)
        with pytest.raises(DomainError):
            insert_noise_edges(g, 0.6, anchors=[0], seed=0)

    def test_memory_scales_with_the_new_edges(self):
        # Duplicates of existing edges are found in the adjacency rows, so
        # nothing of the size of a Python set of every edge is built.
        g = barabasi_albert_graph(20000, 5, seed=0)
        tracemalloc.start()
        try:
            insert_noise_edges(g, 0.01, anchors=range(0, g.n, 7), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * g.m
