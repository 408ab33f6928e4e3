import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from cfcent import (
    ConvergenceError,
    DomainError,
    laplacian,
    largest_connected_component,
    setup,
    solve_many,
)
from cfcent.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from cfcent import solver as solver_module
from cfcent.centrality import _independent_set
from cfcent.solver import (
    LevelKind,
    coarsen_aggregate,
    coarsen_eliminate,
    color_classes,
    relaxed_test_vectors,
)

from conftest import dense_laplacian, hierarchy_arrays, random_connected_graph, spread_weights


def dense_solve_oracle(lap_dense, b):
    """Ground node 0, solve, re-center: the reference for small systems."""
    n = lap_dense.shape[0]
    x = np.zeros(n)
    x[1:] = np.linalg.solve(lap_dense[1:, 1:], b[1:])
    return x - x.mean()


def relaxed_vectors(lap, rng):
    """Four relaxed test vectors over the level's own color classes."""
    return relaxed_test_vectors(color_classes(lap), rng)


def aggregate(lap, vectors):
    """``coarsen_aggregate`` with the seeds ``setup`` passes: the greedy
    independent set in ascending id."""
    seeds = solver_module._greedy_independent_set(lap, np.arange(lap.shape[0]))
    return coarsen_aggregate(lap, vectors, seeds)


class TestConfig:
    def test_defaults(self):
        params = inspect.signature(setup).parameters
        assert params["tau"].default == 1e-5
        assert "seed" not in params
        assert solver_module.SETUP_SEED == 0
        assert solver_module.MAX_DIRECT_SIZE == 200
        assert solver_module.AGGREGATION_TEST_VECTORS == 4
        assert solver_module.ELIMINATION_DEGREE_CAP == 4
        assert solver_module.SMOOTHING_STEPS == (1, 2)
        assert solver_module.MAX_CYCLES == 100
        assert solver_module.PROBE_ITERATIONS == 30

    def test_validation(self):
        lap = laplacian(path_graph(3))
        # A relative residual of 1 is met by the zero vector, so tau must
        # lie strictly below it.
        for tau in (0.0, -1e-5, float("nan"), 1.0, float("inf")):
            with pytest.raises(DomainError):
                setup(lap, tau=tau)


class TestSetup:
    def test_p2_is_single_coarsest_level(self):
        h = setup(laplacian(path_graph(2)))
        assert len(h.levels) == 1
        assert h.levels[0].kind is LevelKind.COARSEST

    def test_star_first_level_eliminates_all_leaves(self, monkeypatch):
        # center has degree 99 (above the cap); the 99 degree-1 leaves are
        # pairwise independent, so one elimination level removes them all
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 10)
        h = setup(laplacian(star_graph(100)))
        first = h.levels[0]
        assert first.kind is LevelKind.ELIMINATION
        assert sorted(first.f_nodes.tolist()) == list(range(1, 100))
        assert first.c_nodes.tolist() == [0]
        assert h.levels[1].size == 1

    def test_level_sizes_strictly_decrease(self, rng, monkeypatch):
        # Every level but the coarsest removes MIN_REDUCTION of its nodes;
        # the coarsest is at most MAX_DIRECT_SIZE, or the level where
        # neither elimination nor the last aggregation cleared that bar.
        # Sparse graphs with spread weights fail setup's Jacobi probe, so
        # they keep the cycle.
        aggregated = []  # (fine size, coarse size) of each aggregation call
        real_aggregate = solver_module.coarsen_aggregate

        def recording_aggregate(matrix, vectors, seeds):
            coarse, p = real_aggregate(matrix, vectors, seeds)
            aggregated.append((matrix.shape[0], coarse.shape[0]))
            return coarse, p

        monkeypatch.setattr(solver_module, "coarsen_aggregate", recording_aggregate)
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 20)
        for n in (50, 200, 400):
            aggregated.clear()
            g = random_connected_graph(n, rng, extra_edge_prob=0.03)
            h = setup(laplacian(spread_weights(g, 4)))
            assert h.levels[-1].pinv is not None
            sizes = h.level_sizes
            assert all(a > b for a, b in zip(sizes, sizes[1:]))
            assert all(
                a - b >= solver_module.MIN_REDUCTION * a for a, b in zip(sizes, sizes[1:])
            )
            if sizes[-1] > solver_module.MAX_DIRECT_SIZE:
                coarsest = h.levels[-1].matrix
                assert coarsen_eliminate(coarsest)[1] is None
                seeds = solver_module._greedy_independent_set(coarsest, np.arange(sizes[-1]))
                room = (solver_module.MAX_AGGREGATE_SIZE - 1) * seeds.sum()
                if room >= solver_module.MIN_REDUCTION * sizes[-1]:
                    fine, coarse = aggregated[-1]
                    assert fine == sizes[-1]
                    assert fine - coarse < solver_module.MIN_REDUCTION * fine

    def test_path_is_eliminated_exactly(self, rng):
        # A tree needs no aggregation: elimination levels repeat down to
        # the coarsest level, and solves are exact with no V-cycle.
        h = setup(laplacian(path_graph(5000)))
        kinds = [lvl.kind for lvl in h.levels]
        assert kinds[-1] is LevelKind.COARSEST
        assert set(kinds[:-1]) == {LevelKind.ELIMINATION}
        # The coarsest level is the reduced system, applied once: it keeps
        # its float64 pseudoinverse.
        assert h.levels[-1].pinv.dtype == np.float64
        supplies = rng.standard_normal((64, 5000))
        supplies -= supplies.mean(axis=1, keepdims=True)
        _, res = solve_many(h, supplies)
        assert h.stats.cycles == 0
        assert res.max() <= 1e-8

    def test_clique_stalls_into_one_coarsest_level(self, rng, monkeypatch):
        # No node of K300 is eligible for elimination, and Jacobi is exact
        # on a clique, so the probe passes and the clique is the reduced
        # system.  With the probe failing, its one seed cannot gather
        # MIN_REDUCTION of the nodes, so aggregation is not even colored:
        # the clique itself is factored directly.
        def no_coloring(matrix):
            raise AssertionError("a stage that cannot succeed was colored")

        monkeypatch.setattr(solver_module, "color_classes", no_coloring)
        lap = laplacian(complete_graph(300))
        assert setup(lap).describe()[0]["preconditioner"] == "jacobi"
        monkeypatch.setattr(solver_module, "_jacobi_converges", lambda matrix, tau: False)
        h = setup(lap)
        assert [lvl.kind for lvl in h.levels] == [LevelKind.COARSEST]
        assert h.describe()[0]["preconditioner"] == "direct"
        supplies = rng.standard_normal((5, 300))
        supplies -= supplies.mean(axis=1, keepdims=True)
        _, res = solve_many(h, supplies)
        assert res.max() <= 1e-12

    def test_depth_stays_bounded_on_hub_heavy_graphs(self):
        # Attachment runs until no node attaches, so aggregation keeps
        # shrinking BA levels instead of stalling into a long tail.  Spread
        # weights keep the aggregation that unweighted BA skips.
        h = setup(laplacian(spread_weights(barabasi_albert_graph(16000, 5, seed=0), 4)))
        assert h.levels[0].kind is LevelKind.AGGREGATION
        assert len(h.levels) <= 8

    def test_every_level_is_connected_laplacian(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 10)
        g = spread_weights(random_connected_graph(300, rng, extra_edge_prob=0.01), 4)
        h = setup(laplacian(g))
        kinds = {lvl.kind for lvl in h.levels}
        assert kinds == {LevelKind.ELIMINATION, LevelKind.AGGREGATION, LevelKind.COARSEST}
        from scipy.sparse.csgraph import connected_components

        for level in h.levels:
            mat = level.matrix
            assert np.abs(mat @ np.ones(level.size)).max() < 1e-9
            coo = mat.tocoo()
            off = coo.row != coo.col
            assert not off.any() or coo.data[off].max() <= 0
            if level.size > 1:
                assert connected_components(mat, directed=False)[0] == 1

    def test_rejects_non_laplacian(self):
        bad = sp.eye(5, format="csr")
        with pytest.raises(DomainError):
            setup(bad)

    def test_rejects_disconnected(self):
        g1 = path_graph(3)
        lap = sp.block_diag([laplacian(g1), laplacian(g1)], format="csr")
        with pytest.raises(DomainError):
            setup(lap)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]], "square"),
            ([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]], "symmetric"),
            ([[-1.0, 1.0], [1.0, -1.0]], "positive off-diagonal"),
            # A NaN edge passes every comparison and would be dropped by
            # the rebuild, so the program would solve a different graph.
            ([[1.0, -1.0, 0.0], [-1.0, np.nan, np.nan], [0.0, np.nan, np.nan]], "non-finite"),
            ([[np.inf, -np.inf], [-np.inf, np.inf]], "non-finite"),
            (np.zeros((0, 0)), "matrix is empty"),
        ],
        ids=[
            "not-square", "asymmetric", "positive-off-diagonal", "nan-edge", "inf-entry", "empty"
        ],
    )
    def test_rejects_each_non_laplacian_shape(self, matrix, message):
        with pytest.raises(DomainError, match=message):
            setup(sp.csr_matrix(np.array(matrix)))


def _rebuild_laplacian_reference(matrix):
    """The rebuild through COO: symmetrize, keep the negative off-diagonal
    entries, and sum them into the diagonal in storage order."""
    matrix = matrix.tocsr()
    coo = ((matrix + matrix.T) * 0.5).tocoo()
    off = (coo.row != coo.col) & (coo.data < 0)
    r, c, v = coo.row[off], coo.col[off], coo.data[off]
    n = matrix.shape[0]
    diag = np.zeros(n)
    np.add.at(diag, r, -v)
    idx = np.arange(n)
    lap = sp.csr_matrix((np.r_[v, diag], (np.r_[r, idx], np.r_[c, idx])), shape=(n, n))
    lap.sort_indices()
    return lap


class TestRebuildLaplacian:
    def test_bitwise_equal_to_the_coo_reference(self, rng):
        # Sparse products leave rows unsorted, and some entries cancel to
        # explicit zeros or turn positive; the rebuild must match the
        # reference bit for bit on all of them.
        for trial in range(40):
            n = int(rng.integers(1, 60))
            a = sp.random(n, n, density=rng.uniform(0.02, 0.5), format="csr", random_state=trial)
            a.data = -a.data
            b = sp.random(n, n, density=0.2, format="csr", random_state=100 + trial)
            product = a @ b - b.T @ a.T + a
            product.data[rng.random(product.nnz) < 0.1] = 0.0
            for matrix in (product, laplacian(random_connected_graph(n, rng, weighted=True))):
                got = solver_module._rebuild_laplacian(matrix)
                want = _rebuild_laplacian_reference(matrix)
                for name in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                    assert getattr(got, name).dtype == getattr(want, name).dtype

    def test_validation_returns_the_reference_rebuild(self):
        lap = laplacian(barabasi_albert_graph(500, 3, seed=0))
        got = solver_module._validate_laplacian(lap)
        want = _rebuild_laplacian_reference(lap)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestEliminate:
    def test_p3_schur_is_zero_on_middle_node(self):
        lap = laplacian(path_graph(3)).tocsr()
        schur, record = coarsen_eliminate(lap)
        assert record is not None
        assert sorted(record.f_nodes.tolist()) == [0, 2]
        assert schur.shape == (1, 1)
        assert abs(schur.toarray()[0, 0]) < 1e-14

    def test_k5_at_cap_eliminates_one_node(self):
        lap = laplacian(complete_graph(5)).tocsr()
        schur, record = coarsen_eliminate(lap)
        assert record is not None
        assert record.f_nodes.size == 1  # independence in a clique
        assert schur.shape == (4, 4)

    def test_no_eligible_nodes_returns_unchanged(self):
        lap = laplacian(complete_graph(7)).tocsr()  # all degrees 6 > cap
        schur, record = coarsen_eliminate(lap)
        assert record is None
        assert schur is lap

    def test_set_below_min_reduction_is_rejected(self):
        # Grid 100's first Schur complement has 5000 nodes, of which only
        # six, next to two corners, are within the degree cap: far fewer
        # than MIN_REDUCTION of the level.
        level1, _ = coarsen_eliminate(laplacian(grid_graph(100)).tocsr())
        assert level1.shape == (5000, 5000)
        schur, record = coarsen_eliminate(level1)
        assert record is None
        assert schur is level1

    def test_elimination_exactness_against_dense_oracle(self, rng):
        # solving the Schur system and back-substituting reproduces the
        # fine solution to near machine precision
        for trial in range(15):
            n = int(rng.integers(4, 11))
            g = random_connected_graph(n, rng, weighted=True)
            lap_dense = dense_laplacian(g)
            lap = laplacian(g).tocsr()
            schur, record = coarsen_eliminate(lap)
            if record is None:
                continue
            b = rng.standard_normal(n)
            b -= b.mean()
            f, c, d = record.f_nodes, record.c_nodes, record.f_degree
            bc = b[c] + record.w_cf @ (b[f] / d)
            if c.size > 1:
                xc = dense_solve_oracle(schur.toarray(), bc)
            else:
                xc = np.zeros(1)
            x = np.empty(n)
            x[c] = xc
            x[f] = (b[f] + record.w_cf.T @ xc) / d
            x -= x.mean()
            expected = dense_solve_oracle(lap_dense, b)
            assert x == pytest.approx(expected, abs=1e-10)


class TestAggregate:
    def test_two_cliques_collapse_to_weighted_p2(self, rng):
        # K4 -- K4 joined by one edge
        import numpy as np

        from cfcent import Graph

        us, vs = [], []
        for block in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    us.append(block + i)
                    vs.append(block + j)
        us.append(3)
        vs.append(4)
        g = Graph.from_edges(us, vs, n=8)
        lap = laplacian(g).tocsr()
        vectors = relaxed_vectors(lap, np.random.default_rng(0))
        coarse, p = aggregate(lap, vectors)
        # at most two aggregates; the bridge node may join either side
        assert p.shape[1] == 2
        dense = coarse.toarray()
        assert dense.shape == (2, 2)
        assert dense[0, 1] < 0  # coarse graph is a single weighted edge
        assert np.abs(dense.sum(axis=1)).max() < 1e-12

    def test_coarse_row_sums_zero(self, rng):
        g = random_connected_graph(80, rng, weighted=True)
        lap = laplacian(g).tocsr()
        vectors = relaxed_vectors(lap, rng)
        coarse, _ = aggregate(lap, vectors)
        nc = coarse.shape[0]
        assert np.abs(coarse @ np.ones(nc)).max() < 1e-9

    def test_reduces_when_affinities_high(self, rng):
        lap = laplacian(grid_graph(12)).tocsr()
        vectors = relaxed_vectors(lap, rng)
        coarse, p = aggregate(lap, vectors)
        assert p.shape[1] < lap.shape[0]

    def test_galerkin_symmetry(self, rng):
        g = random_connected_graph(60, rng, weighted=True)
        lap = laplacian(g).tocsr()
        vectors = relaxed_vectors(lap, rng)
        coarse, _ = aggregate(lap, vectors)
        assert (abs(coarse - coarse.T)).max() < 1e-12

    def test_interpolation_is_the_aggregate_map(self, rng):
        lap = laplacian(grid_graph(12)).tocsr()
        vectors = relaxed_vectors(lap, rng)
        coarse, p = aggregate(lap, vectors)
        assert p.shape == (lap.shape[0], coarse.shape[0])
        assert np.array_equal(np.diff(p.indptr), np.ones(lap.shape[0]))
        assert np.all(p.data == 1.0)
        assert np.array_equal(np.unique(p.indices), np.arange(coarse.shape[0]))
        assert (abs(coarse - p.T @ lap @ p)).max() < 1e-12


def _greedy_reference(lap, order):
    """Plain greedy independent set, one node of ``order`` at a time."""
    blocked = np.zeros(lap.shape[0], dtype=bool)
    taken = np.zeros(lap.shape[0], dtype=bool)
    for u in order:
        if not blocked[u]:
            taken[u] = True
            blocked[lap.indices[lap.indptr[u]:lap.indptr[u + 1]]] = True
    return taken


def _off_degrees(lap):
    return [
        int(np.count_nonzero(lap.indices[lap.indptr[u]:lap.indptr[u + 1]] != u))
        for u in range(lap.shape[0])
    ]


def _aggregation_test_laplacians():
    rng = np.random.default_rng(11)
    perm = rng.permutation(500)
    path = laplacian(path_graph(500)).tocsr()
    return {
        "path": path,
        "shuffled_path": path[perm][:, perm].tocsr(),
        "grid": laplacian(grid_graph(30)).tocsr(),
        "ba": laplacian(barabasi_albert_graph(2000, 5, seed=3)).tocsr(),
        "star": laplacian(star_graph(60)).tocsr(),
        "weighted": laplacian(random_connected_graph(400, rng, weighted=True)).tocsr(),
    }


def _affinity(vectors, u, w):
    dot = vectors[u] @ vectors[w]
    return dot * dot / ((vectors[u] @ vectors[u]) * (vectors[w] @ vectors[w]))


class TestAggregateRounds:
    """Seeding and attachment of the array-pass aggregation."""

    @pytest.mark.parametrize("name", ["ba", "grid", "path", "shuffled_path", "star", "weighted"])
    def test_seeds_are_the_ascending_greedy_set(self, name):
        lap = _aggregation_test_laplacians()[name]
        seeds = solver_module._greedy_independent_set(lap, np.arange(lap.shape[0]))
        assert np.array_equal(seeds, _greedy_reference(lap, range(lap.shape[0])))

    @pytest.mark.parametrize("name", ["ba", "grid", "path", "shuffled_path", "star", "weighted"])
    def test_aggregates_are_capped_and_joined_by_strong_edges(self, name):
        lap = _aggregation_test_laplacians()[name]
        vectors = relaxed_vectors(lap, np.random.default_rng(5))
        _, p = aggregate(lap, vectors)
        agg = p.indices
        sizes = np.bincount(agg)
        assert np.array_equal(np.diff(p.indptr), np.ones(lap.shape[0]))
        assert sizes.min() >= 1 and sizes.max() <= solver_module.MAX_AGGREGATE_SIZE
        seeds = _greedy_reference(lap, range(lap.shape[0]))
        seeded = np.zeros(sizes.size, dtype=bool)
        seeded[agg[seeds]] = True
        assert np.bincount(agg[seeds], minlength=sizes.size).max() == 1
        threshold = solver_module.AFFINITY_THRESHOLD
        for node in np.flatnonzero(~seeds):
            nbrs = lap.indices[lap.indptr[node]:lap.indptr[node + 1]]
            nbrs = nbrs[nbrs != node]
            strong = [w for w in nbrs if _affinity(vectors, node, w) > threshold]
            if seeded[agg[node]]:
                # attached: a strong edge leads into its own aggregate
                assert any(agg[w] == agg[node] for w in strong)
            else:
                # left over: every strong neighbor's seeded aggregate is full
                assert sizes[agg[node]] == 1
                for w in strong:
                    assert not seeded[agg[w]] or sizes[agg[w]] == solver_module.MAX_AGGREGATE_SIZE

    def test_repeated_calls_are_identical(self):
        lap = _aggregation_test_laplacians()["ba"]
        vectors = relaxed_vectors(lap, np.random.default_rng(5))
        first, p_first = aggregate(lap, vectors)
        again, p_again = aggregate(lap.copy(), vectors.copy())
        for a, b in ((first, again), (p_first, p_again)):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_ties_go_to_the_lowest_id_and_full_aggregates_refuse(self):
        # Equal test vectors give every edge affinity 1.  In a star the hub
        # is the only seed; its aggregate takes the leaves in ascending id
        # up to the cap, and the rest stay singletons.
        lap = laplacian(star_graph(10)).tocsr()
        vectors = np.tile([1.0, -2.0, 3.0, 0.5], (10, 1))
        _, p = aggregate(lap, vectors)
        cap = solver_module.MAX_AGGREGATE_SIZE
        assert p.indices.tolist() == [0] * cap + [1, 2]
        # Node 1 of the path 0-1-2 sits between the seeds 0 and 2 and
        # joins the lower one.
        lap = laplacian(path_graph(3)).tocsr()
        _, p = aggregate(lap, vectors[:3])
        assert p.indices.tolist() == [0, 0, 1]


class TestGreedyIndependentSetCallers:
    """Elimination and exact closeness's cover take the same plain greedy
    set as the aggregation seeds, over their own node orders."""

    @pytest.mark.parametrize("name", ["ba", "grid", "path", "shuffled_path", "star", "weighted"])
    def test_elimination_takes_the_greedy_set_of_low_degree_nodes(self, name):
        lap = _aggregation_test_laplacians()[name]
        n = lap.shape[0]
        cap = solver_module.ELIMINATION_DEGREE_CAP
        candidates = [u for u, d in enumerate(_off_degrees(lap)) if d <= cap]
        expected = np.flatnonzero(_greedy_reference(lap, candidates))
        _, level = coarsen_eliminate(lap)
        if level is None:
            assert expected.size < solver_module.MIN_REDUCTION * n
        else:
            assert np.array_equal(level.f_nodes, expected)

    @pytest.mark.parametrize("name", ["ba", "grid", "path", "shuffled_path", "star", "weighted"])
    def test_exact_cover_leaves_the_greedy_set_by_ascending_degree(self, name):
        lap = _aggregation_test_laplacians()[name]
        degrees = _off_degrees(lap)
        order = sorted(range(lap.shape[0]), key=lambda u: (degrees[u], u))
        assert np.array_equal(_independent_set(lap), _greedy_reference(lap, order))


def _color_test_laplacians():
    rng = np.random.default_rng(7)
    return {
        "grid": laplacian(grid_graph(30)).tocsr(),
        "ba": laplacian(barabasi_albert_graph(800, 3, seed=1)).tocsr(),
        "star": laplacian(star_graph(50)).tocsr(),
        "weighted": laplacian(random_connected_graph(300, rng, weighted=True)).tocsr(),
    }


class TestColorClasses:
    @pytest.mark.parametrize("name", ["grid", "ba", "star", "weighted"])
    def test_classes_partition_into_independent_sets(self, name):
        lap = _color_test_laplacians()[name]
        classes = [c.nodes for c in color_classes(lap)]
        nodes = np.concatenate(classes)
        assert np.array_equal(np.sort(nodes), np.arange(lap.shape[0]))
        for cls in classes:
            assert cls.size > 0
            assert np.all(np.diff(cls) > 0)
            block = lap[cls][:, cls]
            assert np.count_nonzero(block.toarray() - np.diag(block.diagonal())) == 0
        again = [c.nodes for c in color_classes(lap.copy())]
        assert len(again) == len(classes)
        assert all(np.array_equal(a, b) for a, b in zip(classes, again))

    def test_star_needs_two_colors(self):
        classes = color_classes(_color_test_laplacians()["star"])
        # the hub has the highest degree, so it is colored first, alone
        assert [c.nodes.tolist() for c in classes] == [[0], list(range(1, 50))]

    @staticmethod
    def _assert_first_fit(lap, classes):
        # Priority: off-diagonal degree, ties to the higher _tie_break key.
        # A node in class c has a higher-priority neighbor in every class
        # before c and none in c.
        coo = lap.tocoo()
        off = coo.row != coo.col
        u, v = coo.row[off].astype(np.int64), coo.col[off].astype(np.int64)
        n = lap.shape[0]
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((solver_module._tie_break(n), np.bincount(u, minlength=n)))] = (
            np.arange(n)
        )
        color = np.empty(n, dtype=np.int64)
        for c, cls in enumerate(classes):
            color[cls] = c
        up = rank[v] > rank[u]
        node, nbr_color = np.unique(np.c_[u[up], color[v[up]]], axis=0).T
        assert not np.any(nbr_color == color[node])
        below = nbr_color < color[node]
        assert np.array_equal(np.bincount(node[below], minlength=n), color)

    @pytest.mark.parametrize(
        "name", ["path", "shuffled_path", "grid", "ba", "star", "weighted", "k300"]
    )
    def test_each_node_takes_the_first_color_free_above_it(self, name):
        if name == "k300":
            lap = laplacian(complete_graph(300)).tocsr()
        else:
            lap = _aggregation_test_laplacians()[name]
        self._assert_first_fit(lap, [c.nodes for c in color_classes(lap)])

    def test_hub_heavy_levels_take_the_first_free_color(self):
        # Spread weights keep the BA graph's aggregation levels; the
        # classes depend on the pattern alone.
        g = spread_weights(barabasi_albert_graph(4000, 5, seed=0), 4)
        h = setup(laplacian(g))
        levels = [lvl for lvl in h.levels if lvl.kind is LevelKind.AGGREGATION]
        assert max(len(lvl.colors) for lvl in levels) >= 20
        for level in levels:
            self._assert_first_fit(level.matrix, [cls.nodes for cls in level.colors])

    @pytest.mark.parametrize("name", ["grid", "ba", "star", "weighted"])
    def test_classes_carry_their_rows_and_inverse_diagonal(self, name):
        # Before setup casts them, the classes hold the level's own float64
        # rows and 1/diag as a column.
        lap = _color_test_laplacians()[name]
        for cls in color_classes(lap):
            rows = lap[cls.nodes]
            assert cls.rows.dtype == cls.dinv.dtype == np.float64
            assert np.array_equal(cls.rows.indptr, rows.indptr)
            assert np.array_equal(cls.rows.indices, rows.indices)
            assert np.array_equal(cls.rows.data, rows.data)
            assert np.array_equal(cls.dinv, 1.0 / lap.diagonal()[cls.nodes, None])

    def test_relaxed_test_vectors_take_their_size_from_the_classes(self):
        lap = _color_test_laplacians()["ba"]
        colors = color_classes(lap)
        vectors = relaxed_test_vectors(colors, np.random.default_rng(3))
        assert vectors.shape == (lap.shape[0], solver_module.AGGREGATION_TEST_VECTORS)
        # The same draw sized by the level matrix, swept the same way.
        expected = np.random.default_rng(3).standard_normal(
            (lap.shape[0], solver_module.AGGREGATION_TEST_VECTORS)
        )
        expected -= expected.mean(axis=0, keepdims=True)
        zero = np.zeros_like(expected)
        for _ in range(solver_module.TEST_VECTOR_SWEEPS):
            solver_module._sweep(colors, expected, zero)
        expected -= expected.mean(axis=0, keepdims=True)
        assert np.array_equal(vectors, expected)

    def test_levels_store_their_classes(self):
        # Only the V-cycle reads the classes once setup is done, so they
        # hold the float32 casts of the level's rows and 1/diag, exactly.
        h = setup(laplacian(grid_graph(40)))
        assert any(lvl.kind is LevelKind.AGGREGATION for lvl in h.levels)
        for level in h.levels:
            if level.kind is not LevelKind.AGGREGATION:
                assert level.colors == ()
                continue
            expected = [c.nodes for c in color_classes(level.matrix)]
            assert len(level.colors) == len(expected)
            for cls, nodes in zip(level.colors, expected):
                assert np.array_equal(cls.nodes, nodes)
                assert cls.rows.dtype == cls.dinv.dtype == np.float32
                rows = level.matrix[nodes]
                assert np.array_equal(cls.rows.indptr, rows.indptr)
                assert np.array_equal(cls.rows.indices, rows.indices)
                assert np.array_equal(cls.rows.data, rows.data.astype(np.float32))
                dinv = 1.0 / level.matrix.diagonal()[nodes]
                assert np.array_equal(cls.dinv[:, 0], dinv.astype(np.float32))

    def test_sweep_is_point_gauss_seidel_in_class_order(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 10)
        g = spread_weights(random_connected_graph(300, rng, extra_edge_prob=0.03), 4)
        h = setup(laplacian(g))
        level = next(lvl for lvl in h.levels if lvl.kind is LevelKind.AGGREGATION)
        b = rng.standard_normal((level.size, 3))
        b -= b.mean(axis=0)
        x0 = rng.standard_normal((level.size, 3))

        swept = x0.copy()
        solver_module._sweep(level.colors, swept, b)

        # The classes hold float32 rows and 1/diag (the V-cycle's
        # precision); a float64 block is swept in float64 on those values.
        dense = level.matrix.toarray().astype(np.float32).astype(np.float64)
        dinv = (1.0 / level.matrix.diagonal()).astype(np.float32).astype(np.float64)
        expected = x0.copy()
        for i in np.concatenate([cls.nodes for cls in level.colors]):
            expected[i] += (b[i] - dense[i] @ expected) * dinv[i]
        assert swept == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestDescribe:
    def test_one_entry_per_level(self):
        h = setup(laplacian(grid_graph(40)))
        rows = h.describe()
        assert [r["size"] for r in rows] == h.level_sizes
        assert [r["kind"] for r in rows] == [lvl.kind.value for lvl in h.levels]
        assert [r["nnz"] for r in rows] == [lvl.matrix.nnz for lvl in h.levels]
        for row, level in zip(rows, h.levels):
            if level.kind is LevelKind.AGGREGATION:
                assert row["colors"] == len(color_classes(level.matrix)) >= 2
            else:
                assert row["colors"] == 0
        assert rows[-1]["kind"] == "coarsest"
        assert any(r["kind"] == "aggregation" for r in rows)

    def test_bytes_sum_every_array_with_shared_indices_once(self):
        # grid40 has every kind: a leading elimination level, an
        # aggregation level, an elimination level below it and the
        # coarsest level.
        h = setup(laplacian(grid_graph(40)))
        assert [lvl.kind for lvl in h.levels] == [
            LevelKind.ELIMINATION, LevelKind.AGGREGATION, LevelKind.ELIMINATION, LevelKind.COARSEST
        ]
        for row, level in zip(h.describe(), h.levels):
            matrices = [level.matrix, level.w_cf, level.p] + [c.rows for c in level.colors]
            expected = sum(
                a.nbytes for m in matrices if m is not None for a in (m.data, m.indices, m.indptr)
            )
            expected += sum(
                a.nbytes
                for a in [level.f_nodes, level.c_nodes, level.f_degree, level.pinv]
                + [a for c in level.colors for a in (c.nodes, c.dinv)]
                if a is not None
            )
            if level.matrix32 is not None:
                # Its index arrays are the float64 matrix's own.
                assert np.shares_memory(level.matrix32.indices, level.matrix.indices)
                assert np.shares_memory(level.matrix32.indptr, level.matrix.indptr)
                expected += level.matrix32.data.nbytes
            assert row["bytes"] == expected > 0


class TestSolve:
    """One supply, passed to :func:`solve_many` as a 1-D array."""

    def test_zero_rhs(self):
        h = setup(laplacian(path_graph(5)))
        x, res = solve_many(h, np.zeros(5))
        assert x.shape == (1, 5) and res.shape == (1,)
        assert np.all(x == 0.0)
        assert res[0] == 0.0

    def test_p2_unit_supply(self):
        h = setup(laplacian(path_graph(2)))
        x, _ = solve_many(h, np.array([1.0, -1.0]))
        assert x[0] == pytest.approx([0.5, -0.5], abs=1e-12)

    def test_grid_residual_contract(self, rng):
        g = grid_graph(64)
        h = setup(laplacian(g))
        lap = laplacian(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        (x,), _ = solve_many(h, b)
        recomputed = np.linalg.norm(b - lap @ x) / np.linalg.norm(b)
        assert recomputed <= 1e-5
        assert abs(x.mean()) < 1e-12

    def test_unbalanced_supply_rejected(self):
        h = setup(laplacian(path_graph(4)))
        with pytest.raises(DomainError):
            solve_many(h, np.array([1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_supply_rejected(self, bad):
        # Each slips past the balance check, since NaN and inf compare
        # false, and would return zeros or NaN residuals without a raise.
        h = setup(laplacian(path_graph(4)))
        supplies = np.array([[1.0, 0.0, 0.0, -1.0], [bad, 0.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match=r"columns \[1\] are not finite"):
            solve_many(h, supplies)

    def test_supply_of_the_wrong_length_rejected(self):
        h = setup(laplacian(path_graph(4)))
        with pytest.raises(DomainError, match="length 3 != 4"):
            solve_many(h, np.array([1.0, 0.0, -1.0]))

    def test_matches_dense_oracle_small(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 2)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            g = random_connected_graph(n, rng, weighted=True)
            h = setup(laplacian(g), tau=1e-10)
            b = rng.standard_normal(n)
            b -= b.mean()
            (x,), _ = solve_many(h, b)
            expected = dense_solve_oracle(dense_laplacian(g), b)
            assert x == pytest.approx(expected, abs=1e-7 * max(1, np.abs(expected).max()))

    def test_translation_invariance_of_centering(self, rng):
        # Lp = b has a one-parameter family of solutions; the solver
        # pins the zero-mean representative, so the same hierarchy and
        # supply always return the identical centered vector.
        g = random_connected_graph(40, rng)
        h = setup(laplacian(g))
        b = rng.standard_normal(40)
        b -= b.mean()
        (x1,), _ = solve_many(h, b)
        (x2,), _ = solve_many(h, b.copy())
        assert np.array_equal(x1, x2)
        assert abs(x1.mean()) < 1e-12


class TestSolveMany:
    def test_returns_one_c_ordered_array_and_a_residual_vector(self, rng):
        g = grid_graph(12)
        h = setup(laplacian(g))
        supplies = rng.standard_normal((70, g.n))  # two blocks, one partial
        supplies -= supplies.mean(axis=1, keepdims=True)
        x, res = solve_many(h, supplies)
        assert isinstance(x, np.ndarray) and isinstance(res, np.ndarray)
        assert x.shape == (70, g.n) and x.dtype == np.float64
        assert x.flags.c_contiguous
        assert res.shape == (70,) and res.dtype == np.float64
        assert res.max() <= 1e-5

    def test_identical_supplies_identical_results(self, rng):
        g = grid_graph(12)
        h = setup(laplacian(g))
        b = rng.standard_normal(g.n)
        b -= b.mean()
        x, _ = solve_many(h, [b, b])
        assert np.array_equal(x[0], x[1])

    def test_negated_supply_negates_solution(self, rng):
        g = grid_graph(12)
        h = setup(laplacian(g))
        b = rng.standard_normal(g.n)
        b -= b.mean()
        x, _ = solve_many(h, [b, -b])
        assert np.array_equal(x[0], -x[1])

    @pytest.mark.parametrize("starved", [False, True], ids=["cycles", "starved"])
    def test_thread_count_does_not_change_results(self, starved, rng, monkeypatch):
        # grid:40 has aggregation levels, so the multicolor smoother runs;
        # starved, the safety net finishes every column.
        if starved:
            monkeypatch.setattr(solver_module, "MAX_CYCLES", 1)
        g = grid_graph(40)
        h = setup(laplacian(g))
        assert any(lvl.kind is LevelKind.AGGREGATION for lvl in h.levels)
        supplies = rng.standard_normal((130, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        serial, serial_res = solve_many(h, supplies, threads=1)
        serial_cycles, serial_iterations = h.stats.cycles, h.stats.iterations
        assert h.stats.fallback_solves == (130 if starved else 0)
        threaded, threaded_res = solve_many(h, supplies, threads=4)
        assert h.stats.cycles - serial_cycles == serial_cycles > 0
        assert h.stats.iterations - serial_iterations == serial_iterations >= serial_cycles
        assert np.array_equal(serial, threaded)
        assert np.array_equal(serial_res, threaded_res)

    def test_pcg_needs_few_cycles_on_a_mesh(self, rng):
        # On meshes one V-cycle contracts the error by only ~0.69, so a
        # bare cycle iteration needs over 20 cycles per column here;
        # conjugate gradients over the cycle need about 9.
        g = grid_graph(40)
        h = setup(laplacian(g))
        supplies = rng.standard_normal((32, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        _, res = solve_many(h, supplies)
        assert res.max() <= 1e-5
        assert h.stats.fallback_solves == 0
        assert h.stats.cycles <= 12 * 32

    def test_solves_never_use_triangular_solves(self, rng, monkeypatch):
        # The smoother and the setup's test vectors both sweep color
        # classes, so neither setup nor a solve reaches a triangular solve.
        import scipy.sparse.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("spsolve_triangular reached from setup or a solve")

        assert not hasattr(solver_module, "spsolve_triangular")
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve_triangular", forbidden)
        g = grid_graph(40)
        h = setup(laplacian(g))
        assert any(lvl.kind is LevelKind.AGGREGATION for lvl in h.levels)
        supplies = rng.standard_normal((3, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        _, res = solve_many(h, supplies)
        assert res.max() <= 1e-5

    @pytest.mark.parametrize(
        "graph, starved",
        [
            pytest.param(lambda: grid_graph(60), False, id="grid60"),
            pytest.param(lambda: barabasi_albert_graph(4000, 5, seed=0), False, id="ba4000"),
            pytest.param(lambda: grid_graph(60), True, id="grid60-starved"),
            pytest.param(
                lambda: spread_weights(barabasi_albert_graph(4000, 5, seed=0), 4), True,
                id="ba4000-spread-starved",
            ),
        ],
    )
    def test_block_solve_peak_is_under_eight_blocks(self, graph, starved, rng, monkeypatch):
        # One 64-column solve holds its returned rows, the four PCG arrays,
        # the preconditioned residual and the finest level's iterate and
        # residual, plus the coarse levels: about 7.5 blocks of 64 x n.
        # Starved, every column is finished by the safety net, which holds
        # the returned rows, its starting iterate and the same arrays on
        # the reduced system.  Unweighted BA 4000 takes the Jacobi branch,
        # so only its spread-weight copy has V-cycles to starve.
        import tracemalloc

        if starved:
            monkeypatch.setattr(solver_module, "MAX_CYCLES", 1)
            monkeypatch.setattr(solver_module, "SMOOTHING_STEPS", (1, 1))
        g = graph()
        h = setup(laplacian(g))
        supplies = rng.standard_normal((64, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, res = solve_many(h, supplies)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.max() <= 1e-5
        assert (h.stats.fallback_solves == 64) == starved
        assert peak <= 8 * supplies.nbytes

    def test_block_solve_on_the_reduced_system_peaks_under_five_blocks(self, rng):
        # grid60 starts with an elimination level (3600 -> 1800 nodes), so
        # the PCG arrays are half-size, and finished columns are
        # back-substituted only after the arrays are narrowed: about 4.3
        # blocks of 64 x n, the returned rows included.
        import tracemalloc

        g = grid_graph(60)
        h = setup(laplacian(g))
        assert h.levels[0].kind is LevelKind.ELIMINATION
        supplies = rng.standard_normal((64, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, res = solve_many(h, supplies)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.max() <= 1e-5
        assert peak <= 5 * supplies.nbytes

    def test_iteration_never_cycles_on_a_leading_elimination_level(self, rng, monkeypatch):
        g = grid_graph(40)
        h = setup(laplacian(g))
        assert h.levels[0].kind is LevelKind.ELIMINATION
        cycle = solver_module._cycle
        visited = []

        def spy(levels, j, *args):
            visited.append(j)
            return cycle(levels, j, *args)

        monkeypatch.setattr(solver_module, "_cycle", spy)
        supplies = rng.standard_normal((10, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        _, res = solve_many(h, supplies)
        assert res.max() <= 1e-5
        assert visited and 0 not in visited

    def test_star_is_solved_by_elimination_and_the_coarsest_level_alone(self, rng):
        # Eliminating the 299 leaves leaves the center alone, so the
        # reduced system is the coarsest level: no V-cycle is needed.
        g = star_graph(300)
        h = setup(laplacian(g))
        assert [lvl.kind for lvl in h.levels] == [LevelKind.ELIMINATION, LevelKind.COARSEST]
        supplies = rng.standard_normal((5, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        _, res = solve_many(h, supplies)
        assert h.stats.cycles == 0
        assert res.max() <= 1e-12

    def test_chain_of_elimination_levels_back_substitutes_exactly(self, rng):
        # Three elimination levels in a row over a path, built by hand:
        # the block is restricted through all of them and each column is
        # back-substituted through all of them.
        lap = laplacian(path_graph(64))
        levels = []
        current = lap
        for _ in range(3):
            current, level = coarsen_eliminate(current)
            levels.append(level)
        levels.append(
            solver_module.Level(
                kind=LevelKind.COARSEST,
                matrix=current,
                pinv=solver_module._pseudoinverse(current),
            )
        )
        h = solver_module.MultigridHierarchy(levels=levels, tau=1e-5)
        supplies = rng.standard_normal((3, 64))
        supplies -= supplies.mean(axis=1, keepdims=True)
        dense = lap.toarray()
        x, _ = solve_many(h, supplies)
        for row, b in zip(x, supplies):
            assert row == pytest.approx(dense_solve_oracle(dense, b), abs=1e-9)
        assert h.stats.cycles == 0

    def test_batch_position_changes_results_only_at_roundoff(self, rng):
        # A column solved alongside different neighbors may differ by
        # summation-order ulps (numpy reduces multi-column blocks in a
        # different order than single columns), never materially.
        g = grid_graph(10)
        h = setup(laplacian(g))
        b = rng.standard_normal(g.n)
        b -= b.mean()
        others = rng.standard_normal((5, g.n))
        others -= others.mean(axis=1, keepdims=True)
        alone = solve_many(h, [b])[0][0]
        grouped = solve_many(h, np.vstack([others, b[None, :]]))[0][-1]
        assert alone == pytest.approx(grouped, abs=1e-12)

    def test_random_graph_many_rhs_residuals(self, rng):
        g = random_connected_graph(1000, rng)
        h = setup(laplacian(g))
        lap = laplacian(g)
        supplies = rng.standard_normal((20, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        x, _ = solve_many(h, supplies)
        for row, b in zip(x, supplies):
            recomputed = np.linalg.norm(b - lap @ row) / np.linalg.norm(b)
            assert recomputed <= 1e-5


def _wide_weight_ba(span):
    """``barabasi_albert_graph(2000, 3, seed=0)`` with weights 10^U(-span, span)."""
    return spread_weights(barabasi_albert_graph(2000, 3, seed=0), span)


def _supplies(n, count):
    supplies = np.random.default_rng(1).standard_normal((count, n))
    supplies -= supplies.mean(axis=1, keepdims=True)
    return supplies


class TestSinglePrecisionCycle:
    """The V-cycle runs in float32 inside the float64 flexible CG."""

    def test_only_the_cycle_data_below_the_reduced_system_is_float32(self):
        h = setup(laplacian(grid_graph(40)))
        lead, agg, elim, coarsest = h.levels
        assert all(lvl.matrix.dtype == np.float64 for lvl in h.levels)
        # The leading elimination level is restricted and back-substituted
        # exactly, in float64; the cycle never multiplies its matrix.
        assert lead.w_cf.dtype == lead.f_degree.dtype == np.float64
        assert lead.matrix32 is None
        assert agg.p.dtype == np.float32
        assert all(c.rows.dtype == c.dinv.dtype == np.float32 for c in agg.colors)
        assert elim.w_cf.dtype == elim.f_degree.dtype == np.float32
        assert coarsest.pinv.dtype == np.float32
        # The residual on the aggregation level and the line search on the
        # level below it are the cycle's only level products.
        assert [lvl.matrix32 is not None for lvl in h.levels] == [False, True, True, False]
        for lvl in (agg, elim):
            assert lvl.matrix32.dtype == np.float32
            assert np.array_equal(lvl.matrix32.data, lvl.matrix.data.astype(np.float32))

    def test_cycles_take_and_return_float32_blocks(self, monkeypatch):
        g = grid_graph(40)
        h = setup(laplacian(g))
        cycle = solver_module._cycle
        dtypes = []

        def spy(levels, j, b):
            x = cycle(levels, j, b)
            dtypes.append((b.dtype, x.dtype))
            return x

        monkeypatch.setattr(solver_module, "_cycle", spy)
        x, res = solve_many(h, _supplies(g.n, 10))
        assert dtypes and set(dtypes) == {(np.dtype(np.float32), np.dtype(np.float32))}
        assert x.dtype == res.dtype == np.float64

    # V-cycles per 64-column block (32 on grid40).  The grids' counts were
    # read at the float64 cycle, and float32 left them unchanged; the BA
    # graphs carry weights 10^U(-2, 2), which keep their aggregation levels,
    # and their counts were read at the float32 cycle.
    @pytest.mark.parametrize(
        "graph, count, cycles",
        [
            pytest.param(lambda: grid_graph(40), 32, 256, id="grid40"),
            pytest.param(lambda: grid_graph(60), 64, 640, id="grid60"),
            pytest.param(
                lambda: spread_weights(barabasi_albert_graph(4000, 5, seed=0), 2), 64, 857,
                id="ba4000-spread",
            ),
            pytest.param(
                lambda: spread_weights(barabasi_albert_graph(1000, 3, seed=0), 2), 64, 639,
                id="ba1000-spread",
            ),
        ],
    )
    def test_cycles_per_column_and_the_residual_contract(self, graph, count, cycles):
        g = graph()
        h = setup(laplacian(g))
        supplies = _supplies(g.n, count)
        x, res = solve_many(h, supplies)
        assert h.stats.cycles == cycles
        assert h.stats.fallback_solves == 0
        assert x.dtype == res.dtype == np.float64
        # The contract is checked on a float64 residual of the finest matrix.
        recomputed = np.linalg.norm(supplies.T - laplacian(g) @ x.T, axis=0)
        recomputed /= np.linalg.norm(supplies, axis=1)
        assert recomputed.max() <= h.tau
        assert recomputed == pytest.approx(res, rel=1e-6)

    @pytest.mark.parametrize(
        "span, per_column, net",
        [(2, 16.83, 0), (4, 84.56, 1), (6, 100.0, 64)],
        ids=["1e2", "1e4", "1e6"],
    )
    def test_wide_weights_take_the_same_cycles(self, span, per_column, net):
        g = _wide_weight_ba(span)
        h = setup(laplacian(g))
        _, res = solve_many(h, _supplies(g.n, 64))
        assert h.stats.cycles / 64 == pytest.approx(per_column, abs=0.005)
        assert h.stats.fallback_solves == net
        assert res.max() <= h.tau

    def test_the_hierarchy_does_not_grow(self):
        # Each float32 array replaces a float64 one of the same length,
        # and matrix32 adds 4 bytes per nonzero, its index arrays being
        # the matrix's own; the class rows save 4 bytes per nonzero.
        h = setup(laplacian(spread_weights(barabasi_albert_graph(4000, 5, seed=0), 4)))
        assert h.levels[0].kind is LevelKind.AGGREGATION
        total = sum(row["bytes"] for row in h.describe())
        as_float64 = total
        for lvl in h.levels:
            singles = [lvl.f_degree, lvl.pinv] + [c.dinv for c in lvl.colors]
            singles += [m.data for m in [lvl.w_cf, lvl.p] + [c.rows for c in lvl.colors] if m is not None]
            as_float64 += sum(a.nbytes for a in singles if a is not None and a.dtype == np.float32)
            if lvl.matrix32 is not None:
                as_float64 -= lvl.matrix32.data.nbytes
        assert total < as_float64


def _spy_on_fcg(monkeypatch):
    """Record every :func:`_fcg` run from now on: its matrix, iteration
    cap, column count and the preconditioner calls it makes."""
    fcg = solver_module._fcg
    runs = []

    def spy(matrix, x, r, norm, stop, max_iters, precondition):
        run = {"matrix": matrix, "cap": max_iters, "columns": r.shape[1], "iterations": 0}
        runs.append(run)

        def counted(block):
            run["iterations"] += 1
            return precondition(block)

        return fcg(matrix, x, r, norm, stop, max_iters, counted)

    monkeypatch.setattr(solver_module, "_fcg", spy)
    return runs


def _er_graph():
    """A sparse Erdos-Renyi graph's largest component: low-degree nodes to
    eliminate, then an expander."""
    return largest_connected_component(erdos_renyi_graph(4000, 0.001, seed=0))[0]


class TestJacobiReducedSystem:
    """Setup probes Jacobi-preconditioned CG where elimination stops; where
    it converges, the reduced system is the coarsest level, with no
    pseudoinverse and no cycle."""

    @pytest.mark.parametrize(
        "graph, eliminations, per_column",
        [
            # Every node of BA m0=5 has degree 5 or more: none is eliminated.
            pytest.param(lambda: barabasi_albert_graph(4000, 5, seed=0), 0, 11, id="ba4000"),
            pytest.param(_er_graph, 2, 15, id="er"),
        ],
    )
    def test_expanders_take_the_jacobi_branch(self, graph, eliminations, per_column):
        g = graph()
        h = setup(laplacian(g))
        *leading, reduced = h.levels
        assert [lvl.kind for lvl in leading] == [LevelKind.ELIMINATION] * eliminations
        assert reduced.kind is LevelKind.COARSEST and reduced.pinv is None
        assert reduced.size > solver_module.MAX_DIRECT_SIZE
        assert [row["preconditioner"] for row in h.describe()] == [None] * len(leading) + ["jacobi"]
        supplies = _supplies(g.n, 130)
        results = []
        for threads in (1, 2, 4):
            before = h.stats.iterations
            x, res = solve_many(h, supplies, threads=threads)
            results.append((x, res, h.stats.iterations - before))
        assert (h.stats.cycles, h.stats.fallback_solves) == (0, 0)
        # Every column takes about the same few iterations on an expander.
        assert results[0][2] / 130 == pytest.approx(per_column, abs=0.5)
        for x, res, iterations in results[1:]:
            assert np.array_equal(x, results[0][0])
            assert np.array_equal(res, results[0][1])
            assert iterations == results[0][2]
        x, res, _ = results[0]
        recomputed = np.linalg.norm(supplies.T - laplacian(g) @ x.T, axis=0)
        recomputed /= np.linalg.norm(supplies, axis=1)
        assert recomputed.max() <= h.tau
        assert recomputed == pytest.approx(res, rel=1e-6)

    def test_the_main_pass_reads_the_nets_cap(self, monkeypatch):
        g = barabasi_albert_graph(4000, 5, seed=0)
        h = setup(laplacian(g))
        runs = _spy_on_fcg(monkeypatch)
        solve_many(h, _supplies(g.n, 3))
        assert [run["cap"] for run in runs] == [solver_module._jacobi_iteration_cap(g.n)]
        assert solver_module._jacobi_iteration_cap(g.n) == 3162

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(lambda: grid_graph(100), id="grid100"),
            pytest.param(lambda: _wide_weight_ba(4), id="ba2000-spread"),
        ],
    )
    def test_graphs_that_fail_the_probe_keep_their_hierarchies(self, graph, monkeypatch):
        # The probe draws from its own generator, so a hierarchy that fails
        # it is bit for bit the one built without a probe.
        lap = laplacian(graph())
        probe = solver_module._jacobi_converges
        verdicts = []

        def spy(matrix, tau):
            verdicts.append(probe(matrix, tau))
            return verdicts[-1]

        monkeypatch.setattr(solver_module, "_jacobi_converges", spy)
        probed = setup(lap)
        assert verdicts == [False]
        monkeypatch.setattr(solver_module, "_jacobi_converges", lambda matrix, tau: False)
        unprobed = setup(lap)
        assert any(lvl.kind is LevelKind.AGGREGATION for lvl in probed.levels)
        assert probed.levels[-1].pinv is not None
        got, want = hierarchy_arrays(probed), hierarchy_arrays(unprobed)
        assert got.keys() == want.keys()
        for key, array in got.items():
            assert array.dtype == want[key].dtype and np.array_equal(array, want[key]), key

    @pytest.mark.parametrize(
        "graph, passes",
        [
            pytest.param(lambda: barabasi_albert_graph(4000, 5, seed=0), True, id="ba4000"),
            pytest.param(lambda: grid_graph(100), False, id="grid100"),
        ],
    )
    def test_the_probe_runs_at_most_its_cap(self, graph, passes, monkeypatch):
        runs = _spy_on_fcg(monkeypatch)
        h = setup(laplacian(graph()))
        cap = solver_module.PROBE_ITERATIONS
        assert [(run["cap"], run["columns"]) for run in runs] == [(cap, 1)]
        if passes:
            assert runs[0]["iterations"] == 11
            assert h.levels[-1].pinv is None
        else:
            assert runs[0]["iterations"] == cap
            assert h.levels[-1].pinv is not None

    def test_describe_names_the_reduced_systems_preconditioner(self):
        cases = {
            "cycle": grid_graph(40),
            "direct": star_graph(300),
            "jacobi": barabasi_albert_graph(2000, 3, seed=0),
        }
        for name, g in cases.items():
            h = setup(laplacian(g))
            rows = h.describe()
            top = solver_module._top(h.levels)
            assert rows[top]["preconditioner"] == name
            assert all(row["preconditioner"] is None for j, row in enumerate(rows) if j != top)


class TestFallback:
    def test_contract_holds_even_with_starved_multigrid(self, rng, monkeypatch):
        # One flexible-CG iteration with one smoothing sweep cannot
        # converge, so the solve must be finished by the safety net: the
        # same iteration on the reduced system, preconditioned by Jacobi.
        monkeypatch.setattr(solver_module, "MAX_CYCLES", 1)
        monkeypatch.setattr(solver_module, "SMOOTHING_STEPS", (1, 1))
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 2)
        g = grid_graph(20)
        h = setup(laplacian(g))
        lap = laplacian(g)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        (x,), _ = solve_many(h, b)
        recomputed = np.linalg.norm(b - lap @ x) / np.linalg.norm(b)
        assert recomputed <= 1e-5
        assert h.stats.fallback_solves >= 1

    def test_breakdown_hands_every_column_to_the_net(self, rng, monkeypatch):
        # A negated cycle makes <r, z> negative, so every column breaks
        # down at its first iteration and the safety net finishes it.
        cycle = solver_module._cycle
        monkeypatch.setattr(solver_module, "_cycle", lambda *args: -cycle(*args))
        g = grid_graph(30)
        h = setup(laplacian(g))
        supplies = rng.standard_normal((16, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        x, res = solve_many(h, supplies)
        lap = laplacian(g)
        recomputed = np.linalg.norm(supplies.T - lap @ x.T, axis=0) / np.linalg.norm(supplies, axis=1)
        assert h.stats.fallback_solves == 16
        assert h.stats.cycles == 16
        assert res.max() <= 1e-5
        assert recomputed.max() <= 1e-5

    def test_the_net_iterates_on_the_reduced_system(self, rng, monkeypatch):
        # grid30 starts with an elimination level, so both passes run on
        # the level below it and never on the finest matrix.
        monkeypatch.setattr(solver_module, "MAX_CYCLES", 1)
        g = grid_graph(30)
        h = setup(laplacian(g))
        top = solver_module._top(h.levels)
        assert top > 0
        runs = _spy_on_fcg(monkeypatch)
        supplies = rng.standard_normal((8, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        _, res = solve_many(h, supplies)
        assert h.stats.fallback_solves == 8
        assert res.max() <= h.tau
        matrices = [run["matrix"] for run in runs]
        assert len(matrices) == 2
        assert all(m is h.levels[top].matrix for m in matrices)
        assert not any(m is h.levels[0].matrix for m in matrices)
        assert [run["cap"] for run in runs] == [1, solver_module._jacobi_iteration_cap(g.n)]

    def test_unreachable_tolerance_raises_with_best_residual(self, rng):
        # far below machine precision: every stage must give up, and the
        # error reports the count and the worst residual of the failed columns
        h = setup(laplacian(path_graph(30)), tau=1e-300)
        b = rng.standard_normal(30)
        b -= b.mean()
        with pytest.raises(ConvergenceError) as err:
            solve_many(h, b)
        assert 0 < err.value.best_residual < 1e-10
        # The failed block is still counted.
        assert (h.stats.solves, h.stats.fallback_solves) == (1, 1)
        assert h.stats.max_residual == err.value.best_residual
        assert str(err.value).startswith("1 solve(s) failed to reach tau=1e-300")
        worst = f"among the failed columns {err.value.best_residual:.3e})"
        assert f"largest relative residual {worst}" in str(err.value)
        assert "best" not in str(err.value)
