import itertools
import tracemalloc

import numpy as np
import pytest

from cfcent import (
    DomainError,
    Graph,
    Measure,
    UndefinedScoreError,
    cf_closeness_exact,
    cf_closeness_projection,
    cf_closeness_sampling,
    degree_asymptotic,
    effective_resistance,
    laplacian,
    setup,
    sp_closeness,
)
from cfcent.centrality import _independent_set, pivot_set, score
from cfcent.generators import (
    barabasi_albert_graph,
    complete_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from cfcent import resistance as resistance_module
from cfcent import solver as solver_module
from cfcent.resistance import node_solution_chunks, resistance_sums, sketch_dimension
from cfcent.solver import LevelKind, _schur_complement

from conftest import (
    cf_scores_oracle,
    random_connected_graph,
    resistance_matrix_oracle,
    spread_weights,
    traced_peak_bytes,
)


def hierarchy_for(g, **settings):
    return setup(laplacian(g), **settings)


def pair_formula_sums(h, query, targets, streams=None):
    """Resistance sums from each query node to the distinct ``targets`` by
    the diagonal rule ``R(v, t) = L+_vv + L+_tt - 2 L+_tv``, from node
    solutions streamed over each node list of ``streams`` in turn, which
    together cover both sets; by default one stream over their sorted
    union."""
    targets = np.unique(targets)
    union = np.union1d(query, targets)
    z = np.empty((union.size, h.n))
    for nodes in [union] if streams is None else streams:
        for chunk, solved in node_solution_chunks(h, nodes):
            z[np.searchsorted(union, chunk)] = solved
    diag = z[np.arange(union.size), union]
    at_q, at_t = np.searchsorted(union, query), np.searchsorted(union, targets)
    # Added in target order, as the documented sum is; a reduction over a
    # fancy-indexed block may pair its terms in another order.
    cross = np.zeros(len(query))
    for t in at_t:
        cross += z[t, query]
    return targets.size * diag[at_q] + diag[at_t].sum() - 2.0 * cross


class TestExact:
    def test_k3(self):
        g = complete_graph(3)
        h = hierarchy_for(g)
        table = cf_closeness_exact(h, [0, 1, 2])
        for v in range(3):
            assert table.scores[v] == pytest.approx(1.5, rel=1e-6)

    def test_p3_middle_and_end(self):
        g = path_graph(3)
        h = hierarchy_for(g)
        table = cf_closeness_exact(h, [0, 1])
        assert table.scores[1] == pytest.approx(1.0, rel=1e-6)
        assert table.scores[0] == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_matches_pseudoinverse_oracle(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 16)
        for trial in range(6):
            n = int(rng.integers(5, 60))
            g = random_connected_graph(n, rng, weighted=trial % 2 == 1)
            h = hierarchy_for(g)
            expected = cf_scores_oracle(g)
            table = cf_closeness_exact(h, list(range(n)))
            got = table.vector(range(n))
            assert got == pytest.approx(expected, rel=1e-4)

    def test_exhaustive_connected_graphs_n4(self):
        pairs = list(itertools.combinations(range(4), 2))
        for mask in range(1, 2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph.from_edges([e[0] for e in edges], [e[1] for e in edges], n=4)
            if g.n < 4 or not g.is_connected():
                continue
            h = setup(laplacian(g))
            got = cf_closeness_exact(h, range(4)).vector(range(4))
            assert got == pytest.approx(cf_scores_oracle(g), rel=1e-6)

    def test_diagonal_identity_matches_pair_formula(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 16)
        g = random_connected_graph(150, rng, extra_edge_prob=0.03, weighted=True)
        h = hierarchy_for(g)
        assert len(h.levels) > 1
        query = list(range(0, 150, 3))
        sums = pair_formula_sums(h, query, np.arange(150))
        got = cf_closeness_exact(h, query).vector(query)
        assert got == pytest.approx((150 - 1) / sums, rel=1e-6)

    def test_permutation_equivariance(self, rng):
        g = random_connected_graph(15, rng, weighted=True)
        perm = rng.permutation(15)
        eu, ev, ew = g.edge_array()
        gp = Graph.from_edges(perm[eu], perm[ev], ew, n=15)
        h = hierarchy_for(g)
        hp = hierarchy_for(gp)
        orig = cf_closeness_exact(h, range(15)).vector(range(15))
        relabeled = cf_closeness_exact(hp, range(15)).vector(range(15))
        assert relabeled[perm] == pytest.approx(orig, rel=1e-5)


class TestCoverIdentity:
    """Exact closeness solves only the second cover C2: F1 is an independent
    set of the graph, F2 one of the Schur complement on the other nodes
    C1, and the diagonal entries of F2 and then F1 come from the rows of
    C2."""

    @staticmethod
    def graphs():
        rng = np.random.default_rng(7)
        return [
            star_graph(300),
            path_graph(201),
            grid_graph(15),
            barabasi_albert_graph(400, 3, seed=2),
            random_connected_graph(120, rng, weighted=True),
            random_connected_graph(250, rng, extra_edge_prob=0.02, weighted=True),
            path_graph(2),
            path_graph(3),
            complete_graph(5),
            spread_weights(barabasi_albert_graph(300, 2, seed=3), 3),
        ]

    @staticmethod
    def rounds(g):
        """F1, F2 and C2 as boolean masks by node id."""
        lap = laplacian(g)
        f1 = _independent_set(lap)
        schur, _, _ = _schur_complement(lap, f1)
        f2 = np.zeros(g.n, dtype=bool)
        f2[np.flatnonzero(~f1)[_independent_set(schur)]] = True
        return f1, f2, ~(f1 | f2)

    def test_matches_pseudoinverse_oracle(self):
        for g in self.graphs():
            h = hierarchy_for(g, tau=1e-10)
            got = cf_closeness_exact(h, range(g.n)).vector(range(g.n))
            assert got == pytest.approx(cf_scores_oracle(g), rel=1e-6)

    def test_second_round_cases_occur(self):
        # Where C1 is one node (the star, path 2 and path 3) its Schur
        # complement is [0] and round 2 takes nothing; K5 leaves C1 four
        # nodes and takes one.  The other graphs have F1 nodes next to F2
        # nodes, whose entries L+_uw round 1 then reads.
        taken, crossed = [], []
        for g in self.graphs():
            f1, f2, _ = self.rounds(g)
            eu, ev, _ = g.edge_array()
            taken.append(int(f2.sum()))
            crossed.append(int(np.sum(f1[eu] & f2[ev] | f2[eu] & f1[ev])))
        assert taken[0] == taken[6] == taken[7] == 0
        assert taken[8] == 1
        assert all(crossed[i] > 0 for i in (1, 2, 3, 4, 5, 8, 9))

    def test_solves_only_the_cover(self):
        solves = []
        for g in self.graphs():
            h = hierarchy_for(g)
            before = h.stats.solves
            cf_closeness_exact(h, [0])
            solves.append(h.stats.solves - before)
            assert solves[-1] == int(self.rounds(g)[2].sum())
        assert solves[0] == 1  # the star: its center alone

    def test_independent_set_is_maximal(self):
        for g in self.graphs():
            f = _independent_set(laplacian(g))
            eu, ev, _ = g.edge_array()
            assert not np.any(f[eu] & f[ev])
            src = np.repeat(np.arange(g.n), np.diff(g.indptr))
            covered = np.bincount(src, weights=f[g.indices], minlength=g.n) > 0
            assert np.all(covered[~f])

    def test_independent_set_takes_low_degree_first(self):
        # The star's leaves all go before its center; on a path the
        # degree-one ends are taken, then every other node by id.
        assert np.flatnonzero(~_independent_set(laplacian(star_graph(50)))).tolist() == [0]
        f = _independent_set(laplacian(path_graph(7)))
        assert np.flatnonzero(f).tolist() == [0, 2, 4, 6]

    def test_bitwise_independent_of_threads(self):
        g = grid_graph(40)
        h = hierarchy_for(g)
        assert int(self.rounds(g)[2].sum()) > 2 * 192  # three chunks at three threads
        one = cf_closeness_exact(h, range(g.n), threads=1).scores
        three = cf_closeness_exact(h, range(g.n), threads=3).scores
        assert one == three


class TestSampling:
    def test_k_equals_n_reduces_to_exact(self, rng):
        g = random_connected_graph(12, rng)
        h = hierarchy_for(g)
        exact = cf_closeness_exact(h, range(12)).vector(range(12))
        sampled = cf_closeness_sampling(h, range(12), k=12, seed=5)
        assert sampled.vector(range(12)) == pytest.approx(exact, rel=1e-9)

    def test_k1_own_pivot_is_undefined(self):
        g = path_graph(3)
        h = hierarchy_for(g)
        pivot = int(pivot_set(3, 1, seed=0)[0])
        with pytest.raises(UndefinedScoreError):
            cf_closeness_sampling(h, [pivot], k=1, seed=0)

    def test_unbiasedness_by_exhaustive_enumeration(self, rng):
        # the expectation of the scaled pivot distance sum over all
        # k-subsets equals the full distance sum, for every k
        n = 7
        g = random_connected_graph(n, rng, weighted=True)
        r = resistance_matrix_oracle(g)
        for v in range(n):
            s_v = r[v].sum()
            for k in range(1, n + 1):
                total = 0.0
                for subset in itertools.combinations(range(n), k):
                    total += (n / k) * sum(r[v, s] for s in subset)
                average = total / len(list(itertools.combinations(range(n), k)))
                assert average == pytest.approx(s_v, rel=1e-9)

    def test_pivot_set_is_shared_and_uniform_without_replacement(self):
        s = pivot_set(50, 10, seed=3)
        assert len(set(s.tolist())) == 10
        assert np.array_equal(s, pivot_set(50, 10, seed=3))
        with pytest.raises(DomainError):
            pivot_set(5, 6, seed=0)

    def test_deterministic_scores(self, rng):
        g = random_connected_graph(40, rng)
        h = hierarchy_for(g)
        a = cf_closeness_sampling(h, [0, 7], k=5, seed=9)
        b = cf_closeness_sampling(h, [0, 7], k=5, seed=9)
        assert a.scores == b.scores

    def test_streamed_scores_equal_pair_formula(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 16)
        n, k = 200, 12
        # Spread weights keep aggregation levels: the solves run V-cycles.
        g = spread_weights(random_connected_graph(n, rng, extra_edge_prob=0.03), 4)
        h = hierarchy_for(g)
        assert any(lvl.kind is LevelKind.AGGREGATION for lvl in h.levels)
        pivots = pivot_set(n, k, seed=4)
        others = np.setdiff1d(np.arange(n), pivots)
        query = [int(v) for v in rng.choice(others, 90, replace=False)]
        query += [int(p) for p in pivots[::3]]  # pivots that are also queried
        # A column's low bits may depend on the columns that share its
        # block, so the formula reads the solutions of the streams that
        # sampling solves, pivots first: only the assembly is compared.
        streams = [pivots, np.setdiff1d(query, pivots)]
        sums = pair_formula_sums(h, query, pivots, streams)
        table = cf_closeness_sampling(h, query, k=k, seed=4)
        expected = [(k / n) * (n - 1) / float(total) for total in sums]
        assert table.vector(query).tolist() == expected

    def test_estimator_close_to_exact_on_medium_graph(self, rng):
        g = random_connected_graph(300, rng)
        h = hierarchy_for(g)
        query = [int(x) for x in rng.choice(300, 30, replace=False)]
        exact = cf_closeness_exact(h, query).vector(query)
        sampled = cf_closeness_sampling(h, query, k=50, seed=1)
        ratio = sampled.vector(query) / exact
        assert np.all((ratio > 0.5) & (ratio < 2.0))


class TestStreamingMemory:
    """The solve-per-node routes hold O((k + 64 threads) n) floats, never
    the n x n matrix of all node solutions."""

    @pytest.fixture(scope="class")
    def ba2000(self):
        g = barabasi_albert_graph(2000, 3, seed=1)
        return g, hierarchy_for(g)

    def test_exact_all_nodes_below_n_squared(self, ba2000):
        g, h = ba2000
        peak = traced_peak_bytes(lambda: cf_closeness_exact(h, range(g.n)))
        assert peak < g.n * g.n * 8

    def test_sampling_all_nodes_below_n_squared(self, ba2000):
        g, h = ba2000
        peak = traced_peak_bytes(
            lambda: cf_closeness_sampling(h, range(g.n), k=20, seed=0)
        )
        assert peak < g.n * g.n * 8

    def test_sampling_keeps_no_pivot_block(self, ba2000, monkeypatch):
        # The pivot rows are kept only at the pivot and query columns, so
        # on entering the query node's solve far less than a k x n block
        # of pivot solutions is held.
        g, h = ba2000
        k = 256
        inner = resistance_module.solve_many
        held = []

        def spy(hierarchy, supplies, *args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return inner(hierarchy, supplies, *args, **kwargs)

        monkeypatch.setattr(resistance_module, "solve_many", spy)
        query = int(np.setdiff1d(np.arange(g.n), pivot_set(g.n, k, seed=0))[0])
        tracemalloc.start()
        try:
            cf_closeness_sampling(h, [query], k=k, seed=0)
        finally:
            tracemalloc.stop()
        assert len(held) == k // 64 + 1
        assert held[-1] < 0.5 * k * g.n * 8

    def test_sp_all_nodes_below_n_squared(self, ba2000):
        g, _ = ba2000
        peak = traced_peak_bytes(lambda: sp_closeness(g, range(g.n)))
        assert peak < g.n * g.n * 8

    def test_resistances_from_node_all_targets_below_n_squared(self, ba2000):
        g, h = ba2000
        out = []
        peak = traced_peak_bytes(
            lambda: out.append(resistance_sums(h, np.arange(g.n), [0]))
        )
        assert out[0].shape == (g.n,) and out[0][0] == 0.0
        assert peak < g.n * g.n * 8

    def test_projection_draws_signs_a_few_rows_at_a_time(self):
        # On a clique the edges outnumber the nodes 150 to 1, so the sign
        # draws set the peak: drawn 64 rows at a time, they would take
        # about k * m * 16 bytes (the int64 draw and its float64 copy).
        g = complete_graph(300)
        h = hierarchy_for(g)
        k = sketch_dimension(g.n, 0.5)
        assert (k, g.m) == (23, 44850)
        peak = traced_peak_bytes(
            lambda: cf_closeness_projection(h, range(g.n), epsilon=0.5, seed=0)
        )
        assert peak < 0.5 * k * g.m * 16


class TestProjection:
    def test_p2_score_within_band(self):
        g = path_graph(2)
        h = hierarchy_for(g)
        hits = 0
        for seed in range(10):
            table = cf_closeness_projection(h, [0], epsilon=0.5, seed=seed)
            if 1 / 1.5 <= table.scores[0] <= 1 / 0.5:
                hits += 1
        assert hits >= 6  # true closeness is 1

    def test_scores_strictly_positive(self, rng):
        g = random_connected_graph(60, rng)
        h = hierarchy_for(g)
        table = cf_closeness_projection(h, range(60), epsilon=0.3, seed=2)
        assert all(s > 0 for s in table.scores.values())

    def test_deterministic_under_seed(self, rng):
        g = random_connected_graph(30, rng)
        h = hierarchy_for(g)
        a = cf_closeness_projection(h, [3], epsilon=0.4, seed=8)
        b = cf_closeness_projection(h, [3], epsilon=0.4, seed=8)
        assert a.scores == b.scores

    def test_error_decreases_with_epsilon_in_expectation(self, rng):
        g = random_connected_graph(80, rng)
        h = hierarchy_for(g)
        query = list(range(0, 80, 4))
        exact = cf_closeness_exact(h, query).vector(query)
        mean_err = {}
        for eps in (0.5, 0.2, 0.1):
            errs = []
            for seed in range(10):
                table = cf_closeness_projection(h, query, epsilon=eps, seed=seed)
                errs.append(np.abs(table.vector(query) / exact - 1.0).mean())
            mean_err[eps] = np.mean(errs)
        assert mean_err[0.5] > mean_err[0.2] > mean_err[0.1]

    def test_scores_bitwise_independent_of_threads(self):
        # k = 171 rows: three 64-row blocks, the last one partial, in one,
        # two or three chunks; the squared norms are summed per block.
        g = grid_graph(30)
        h = hierarchy_for(g)
        assert sketch_dimension(g.n, 0.2) == 171
        tables = [
            cf_closeness_projection(h, range(g.n), epsilon=0.2, seed=1, threads=t)
            for t in (1, 2, 4)
        ]
        assert tables[0].scores == tables[1].scores == tables[2].scores


class TestShortestPath:
    def test_p3_middle(self):
        table = sp_closeness(path_graph(3), [1])
        assert table.scores[1] == pytest.approx(1.0)

    def test_k3_every_node(self):
        table = sp_closeness(complete_graph(3), [0, 1, 2])
        assert all(v == pytest.approx(1.0) for v in table.scores.values())

    def test_weighted_path_lengths(self):
        g = Graph.from_edges([0, 1], [1, 2], [2.0, 3.0])
        table = sp_closeness(g, [0])
        assert table.scores[0] == pytest.approx(2.0 / 7.0)

    def test_median_maximizes_on_paths(self):
        for n in (5, 7):
            table = sp_closeness(path_graph(n), range(n))
            scores = table.vector(range(n))
            assert scores.argmax() == n // 2


class TestDegreeAsymptotic:
    def test_k3(self):
        table = degree_asymptotic(complete_graph(3), [0])
        assert table.scores[0] == pytest.approx(1.0)

    def test_star_center_and_leaf(self):
        g = star_graph(4)
        table = degree_asymptotic(g, [0, 1])
        assert table.scores[0] == pytest.approx(3.0 / 4.0)
        assert table.scores[1] == pytest.approx(9.0 / 16.0)

    def test_weighted_degrees_used(self):
        g = Graph.from_edges([0], [1], [4.0])
        table = degree_asymptotic(g, [0, 1])
        assert table.scores[0] == pytest.approx(1.0 / (2 * 0.25))


class TestScoreOrdering:
    def test_cf_and_sp_maximized_at_path_median(self):
        for n in (5, 7):
            g = path_graph(n)
            h = hierarchy_for(g)
            cf = cf_closeness_exact(h, range(n)).vector(range(n))
            sp = sp_closeness(g, range(n)).vector(range(n))
            assert cf.argmax() == n // 2
            assert sp.argmax() == n // 2

    def test_all_measures_positive_and_tagged(self, rng):
        g = random_connected_graph(20, rng)
        h = hierarchy_for(g)
        tables = [
            cf_closeness_exact(h, [0, 1]),
            cf_closeness_sampling(h, [0, 1], k=5, seed=0),
            cf_closeness_projection(h, [0, 1], epsilon=0.5, seed=0),
            sp_closeness(g, [0, 1]),
            degree_asymptotic(g, [0, 1]),
        ]
        kinds = {t.measure for t in tables}
        assert kinds == set(Measure)
        for t in tables:
            assert all(v > 0 for v in t.scores.values())

    def test_cf_measures_report_the_hierarchy_tau(self, rng, monkeypatch):
        # The hierarchy is the one source of tau: every estimator solves
        # to it and reports it.
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 16)
        g = random_connected_graph(80, rng)
        h = hierarchy_for(g, tau=1e-7)
        tables = [
            cf_closeness_exact(h, [0, 1]),
            cf_closeness_sampling(h, [0, 1], k=5, seed=0),
            cf_closeness_projection(h, [0, 1], epsilon=0.5, seed=0),
        ]
        assert [t.params["tau"] for t in tables] == [1e-7] * 3
        assert 0 < h.stats.max_residual <= 1e-7


class TestValidation:
    def test_single_node_graph_rejected(self):
        g = Graph.from_edges([], [], n=1)
        with pytest.raises(DomainError):
            degree_asymptotic(g, [0])

    def test_empty_query_rejected(self):
        with pytest.raises(DomainError):
            sp_closeness(path_graph(3), [])

    def test_out_of_range_query(self):
        with pytest.raises(DomainError):
            sp_closeness(path_graph(3), [5])

    @pytest.mark.parametrize(
        "call",
        [
            lambda h: cf_closeness_sampling(h, [1.5], 3, 0),
            lambda h: next(node_solution_chunks(h, [1.7])),
            lambda h: resistance_sums(h, [1.5], [2]),
            lambda h: effective_resistance(h, 0.5, 3),
        ],
        ids=["check_query", "node_solution_chunks", "resistance_sums", "effective_resistance"],
    )
    def test_non_integer_node_ids_rejected(self, call):
        # Each used to truncate the id (or index with it) instead.
        h = setup(laplacian(path_graph(4)))
        with pytest.raises(DomainError, match="integers"):
            call(h)

    @pytest.mark.parametrize("measure", list(Measure), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "ids, message",
        [
            ([1.5], "integers"),
            (np.array([0.0, 1.0]), "integers"),
            ([4], "out of range"),
            ([0, -1], "out of range"),
            ([], "empty"),
        ],
        ids=["float", "float-array", "above", "negative", "empty"],
    )
    def test_every_measure_rejects_bad_query_ids(self, measure, ids, message):
        # All five measures validate their query through one node-id check.
        g = path_graph(4)
        h = setup(laplacian(g))
        with pytest.raises(DomainError, match=message):
            score(measure, g, h, ids, pivots=3)

    def test_integer_node_ids_accepted_in_every_form(self):
        h = setup(laplacian(path_graph(4)))
        expected = cf_closeness_sampling(h, [0, 1], 3, 0).scores
        for ids in (range(2), np.arange(2), np.arange(2, dtype=np.int32), [np.int64(0), 1]):
            assert cf_closeness_sampling(h, ids, 3, 0).scores == expected
        assert effective_resistance(h, np.int32(0), 1) == effective_resistance(h, 0, 1)
        # Empty sequences behave as before.
        assert list(node_solution_chunks(h, [])) == []
        assert resistance_sums(h, [], [2]).shape == (0,)
        with pytest.raises(DomainError, match="empty"):
            sp_closeness(path_graph(4), [])
