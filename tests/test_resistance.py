import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from cfcent import (
    DomainError,
    Graph,
    cf_closeness_projection,
    effective_resistance,
    laplacian,
    setup,
    solve_many,
)
from cfcent import resistance as resistance_module
from cfcent import solver as solver_module
from cfcent.generators import complete_graph, grid_graph, path_graph
from cfcent.resistance import (
    node_solution_chunks,
    resistance_sums,
    sketch_blocks,
    sketch_dimension,
)

from conftest import random_connected_graph, resistance_matrix_oracle, traced_peak_bytes


def hierarchy_for(g, **settings):
    return setup(laplacian(g), **settings)


class TestEffectiveResistance:
    def test_p2_single_resistor(self):
        h = hierarchy_for(path_graph(2))
        assert effective_resistance(h, 0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_p3_series_resistors_add(self):
        h = hierarchy_for(path_graph(3))
        assert effective_resistance(h, 0, 2) == pytest.approx(2.0, rel=1e-6)

    def test_k3_pseudoinverse_oracle(self):
        g = complete_graph(3)
        h = hierarchy_for(g)
        oracle = resistance_matrix_oracle(g)
        assert oracle[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert effective_resistance(h, 0, 1) == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_same_node_is_zero_without_solving(self):
        h = hierarchy_for(path_graph(2))
        assert effective_resistance(h, 1, 1) == 0.0
        assert h.stats.solves == 0

    def test_positive_for_distinct_nodes(self, rng):
        g = random_connected_graph(30, rng, weighted=True)
        h = hierarchy_for(g)
        for _ in range(5):
            u, v = rng.choice(30, size=2, replace=False)
            assert effective_resistance(h, int(u), int(v)) > 0

    def test_parallel_conductances(self):
        # two nodes joined by merged parallel edges of 1.5 and 0.5
        g = Graph.from_edges([0, 0], [1, 1], [1.5, 0.5])
        h = hierarchy_for(g)
        assert effective_resistance(h, 0, 1) == pytest.approx(0.5, rel=1e-8)


class TestResistancesFromNode:
    """``resistance_sums`` with one source: the resistances from it."""

    def test_self_target(self):
        h = hierarchy_for(path_graph(3))
        assert resistance_sums(h, [1], [1]).tolist() == [0.0]

    def test_p3_series_law(self):
        h = hierarchy_for(path_graph(3))
        out = resistance_sums(h, [1, 2], [0])
        assert out == pytest.approx([1.0, 2.0], rel=1e-6)

    def test_agrees_with_pairwise_route(self, rng):
        g = random_connected_graph(50, rng, weighted=True)
        tau = 1e-7
        h = hierarchy_for(g, tau=tau)
        targets = rng.choice(50, size=12, replace=False)
        amortized = resistance_sums(h, targets, [3])
        scale = max(amortized.max(), 1.0)
        for w, d in zip(targets, amortized):
            pairwise = effective_resistance(h, 3, int(w))
            assert abs(pairwise - d) <= 10 * tau * scale

    def test_streamed_targets_independent_of_threads(self, rng, monkeypatch):
        # More targets than one 64-wide block, with repeats and the source
        # itself among them: the stream's chunks start on block boundaries,
        # and each distinct node is solved once.
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 16)
        g = random_connected_graph(300, rng, extra_edge_prob=0.02)
        h = hierarchy_for(g)
        v = 7
        targets = np.r_[np.arange(150), [v, 3, 3, 299, v], np.arange(140, 60, -1)]
        assert targets.size > 2 * 64
        inner = resistance_module.solve_many
        solved = []

        def spy(hierarchy, supplies, *args, **kwargs):
            solved.extend(np.argmax(supplies, axis=1).tolist())  # e_x - 1/n peaks at x
            return inner(hierarchy, supplies, *args, **kwargs)

        monkeypatch.setattr(resistance_module, "solve_many", spy)
        out = {}
        for t in (1, 2):
            solved.clear()
            out[t] = resistance_sums(h, targets, [v], threads=t)
            assert sorted(solved) == np.union1d(targets, [v]).tolist()
        assert np.array_equal(out[1], out[2])
        assert np.all(out[1][targets == v] == 0.0)
        assert np.all(out[1][targets != v] > 0.0)
        oracle = resistance_matrix_oracle(g)[v, targets]
        assert out[1] == pytest.approx(oracle, rel=1e-4)


class TestResistanceSums:
    def test_four_entry_sums_match_oracle(self, rng):
        g = random_connected_graph(40, rng, weighted=True)
        h = hierarchy_for(g, tau=1e-10)
        targets, sources = np.array([0, 5, 5, 9]), np.array([9, 0, 3])
        sums = resistance_sums(h, targets, sources)
        assert sums.shape == (4,)
        assert sums[1] == sums[2]  # a repeated target
        oracle = resistance_matrix_oracle(g)[np.ix_(targets, sources)].sum(axis=1)
        assert sums == pytest.approx(oracle, rel=1e-7, abs=1e-12)
        assert resistance_sums(h, [5], [5]).tolist() == [0.0]


class TestNodeSolutionChunks:
    def test_chunks_are_whole_blocks_independent_of_threads(self, rng, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 16)
        g = random_connected_graph(300, rng, extra_edge_prob=0.02)
        h = hierarchy_for(g)
        nodes = rng.permutation(300)[:150]
        streamed = {}
        for threads, widths in ((1, [64, 64, 22]), (2, [128, 22])):
            chunks = list(node_solution_chunks(h, nodes, threads=threads))
            assert [c.size for c, _ in chunks] == widths
            assert np.array_equal(np.concatenate([c for c, _ in chunks]), nodes)
            streamed[threads] = np.vstack([z for _, z in chunks])
        assert np.array_equal(streamed[1], streamed[2])

    def test_rows_solve_node_supplies(self, rng):
        g = random_connected_graph(40, rng, weighted=True)
        h = hierarchy_for(g, tau=1e-9)
        lap = laplacian(g).toarray()
        [(chunk, z)] = node_solution_chunks(h, [5, 0, 17])
        supplies = np.eye(40)[chunk] - 1.0 / 40
        assert np.abs(z @ lap - supplies).max() < 1e-7
        assert np.abs(z.sum(axis=1)).max() < 1e-10

    def test_yields_the_array_solve_many_returned(self, rng, monkeypatch):
        # No stacking copy: each chunk's ``z`` is the solver's own output.
        g = random_connected_graph(100, rng)
        h = hierarchy_for(g)
        inner = resistance_module.solve_many
        returned = []

        def spy(*args, **kwargs):
            returned.append(inner(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(resistance_module, "solve_many", spy)
        chunks = list(node_solution_chunks(h, np.arange(100)))
        assert len(chunks) == len(returned) == 2
        for (_, z), (x, _) in zip(chunks, returned):
            assert z is x

    def test_out_of_range_rejected(self):
        h = hierarchy_for(path_graph(4))
        for bad in ([4], [-1]):
            with pytest.raises(DomainError):
                next(node_solution_chunks(h, bad))


class TestMetricLaws:
    def test_metric_on_all_small_graphs(self):
        # exhaustive over all connected graphs on 4 nodes: symmetry and
        # triangle inequality of the resistance distance
        nodes = range(4)
        pairs = list(itertools.combinations(nodes, 2))
        for mask in range(1, 2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph.from_edges([e[0] for e in edges], [e[1] for e in edges], n=4)
            if g.n < 4 or not g.is_connected():
                continue
            r = resistance_matrix_oracle(g)
            assert np.allclose(r, r.T, atol=1e-10)
            for a, b, c in itertools.permutations(nodes, 3):
                assert r[a, c] <= r[a, b] + r[b, c] + 1e-9

    def test_solver_route_matches_oracle_on_weighted_graphs(self, rng):
        for _ in range(5):
            g = random_connected_graph(8, rng, weighted=True)
            h = hierarchy_for(g, tau=1e-9)
            oracle = resistance_matrix_oracle(g)
            for u, v in itertools.combinations(range(8), 2):
                assert effective_resistance(h, u, v) == pytest.approx(
                    oracle[u, v], rel=1e-6
                )

    def test_series_law_on_weighted_path(self):
        g = Graph.from_edges([0, 1, 2], [1, 2, 3], [2.0, 4.0, 0.5])
        h = hierarchy_for(g)
        expected = 1 / 2.0 + 1 / 4.0 + 1 / 0.5
        assert effective_resistance(h, 0, 3) == pytest.approx(expected, rel=1e-6)

    def test_commute_time_identity_monte_carlo(self):
        # volume times resistance equals the round-trip expectation of a
        # weighted random walk
        rng = np.random.default_rng(99)
        g = Graph.from_edges([0, 0, 1, 2, 3], [1, 2, 2, 3, 4], [1.0, 2.0, 1.0, 1.0, 3.0])
        h = hierarchy_for(g)
        u, v = 0, 4
        resistance = effective_resistance(h, u, v)
        volume = g.degrees().sum()
        expected = volume * resistance

        adjacency = [g.neighbors(x) for x in range(g.n)]
        cum = [np.cumsum(w) / w.sum() for _, w in adjacency]
        walks = 500_000  # one million directional walks in total
        total_steps = 0
        for start, goal in ((u, v), (v, u)):
            pos = np.full(walks, start)
            alive = np.ones(walks, dtype=bool)
            while alive.any():
                idx = np.nonzero(alive)[0]
                total_steps += idx.size
                draws = rng.random(idx.size)
                snapshot = pos[idx]
                for node in np.unique(snapshot):
                    mask = snapshot == node
                    nbrs, _ = adjacency[node]
                    pos[idx[mask]] = nbrs[np.searchsorted(cum[node], draws[mask])]
                alive[pos == goal] = False
        measured = total_steps / walks
        assert measured == pytest.approx(expected, rel=0.05)


def stacked_sketch(h, epsilon, seed, threads=1):
    """The ``k x n`` sketch for distortion ``epsilon``: every block, stacked."""
    blocks = sketch_blocks(h, sketch_dimension(h.n, epsilon), seed, threads=threads)
    return np.concatenate(list(blocks))


def sketch_distance(z, u, v):
    diff = z[:, u] - z[:, v]
    return float(diff @ diff)


class TestSketch:
    def test_dimension_formula(self):
        assert sketch_dimension(2, 0.5) == 3  # ceil(ln 2 / 0.25)
        assert sketch_dimension(500, 0.2) == int(np.ceil(np.log(500) / 0.04))

    def test_p2_sketch_distance_within_band(self):
        g = path_graph(2)
        h = hierarchy_for(g)
        hits = 0
        for seed in range(10):
            sk = stacked_sketch(h, epsilon=0.5, seed=seed)
            assert sk.shape == (3, 2)
            if 0.5 <= sketch_distance(sk, 0, 1) <= 1.5:
                hits += 1
        assert hits >= 6  # true resistance is 1; most seeds land in band

    def test_deterministic_for_fixed_seed(self, rng):
        g = random_connected_graph(40, rng)
        h = hierarchy_for(g)
        a = stacked_sketch(h, epsilon=0.4, seed=11)
        b = stacked_sketch(h, epsilon=0.4, seed=11)
        assert np.array_equal(a, b)
        c = stacked_sketch(h, epsilon=0.4, seed=12)
        assert not np.array_equal(a, c)

    def test_rhs_rows_sum_to_zero(self, rng):
        # signed combinations of incidence rows are balanced by construction
        g = random_connected_graph(30, rng, weighted=True)
        h = hierarchy_for(g)
        sk = stacked_sketch(h, epsilon=0.5, seed=0)
        # solved rows stay mean-centered
        assert np.abs(sk.mean(axis=1)).max() < 1e-10

    def test_epsilon_validation(self, rng):
        # sketch_dimension is the one check: epsilon = 0 must not reach
        # its division.
        g = random_connected_graph(10, rng)
        h = hierarchy_for(g)
        for bad in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(DomainError, match="epsilon"):
                sketch_dimension(g.n, bad)
            with pytest.raises(DomainError, match="epsilon"):
                cf_closeness_projection(h, [0], epsilon=bad, seed=0)

    def test_bad_epsilon_raises_before_any_solve(self, rng, monkeypatch):
        g = random_connected_graph(10, rng)
        h = hierarchy_for(g)
        calls = []
        inner = resistance_module.solve_many

        def spy(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(resistance_module, "solve_many", spy)
        with pytest.raises(DomainError, match="epsilon"):
            cf_closeness_projection(h, [0], epsilon=0.0, seed=0)
        assert calls == []
        cf_closeness_projection(h, [0], epsilon=0.5, seed=0)
        assert calls != []  # the spy sees the stream's solves

    def test_dimension_below_one_rejected(self, rng):
        h = hierarchy_for(random_connected_graph(10, rng))
        for k in (0, -3):
            with pytest.raises(DomainError, match="sketch dimension"):
                next(sketch_blocks(h, k, 0))

    def test_distance_sums_match_pairwise(self, rng):
        g = random_connected_graph(30, rng)
        h = hierarchy_for(g)
        sk = stacked_sketch(h, epsilon=0.5, seed=4)
        table = cf_closeness_projection(h, [5, 17], epsilon=0.5, seed=4)
        for node in [5, 17]:
            total = (g.n - 1) / table.scores[node]
            direct = sum(sketch_distance(sk, node, w) for w in range(g.n))
            assert total == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("nodes", [None, "all", [17, 0, 5, 17]], ids=["none", "all", "subset"])
    def test_distance_sums_match_pairwise_brute_force(self, rng, nodes):
        # The projection's distance sums, read back from its scores, equal
        # the sums over every pair of columns of the same sketch.  Every
        # node is queried as a range (none) or as a list (all).
        g = random_connected_graph(40, rng)
        h = hierarchy_for(g)
        sk = stacked_sketch(h, epsilon=0.5, seed=7)
        diff = sk[:, :, None] - sk[:, None, :]
        brute = np.einsum("kvw,kvw->v", diff, diff)
        idx = np.arange(g.n) if nodes in (None, "all") else np.asarray(nodes)
        arg = range(g.n) if nodes is None else idx.tolist()
        table = cf_closeness_projection(h, arg, epsilon=0.5, seed=7)
        assert table.params["k"] == sk.shape[0]
        sums = (g.n - 1) / table.vector(idx)
        assert sums == pytest.approx(brute[idx], rel=1e-9)

    def test_distance_sums_for_all_nodes_do_not_copy_the_sketch(self):
        # The projection streams the sketch's solved chunks and keeps only
        # per-node sums, so it never holds a k x n array, let alone a copy.
        g = grid_graph(30)
        h = hierarchy_for(g)
        k = sketch_dimension(g.n, 0.1)
        assert k == 681  # so one k x n array dwarfs a 64-row chunk
        peak = traced_peak_bytes(
            lambda: cf_closeness_projection(h, range(g.n), epsilon=0.1, seed=0)
        )
        assert peak < k * g.n * 8

    def test_distortion_concentrates_around_one(self, rng):
        # Relative distortion of sketched distances is chi-square-like
        # with sqrt(2/k) spread: most pairs land in the (1 +- eps) band,
        # and the median distortion is near 1.  (The fraction outside the
        # band at k = ceil(ln n / eps^2) is a few percent, not 1/n; see
        # the acceptance suite for that stated bound.)
        g = random_connected_graph(120, rng, extra_edge_prob=0.05)
        oracle = resistance_matrix_oracle(g)
        h = hierarchy_for(g)
        eps = 0.5
        ratios = []
        for seed in range(3):
            sk = stacked_sketch(h, epsilon=eps, seed=seed)
            pairs = [(int(a), int(b)) for a, b in rng.integers(0, g.n, (300, 2)) if a != b]
            for a, b in pairs:
                ratios.append(sketch_distance(sk, a, b) / oracle[a, b])
        ratios = np.asarray(ratios)
        in_band = ((ratios >= 1 - eps) & (ratios <= 1 + eps)).mean()
        assert in_band >= 0.85
        assert np.median(ratios) == pytest.approx(1.0, abs=0.1)

    def test_sign_block_is_freed_before_the_solve(self, monkeypatch):
        # Rows are drawn, pushed and solved in chunks of 64 * threads.  On
        # entering each chunk's solve, the chunks solved so far, the
        # chunk's right-hand sides and little else are held, which together
        # stay below one sketch plus half the right-hand sides; an 8-row
        # sign block kept alive through the last solve would break that.
        g = grid_graph(60)
        h = hierarchy_for(g)
        inner = resistance_module.solve_many
        for threads in (1, 2):
            calls = []

            def spy(hierarchy, supplies, *args, **kwargs):
                calls.append((tracemalloc.get_traced_memory()[0], np.asarray(supplies).nbytes))
                return inner(hierarchy, supplies, *args, **kwargs)

            monkeypatch.setattr(resistance_module, "solve_many", spy)
            tracemalloc.start()
            try:
                sk = stacked_sketch(h, epsilon=0.2, seed=0, threads=threads)
            finally:
                tracemalloc.stop()
            assert len(calls) == -(-sk.shape[0] // (64 * threads)) > 1
            for held, rhs in calls:
                assert held < sk.nbytes + 1.5 * rhs

    def test_sketch_is_independent_of_threads_and_chunking(self):
        # One draw of all k sign rows and one solve of all k right-hand
        # sides give the same bits as the chunked draws and solves.
        g = grid_graph(30)
        h = hierarchy_for(g)
        epsilon, seed = 0.2, 5
        k = sketch_dimension(g.n, epsilon)
        assert k > 2 * 64  # several blocks, and a partial last one
        eu, ev, ew = g.edge_array()
        edges = np.arange(g.m)
        scaled_t = sp.csr_matrix(
            (np.r_[np.sqrt(ew), -np.sqrt(ew)], (np.r_[eu, ev], np.r_[edges, edges])),
            shape=(g.n, g.m),
        )
        signs = np.random.default_rng(seed).integers(0, 2, size=(k, g.m))
        q = (signs.astype(np.float64) * 2.0 - 1.0) * (1.0 / math.sqrt(k))
        rhs = np.ascontiguousarray((scaled_t @ q.T).T)
        rhs -= rhs.mean(axis=1, keepdims=True)
        reference, _ = solve_many(h, rhs)
        for threads in (1, 2, 4):
            blocks = list(sketch_blocks(h, k, seed, threads=threads))
            assert [b.shape[0] for b in blocks[:-1]] == [64] * (len(blocks) - 1)
            assert 1 <= blocks[-1].shape[0] <= 64
            assert np.array_equal(np.concatenate(blocks), reference)
