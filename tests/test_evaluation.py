import numpy as np
import pytest

from cfcent import (
    DomainError,
    Measure,
    UndefinedMetricError,
    degree_correlation_experiment,
    max_relative_error,
    noise_resilience,
    rank_inversions,
    relative_std_dev,
    spearman,
)
from cfcent import evaluation
from cfcent.evaluation import compare_rankings
from cfcent.generators import complete_graph, grid_graph, path_graph

from conftest import random_connected_graph


class TestSpearman:
    def test_identical(self):
        assert spearman([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_single_swap(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_ties_get_average_ranks(self):
        # (1, 1, 2) ranks to (1.5, 1.5, 3)
        assert spearman([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)

    def test_all_tied_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            spearman([2, 2, 2], [1, 2, 3])

    def test_monotone_transform_invariance(self, rng):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 3.0 * y + 7.0) == pytest.approx(base, abs=1e-12)

    def test_length_validation(self):
        with pytest.raises(DomainError):
            spearman([1.0], [2.0])

    def test_average_ranks_match_scipy_rankdata(self, rng):
        from scipy.stats import rankdata

        for _ in range(200):
            size = int(rng.integers(0, 60))
            values = rng.integers(0, int(rng.integers(1, 12)), size=size).astype(float)
            values[rng.random(size) < 0.1] *= -0.5  # negatives and -0.0
            assert np.array_equal(evaluation._average_ranks(values), rankdata(values))
        with_nan = np.array([2.0, np.nan, 1.0, 2.0])
        assert np.array_equal(
            evaluation._average_ranks(with_nan), rankdata(with_nan), equal_nan=True
        )


def all_pairs_inversions(exact, approx):
    """Reference rank_inversions over the full q x q sign matrices."""
    x = np.asarray(exact, dtype=np.float64)
    y = np.asarray(approx, dtype=np.float64)
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    concordant = (sx == sy) & ((sx != 0) | (sy != 0))
    both_tied = (sx == 0) & (sy == 0)
    bad = ~(concordant | both_tied)
    iu = np.triu_indices(x.size, 1)
    count = int(bad[iu].sum())
    return count, count / iu[0].size


class TestRankInversions:
    def test_identical_vectors(self):
        assert rank_inversions([1, 2, 3], [1, 2, 3]) == (0, 0.0)

    def test_reversed_distinct_counts_all_pairs(self):
        count, pct = rank_inversions([1, 2, 3], [3, 2, 1])
        assert count == 3
        assert pct == pytest.approx(1.0)

    def test_tie_against_strict_order_counts(self):
        # strict order in one vector opposed by a tie in the other
        count, _ = rank_inversions([1, 2], [1, 1])
        assert count == 1

    def test_self_comparison_with_ties_is_zero(self):
        assert rank_inversions([2, 2, 5], [2, 2, 5])[0] == 0

    def test_no_tie_symmetry(self, rng):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        assert rank_inversions(x, y) == rank_inversions(y, x)

    def test_brute_force_oracle(self, rng):
        # literal pair enumeration of the definition
        x = rng.integers(0, 5, size=12).astype(float)
        y = rng.integers(0, 5, size=12).astype(float)
        expected = 0
        for i in range(12):
            for j in range(i + 1, 12):
                strict_opposed = (
                    (x[i] < x[j] and y[i] >= y[j])
                    or (x[i] > x[j] and y[i] <= y[j])
                    or (y[i] < y[j] and x[i] >= x[j])
                    or (y[i] > y[j] and x[i] <= x[j])
                )
                expected += bool(strict_opposed)
        assert rank_inversions(x, y)[0] == expected

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
    def test_row_blocks_match_all_pairs_reference(self, rng, monkeypatch, block):
        monkeypatch.setattr(evaluation, "RANK_BLOCK_ELEMENTS", block)
        for q in (2, 3, 17, 120):
            x = rng.integers(0, 6, size=q).astype(float)  # many ties
            y = np.where(rng.random(q) < 0.5, x, rng.integers(0, 6, size=q))
            assert rank_inversions(x, y) == all_pairs_inversions(x, y)
            assert rank_inversions(x, x) == (0, 0.0)

    def test_bounded_by_pair_count(self, rng):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        count, pct = rank_inversions(x, y)
        assert count <= 15 * 14 // 2
        assert 0.0 <= pct <= 1.0

    def test_thousand_scores_peak_under_six_mb(self, rng):
        # The compare command ranks every node, q = n; the row blocks keep
        # the pair temporaries to a few MB whatever q is.
        import tracemalloc

        x = rng.standard_normal(1000)
        y = x + 0.3 * rng.standard_normal(1000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = rank_inversions(x, y)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result == all_pairs_inversions(x, y)
        assert peak <= 6 * 2**20


class TestMaxRelativeError:
    def test_identical(self):
        assert max_relative_error([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_factor_two_either_direction(self):
        assert max_relative_error([2.0], [1.0]) == pytest.approx(2.0)
        assert max_relative_error([1.0], [2.0]) == pytest.approx(2.0)

    def test_argument_symmetry(self, rng):
        x = rng.uniform(0.5, 2.0, size=30)
        y = rng.uniform(0.5, 2.0, size=30)
        assert max_relative_error(x, y) == pytest.approx(max_relative_error(y, x))

    def test_always_at_least_one(self, rng):
        x = rng.uniform(0.5, 2.0, size=30)
        y = x * rng.uniform(0.9, 1.1, size=30)
        assert max_relative_error(x, y) >= 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            max_relative_error([1.0, -1.0], [1.0, 1.0])


class TestRelativeStdDev:
    def test_constant_vector(self):
        assert relative_std_dev([3.0, 3.0, 3.0]) == pytest.approx(0.0)

    def test_hand_computed(self):
        # mean 2, population std 1
        assert relative_std_dev([1.0, 3.0]) == pytest.approx(0.5)

    def test_scale_invariance(self, rng):
        x = rng.uniform(1.0, 5.0, size=25)
        assert relative_std_dev(7.0 * x) == pytest.approx(relative_std_dev(x))

    def test_zero_mean_undefined(self):
        with pytest.raises(UndefinedMetricError):
            relative_std_dev([1.0, -1.0])


class TestCompareRankings:
    def test_self_comparison(self, rng):
        x = rng.standard_normal(30)
        result = compare_rankings(x, x)
        assert result.spearman == pytest.approx(1.0)
        assert result.inversions == 0
        assert result.q == 30

    def test_inversion_pct_is_a_percentage(self):
        result = compare_rankings([1, 2, 3], [3, 2, 1])
        assert result.inversions == 3
        assert result.inversion_pct == 100.0


class TestNoiseResilience:
    def test_control_fraction_gives_one(self, rng):
        g = random_connected_graph(60, rng)
        out = noise_resilience(
            g, Measure.SP_CLOSENESS, list(range(10)), [0.0], seed=3
        )
        assert out[0] == pytest.approx(1.0)

    def test_duplicate_fractions_identical(self, rng):
        g = random_connected_graph(80, rng)
        out = noise_resilience(
            g, Measure.SP_CLOSENESS, list(range(12)), [0.05, 0.05], seed=3
        )
        assert out[0] == out[1]

    def test_values_in_range_and_deterministic(self, rng):
        g = random_connected_graph(80, rng)
        query = [int(x) for x in rng.choice(80, 15, replace=False)]
        a = noise_resilience(g, Measure.CF_SAMPLING, query, [0.0, 0.1], seed=5, pivots=8)
        b = noise_resilience(g, Measure.CF_SAMPLING, query, [0.0, 0.1], seed=5, pivots=8)
        assert a == b
        assert all(-1.0 <= v <= 1.0 for v in a)
        assert a[0] == pytest.approx(1.0)

    def test_control_reuses_the_baseline(self, rng, monkeypatch):
        calls = []
        real = evaluation.setup

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "setup", counting)
        g = random_connected_graph(80, rng)
        out = noise_resilience(g, Measure.CF_SAMPLING, list(range(15)), [0.0, 0.1],
                               seed=5, pivots=8)
        assert len(calls) == 2  # the baseline and the 0.1 perturbation
        assert out[0] == pytest.approx(1.0)

    def test_unsupported_measure_rejected(self, rng):
        g = random_connected_graph(20, rng)
        with pytest.raises(DomainError):
            noise_resilience(g, Measure.CF_PROJECTION, [0, 1], [0.1], seed=0)

    def test_fraction_bounds(self, rng):
        g = random_connected_graph(20, rng)
        with pytest.raises(DomainError):
            noise_resilience(g, Measure.SP_CLOSENESS, [0, 1], [0.7], seed=0)


class TestDegreeCorrelation:
    def test_self_correlation_is_one(self):
        # the degree score correlates perfectly with itself wherever defined
        from cfcent import degree_asymptotic

        g = grid_graph(6)
        scores = degree_asymptotic(g, range(36)).vector(range(36))
        assert spearman(scores, scores) == pytest.approx(1.0)

    def test_regular_graph_undefined(self):
        g = complete_graph(6)
        with pytest.raises(UndefinedMetricError):
            degree_correlation_experiment(g, list(range(6)), pivots=3, seed=0)

    def test_returns_both_measures(self, rng):
        g = random_connected_graph(60, rng)
        out = degree_correlation_experiment(g, list(range(25)), pivots=10, seed=1)
        assert set(out) == {Measure.SP_CLOSENESS, Measure.CF_SAMPLING}
        assert all(-1.0 <= v <= 1.0 for v in out.values())

    def test_current_flow_tracks_degree_closer_than_sp_on_ba(self):
        from cfcent.generators import barabasi_albert_graph

        g = barabasi_albert_graph(600, 3, seed=4)
        rng = np.random.default_rng(1)
        query = [int(x) for x in rng.choice(g.n, 80, replace=False)]
        out = degree_correlation_experiment(g, query, pivots=20, seed=2)
        assert out[Measure.CF_SAMPLING] > out[Measure.SP_CLOSENESS]
        assert out[Measure.CF_SAMPLING] > 0.5
