"""Ranking-comparison metrics and the perturbation experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .centrality import CURRENT_FLOW, Measure, degree_asymptotic, score
from .errors import DomainError, UndefinedMetricError
from .graph import Graph, insert_noise_edges, laplacian
from .solver import setup

__all__ = [
    "RankComparison",
    "spearman",
    "rank_inversions",
    "max_relative_error",
    "relative_std_dev",
    "noise_resilience",
    "degree_correlation_experiment",
]

RANK_BLOCK_ELEMENTS = 1 << 17  # pair comparisons held at once by rank_inversions


@dataclass(frozen=True)
class RankComparison:
    spearman: float
    inversions: int
    inversion_pct: float
    q: int


def compare_rankings(exact: Sequence[float], approx: Sequence[float]) -> RankComparison:
    """Spearman correlation and rank inversions of ``approx`` against
    ``exact``; ``inversion_pct`` is the inversions' percentage of all pairs."""
    count, fraction = rank_inversions(exact, approx)
    return RankComparison(
        spearman=spearman(exact, approx),
        inversions=count,
        inversion_pct=100 * fraction,
        q=len(exact),
    )


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties given the mean of their positions.

    Equal values form one group of consecutive positions in a stable
    sort; the group's rank is the mean of its first and last position.
    Any NaN makes every rank NaN, as ``scipy.stats.rankdata`` does.
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    group = np.cumsum(first) - 1
    bounds = np.r_[np.flatnonzero(first), x.size]
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (bounds[group + 1] + bounds[group] + 1)
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation: Pearson correlation of average fractional ranks."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise DomainError("inputs must have equal length >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    vx = float(sx @ sx)
    vy = float(sy @ sy)
    if vx == 0.0 or vy == 0.0:
        raise UndefinedMetricError("rank variance is zero (all values tied)")
    return float(sx @ sy) / np.sqrt(vx * vy)


def rank_inversions(
    exact: Sequence[float], approx: Sequence[float]
) -> tuple[int, float]:
    """Pairs whose strict order in one score vector opposes the weak
    order in the other.

    A pair is counted unless it is strictly concordant or tied in both
    vectors, so a tie on one side against a strict order on the other is
    an inversion.  Returns the count and its fraction of all pairs.
    """
    x = np.asarray(exact, dtype=np.float64)
    y = np.asarray(approx, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise DomainError("inputs must have equal length >= 2")
    q = x.size
    # A pair is concordant or tied in both exactly when the two signs
    # agree.  Row i of a block is compared with columns lo+1..q-1, of
    # which triu keeps j > i; the signs overwrite the differences, so
    # memory is about two float blocks of RANK_BLOCK_ELEMENTS.
    rows = max(1, RANK_BLOCK_ELEMENTS // q)
    count = 0
    for lo in range(0, q - 1, rows):
        hi = min(lo + rows, q - 1)
        sx = np.subtract(x[lo:hi, None], x[None, lo + 1 :])
        sy = np.subtract(y[lo:hi, None], y[None, lo + 1 :])
        np.sign(sx, out=sx)
        np.sign(sy, out=sy)
        count += int(np.count_nonzero(np.triu(sx != sy)))
    pairs = q * (q - 1) // 2
    return count, count / pairs


def max_relative_error(exact: Sequence[float], approx: Sequence[float]) -> float:
    """Worst per-node ratio max(r, 1/r) of exact to approximated scores."""
    x = np.asarray(exact, dtype=np.float64)
    y = np.asarray(approx, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise DomainError("inputs must have equal nonzero length")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("scores must be strictly positive")
    r = x / y
    return float(np.max(np.maximum(r, 1.0 / r)))


def relative_std_dev(scores: Sequence[float]) -> float:
    """Population standard deviation divided by the mean."""
    x = np.asarray(scores, dtype=np.float64)
    if x.size == 0:
        raise DomainError("scores must be nonempty")
    mean = x.mean()
    if mean == 0.0:
        raise UndefinedMetricError("mean is zero; relative deviation undefined")
    return float(x.std() / mean)


def _measure_scores(
    g: Graph,
    measure: Measure,
    query_nodes: Sequence[int],
    pivots: int,
    seed: int,
    tau: float,
    threads: int,
) -> np.ndarray:
    hierarchy = setup(laplacian(g), tau=tau) if measure in CURRENT_FLOW else None
    table = score(measure, g, hierarchy, query_nodes, pivots=pivots, seed=seed, threads=threads)
    return table.vector(query_nodes)


def _fraction_seed(seed: int, fraction: float) -> int:
    ss = np.random.SeedSequence([int(seed), int(round(fraction * 10**9))])
    return int(ss.generate_state(1)[0])


def noise_resilience(
    g: Graph,
    measure: Measure,
    query_nodes: Sequence[int],
    fractions: Sequence[float],
    seed: int,
    *,
    pivots: int = 20,
    tau: float = 1e-5,
    threads: int = 1,
) -> list[float]:
    """Rank stability of a measure under anchored random edge insertions.

    Baseline scores are computed on ``g``; for each fraction the graph is
    perturbed independently (never cumulatively) by edges anchored at the
    query nodes, scores are recomputed, and the rank correlation against
    the baseline is reported.  A fraction of 0 is the unperturbed
    control: rescoring ``g`` would repeat the baseline bit for bit, so
    the baseline is compared with itself.  Each perturbation is seeded
    deterministically from ``(seed, fraction)``, so repeated fractions
    repeat results.  The same ``seed`` draws the ``pivots`` of sampled
    closeness; every hierarchy is built to ``tau`` and depends on its
    graph alone.
    """
    if measure not in (Measure.CF_EXACT, Measure.CF_SAMPLING, Measure.SP_CLOSENESS):
        raise DomainError(f"unsupported noise-resilience measure {measure}")
    for fraction in fractions:
        if not 0 <= fraction <= 0.5:
            raise DomainError(f"fractions must lie in [0, 0.5], got {fraction}")
    baseline = _measure_scores(g, measure, query_nodes, pivots, seed, tau, threads)
    results = []
    for fraction in fractions:
        if fraction == 0:
            perturbed = baseline
        else:
            perturbed_graph = insert_noise_edges(
                g, fraction, query_nodes, _fraction_seed(seed, fraction)
            )
            perturbed = _measure_scores(
                perturbed_graph, measure, query_nodes, pivots, seed, tau, threads
            )
        results.append(spearman(baseline, perturbed))
    return results


def degree_correlation_experiment(
    g: Graph,
    query_nodes: Sequence[int],
    pivots: int = 20,
    seed: int = 0,
    *,
    tau: float = 1e-5,
    threads: int = 1,
) -> dict[Measure, float]:
    """Rank correlation of shortest-path and sampled current-flow
    closeness against the degree-based asymptotic score.

    Both measures are scored as :func:`noise_resilience` scores them:
    ``seed`` draws the pivot set, and the hierarchy is built to ``tau``.
    Raises :class:`UndefinedMetricError` on regular graphs, where the
    degree score is constant.
    """
    base = degree_asymptotic(g, query_nodes).vector(query_nodes)
    if np.ptp(base) == 0.0:
        raise UndefinedMetricError(
            "degree score is constant (regular graph); correlation undefined"
        )
    return {
        measure: spearman(
            _measure_scores(g, measure, query_nodes, pivots, seed, tau, threads), base
        )
        for measure in (Measure.SP_CLOSENESS, Measure.CF_SAMPLING)
    }
