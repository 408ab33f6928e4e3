"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they happen).  The heavy solver-contract and band criteria take
minutes; everything else runs in seconds.
"""

import itertools
import os
import time

import numpy as np
import pytest

import cfcent.generators as gen
from cfcent import (
    Graph,
    cf_closeness_exact,
    cf_closeness_sampling,
    degree_asymptotic,
    effective_resistance,
    insert_noise_edges,
    laplacian,
    largest_connected_component,
    load_edge_list,
    max_relative_error,
    rank_inversions,
    relative_std_dev,
    setup,
    solve_many,
    sp_closeness,
    spearman,
)
from cfcent import solver as solver_module
from cfcent.resistance import (
    node_solution_chunks,
    resistance_sums,
    sketch_blocks,
    sketch_dimension,
)

from conftest import (
    cf_scores_oracle,
    random_connected_graph,
    resistance_matrix_oracle,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def exact_scores_all_nodes(g, hierarchy, threads=4):
    """Exact current-flow closeness of every node from all n node solutions."""
    n = g.n
    z = np.vstack([z for _, z in node_solution_chunks(hierarchy, np.arange(n), threads=threads)])
    diag = z.diagonal()
    scores = np.empty(n)
    for v in range(n):
        dist = (z[v, v] - z[v]) - z[:, v] + diag
        scores[v] = (n - 1) / dist.sum()
    return scores


@pytest.fixture(scope="module")
def ba2000():
    g = gen.barabasi_albert_graph(2000, 3, seed=1)
    hierarchy = setup(laplacian(g))
    return g, hierarchy, exact_scores_all_nodes(g, hierarchy)


def test_criterion_01_exact_matches_pseudoinverse_oracle(rng, monkeypatch):
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 201))
        g = random_connected_graph(n, rng, weighted=trial % 3 == 2)
        # half the graphs with a tiny direct threshold so the multigrid
        # path is exercised even at these sizes
        monkeypatch.setattr(solver_module, "MAX_DIRECT_SIZE", 16 if trial % 2 else 200)
        hierarchy = setup(laplacian(g))
        got = cf_closeness_exact(hierarchy, range(n)).vector(range(n))
        expected = cf_scores_oracle(g)
        worst = max(worst, float(np.abs(got / expected - 1.0).max()))
    report("1 oracle equivalence", worst <= 1e-4, f"max relative error {worst:.2e}")


def test_criterion_02_solver_contract_1000_rhs():
    tau = 1e-5
    plan = [
        (gen.path_graph(2000), 200),
        (gen.path_graph(20000), 100),
        (gen.path_graph(100000), 34),
        (gen.grid_graph(45), 200),
        (gen.grid_graph(141), 100),
        (gen.grid_graph(316), 33),
        (gen.barabasi_albert_graph(2000, 3, seed=11), 200),
        (gen.barabasi_albert_graph(20000, 3, seed=12), 100),
        (gen.barabasi_albert_graph(100000, 3, seed=13), 33),
    ]
    assert sum(count for _, count in plan) == 1000
    rng = np.random.default_rng(2024)
    solved = 0
    worst = 0.0
    for g, count in plan:
        lap = laplacian(g)
        hierarchy = setup(lap, tau=tau)
        supplies = rng.standard_normal((count, g.n))
        supplies -= supplies.mean(axis=1, keepdims=True)
        x, _ = solve_many(hierarchy, supplies, threads=4)
        for b, row in zip(supplies, x):
            recomputed = np.linalg.norm(b - lap @ row) / np.linalg.norm(b)
            worst = max(worst, float(recomputed))
            solved += 1
    report(
        "2 solver contract",
        solved == 1000 and worst <= tau,
        f"{solved} solves, worst independent residual {worst:.2e}",
    )


def test_criterion_03_sampling_accuracy_desk_scale(ba2000):
    graphs = {}
    g_ba, h_ba, exact_ba = ba2000
    graphs["BA"] = (g_ba, h_ba, exact_ba)
    g_er, _ = largest_connected_component(gen.erdos_renyi_graph(2000, 8.0 / 2000, seed=2))
    h_er = setup(laplacian(g_er), tau=h_ba.tau)
    graphs["ER"] = (g_er, h_er, exact_scores_all_nodes(g_er, h_er))

    ok = True
    details = []
    for name, (g, hierarchy, exact) in graphs.items():
        spearmans, inversion_pcts = [], []
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            query = [int(x) for x in rng.choice(g.n, 100, replace=False)]
            table = cf_closeness_sampling(hierarchy, query, k=20, seed=seed, threads=4)
            approx = table.vector(query)
            spearmans.append(spearman(exact[query], approx))
            inversion_pcts.append(rank_inversions(exact[query], approx)[1])
        mean_sp = float(np.mean(spearmans))
        mean_inv = float(np.mean(inversion_pcts))
        ok &= mean_sp >= 0.99 and mean_inv <= 0.01
        details.append(
            f"{name}: mean spearman {mean_sp:.5f}, mean inversions {mean_inv:.3%} "
            f"(max {np.max(inversion_pcts):.3%})"
        )
    report("3 sampling accuracy", ok, "; ".join(details))


def test_criterion_03b_pgp_if_supplied():
    path = os.environ.get("CFCENT_PGP_PATH", "data/pgp.edges")
    if not os.path.exists(path):
        pytest.skip("PGP graph not supplied (set CFCENT_PGP_PATH)")
    with open(path) as handle:
        g, _ = largest_connected_component(load_edge_list(handle))
    hierarchy = setup(laplacian(g))
    rng = np.random.default_rng(0)
    query = [int(x) for x in rng.choice(g.n, 100, replace=False)]
    exact = exact_scores_all_nodes(g, hierarchy)[query]
    table = cf_closeness_sampling(hierarchy, query, k=20, seed=0)
    rho = spearman(exact, table.vector(query))
    report("3b PGP sampling", rho >= 0.999, f"spearman {rho:.5f} at 20 pivots")


def test_criterion_04_unbiasedness_exhaustive(rng):
    n = 7
    g = random_connected_graph(n, rng, weighted=True)
    hierarchy = setup(laplacian(g), tau=1e-10)
    start = time.perf_counter()
    worst = 0.0
    for v in range(n):
        dist = resistance_sums(hierarchy, np.arange(n), [v])
        s_v = dist.sum()
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(n), k))
            average = float(
                np.mean([(n / k) * sum(dist[s] for s in subset) for subset in subsets])
            )
            worst = max(worst, abs(average / s_v - 1.0))
    elapsed = time.perf_counter() - start
    report(
        "4 unbiasedness",
        worst <= 1e-9 and elapsed < 1.0,
        f"max relative deviation {worst:.2e} in {elapsed:.2f}s",
    )


_BAND_MEMO = {}


def _projection_band_stats(epsilon, seeds):
    if (epsilon, seeds) in _BAND_MEMO:
        return _BAND_MEMO[(epsilon, seeds)]
    n = 500
    rng = np.random.default_rng(7)
    g = random_connected_graph(n, rng, extra_edge_prob=10.0 / n)
    oracle = resistance_matrix_oracle(g)
    iu, iv = np.triu_indices(n, 1)
    exact_pairs = oracle[iu, iv]
    exact_scores = (n - 1) / oracle.sum(axis=1)
    hierarchy = setup(laplacian(g))
    in_band_fractions, emaxes = [], []
    for seed in range(seeds):
        k = sketch_dimension(n, epsilon)
        z = np.concatenate(list(sketch_blocks(hierarchy, k, seed, threads=4)))
        col_sq = np.einsum("ij,ij->j", z, z)
        gram = z.T @ z
        dist = col_sq[:, None] + col_sq[None, :] - 2.0 * gram
        ratio = dist[iu, iv] / exact_pairs
        in_band_fractions.append(
            float(((ratio >= 1 - epsilon) & (ratio <= 1 + epsilon)).mean())
        )
        approx_scores = (n - 1) / dist.sum(axis=1)
        emaxes.append(max_relative_error(exact_scores, approx_scores))
    _BAND_MEMO[(epsilon, seeds)] = (n, in_band_fractions, emaxes)
    return _BAND_MEMO[(epsilon, seeds)]


def test_criterion_05a_projection_pairwise_band():
    ok = True
    details = []
    for epsilon in (0.5, 0.2):
        n, fractions, _ = _projection_band_stats(epsilon, seeds=10)
        needed = 1.0 - 1.0 / n
        worst = min(fractions)
        ok &= worst >= needed
        details.append(f"eps={epsilon}: worst in-band fraction {worst:.4f} (need {needed:.4f})")
    report("5a projection pairwise band", ok, "; ".join(details))


def test_criterion_05b_projection_closeness_error():
    ok = True
    details = []
    for epsilon in (0.5, 0.2):
        _, _, emaxes = _projection_band_stats(epsilon, seeds=10)
        worst = max(emaxes)
        ok &= worst <= 1.0 + epsilon
        details.append(f"eps={epsilon}: worst e_max {worst:.3f} (need <= {1 + epsilon})")
    report("5b projection closeness error", ok, "; ".join(details))


def test_criterion_06_discriminative_power(ba2000):
    g, _, exact = ba2000
    sp_all = sp_closeness(g, range(g.n)).vector(range(g.n))
    wins = 0
    pairs = []
    for seed in range(5):
        rng = np.random.default_rng(600 + seed)
        query = rng.choice(g.n, 100, replace=False)
        rsd_er = relative_std_dev(exact[query])
        rsd_sp = relative_std_dev(sp_all[query])
        wins += rsd_er > rsd_sp
        pairs.append(f"{rsd_er:.3f}>{rsd_sp:.3f}")
    report("6 discriminative power", wins >= 4, f"{wins}/5 seeds ({', '.join(pairs)})")


def test_criterion_07_noise_resilience_direction(ba2000):
    g, hierarchy, _ = ba2000
    cf_vals, sp_vals = [], []
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        query = [int(x) for x in rng.choice(g.n, 100, replace=False)]
        perturbed = insert_noise_edges(g, 0.10, query, seed=800 + seed)
        h_pert = setup(laplacian(perturbed), tau=hierarchy.tau)

        base_cf = cf_closeness_sampling(
            hierarchy, query, k=20, seed=seed, threads=4
        ).vector(query)
        pert_cf = cf_closeness_sampling(
            h_pert, query, k=20, seed=seed, threads=4
        ).vector(query)
        cf_vals.append(spearman(base_cf, pert_cf))

        base_sp = sp_closeness(g, query).vector(query)
        pert_sp = sp_closeness(perturbed, query).vector(query)
        sp_vals.append(spearman(base_sp, pert_sp))
    mean_cf, mean_sp = float(np.mean(cf_vals)), float(np.mean(sp_vals))
    report(
        "7 noise resilience direction",
        mean_cf > mean_sp,
        f"current-flow {mean_cf:.4f} vs shortest-path {mean_sp:.4f} at 10% insertion",
    )


def test_criterion_08a_degree_correlation_complex(ba2000):
    g, hierarchy, _ = ba2000
    c_a = degree_asymptotic(g, range(g.n)).vector(range(g.n))
    values = []
    for seed in range(5):
        rng = np.random.default_rng(810 + seed)
        query = [int(x) for x in rng.choice(g.n, 100, replace=False)]
        approx = cf_closeness_sampling(
            hierarchy, query, k=20, seed=seed, threads=4
        ).vector(query)
        values.append(spearman(approx, c_a[query]))
    mean_rho = float(np.mean(values))
    report("8a degree correlation (BA)", mean_rho >= 0.5, f"mean spearman {mean_rho:.3f}")


def test_criterion_08b_degree_correlation_grid():
    g = gen.grid_graph(50)
    hierarchy = setup(laplacian(g))
    c_a = degree_asymptotic(g, range(g.n)).vector(range(g.n))
    values = []
    for seed in range(5):
        rng = np.random.default_rng(820 + seed)
        query = [int(x) for x in rng.choice(g.n, 100, replace=False)]
        approx = cf_closeness_sampling(
            hierarchy, query, k=20, seed=seed, threads=4
        ).vector(query)
        values.append(spearman(approx, c_a[query]))
    mean_abs = float(np.abs(np.mean(values)))
    report(
        "8b degree correlation (grid)",
        mean_abs <= 0.3,
        f"|mean spearman| {mean_abs:.3f} on 50x50 grid",
    )


def test_criterion_09_near_linear_scaling():
    # ~20k and ~80k edges.  The sizes alternate and each keeps its best of
    # five, so a slow spell of the host lands on both sizes alike.
    graphs = {k: gen.grid_graph(k) for k in (100, 200)}
    best = dict.fromkeys(graphs, float("inf"))
    for _ in range(5):
        for k, g in graphs.items():
            start = time.perf_counter()
            hierarchy = setup(laplacian(g))
            cf_closeness_sampling(hierarchy, [0], k=20, seed=0)
            best[k] = min(best[k], time.perf_counter() - start)
    t_small, t_large = best[100], best[200]
    ratio = t_large / t_small
    report(
        "9 near-linear scaling",
        ratio <= 5.0,
        f"4x edges cost ratio {ratio:.2f} ({t_small:.2f}s -> {t_large:.2f}s)",
    )


def test_criterion_10_metric_laws(rng):
    tau = 1e-8
    # series law on paths up to n=8, unit and weighted
    series_ok = True
    for n in range(2, 9):
        g = gen.path_graph(n)
        h = setup(laplacian(g), tau=tau)
        series_ok &= abs(effective_resistance(h, 0, n - 1) - (n - 1)) < 1e-6
    weights = [0.5, 2.0, 1.0, 4.0, 0.25, 1.5, 3.0]
    for n in range(2, 9):
        w = weights[: n - 1]
        g = Graph.from_edges(list(range(n - 1)), list(range(1, n)), w)
        h = setup(laplacian(g), tau=tau)
        expected = sum(1.0 / x for x in w)
        series_ok &= abs(effective_resistance(h, 0, n - 1) - expected) < 1e-6

    # parallel law: duplicate edges merge as added conductances
    g = Graph.from_edges([0, 0, 0], [1, 1, 1], [1.0, 2.0, 5.0])
    h = setup(laplacian(g), tau=tau)
    parallel_ok = abs(effective_resistance(h, 0, 1) - 1.0 / 8.0) < 1e-9

    # triangle inequality: exhaustive over all connected graphs on up to
    # 5 nodes, plus random weighted graphs up to n=8
    triangle_ok = True
    for n in (3, 4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph.from_edges([e[0] for e in edges], [e[1] for e in edges], n=n)
            if g.n < n or not g.is_connected():
                continue
            r = resistance_matrix_oracle(g)
            for a, b, c in itertools.combinations(range(n), 3):
                triangle_ok &= r[a, c] <= r[a, b] + r[b, c] + 1e-9
                triangle_ok &= r[a, b] <= r[a, c] + r[c, b] + 1e-9
                triangle_ok &= r[b, c] <= r[b, a] + r[a, c] + 1e-9
    for _ in range(20):
        n = int(rng.integers(6, 9))
        g = random_connected_graph(n, rng, weighted=True)
        h = setup(laplacian(g), tau=tau)
        r = np.array(
            [[effective_resistance(h, a, b) for b in range(n)] for a in range(n)]
        )
        triangle_ok &= bool(np.allclose(r, r.T, atol=1e-8))
        for a, b, c in itertools.permutations(range(n), 3):
            triangle_ok &= r[a, c] <= r[a, b] + r[b, c] + 1e-8

    report(
        "10 metric laws",
        series_ok and parallel_ok and triangle_ok,
        f"series {series_ok}, parallel {parallel_ok}, triangle {triangle_ok}",
    )
