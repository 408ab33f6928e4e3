"""Command-line front end: graph ingestion, scoring, and experiments.

``--seed`` draws the estimators' samples: the random query nodes, the
pivots, the projection signs and the noise edges.  The solver's hierarchy
depends on the graph alone, so two runs with equal flags produce identical
score values regardless of ``--threads``, and runs that differ only in
``--seed`` share one hierarchy.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

from . import generators
from .centrality import CURRENT_FLOW, Measure, cf_closeness_exact, score
from .errors import CfcentError, ConvergenceError, UndefinedMetricError
from .evaluation import (
    compare_rankings,
    degree_correlation_experiment,
    max_relative_error,
    noise_resilience,
)
from .graph import Graph, laplacian, largest_connected_component, load_edge_list
from .solver import setup

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2
EXIT_UNDEFINED_METRIC = 3

NOISE_FRACTIONS = (0.0, 0.01, 0.02, 0.05, 0.10)  # 0 is the unperturbed control

MEASURE_NAMES = {
    "cf_exact": Measure.CF_EXACT,
    "cf_sampling": Measure.CF_SAMPLING,
    "cf_projection": Measure.CF_PROJECTION,
    "sp": Measure.SP_CLOSENESS,
    "degree": Measure.DEGREE_ASYMPTOTIC,
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcent",
        description="Current-flow closeness centrality with a multigrid Laplacian solver.",
    )
    parser.add_argument("--input", help="edge-list file (whitespace separated, optional weight)")
    parser.add_argument(
        "--gen",
        help="synthetic graph instead of --input: "
        "path:n | grid:k | ba:n,m0 | er:n,p | star:n | clique:n",
    )
    parser.add_argument(
        "--command",
        required=True,
        choices=["score", "compare", "noise", "degree-corr"],
    )
    parser.add_argument(
        "--measure",
        default=None,
        help="measure(s), comma separated: cf_exact, cf_sampling, cf_projection, sp, degree",
    )
    parser.add_argument("--pivots", type=int, default=20, help="pivot count for cf_sampling")
    parser.add_argument("--epsilon", type=float, default=0.2, help="distortion for cf_projection")
    parser.add_argument("--tau", type=float, default=1e-5, help="relative residual tolerance")
    parser.add_argument(
        "--query",
        default="random:100",
        help="query nodes: all | random:q | list:id1,id2,... (original labels)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--output", default=None, help="output CSV path (default stdout)")
    parser.add_argument("--one-indexed", action="store_true", help="input ids start at 1")
    return parser


def _generate(spec: str) -> Graph:
    kind, _, rest = spec.partition(":")
    args = rest.split(",") if rest else []
    try:
        if kind == "path":
            return generators.path_graph(int(args[0]))
        if kind == "grid":
            return generators.grid_graph(int(args[0]))
        if kind == "star":
            return generators.star_graph(int(args[0]))
        if kind == "clique":
            return generators.complete_graph(int(args[0]))
        if kind == "ba":
            return generators.barabasi_albert_graph(int(args[0]), int(args[1]), seed=0)
        if kind == "er":
            return generators.erdos_renyi_graph(int(args[0]), float(args[1]), seed=0)
    except (IndexError, ValueError) as exc:
        raise CfcentError(f"bad --gen spec {spec!r}: {exc}") from exc
    raise CfcentError(f"unknown generator {kind!r}")


def _load_graph(args) -> Graph:
    if bool(args.input) == bool(args.gen):
        raise CfcentError("exactly one of --input or --gen is required")
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                g = load_edge_list(handle, one_indexed=args.one_indexed)
        except UnicodeDecodeError as exc:
            raise CfcentError(f"{args.input}: not UTF-8 text: {exc.reason}") from None
    else:
        g = _generate(args.gen)
    g, _ = largest_connected_component(g)
    return g


def _query_nodes(args, g: Graph) -> list[int]:
    spec = args.query
    if spec == "all":
        return list(range(g.n))
    kind, _, rest = spec.partition(":")
    if kind == "random":
        try:
            q = int(rest)
        except ValueError:
            raise CfcentError(f"bad --query spec {spec!r}") from None
        if not 1 <= q <= g.n:
            raise CfcentError(f"query count must be in [1, {g.n}], got {q}")
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xC0]))
        return sorted(int(v) for v in rng.choice(g.n, size=q, replace=False))
    if kind == "list":
        label_to_id = {int(lbl): i for i, lbl in enumerate(g.node_labels)}
        try:
            nodes = [label_to_id[int(tok)] for tok in rest.split(",")]
        except KeyError as exc:
            raise CfcentError(f"query label {exc.args[0]} not in the LCC") from None
        except ValueError:
            raise CfcentError(f"bad --query spec {spec!r}") from None
        # A repeated node would be scored, ranked and written twice.
        seen: set[int] = set()
        for v in nodes:
            if v in seen:
                raise CfcentError(f"query label {g.node_labels[v]} is listed twice")
            seen.add(v)
        return nodes
    raise CfcentError(f"bad --query spec {spec!r}")


def _measures(args, default: str) -> list[Measure]:
    raw = args.measure or default
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if tok not in MEASURE_NAMES:
            raise CfcentError(f"unknown measure {tok!r}")
        out.append(MEASURE_NAMES[tok])
    return out


def _check_pivots(args, g: Graph, measures: Sequence[Measure]) -> None:
    """Reject more pivots than LCC nodes, before setup or any output, when
    sampling will run."""
    if Measure.CF_SAMPLING in measures and args.pivots > g.n:
        raise CfcentError(f"--pivots must be in [1, {g.n}] (the LCC size), got {args.pivots}")


def _check_ranked(query: Sequence[int]) -> None:
    """Reject fewer than 2 query nodes, before setup or any output, for the
    commands whose metrics rank the query nodes."""
    if len(query) < 2:
        raise CfcentError(f"ranking needs at least 2 query nodes, got {len(query)}")


def cmd_score(args, out) -> int:
    measures = _measures(args, default="cf_sampling")
    if len(measures) != 1:
        raise CfcentError("score takes exactly one --measure")
    measure = measures[0]
    g = _load_graph(args)
    query = _query_nodes(args, g)
    _check_pivots(args, g, measures)
    n, m, node_labels = g.n, g.m, g.node_labels
    hierarchy = None
    if measure in CURRENT_FLOW:
        hierarchy = setup(laplacian(g), tau=args.tau)
        g = None  # the current-flow measures read the hierarchy alone
    table = score(
        measure, g, hierarchy, query, pivots=args.pivots, epsilon=args.epsilon,
        seed=args.seed, threads=args.threads,
    )
    max_residual = hierarchy.stats.max_residual if hierarchy else 0.0
    params = " ".join(
        f"{k}={v}" for k, v in sorted(table.params.items()) if k != "seed"
    )
    out.write(
        f"# command=score measure={measure.value} n={n} m={m} "
        f"seed={args.seed} {params} max_residual={max_residual:.3e}\n"
    )
    out.write("node,score\n")
    labels = node_labels[query].tolist()
    out.write("".join(
        f"{label},{_fmt(table.scores[v])}\n" for label, v in zip(labels, query)
    ))
    return EXIT_OK


def cmd_compare(args, out) -> int:
    measures = _measures(args, default="cf_sampling,cf_projection")
    g = _load_graph(args)
    query = _query_nodes(args, g)
    _check_ranked(query)
    _check_pivots(args, g, measures)
    n, m = g.n, g.m
    hierarchy = setup(laplacian(g), tau=args.tau)
    if all(measure in CURRENT_FLOW for measure in measures):
        g = None  # the current-flow measures read the hierarchy alone

    start = time.perf_counter()
    exact = cf_closeness_exact(hierarchy, query, threads=args.threads)
    exact_seconds = time.perf_counter() - start
    exact_vec = exact.vector(query)

    out.write(
        f"# command=compare n={n} m={m} q={len(query)} seed={args.seed} "
        f"tau={args.tau:g} pivots={args.pivots} epsilon={args.epsilon:g}\n"
    )
    out.write(
        "method,params,spearman,inversions,inversion_pct,max_rel_error,"
        "seconds_exact,seconds_approx\n"
    )
    for measure in measures:
        if measure is Measure.CF_EXACT:
            # The reference already is this measure; do not solve it twice.
            table, seconds = exact, exact_seconds
        else:
            start = time.perf_counter()
            table = score(
                measure, g, hierarchy, query, pivots=args.pivots, epsilon=args.epsilon,
                seed=args.seed, threads=args.threads,
            )
            seconds = time.perf_counter() - start
        vec = table.vector(query)
        ranks = compare_rankings(exact_vec, vec)
        emax = max_relative_error(exact_vec, vec)
        params = ";".join(f"{k}={v}" for k, v in sorted(table.params.items()))
        out.write(
            f"{measure.value},{params},{_fmt(ranks.spearman)},{ranks.inversions},"
            f"{_fmt(ranks.inversion_pct)},{_fmt(emax)},"
            f"{exact_seconds:.3f},{seconds:.3f}\n"
        )
    out.write(f"# max_residual={hierarchy.stats.max_residual:.3e}\n")
    return EXIT_OK


def cmd_noise(args, out) -> int:
    cf_measures = _measures(args, default="cf_sampling")
    for measure in cf_measures:
        if measure not in (Measure.CF_EXACT, Measure.CF_SAMPLING):
            raise CfcentError("noise supports cf_exact or cf_sampling plus sp")
    measures = cf_measures + [Measure.SP_CLOSENESS]
    g = _load_graph(args)
    query = _query_nodes(args, g)
    _check_ranked(query)
    _check_pivots(args, g, measures)
    out.write(
        f"# command=noise n={g.n} m={g.m} q={len(query)} seed={args.seed} "
        f"pivots={args.pivots}\n"
    )
    out.write("measure,fraction,spearman\n")
    for measure in measures:
        values = noise_resilience(
            g, measure, query, NOISE_FRACTIONS, args.seed,
            pivots=args.pivots, tau=args.tau, threads=args.threads,
        )
        for fraction, value in zip(NOISE_FRACTIONS, values):
            out.write(f"{measure.value},{_fmt(fraction)},{_fmt(value)}\n")
    return EXIT_OK


def cmd_degree_corr(args, out) -> int:
    g = _load_graph(args)
    query = _query_nodes(args, g)
    _check_pivots(args, g, [Measure.CF_SAMPLING])
    out.write(
        f"# command=degree-corr n={g.n} m={g.m} q={len(query)} seed={args.seed} "
        f"pivots={args.pivots}\n"
    )
    out.write("measure,spearman_vs_degree_asymptotic\n")
    try:
        result = degree_correlation_experiment(
            g, query, pivots=args.pivots, seed=args.seed, tau=args.tau,
            threads=args.threads,
        )
    except UndefinedMetricError:
        out.write(f"{Measure.SP_CLOSENESS.value},NA\n")
        out.write(f"{Measure.CF_SAMPLING.value},NA\n")
        return EXIT_UNDEFINED_METRIC
    out.write(f"{Measure.SP_CLOSENESS.value},{_fmt(result[Measure.SP_CLOSENESS])}\n")
    out.write(f"{Measure.CF_SAMPLING.value},{_fmt(result[Measure.CF_SAMPLING])}\n")
    return EXIT_OK


COMMANDS = {
    "score": cmd_score,
    "compare": cmd_compare,
    "noise": cmd_noise,
    "degree-corr": cmd_degree_corr,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise CfcentError(f"--threads must be >= 1, got {args.threads}")
        if args.seed < 0:
            raise CfcentError(f"--seed must be >= 0, got {args.seed}")
        if not 0 < args.tau < 1:
            raise CfcentError(f"--tau must be in (0, 1), got {args.tau}")
        if not 0 < args.epsilon <= 1:
            raise CfcentError(f"--epsilon must be in (0, 1], got {args.epsilon}")
        if args.pivots < 1:
            raise CfcentError(f"--pivots must be >= 1, got {args.pivots}")
        if args.command == "degree-corr" and args.measure is not None:
            raise CfcentError("--measure must be omitted: degree-corr scores sp and cf_sampling")
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                return COMMANDS[args.command](args, out)
        return COMMANDS[args.command](args, sys.stdout)
    except ConvergenceError as exc:
        print(f"cfcent: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except UndefinedMetricError as exc:
        print(f"cfcent: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_METRIC
    except (CfcentError, OSError) as exc:
        print(f"cfcent: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
