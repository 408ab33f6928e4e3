"""Run one ``cfcent`` CLI invocation in this process and report on it.

Usage::

    python3 bench/child.py --src SRC --result OUT.json [--spans SPANS.json] [--memory] -- CLI_ARGS...

``cfcent.cli.main(CLI_ARGS)`` runs once.  The only timer in an untraced
run is on the CLI's ``setup`` call.  ``peak_rss_mb`` is the process's own
high-water mark, ``VmHWM`` in ``/proc/self/status``: unlike ``ru_maxrss``
it starts afresh at exec, so the parent's peak never shows in it.  With
``--spans`` the layer functions are wrapped as well (see ``spans.py``)
and the per-layer metrics are added to the result.  With ``--memory``
tracemalloc records the peak of set-up and of scoring; it slows every
allocation several times over, so it runs in a child of its own rather
than in the one that times the layers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

import numpy as np


class Phases:
    """Wraps the CLI's ``setup``: its time, its hierarchy, and, when
    tracemalloc runs, the memory peak of set-up and of scoring."""

    def __init__(self, setup):
        self._setup = setup
        self.setup_s = 0.0
        self.setup_end = None
        self.hierarchies = []
        self.setup_peak = 0

    def setup(self, *args, **kwargs):
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        start = time.perf_counter()
        hierarchy = self._setup(*args, **kwargs)
        self.setup_end = time.perf_counter()
        self.setup_s += self.setup_end - start
        if tracemalloc.is_tracing():
            self.setup_peak = max(self.setup_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        self.hierarchies.append(hierarchy)
        return hierarchy


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, phases: Phases) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and captured hierarchies.

    The hierarchy metrics are left out when no setup ran; the benchmark
    reports a missing metric as 0.
    """
    total = lambda name: sum(s.seconds for s in rec.named(name))
    m: dict[str, float] = {}

    parse = rec.named("graph.parse")
    m["graph.parse_s"] = total("graph.parse")
    m["graph.lcc_s"] = total("graph.lcc")
    m["graph.laplacian_s"] = total("graph.laplacian")
    m["graph.edges_per_s"] = _ratio(sum(s.attrs["edges"] for s in parse), m["graph.parse_s"])

    stages = ("eliminate", "test_vectors", "aggregate")
    for stage in stages:
        m[f"solver.setup.{stage}_s"] = total(f"solver.setup.{stage}")
    m["solver.setup.self_s"] = rec.self_seconds("solver.setup")
    stage_calls = len(rec.named("solver.setup.eliminate")) + len(rec.named("solver.setup.aggregate"))
    m["solver.setup.stage_calls"] = stage_calls

    if phases.hierarchies:
        h = phases.hierarchies[0]
        kept = sum(1 for lvl in h.levels if lvl.kind.value != "coarsest")
        nnz = [lvl.matrix.nnz for lvl in h.levels]
        sizes = h.level_sizes
        m["solver.setup.stage_yield"] = _ratio(kept, stage_calls)
        m["solver.levels"] = len(h.levels)
        m["solver.coarsest_n"] = sizes[-1]
        m["solver.operator_complexity"] = sum(nnz) / nnz[0]
        m["solver.grid_complexity"] = sum(sizes) / sizes[0]

    solves = rec.named("solver.solve")
    columns = sum(s.attrs["columns"] for s in solves)
    call_ms = [1e3 * s.seconds for s in solves]
    m["solver.solve_calls"] = len(solves)
    m["solver.columns"] = columns
    m["solver.cols_per_call"] = _ratio(columns, len(solves))
    m["solver.solve_s"] = total("solver.solve")
    m["solver.col_ms"] = _ratio(1e3 * m["solver.solve_s"], columns)
    m["solver.call_ms.p50"] = _percentile(call_ms, 50)
    m["solver.call_ms.p90"] = _percentile(call_ms, 90)
    m["solver.parallel_eff"] = _ratio(
        sum(s.cpu_s for s in solves), sum(s.seconds * s.attrs["threads"] for s in solves)
    )
    stats_solves = sum(h.stats.solves for h in phases.hierarchies)
    m["solver.max_residual"] = max((h.stats.max_residual for h in phases.hierarchies), default=0.0)
    m["solver.fallback_frac"] = _ratio(
        sum(h.stats.fallback_solves for h in phases.hierarchies), stats_solves
    )

    caches = {}
    for s in rec.named("resistance.node_solution"):
        caches[s.attrs["cache_id"]] = max(caches.get(s.attrs["cache_id"], 0), s.attrs["cache_size"])
    m["resistance.node_solution_s"] = total("resistance.node_solution")
    m["resistance.node_solution_calls"] = len(rec.named("resistance.node_solution"))
    m["resistance.cached_vectors"] = sum(caches.values())
    m["resistance.pairs_self_s"] = rec.self_seconds("resistance.pairs")
    m["resistance.sketch_s"] = total("resistance.sketch")
    m["resistance.sketch_self_s"] = rec.self_seconds("resistance.sketch")
    m["resistance.sketch_rows"] = sum(s.attrs["rows"] for s in rec.named("resistance.sketch"))
    m["resistance.sketch_sums_s"] = total("resistance.sketch_sums")

    for estimator in ("exact", "sampling", "projection"):
        m[f"centrality.{estimator}_self_s"] = rec.self_seconds(f"centrality.{estimator}")
    m["evaluation.compare_rankings_s"] = total("evaluation.compare_rankings")
    m["evaluation.max_relative_error_s"] = total("evaluation.max_relative_error")
    m["cli.self_s"] = rec.self_seconds("cli.main")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    src = os.path.abspath(opts.src)
    sys.path.insert(0, src)
    import cfcent.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"cfcent imported from {cli.__file__}, not from {src}")

    rec = None
    if opts.spans:
        import spans

        rec = spans.Recorder(run_id=f"{os.getpid()}")
        rec.install()
    if opts.memory:
        tracemalloc.start()
    phases = Phases(cli.setup)
    cli.setup = phases.setup

    exact_tables = []
    cf_closeness_exact = cli.cf_closeness_exact

    def capture_exact(*args, **kwargs):
        table = cf_closeness_exact(*args, **kwargs)
        exact_tables.append(table)
        return table

    cli.cf_closeness_exact = capture_exact

    run = rec.wrap("cli.main", cli.main) if rec else cli.main
    start = time.perf_counter()
    code = run(cli_args)
    end = time.perf_counter()

    result = {
        "exit_code": code,
        "wall_s": end - start,
        "setup_s": phases.setup_s,
        "score_s": end - phases.setup_end if phases.setup_end else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    if exact_tables:
        scores = exact_tables[0].scores
        result["exact_scores"] = [scores[v] for v in sorted(scores)]
    if opts.memory:
        result["layers"] = {
            "mem.setup_peak_mb": phases.setup_peak / 2**20,
            "mem.score_peak_mb": tracemalloc.get_traced_memory()[1] / 2**20,
        }
        tracemalloc.stop()
    if rec is not None:
        result["layers"] = layer_metrics(rec, phases)
        rec.write(opts.spans)
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
