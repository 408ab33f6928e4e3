"""Benchmark of the ``cfcent`` command-line tool.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's inputs from ``--seed`` (edge-list
files and, for ``sample-ba``, the query list) and its correctness
references, all before any timing.  It then runs ``cfcent.cli.main`` in
fresh child processes (``bench/child.py``), one after the other, until
``--seconds`` have passed, checks every run's output, and prints each
metric named in ``BENCHMARK.json`` with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` (child
runs), ``failed`` (runs that failed a check; ``failed / attempted`` is
the failure share) and ``metrics``, the medians over the runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
one tracemalloc child for the memory peaks, then repeats a cycle, at
least three times and until ``--seconds`` have passed: an untraced and
a traced run (layer functions wrapped, spans written to
``.bench_work/<workload>/spans-*.json``), in alternating order, and, on
``project-grid``, the traced command at ``--threads 1``, whose CSV must
be byte-identical to the ``--threads 2`` CSV.  It reports the per-layer
metrics.  A per-layer metric reads 0 on a workload that never calls its
layer.  ``trace.overhead_frac`` is the median over cycles of traced over
untraced ``wall_s``, minus 1; it cannot resolve an overhead smaller than
the host's spread of child times.

The workloads are scaled-down instances of the graph families in the
ROADMAP suite, so that one child run takes seconds rather than minutes:

* ``sample-ba``: pivot sampling (20 pivots, 20 listed query nodes) on a
  Barabasi-Albert edge list, n=16,000, m0=5.  Deep, hub-heavy hierarchy
  whose coarsening stalls (15 levels, tail 292 -> 274 -> 258 -> 231);
  one solve of 21 columns, then one-column solves.  Largest parse.
* ``project-grid``: random projection, epsilon 0.2, every node queried,
  on a 100 x 100 grid, two solver threads.  Mesh aggregation levels and
  one wide batched solve (k=231); builds the k x n sketch and writes a
  CSV row per node.  The sketch cannot be rebuilt outside the program,
  so the output is checked against the stored output of commit 4cdae0b,
  ``bench/reference/project-grid.csv.gz``.
* ``compare-exact``: ``compare`` of projection against exact on a
  Barabasi-Albert edge list, n=1,000, m0=3.  One solve per node, the
  node-solution cache and per-pair loops; the exact scores are checked
  against the dense pseudoinverse.

Child processes get one BLAS/OpenMP thread each, so ``--threads`` is the
only parallelism.  Exit code 0 means a result was printed; any other
code means the benchmark could not run.
"""

from __future__ import annotations

import os

# Set before numpy loads; the child processes inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

TAU = 1e-5
MIN_RUNS = 3              # child runs (traced: cycles) per benchmark run, whatever --seconds says
CHILD_TIMEOUT_S = 120

# Each workload runs on one fixed graph with one fixed CLI seed, so every
# benchmark seed builds the same hierarchy: on the hub-heavy graphs a
# different graph or solver seed alone moves the level count (11 to 20 on
# BA n=20k) and the time per solve by about 30%, which would swamp the
# differences between commits.  The benchmark seed shuffles the edge-list
# lines and flips edge directions, which leaves the parsed graph
# unchanged, and draws the sample-ba query list.
GRAPH_SEED, CLI_SEED = 0, 1
SAMPLE_BA_N, SAMPLE_BA_M0, PIVOTS, QUERIES = 16_000, 5, 20, 20
GRID_K, EPSILON = 100, 0.2
COMPARE_BA_N, COMPARE_BA_M0 = 1_000, 3

# Reference tolerances, relative, per score.  At tau=1e-5 the measured
# errors are about 1e-6 (sampling) and 3e-6 (exact).  Projection scores
# move by up to 3.2e-3 between tau=1e-5 and tau=1e-9 on the grid, while
# a different sketch moves them by 4% (median) to 27% (max).
SAMPLING_RTOL = 1e-4
EXACT_RTOL = 1e-4
PROJECTION_RTOL = 1e-2

CG_RTOL = 1e-12           # scipy CG for the sampling reference, far below tau


@dataclass
class Workload:
    args: list[str]                       # CLI arguments except --threads and --output
    threads: int
    check: Callable[[str, dict], str | None]


def _write_edges(g, seed: int, path: Path):
    """Write ``g`` as an edge list in a seed-dependent line order and
    orientation; returns the edge arrays."""
    us, vs, _ = g.edge_array()
    rng = np.random.default_rng([seed, 2])
    flip = rng.random(len(us)) < 0.5
    a, b = np.where(flip, vs, us), np.where(flip, us, vs)
    order = rng.permutation(len(us))
    path.write_text("".join(f"{a[i]} {b[i]}\n" for i in order), encoding="utf-8")
    return us, vs


def _laplacian(n: int, us, vs):
    a = sp.coo_matrix((np.ones(len(us)), (us, vs)), shape=(n, n)).tocsr()
    a = a + a.T
    return (sp.diags(np.asarray(a.sum(axis=1)).ravel()) - a).tocsr()


def _csv_scores(text: str) -> tuple[list[int], list[float]]:
    labels, scores = [], []
    for line in text.splitlines():
        if line.startswith("#") or line == "node,score":
            continue
        label, score = line.split(",")
        labels.append(int(label))
        scores.append(float(score))
    return labels, scores


def _compare(name: str, got, want, rtol: float) -> str | None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{name}: {got.size} scores, reference has {want.size}"
    err = float(np.max(np.abs(got - want) / np.abs(want)))
    return None if err <= rtol else f"{name}: max relative error {err:.3e} > {rtol:g}"


def prepare_sample_ba(seed: int, work: Path) -> Workload:
    from cfcent.centrality import pivot_set
    from cfcent.generators import barabasi_albert_graph

    g = barabasi_albert_graph(SAMPLE_BA_N, SAMPLE_BA_M0, seed=GRAPH_SEED)
    edges = work / "graph.txt"
    us, vs = _write_edges(g, seed, edges)
    n = g.n
    queries = np.random.default_rng([seed, 1]).choice(n, size=QUERIES, replace=False)

    # The BA graph is connected with labels 0..n-1, so label = node id.
    lap = _laplacian(n, us, vs)
    pivots = pivot_set(n, PIVOTS, CLI_SEED)
    jacobi = sp.diags(1.0 / lap.diagonal())
    column = {}
    for x in sorted(set(queries.tolist()) | set(pivots.tolist())):
        b = np.full(n, -1.0 / n)
        b[x] += 1.0
        z, info = cg(lap, b, rtol=CG_RTOL, atol=0.0, maxiter=20 * n, M=jacobi)
        if info != 0:
            raise RuntimeError(f"reference CG did not converge for node {x}")
        column[x] = z - z.mean()
    want = []
    for v in queries:
        zv = column[v]
        total = sum(zv[v] - zv[p] - column[p][v] + column[p][p] for p in pivots)
        want.append(PIVOTS / n * (n - 1) / total)

    def check(output: str, result: dict) -> str | None:
        labels, scores = _csv_scores(output)
        if labels != queries.tolist():
            return "sample-ba: CSV rows do not match the query list"
        return _compare("sample-ba", scores, want, SAMPLING_RTOL)

    args = ["--command", "score", "--input", str(edges), "--measure", "cf_sampling",
            "--pivots", str(PIVOTS), "--query", "list:" + ",".join(map(str, queries))]
    return Workload(args, threads=1, check=check)


def prepare_project_grid(seed: int, work: Path) -> Workload:
    from cfcent.generators import grid_graph

    edges = work / "graph.txt"
    _write_edges(grid_graph(GRID_K), seed, edges)
    with gzip.open(BENCH_DIR / "reference" / "project-grid.csv.gz", "rt") as fh:
        want_labels, want = _csv_scores(fh.read())

    def check(output: str, result: dict) -> str | None:
        labels, scores = _csv_scores(output)
        if labels != want_labels:
            return "project-grid: CSV rows do not match the reference"
        return _compare("project-grid", scores, want, PROJECTION_RTOL)

    args = ["--command", "score", "--input", str(edges), "--measure", "cf_projection",
            "--epsilon", str(EPSILON), "--query", "all"]
    return Workload(args, threads=2, check=check)


def prepare_compare_exact(seed: int, work: Path) -> Workload:
    from cfcent.generators import barabasi_albert_graph

    g = barabasi_albert_graph(COMPARE_BA_N, COMPARE_BA_M0, seed=GRAPH_SEED)
    edges = work / "graph.txt"
    us, vs = _write_edges(g, seed, edges)
    n = g.n
    # Dense pseudoinverse, L+ = (L + J/n)^-1 - J/n; exact closeness is
    # c(v) = (n-1) / (n L+_vv + tr L+).
    pinv = np.linalg.inv(_laplacian(n, us, vs).toarray() + 1.0 / n) - 1.0 / n
    diag = np.diag(pinv)
    want = (n - 1) / (n * diag + diag.sum())

    def check(output: str, result: dict) -> str | None:
        if not re.search(r"^cf_projection,", output, re.M):
            return "compare-exact: no cf_projection row"
        if "exact_scores" not in result:
            return "compare-exact: cf_closeness_exact was not called"
        return _compare("compare-exact", result["exact_scores"], want, EXACT_RTOL)

    args = ["--command", "compare", "--input", str(edges), "--measure", "cf_projection",
            "--query", "all"]
    return Workload(args, threads=1, check=check)


WORKLOADS = {
    "sample-ba": prepare_sample_ba,
    "project-grid": prepare_project_grid,
    "compare-exact": prepare_compare_exact,
}


@dataclass
class ChildRun:
    result: dict | None
    output: bytes
    error: str | None


def run_child(workload: Workload, work: Path, tag: str, threads: int,
              mode: str = "plain") -> ChildRun:
    """One child run; ``mode`` is ``plain``, ``spans`` or ``memory``."""
    result_path = work / f"result-{tag}.json"
    out_path = work / f"out-{tag}.csv"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--src", str(SRC),
           "--result", str(result_path)]
    if mode == "spans":
        cmd += ["--spans", str(work / f"spans-{tag}.json")]
    elif mode == "memory":
        cmd += ["--memory"]
    cmd += ["--", *workload.args, "--seed", str(CLI_SEED), "--tau", str(TAU),
            "--threads", str(threads), "--output", str(out_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ChildRun(None, b"", f"{tag}: timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return ChildRun(None, b"", f"{tag}: child exited {proc.returncode}: {tail[0]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    output = out_path.read_bytes()
    text = output.decode("utf-8")
    if result["exit_code"] != 0:
        return ChildRun(result, output, f"{tag}: cfcent exited {result['exit_code']}")
    residual = re.search(r"max_residual=(\S+)", text)
    if residual is None or not float(residual.group(1)) <= TAU:
        found = residual.group(1) if residual else "missing"
        return ChildRun(result, output, f"{tag}: max_residual {found} > tau {TAU:g}")
    return ChildRun(result, output, workload.check(text, result))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="cfcent CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cfcent" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no cfcent sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if opts.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    work = WORK / opts.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[opts.workload](opts.seed, work)

    untraced, traced, memory, single = [], [], [], []
    deadline = time.perf_counter() + opts.seconds
    i = 0
    if opts.trace:
        memory.append(run_child(workload, work, "memory", workload.threads, "memory"))
    while i < MIN_RUNS or time.perf_counter() < deadline:
        if opts.trace:
            # The untraced and traced runs swap places every cycle, so that
            # a drift of the host's speed favours neither.
            for mode in ("plain", "spans") if i % 2 == 0 else ("spans", "plain"):
                group = traced if mode == "spans" else untraced
                group.append(run_child(workload, work, f"{i}-{mode}", workload.threads, mode))
            full = traced[-1]
            if workload.threads > 1:
                one = run_child(workload, work, f"{i}-spans-t1", 1, "spans")
                if one.error is None and full.error is None and one.output != full.output:
                    one.error = f"{i}: CSV at --threads 1 differs from --threads {workload.threads}"
                single.append(one)
        else:
            untraced.append(run_child(workload, work, f"{i}", workload.threads))
        i += 1
    runs = untraced + traced + memory + single

    failures = [r.error for r in runs if r.error]
    for err in failures:
        print(f"FAILED {err}")

    ok = lambda group: [r.result for r in group if r.result is not None]
    if opts.trace:
        layers = [r["layers"] for r in ok(traced)] + [r["layers"] for r in ok(memory)]
        names = {name for m in layers for name in m}
        values = {name: _median([m[name] for m in layers if name in m]) for name in names}
        values["trace.overhead_frac"] = _median([
            t.result["wall_s"] / u.result["wall_s"] - 1
            for u, t in zip(untraced, traced) if u.result and t.result
        ])
        one_solve = _median([r["layers"]["solver.solve_s"] for r in ok(single)])
        values["solver.thread_speedup"] = (
            one_solve / values["solver.solve_s"] if single and values.get("solver.solve_s") else 0.0
        )
    else:
        values = {m["name"]: _median([r[m["name"]] for r in ok(untraced)]) for m in wanted}

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':36s} {len(failures) / len(runs):.6g} 1 "
          f"({len(failures)} of {len(runs)} runs)")
    print(json.dumps({"correct": not failures, "attempted": len(runs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
