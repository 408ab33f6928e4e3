"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped cfcent function: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when
it started, and the run id shared by every span of one child process.
Spans stay in memory and are written out as JSON when the run ends.

Functions are wrapped at the names their callers look them up by: every
cfcent module attribute that is bound to a target function is replaced by
the same wrapper, so ``cfcent.cli.setup`` and ``cfcent.resistance.solve_many``
are both covered.  A target the program no longer defines is skipped and
its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import asdict, dataclass, field

CALLER_MODULES = (
    "cfcent.cli",
    "cfcent.graph",
    "cfcent.solver",
    "cfcent.resistance",
    "cfcent.centrality",
    "cfcent.evaluation",
)

# (defining module, function, span name).  Two functions may share a span
# name when they do the same job, like the two aggregation routines.
TARGETS = (
    ("cfcent.graph", "load_edge_list", "graph.parse"),
    ("cfcent.graph", "largest_connected_component", "graph.lcc"),
    ("cfcent.graph", "laplacian", "graph.laplacian"),
    ("cfcent.solver", "setup", "solver.setup"),
    ("cfcent.solver", "coarsen_eliminate", "solver.setup.eliminate"),
    ("cfcent.solver", "relaxed_test_vectors", "solver.setup.test_vectors"),
    ("cfcent.solver", "coarsen_aggregate", "solver.setup.aggregate"),
    ("cfcent.solver", "_matching_aggregation", "solver.setup.aggregate"),
    ("cfcent.solver", "solve", "solver.solve"),
    ("cfcent.solver", "solve_many", "solver.solve"),
    ("cfcent.resistance", "node_solution", "resistance.node_solution"),
    ("cfcent.resistance", "resistances_from_node", "resistance.pairs"),
    ("cfcent.resistance", "build_sketch", "resistance.sketch"),
    ("cfcent.resistance", "sketch_distance_sums", "resistance.sketch_sums"),
    ("cfcent.centrality", "cf_closeness_exact", "centrality.exact"),
    ("cfcent.centrality", "cf_closeness_sampling", "centrality.sampling"),
    ("cfcent.centrality", "cf_closeness_projection", "centrality.projection"),
    ("cfcent.evaluation", "compare_rankings", "evaluation.compare_rankings"),
    ("cfcent.evaluation", "max_relative_error", "evaluation.max_relative_error"),
)


@dataclass
class Span:
    name: str
    run_id: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; parents are tracked per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, self.run_id, stack[-1] if stack else None)
            stack.append(len(self.spans))
            self.spans.append(span)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_s = time.process_time() - cpu0
                stack.pop()
            _annotate(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in CALLER_MODULES]
        for module_name, attr, span_name in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> float:
        """Total self time of spans called ``name``: each span's duration
        minus the part of its interval that its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name:
                total += s.seconds - _covered(s, children.get(i, []))
        return total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _covered(span: Span, children: list[Span]) -> float:
    covered = 0.0
    edge = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, edge), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return covered


def _annotate(span: Span, args, kwargs, result) -> None:
    """Record the counts a layer metric needs from a call's own arguments
    and result, so ratios are taken where the work happens."""
    if span.name == "solver.solve":
        supplies = args[1] if len(args) > 1 else kwargs.get("supplies", kwargs.get("b"))
        shape = getattr(supplies, "shape", None)
        if isinstance(result, list):
            columns = len(result)
        elif shape is not None and len(shape) == 2:
            columns = shape[0]
        else:
            columns = 1
        span.attrs["columns"] = columns
        span.attrs["threads"] = max(1, int(kwargs.get("threads", args[3] if len(args) > 3 else 1)))
    elif span.name == "graph.parse":
        span.attrs["edges"] = int(result.m)
    elif span.name == "resistance.node_solution":
        span.attrs["cache_id"] = id(result)
        span.attrs["cache_size"] = len(result)
    elif span.name == "resistance.sketch":
        span.attrs["rows"] = int(result.z.shape[0])
