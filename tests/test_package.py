import importlib
import inspect
import pkgutil

import pytest

import cfcent

MODULES = ["cfcent"] + [
    f"cfcent.{info.name}" for info in pkgutil.iter_modules(cfcent.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []



def test_only_setup_takes_tau_or_seed():
    # The hierarchy carries the solver settings; solves and estimators
    # read tau from it rather than taking an override.  Setup takes no
    # seed, so every seed draws an estimator's own sample: pivots or
    # projection signs.
    takers = {
        f"{module_name}.{name}": {"tau", "seed"} & set(inspect.signature(obj).parameters)
        for module_name in ("cfcent.solver", "cfcent.resistance", "cfcent.centrality")
        for name, obj in vars(importlib.import_module(module_name)).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module_name
    }
    assert {name: got for name, got in takers.items() if got} == {
        "cfcent.solver.setup": {"tau"},
        "cfcent.resistance.sketch_blocks": {"seed"},
        "cfcent.centrality.pivot_set": {"seed"},
        "cfcent.centrality.cf_closeness_sampling": {"seed"},
        "cfcent.centrality.cf_closeness_projection": {"seed"},
        "cfcent.centrality.score": {"seed"},
    }


def test_current_flow_estimators_read_only_the_hierarchy():
    # The hierarchy's finest level is the Laplacian the estimators solve;
    # a separate graph argument could describe a different one.
    names = [
        "cfcent.resistance.sketch_blocks",
        "cfcent.centrality.cf_closeness_exact",
        "cfcent.centrality.cf_closeness_sampling",
        "cfcent.centrality.cf_closeness_projection",
    ]
    params = {}
    for name in names:
        module_name, _, attr = name.rpartition(".")
        fn = getattr(importlib.import_module(module_name), attr)
        params[name] = list(inspect.signature(fn).parameters)
    assert {name: p[0] for name, p in params.items()} == dict.fromkeys(names, "hierarchy")
    assert [name for name, p in params.items() if "g" in p] == []


def test_setup_keyword_setting_is_tau():
    params = inspect.signature(cfcent.setup).parameters.values()
    keyword_only = [p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY]
    assert keyword_only == ["tau"]


def test_threads_is_keyword_only_on_every_solve_path():
    # A stale call that passes a positional int after the inputs must
    # raise rather than be read as a thread count.
    names = [
        "cfcent.solver.solve_many",
        "cfcent.resistance.node_solution_chunks",
        "cfcent.resistance.resistance_sums",
        "cfcent.resistance.sketch_blocks",
        "cfcent.centrality.cf_closeness_exact",
        "cfcent.centrality.cf_closeness_sampling",
        "cfcent.centrality.cf_closeness_projection",
        "cfcent.centrality.score",
    ]
    kinds = {}
    for name in names:
        module_name, _, attr = name.rpartition(".")
        fn = getattr(importlib.import_module(module_name), attr)
        kinds[name] = inspect.signature(fn).parameters["threads"].kind
    assert set(kinds.values()) == {inspect.Parameter.KEYWORD_ONLY}


def test_benchmark_hooks_resolve():
    # The benchmark times these functions by wrapping them under these
    # names, swaps the CLI's ``setup`` and ``cf_closeness_exact``, and reads
    # the hierarchy fields below; a rename would silently zero its
    # per-layer metrics or break its runs instead of failing here.
    wrapped = [
        "cfcent.graph.load_edge_list",
        "cfcent.graph.largest_connected_component",
        "cfcent.graph.laplacian",
        "cfcent.solver.setup",
        "cfcent.solver.coarsen_eliminate",
        "cfcent.solver.relaxed_test_vectors",
        "cfcent.solver.coarsen_aggregate",
        "cfcent.solver.solve_many",
        "cfcent.centrality.cf_closeness_exact",
        "cfcent.centrality.cf_closeness_sampling",
        "cfcent.centrality.cf_closeness_projection",
        "cfcent.evaluation.compare_rankings",
        "cfcent.evaluation.max_relative_error",
    ]
    missing = []
    for name in wrapped:
        module_name, _, attr = name.rpartition(".")
        if not inspect.isfunction(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(name)
    assert missing == []

    from cfcent import cli, laplacian
    from cfcent.generators import grid_graph

    assert cli.setup is cfcent.setup
    assert cli.cf_closeness_exact is cfcent.cf_closeness_exact
    h = cfcent.setup(laplacian(grid_graph(20)))
    assert {"solves", "max_residual", "fallback_solves"} <= set(vars(h.stats))
    assert h.level_sizes == [level.matrix.shape[0] for level in h.levels]
    assert {level.kind.value for level in h.levels} <= {"elimination", "aggregation", "coarsest"}
