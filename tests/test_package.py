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
    # read tau from it rather than taking an override.  Any other seed
    # draws an estimator's own sample: pivots or projection signs.
    takers = {
        f"{module_name}.{name}": {"tau", "seed"} & set(inspect.signature(obj).parameters)
        for module_name in ("cfcent.solver", "cfcent.resistance", "cfcent.centrality")
        for name, obj in vars(importlib.import_module(module_name)).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module_name
    }
    assert {name: got for name, got in takers.items() if got} == {
        "cfcent.solver.setup": {"tau", "seed"},
        "cfcent.resistance.build_sketch": {"seed"},
        "cfcent.centrality.pivot_set": {"seed"},
        "cfcent.centrality.cf_closeness_sampling": {"seed"},
        "cfcent.centrality.cf_closeness_projection": {"seed"},
        "cfcent.centrality.score": {"seed"},
    }


def test_current_flow_estimators_read_only_the_hierarchy():
    # The hierarchy's finest level is the Laplacian the estimators solve;
    # a separate graph argument could describe a different one.
    names = [
        "cfcent.resistance.build_sketch",
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


def test_setup_keyword_settings_are_tau_and_seed():
    params = inspect.signature(cfcent.setup).parameters.values()
    keyword_only = [p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY]
    assert keyword_only == ["tau", "seed"]


def test_threads_is_keyword_only_on_every_solve_path():
    # A stale call that passes a positional int after the inputs must
    # raise rather than be read as a thread count.
    names = [
        "cfcent.solver.solve_many",
        "cfcent.resistance.node_solution_chunks",
        "cfcent.resistance.resistance_sums",
        "cfcent.resistance.build_sketch",
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
