import dataclasses
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



def test_only_setup_takes_a_solver_config():
    # The hierarchy carries the one set of solver settings; solves and
    # estimators read them from it rather than taking an override.
    takers = [
        f"{module_name}.{name}"
        for module_name in ("cfcent.solver", "cfcent.resistance", "cfcent.centrality")
        for name, obj in vars(importlib.import_module(module_name)).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module_name
        and "config" in inspect.signature(obj).parameters
    ]
    assert takers == ["cfcent.solver.setup"]


def test_solver_config_holds_only_user_settings():
    fields = [f.name for f in dataclasses.fields(cfcent.SolverConfig)]
    assert fields == ["tau", "max_direct_size", "seed"]


def test_threads_is_keyword_only_on_every_solve_path():
    # A stale call that passes an int where ``config`` used to be must
    # raise rather than be read as a thread count.
    names = [
        "cfcent.solver.solve_many",
        "cfcent.resistance.node_solution_chunks",
        "cfcent.resistance.resistance_sums",
        "cfcent.resistance.resistances_from_node",
        "cfcent.resistance.build_sketch",
        "cfcent.centrality.cf_closeness_exact",
        "cfcent.centrality.cf_closeness_sampling",
        "cfcent.centrality.cf_closeness_projection",
    ]
    kinds = {}
    for name in names:
        module_name, _, attr = name.rpartition(".")
        fn = getattr(importlib.import_module(module_name), attr)
        kinds[name] = inspect.signature(fn).parameters["threads"].kind
    assert set(kinds.values()) == {inspect.Parameter.KEYWORD_ONLY}
