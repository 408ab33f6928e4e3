"""Current-flow closeness centrality via a multigrid Laplacian solver."""

from .centrality import (
    Measure,
    ScoreTable,
    cf_closeness_exact,
    cf_closeness_projection,
    cf_closeness_sampling,
    degree_asymptotic,
    sp_closeness,
)
from .errors import (
    CapacityError,
    CfcentError,
    ConvergenceError,
    DomainError,
    EdgeListParseError,
    UndefinedMetricError,
    UndefinedScoreError,
)
from .evaluation import (
    RankComparison,
    compare_rankings,
    degree_correlation_experiment,
    max_relative_error,
    noise_resilience,
    rank_inversions,
    relative_std_dev,
    spearman,
)
from .graph import (
    Graph,
    insert_noise_edges,
    laplacian,
    largest_connected_component,
    load_edge_list,
)
from .resistance import effective_resistance
from .solver import (
    MultigridHierarchy,
    setup,
    solve_many,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CfcentError",
    "ConvergenceError",
    "DomainError",
    "EdgeListParseError",
    "Graph",
    "Measure",
    "MultigridHierarchy",
    "RankComparison",
    "ScoreTable",
    "UndefinedMetricError",
    "UndefinedScoreError",
    "cf_closeness_exact",
    "cf_closeness_projection",
    "cf_closeness_sampling",
    "compare_rankings",
    "degree_asymptotic",
    "degree_correlation_experiment",
    "effective_resistance",
    "insert_noise_edges",
    "laplacian",
    "largest_connected_component",
    "load_edge_list",
    "max_relative_error",
    "noise_resilience",
    "rank_inversions",
    "relative_std_dev",
    "setup",
    "solve_many",
    "sp_closeness",
    "spearman",
]
