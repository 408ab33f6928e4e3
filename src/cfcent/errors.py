"""Exception types raised by the cfcent library."""


class CfcentError(Exception):
    """Base class for all cfcent errors."""


class EdgeListParseError(CfcentError):
    """A malformed line was found while reading an edge-list file."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DomainError(CfcentError):
    """An argument violates a documented precondition."""


class CapacityError(CfcentError):
    """The graph is too dense to place the requested number of new edges."""


class ConvergenceError(CfcentError):
    """A linear solve failed to reach the requested residual tolerance.

    ``best_residual`` records the largest final relative residual among
    the columns that missed the tolerance; ``message`` says how many did.
    """

    def __init__(self, message: str, best_residual: float):
        super().__init__(
            f"{message} (largest relative residual among the failed columns "
            f"{best_residual:.3e})"
        )
        self.best_residual = best_residual


class UndefinedScoreError(CfcentError):
    """A centrality score is undefined for the requested node."""


class UndefinedMetricError(CfcentError):
    """A comparison metric is undefined for the given inputs."""
