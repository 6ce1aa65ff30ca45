"""Exception types for the :mod:`repro` package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class MetricError(ReproError):
    """An object collection is incompatible with the chosen metric."""


class GraphError(ReproError):
    """A proximity graph is malformed or used incorrectly."""


class ParameterError(ReproError):
    """An algorithm parameter is out of its valid range."""


class BudgetExceeded(ReproError):
    """An experiment exceeded its configured time budget.

    Mirrors the paper's ``NA`` entries: algorithms that could not finish
    pre-processing or detection within the time limit are reported as NA.
    """

    def __init__(self, what: str, budget_s: float):
        super().__init__(f"{what} exceeded the {budget_s:.1f}s budget")
        self.what = what
        self.budget_s = budget_s
