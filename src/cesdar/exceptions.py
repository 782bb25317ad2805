"""Exception types shared across the solver, cluster, and pipeline modules."""


class CesdarError(Exception):
    """Base class for errors raised by this package."""


class SingularSystemError(CesdarError):
    """An active-set normal-equation system stayed singular after jitter."""

    def __init__(self, message, active_set=None):
        super().__init__(message)
        self.active_set = None if active_set is None else list(active_set)


class DegenerateColumnError(CesdarError):
    """A design column has zero curvature ||x_j||^2 / n (or zero variance after encoding)."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class ConfigurationError(CesdarError):
    """Invalid solver, tuning, or experiment configuration."""


class WorkerUnavailableError(CesdarError):
    """A simulated worker was marked failed; runs are fail-stop."""

    def __init__(self, message, worker=None):
        super().__init__(message)
        self.worker = worker


class IngestError(CesdarError):
    """CSV ingestion failed (missing column, unparseable cell, ...)."""
