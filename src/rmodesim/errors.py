"""Exception types shared across the toolkit."""


class RmodeError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2  # the CLI's exit status; a subclass sets 3 where the fit cannot go on, 4 for a resource limit


class ConfigError(RmodeError):
    """Run configuration is invalid or references missing files."""


class CoincidentPointsError(RmodeError):
    """A query point on a transmitter site, or at a parametric distance from one that rounds to zero."""


class ParseError(RmodeError):
    """A CSV input row could not be parsed.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class EmptyInputError(RmodeError):
    """An operation that needs at least one element got an empty input."""


class InsufficientDataError(RmodeError):
    """Fewer records than one analysis window."""

    exit_code = 3


class UnknownStationError(RmodeError):
    """A station without a jitter in the model parameters or without a field lattice."""


class NonpositiveSnrError(RmodeError):
    """A NaN SNR at a query point: the field strength or the noise level is not a number."""


class NnlsConvergenceError(RmodeError):
    """The NNLS active-set iteration hit its iteration cap without converging."""

    exit_code = 3


class InsufficientSamplesError(RmodeError):
    """Too few variance samples to estimate the model."""

    exit_code = 3


class DegenerateDesignError(RmodeError):
    """Fit design is rank deficient (a station has no SNR spread)."""

    exit_code = 3


class OutOfGridBoundsError(RmodeError):
    """Query point lies outside an imported lattice."""


class NonMonotonicAxesError(RmodeError):
    """Imported lattice axes are not strictly increasing."""


class TooFewStationsError(RmodeError):
    """Position geometry needs at least three stations."""


class SingularGeometryError(RmodeError):
    """Normal matrix is singular or too ill-conditioned to invert."""


class GridTooLargeError(RmodeError):
    """Sweep grid exceeds the configured cell limit."""

    exit_code = 4
