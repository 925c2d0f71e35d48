"""Exception types shared across the package."""


class NetdeaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(NetdeaError):
    """A solver configuration makes the model unsolvable (typically epsilon too large)."""


class SolverFailureError(NetdeaError):
    """The LP engine failed numerically or returned an impossible status."""


class DecompositionError(NetdeaError):
    """An overall efficiency cannot be split into valid stage efficiencies."""


class DmuSolveError(NetdeaError):
    """A full-analysis run aborted; carries the id of the DMU that failed."""

    def __init__(self, dmu_id: str, message: str):
        super().__init__(f"DMU {dmu_id}: {message}")
        self.dmu_id = dmu_id


class LengthMismatchError(NetdeaError):
    """Two vectors that must have equal length do not."""


class TiesPresentError(NetdeaError):
    """A rank vector contains tied ranks where a tie-free vector is required."""


class DmuSetMismatchError(NetdeaError):
    """Two record lists do not cover the same set of DMUs."""


class DatasetFormatError(NetdeaError):
    """Base for ingestion errors; carries a machine-readable cell location.

    ``row`` is the 1-based line number in the source text (header = line 1),
    ``column`` the 1-based column number, ``role`` the column role name,
    each of which may be None when the error is not tied to a single cell.
    """

    def __init__(self, message: str, row=None, column=None, role=None):
        super().__init__(message)
        self.row = row
        self.column = column
        self.role = role


class ParseError(DatasetFormatError):
    """A cell could not be parsed (non-numeric content, ragged row, ...)."""


class ValidationError(DatasetFormatError):
    """Parsed data violates a dataset invariant (non-positive value, n < 2, ...)."""


class SchemaError(DatasetFormatError):
    """The column layout is invalid (missing roles, duplicate ids, unknown headers)."""
