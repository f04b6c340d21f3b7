"""Exception types shared across the package, and how their messages
show a refused value.

The CLI maps these onto exit codes (config -> 2, data -> 3, numeric -> 4);
library callers can catch them individually.
"""


def _shown(value) -> str:
    """``repr`` of a refused config value, cut to 40 characters: a JSON
    integer may have hundreds of digits, and a list hundreds of items."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


class TouroptError(Exception):
    """Base class for package errors."""


class ConfigError(TouroptError):
    """Invalid or inconsistent configuration (bad bounds, missing sections)."""


class DataError(TouroptError):
    """Problem with input data (missing years, bad CSV, impossible series)."""


class EvaluationError(TouroptError):
    """Numeric failure during model evaluation (NaN objective, zero variance)."""
