"""Exception hierarchy shared across the package."""


class QzakError(Exception):
    """Base class for all package-specific errors."""


class GridSpecError(QzakError, ValueError):
    """Invalid grid specification (dimension, size, or box length)."""


class RepresentationError(QzakError, TypeError):
    """Values cannot form the requested field: a real field was given a
    nonzero imaginary part."""


class InconsistentGridError(QzakError, ValueError):
    """Fields defined on different grids were combined."""


class ParameterError(QzakError, ValueError):
    """Operator or solver parameter outside its admissible range."""


class ZeroModeError(QzakError, ValueError):
    """Operation requiring a zero-mean field received one with a mean."""


class ResolutionError(QzakError, ValueError):
    """Data under-resolved on the grid or box too small for its support."""


class NonFiniteFieldError(QzakError, FloatingPointError):
    """A field developed NaN or Inf values during time stepping."""


class WrapAroundError(QzakError, ValueError):
    """Requested probe horizon would let the wave wrap around the box."""


class DegenerateInputError(QzakError, ValueError):
    """Rate fit input is degenerate (too few points or non-positive errors)."""


class ConfigError(QzakError, ValueError):
    """Experiment configuration is malformed or out of range.

    ``path`` points at the offending key, e.g. ``"data.width"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class OutputError(QzakError, OSError):
    """Failure while persisting experiment outputs."""
