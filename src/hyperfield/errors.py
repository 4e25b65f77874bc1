"""Exception hierarchy shared across the pipeline.

Four families matter to the CLI, which maps them onto distinct exit
codes: configuration problems, missing upstream artifacts, bad or
degenerate data, and numeric divergence during training.
"""

from __future__ import annotations


class HyperfieldError(Exception):
    """Base class for all package errors."""


class ConfigError(HyperfieldError):
    """Invalid or missing configuration value."""


class DependencyError(HyperfieldError):
    """A required upstream stage artifact is missing."""


class DataError(HyperfieldError):
    """Input data is malformed, inconsistent, or degenerate."""


class DivergenceError(HyperfieldError):
    """A numeric routine produced non-finite values."""


class CubeParseError(DataError):
    """Malformed cube header. Carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CubeSizeError(DataError):
    """Raw payload size does not match the header geometry."""


class UnsupportedFormatError(DataError):
    """Interleave, sample type, or units tag outside the supported set."""


class ShapeMismatchError(DataError):
    """Array dimensions disagree with the metadata they must match."""


class DegeneratePanelError(DataError):
    """Reference panel's mean signal is not positive (zero, negative or NaN) in some band."""


class EmptyBandMaskError(DataError):
    """Band mask keeps fewer than two bands."""


class WavelengthCoverageError(DataError):
    """A required wavelength window contains no bands."""


class DegenerateHistogramError(DataError):
    """Histogram has a single occupied bin; no threshold exists."""


class AmbiguousCellError(DataError):
    """Two detected boxes resolve to the same grid cell."""


class AnchorError(DataError):
    """Anchor plot id or cell cannot be resolved."""


class RankError(DataError):
    """Requested more principal components than the data rank."""


class DegenerateSimplexError(DataError):
    """Pixel set cannot span a simplex of the requested size."""


class EmptyPlotError(DataError):
    """Plot contains no foreground pixels; yield cannot be allocated."""


# CLI exit codes. 0 is success and 1 is an unexpected crash.
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_DATA = 4
EXIT_DIVERGENCE = 5


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, DependencyError):
        return EXIT_DEPENDENCY
    if isinstance(exc, DivergenceError):
        return EXIT_DIVERGENCE
    if isinstance(exc, DataError):
        return EXIT_DATA
    return 1
