"""Exception hierarchy shared across the pipeline.

Four families matter to the CLI: configuration problems, missing
upstream artifacts, bad or degenerate data, and numeric divergence
during training. Each family class carries its CLI exit code as
``exit_code``. These four and their base are the only classes: what
went wrong is in the message, which names the file and line where
there is one.
"""

from __future__ import annotations


class HyperfieldError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(HyperfieldError):
    """Invalid or missing configuration value."""

    exit_code = 2


class DependencyError(HyperfieldError):
    """A required upstream stage artifact is missing."""

    exit_code = 3


class DataError(HyperfieldError):
    """Input data is malformed, inconsistent, or degenerate."""

    exit_code = 4


class DivergenceError(HyperfieldError):
    """A numeric routine produced non-finite values."""

    exit_code = 5
