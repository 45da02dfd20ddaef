"""Exception hierarchy shared across the toolkit.

Every error carries a short machine-readable ``error_class`` that tags run
manifests, and the ``exit_code`` the CLI returns for it (1 for an error with
no more specific class). The program raises every class but the base.
"""


class ToolkitError(Exception):
    error_class = "error"
    exit_code = 1


class ShapeError(ToolkitError):
    """Array dimensions or lengths do not match the operation's contract."""

    error_class = "shape"
    exit_code = 6


class DegenerateBatchError(ShapeError):
    """Batch too small for batch statistics (train-mode normalization)."""

    error_class = "degenerate_batch"
    exit_code = 8


class ConfigError(ToolkitError):
    """An architecture, run configuration or argument violates its
    invariants."""

    error_class = "config"
    exit_code = 5


class FormatError(ToolkitError):
    """A file is not a valid GHSR/GHSM container; message names the offset."""

    error_class = "format"
    exit_code = 4


class NumericError(ToolkitError):
    """Non-finite value encountered where finite arithmetic is required."""

    error_class = "numeric"
    exit_code = 7


class DegenerateClassError(ToolkitError):
    """Training data contains a single class."""

    error_class = "degenerate_class"
    exit_code = 8


class UndefinedStatisticError(ToolkitError):
    """Regression or correlation undefined (zero variance)."""

    error_class = "undefined_statistic"
    exit_code = 10


class MetricError(ToolkitError):
    """Accuracy metric undefined for the given confusion counts."""

    error_class = "metric"
    exit_code = 10


class RegistryError(ToolkitError):
    """Zone registry lookup failed."""

    error_class = "registry"
    exit_code = 9


class GenerationError(ToolkitError):
    """Synthetic scene generation could not satisfy its constraints."""

    error_class = "generation"
    exit_code = 11


class MissingInputError(ToolkitError):
    """A required input path does not exist."""

    error_class = "missing_input"
    exit_code = 3
