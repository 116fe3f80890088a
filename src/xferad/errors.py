"""Exception classes and the CLI exit-code mapping."""

# CLI exit codes. 0 = success, 2 = usage (argparse's own convention).
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_CAPACITY = 4
EXIT_CONSISTENCY = 5


class XferadError(Exception):
    """Base class for all toolkit errors; exit_code is the CLI's exit status."""

    exit_code = EXIT_FAILURE


class ShapeError(XferadError):
    """Array extents incompatible with the requested operation."""


class ContractError(XferadError):
    """An API precondition was violated by the caller."""


class FormatError(XferadError):
    """A file does not conform to its documented binary/text layout."""

    exit_code = EXIT_FORMAT


class CapacityError(XferadError):
    """A dataset cannot supply the requested number of samples."""

    exit_code = EXIT_CAPACITY


class UndefinedMetricError(XferadError):
    """A metric has no defined value for the given inputs (e.g. single-label AUC)."""


class ConsistencyError(XferadError):
    """Two redundant computations of the same quantity disagreed."""

    exit_code = EXIT_CONSISTENCY
