"""Exception types shared across the package.

Every error raised for bad user input derives from EmorankError so the
command line layer can map it to a stable exit code.  OS-level failures
(missing files given directly on the command line, unreadable disks) are
left as OSError subclasses and map to a separate exit code.
"""


class EmorankError(Exception):
    """Base class for validation errors raised by this package."""


class InvalidParamsError(EmorankError):
    """A parameter or an input's content is outside what the computation accepts."""


class ParseError(EmorankError):
    """An input file's bytes or fields cannot be used."""


class NonFiniteError(EmorankError):
    """An input array contains NaN or infinity, or a result overflows float64."""


class EmptyInputError(EmorankError):
    """A sequence that must be non-empty is empty."""


class DimensionMismatchError(EmorankError):
    """Two arrays that must share a shape do not."""
