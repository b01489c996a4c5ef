"""Exception types shared across the package.

Every error raised for bad user input derives from EmorankError so the
command line layer can map it to a stable exit code.  OS-level failures
(missing files given directly on the command line, unreadable disks) are
left as OSError subclasses and map to a separate exit code.
"""


class EmorankError(Exception):
    """Base class for validation errors raised by this package."""


class InvalidParamsError(EmorankError):
    """A parameter is outside its documented range."""


class UnsupportedFormatError(EmorankError):
    """An audio file is readable but not 16-bit PCM mono RIFF/WAVE."""


class DimensionMismatchError(EmorankError):
    """Two arrays that must share a shape do not."""


class NonFiniteError(EmorankError):
    """An input array contains NaN or infinity."""


class EmptyInputError(EmorankError):
    """A sequence that must be non-empty is empty."""


class EmptyClassError(EmorankError):
    """A labelled class that must have members has none."""


class NoOrderedPairsError(EmorankError):
    """Ranker training needs at least one ordered pair."""


class SchemaVersionMismatchError(EmorankError):
    """A serialized model has a missing or unsupported schema version."""


class DegenerateClustersError(EmorankError):
    """Clusters that give no ratio: all embeddings coincide, or a class has one member."""


class InvalidDistributionError(EmorankError):
    """A probability vector or one-hot label fails validation."""


class ParseError(EmorankError):
    """A line of tabular input (manifest, CSV) is malformed."""


class DuplicateIdError(ParseError):
    """Two rows of a keyed table share a key."""


class UnknownEmotionError(EmorankError):
    """A manifest row names an emotion outside the vocabulary."""


class MissingFileError(EmorankError):
    """A table row points at a file that does not exist."""
