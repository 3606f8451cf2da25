"""Exception and warning types shared across the package."""


class AnalogDistError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteError(AnalogDistError):
    """A numerical state left the finite range (diverging integration, bad dt)."""


class FormatError(AnalogDistError):
    """Malformed catalog or manifest file. Carries the byte offset where
    parsing failed, or None where the fault has no position in the file."""

    def __init__(self, message: str, byte_offset: int | None = None):
        suffix = "" if byte_offset is None else f" (byte offset {byte_offset})"
        super().__init__(message + suffix)
        self.byte_offset = byte_offset


class TooLargeError(AnalogDistError):
    """Requested more rows than the source catalog holds, or an array larger
    than the machine's physical memory."""


class NotEnoughAnalogsError(AnalogDistError):
    """Fewer admissible catalog rows than requested analogs.

    ``admissible`` holds the number of rows that survived exclusion.
    """

    def __init__(self, requested: int, admissible: int):
        super().__init__(
            f"requested {requested} analogs but only {admissible} admissible rows remain"
        )
        self.requested = requested
        self.admissible = admissible


class DimensionMismatchError(AnalogDistError):
    """Query vector or feature matrix width does not match the catalog/model."""


class DegenerateDistancesError(AnalogDistError):
    """Analog distances carry no scaling information (tied at the largest rank)."""


class CovarianceCollapseError(AnalogDistError):
    """A mixture component covariance became singular even after regularization."""


class RankDeficientWarning(UserWarning):
    """Requested components extend into the numerical null space of the data."""
