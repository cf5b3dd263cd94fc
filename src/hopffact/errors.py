"""Exception types shared across the package."""


class HopffactError(Exception):
    """Base class for all package errors."""


class FieldMismatch(HopffactError):
    """Operands live over different base fields."""


class SpaceMismatch(HopffactError):
    """Based spaces are incompatible (label lists differ)."""


class NotInvertible(HopffactError):
    """An element has no two-sided inverse in its algebra."""


class InconsistentSystem(HopffactError):
    """A linear system has no solution."""


class NoAntipode(HopffactError):
    """The antipode linear system of a bialgebra is inconsistent."""


class ImageEscapesEndSpace(HopffactError):
    """A map that must land in the end space has a component outside it."""


class UnknownExample(HopffactError):
    """The named-example registry has no entry under this name."""


class BundleFormatError(HopffactError):
    """A bundle file failed to parse or validate."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path
