"""Exception taxonomy shared across the library.

Class-index violations raise the builtin ``IndexError``; everything else
derives from :class:`WoodError` so callers can catch library failures in one
clause.
"""


class WoodError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(WoodError):
    """Shapes or sizes of inputs are inconsistent."""


class NumericError(WoodError):
    """A numerical procedure failed (overflow, non-convergence, NaN)."""


class InputError(WoodError):
    """Input values violate a contract (negative mass, NaN score, ...)."""


class ConfigError(WoodError):
    """A configuration is invalid or inconsistent with the data."""


class FormatError(WoodError):
    """A file does not conform to its declared on-disk format."""
