"""Exception taxonomy shared across the library.

Two kinds of failure derive from :class:`WoodError`: :class:`InputError`
for bad values, shapes, files or settings (the CLI's ``data error:``,
exit 2) and :class:`NumericError` for a numerical procedure that failed
(``numeric error:``, exit 3). Class-index violations raise the builtin
``IndexError``.
"""


class WoodError(Exception):
    """Base class for all library-specific errors."""


class InputError(WoodError):
    """Inputs violate a contract: a value, a shape, a file or a setting."""


class NumericError(WoodError):
    """A numerical procedure failed (overflow, non-convergence, NaN)."""
