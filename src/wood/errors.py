"""Exception taxonomy shared across the library, and the rules its inputs keep.

Two kinds of failure derive from :class:`WoodError`: :class:`InputError`
for bad values, shapes, files or settings (the CLI's ``data error:``,
exit 2) and :class:`NumericError` for a numerical procedure that failed
(``numeric error:``, exit 3). Class-index violations raise the builtin
``IndexError``.
"""

import numbers

import numpy as np


class WoodError(Exception):
    """Base class for all library-specific errors."""


class InputError(WoodError):
    """Inputs violate a contract: a value, a shape, a file or a setting."""


class NumericError(WoodError):
    """A numerical procedure failed (overflow, non-convergence, NaN)."""


# The rules a scalar setting may keep, by the words of its error message: the
# kind of number, and the range its plain int or float lies in (NaN in none).
_RULES = {
    "an integer": (numbers.Integral, lambda x: True),
    "an integer >= 0": (numbers.Integral, lambda x: x >= 0),
    "an integer >= 1": (numbers.Integral, lambda x: x >= 1),
    "an integer >= 2": (numbers.Integral, lambda x: x >= 2),
    "finite and positive": (numbers.Real, lambda x: 0 < x < np.inf),
    "finite and nonnegative": (numbers.Real, lambda x: 0 <= x < np.inf),
    "in [0, 1)": (numbers.Real, lambda x: 0 <= x < 1),
    "in (0, 1)": (numbers.Real, lambda x: 0 < x < 1),
}


def _setting(name: str, value, rule: str):
    """``value`` of the scalar setting ``name`` if it keeps ``rule``, a key of
    ``_RULES``; a bool keeps none. A Python int or float is returned as it
    is, any other number (a NumPy scalar) as the plain int or float, so a
    dataclass of settings is JSON. Otherwise raise ``InputError``."""
    kind, within = _RULES[rule]
    if isinstance(value, kind) and not isinstance(value, bool):
        try:
            plain = int(value) if kind is numbers.Integral else float(value)
        except OverflowError:  # an integer or a fraction beyond the float range
            plain = np.inf
        if within(plain):
            return value if type(value) in (int, float) else plain
    raise InputError(f"{name} must be {rule}, got {value!r}")


def _settings(config, **rules) -> None:
    """Check the fields of the frozen dataclass ``config`` that ``rules``
    names, in order, by :func:`_setting`, and store the plain values."""
    for name, rule in rules.items():
        object.__setattr__(config, name, _setting(name, getattr(config, name), rule))


def _array(values, name: str, dtype=np.float64) -> np.ndarray:
    """``values`` as an array of ``dtype`` (its own for ``None``), not copied
    where it is one already. Only bools, integers and floats convert: any
    other values, ragged or complex ones included, raise ``InputError``."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "biuf":
            return arr if dtype is None else arr.astype(dtype, copy=False)
    except (TypeError, ValueError):  # ragged
        pass
    raise InputError(f"{name} must be an array of real numbers")


def _labels(values) -> np.ndarray:
    """``values`` as int64 class labels. A label that changes on the cast (a
    fractional, NaN or out-of-range one) raises ``InputError`` naming it."""
    given = _array(values, "labels", dtype=None)
    with np.errstate(invalid="ignore"):
        labels = given.astype(np.int64, copy=False)
    changed = np.flatnonzero(labels != given)
    if changed.size:
        row = int(changed[0])
        raise InputError(f"label {given.flat[row].item()!r} in row {row} is not an integer")
    return labels
