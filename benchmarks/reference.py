"""A fixed reference workload that measures how fast the machine is right now.

On a shared machine the CPU speed drifts by tens of percent over minutes,
which would swamp the differences the benchmark exists to show. Each timed
region is therefore bracketed by two runs of this reference, made in the
same process just before and just after it, and reported at the speed of a
machine on which the reference takes ``NOMINAL_S``. The mix follows the program's own: Python
calls on small arrays, a BLAS matrix product at model width, and parsing of
CSV text.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.15

_PROBS = np.full(10, 0.1)
_ROWS = np.linspace(0.0, 1.0, 60 * 784).reshape(60, 784)
_WEIGHTS = np.linspace(-1.0, 1.0, 784 * 128).reshape(784, 128)
_LINE = ",".join(repr(x) for x in np.linspace(0.0, 1.0, 784).tolist())


def reference_seconds() -> float:
    """Wall time of the reference workload."""
    started = time.perf_counter()
    total = 0.0
    for _ in range(6000):
        p = np.asarray(_PROBS, dtype=np.float64)
        if not np.all(np.isfinite(p)) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ArithmeticError("reference vector is not a distribution")
        total += 1.0 - float(p @ p)
    for _ in range(165):
        total += float(np.sum(_ROWS @ _WEIGHTS))
    for _ in range(110):
        total += sum(float(cell) for cell in _LINE.split(","))
    elapsed = time.perf_counter() - started
    if not np.isfinite(total):
        raise ArithmeticError("reference workload produced a non-finite total")
    return elapsed


def at_nominal_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference took ``reference_s``, scaled
    to a machine on which it takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / reference_s
