"""The BLAS that NumPy loaded: what that library reports of itself, and a
scope that runs code at one BLAS thread.

NumPy has no public control of its BLAS thread count. Its Linux wheels
bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*``, whose exported
``scipy_openblas_get_num_threads64_`` and ``scipy_openblas_set_num_threads64_``
read and set it. The library is opened with ``RTLD_NOLOAD``, which returns
the copy already in the process and never loads a second one. It is looked
up on first use, not at import, and the handle is kept. Where NumPy loaded
no bundled OpenBLAS, the count is neither read nor set.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """``(file name, handle)`` of the OpenBLAS that NumPy loaded, or ``None``."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            return path.name, ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded
            continue
    return None


def blas_info() -> dict | None:
    """``{"library", "version", "threads"}`` of the OpenBLAS that NumPy
    loaded: its file name, its build string and its thread count. ``None``
    where NumPy loaded no bundled OpenBLAS."""
    found = _openblas()
    if found is None:
        return None
    name, lib = found
    config = lib.scipy_openblas_get_config64_
    config.restype = ctypes.c_char_p
    return {
        "library": name,
        "version": " ".join(config().decode("ascii", "replace").split()),
        "threads": int(lib.scipy_openblas_get_num_threads64_()),
    }


@contextlib.contextmanager
def one_thread():
    """Run the body (or, as a decorator, each call) at one BLAS thread, and
    restore the process's count when it returns or raises. A product's bits
    then no longer depend on the count the process started with. Where no
    OpenBLAS is found, the body runs at the process's count.

    The body must reap every child it forks before it ends, as
    :func:`wood._split.beside` does: OpenBLAS workers restored while a child
    still runs spin against it for the CPUs."""
    found = _openblas()
    if found is None:
        yield
        return
    lib = found[1]
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(threads)
