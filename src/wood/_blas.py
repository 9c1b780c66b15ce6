"""The BLAS that NumPy loaded, as that library reports itself.

NumPy has no public reader of its BLAS thread count. Its Linux wheels
bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*``, whose exported
``scipy_openblas_get_num_threads64_`` reads it. The library is opened with
``RTLD_NOLOAD``, which returns the copy already in the process and never
loads a second one. The count is read, never set.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np


def blas_info() -> dict | None:
    """``{"library", "version", "threads"}`` of the OpenBLAS that NumPy
    loaded: its file name, its build string and its thread count. ``None``
    where NumPy loaded no bundled OpenBLAS."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded
            continue
        config = lib.scipy_openblas_get_config64_
        config.restype = ctypes.c_char_p
        return {
            "library": path.name,
            "version": " ".join(config().decode("ascii", "replace").split()),
            "threads": int(lib.scipy_openblas_get_num_threads64_()),
        }
    return None
