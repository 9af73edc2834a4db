"""The machine fingerprint stored with every benchmark record.

The BLAS thread count is read, never set: pinning it would hide the
oversubscription the benchmark exists to show.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys


def _blas_library() -> str | None:
    """Path of the OpenBLAS shared library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    paths = sorted(path for path in paths if path.startswith("/"))
    return paths[0] if paths else None


def blas_threads() -> int | None:
    """The effective OpenBLAS thread count, or None if it cannot be read."""
    path = _blas_library()
    if path is None:
        return None
    library = ctypes.CDLL(path)
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(library, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def fingerprint(dtype: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        },
        "dtype": dtype,
    }
