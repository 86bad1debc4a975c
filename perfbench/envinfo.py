"""Environment record written into every result.

Numbers from this benchmark compare only between runs with the same
record: BLAS thread count, cores, Python, numpy, scipy, OpenBLAS builds and
CPU model. The thread count is read back from each loaded OpenBLAS, so it
reports what the library does, not just what the environment asked for.
"""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Keys that must match for two results to be comparable.
COMPARED = ("blas_threads", "nproc", "python", "numpy", "scipy", "openblas", "cpu")


# Plain OpenBLAS, and the prefixed 32- and 64-bit-integer builds in the
# numpy and scipy wheels.
_OPENBLAS_SYMBOLS = [(f"{prefix}get_num_threads{suffix}", f"{prefix}get_config{suffix}")
                     for prefix in ("openblas_", "scipy_openblas_") for suffix in ("", "64_")]


def _openblas_libraries():
    """(build string, thread count) of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _OPENBLAS_SYMBOLS:
            threads = getattr(lib, threads_name, None)
            config = getattr(lib, config_name, None)
            if threads is not None and config is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                found.append((config().decode("ascii", "replace").strip(), threads()))
                break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """The record of the current process; call after numpy and scipy load."""
    import numpy
    import scipy

    blas = _openblas_libraries()
    return {
        "blas_threads": max((t for _, t in blas), default=None),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted({build for build, _ in blas}),
        "cpu": _cpu_model(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def differences(a: dict, b: dict):
    """Human-readable lines for every compared key on which two records differ."""
    return [f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
            for key in COMPARED if a.get(key) != b.get(key)]
