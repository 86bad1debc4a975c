"""Entry point of the `biorth` command: one BLAS thread unless the user chose.

The solvers multiply n x n matrices at n <= a few hundred, where BLAS
threads cost more in synchronization than they gain: on a 2-core machine
the solve of `biorth model-problem --n 100 --max-iters 100` took 4.1 s at
two OpenBLAS threads and 0.6 s at one. So, unless one of THREAD_VARIABLES
is already set, `entry` sets all of them to 1. BLAS libraries read these
variables once, when numpy loads them, so this module lives outside the
`biorth` package, whose import loads numpy, and imports `biorth.cli` only
after setting them. A run is deterministic given `--seed` at a fixed
thread count, and this policy fixes it.

Run as the installed `biorth` script or as `python -m biorth_launcher`.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def single_thread_default():
    """Set every thread variable to 1 unless the user has set any of them."""
    if not any(name in os.environ for name in THREAD_VARIABLES):
        for name in THREAD_VARIABLES:
            os.environ[name] = "1"


def entry():
    single_thread_default()
    from biorth.cli import main

    raise SystemExit(main())


if __name__ == "__main__":
    entry()
