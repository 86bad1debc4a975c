"""Host-speed calibration, so that times of one run compare with another's.

On a shared host the speed of a core switches between levels up to about
1.7x apart, each held for well under a second to tens of seconds, and the
share of a run spent at each level differs from run to run: the raw wall
time of the same code on the same inputs spread 31% (quartile distance
over median) across model-n100 runs of 55 s. A fixed burst of work, timed
after every invocation, samples the same levels in the same proportions.
Times are reported in reference seconds: raw seconds divided by the run's
slowdown against the burst's times at the host's fast level. Ten 40-s runs
of each gated workload, at slowdowns of 1.3 to 2.1, then spread 3.5%
(model-n100) and 2.3% (project-io) in wall_s.

The burst has two parts, timed apart, because a slow level slows them
differently: dense kernels (SVD, expm) slowed by up to 1.8x, interpreted
float formatting and parsing by up to 2.3x. A workload's slowdown weights
the two by the share of its time spent in interpreted code.

The burst is the benchmark's own code, calling numpy and scipy directly,
so no change under src/ moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# The two parts at the fast level of a 2-core Intel Xeon host; reported
# times are seconds on a host that runs them this fast.
KERNEL_REFERENCE_S = 0.011
TEXT_REFERENCE_S = 0.003
N = 100          # kernel size of the model workloads
TEXT_VALUES = 3000


class Burst:
    """Times (kernel part, text part) of each burst in `samples`."""

    def __init__(self, interpreted: float):
        rng = np.random.Generator(np.random.PCG64(0))
        self.interpreted = interpreted
        self.a = rng.standard_normal((N, N))
        self.g = (0.5 / N ** 0.5) * rng.standard_normal((N, N))
        self.values = rng.standard_normal(TEXT_VALUES)
        self.samples = []
        self()                  # warm-up, not kept
        self.samples.clear()

    def __call__(self):
        started = time.perf_counter()
        for _ in range(6):
            np.linalg.svd(self.a)
        for _ in range(2):
            scipy.linalg.expm(self.g)
        middle = time.perf_counter()
        text = " ".join(format(float(v), ".17g") for v in self.values)
        [float(t) for t in text.split()]
        self.samples.append((middle - started, time.perf_counter() - middle))

    def slowdown(self):
        """Mean time of each part over its reference, weighted by the
        workload's interpreted share."""
        kernel = statistics.mean(k for k, _ in self.samples) / KERNEL_REFERENCE_S
        text = statistics.mean(t for _, t in self.samples) / TEXT_REFERENCE_S
        return (1 - self.interpreted) * kernel + self.interpreted * text
