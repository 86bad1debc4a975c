"""Seeded random number generation with a pinned algorithm."""

import numpy as np


def make_rng(seed):
    """Return a PCG64 generator for `seed`, or `seed` itself if it is a Generator.

    The bit generator is pinned (not the platform default) so that seeded
    runs produce identical streams everywhere. Passing a Generator lets a
    caller draw several values from one stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(int(seed)))
