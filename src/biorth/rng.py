"""Seeded random number generation with a pinned algorithm."""

import operator

import numpy as np


def make_rng(seed):
    """Return a PCG64 generator for `seed`, or `seed` itself if it is a Generator.

    The bit generator is pinned (not the platform default) so that seeded
    runs produce identical streams everywhere. Passing a Generator lets a
    caller draw several values from one stream. Any other seed must be an
    integer of some integer type: operator.index raises TypeError for a
    float or a string, which are neither truncated nor parsed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(operator.index(seed)))
