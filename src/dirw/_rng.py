"""Splittable counter-based random streams for reproducible experiments.

Every consumer derives its own Philox stream from (seed, purpose, index),
so results do not depend on the order in which the streams are drawn.
"""

import numpy as np

PURPOSES = {"init": 0, "x0": 1, "perturbation": 2}


def make_rng(seed, purpose, index=0):
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(PURPOSES[purpose], int(index))
    )
    return np.random.Generator(np.random.Philox(ss))
