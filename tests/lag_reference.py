"""Reference lag-pair reader: gathers the estimator's samples from a whole walk.

Block b reads walk positions b (lag + 1), + lag and + lag + 1 of a built,
labelled walk, with float64 label products, so ``blocks`` blocks need a walk
of blocks (lag + 1) + 1 points.  Tests use it to estimate from
``generate_walk`` walks and as the reference that
``RandomWalkOracle.lag_samples`` must reproduce bit for bit.
"""

import numpy as np

from junta_walk.walk import LabeledWalk, LagSamples


def lag_samples_from_walk(walk: LabeledWalk, lag: int, blocks: int) -> LagSamples:
    need = blocks * (lag + 1) + 1
    if len(walk.points) < need:
        raise ValueError(f"walk has {len(walk.points)} points, estimator needs {need}")
    base = np.arange(blocks) * (lag + 1)
    xb = walk.points[base]
    diff_t = xb ^ walk.points[base + lag]
    diff_t1 = xb ^ walk.points[base + lag + 1]
    lb = walk.labels[base].astype(np.float64)
    prod_t = lb * walk.labels[base + lag]
    prod_t1 = lb * walk.labels[base + lag + 1]
    return LagSamples(walk.n, diff_t, diff_t1, prod_t, prod_t1)
