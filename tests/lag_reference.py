"""Reference lag-pair reader: gathers the estimator's samples from a whole walk.

Block b reads walk positions b (lag + 1), + lag and + lag + 1 of a built,
labelled walk, with float64 label products.  Tests use it to estimate from
``generate_walk`` walks and as the reference that
``RandomWalkOracle.lag_samples`` must reproduce bit for bit.
"""

import numpy as np

from junta_walk.fourier import EstimatorParams
from junta_walk.walk import LabeledWalk, LagSamples


def lag_samples_from_walk(walk: LabeledWalk, params: EstimatorParams) -> LagSamples:
    if len(walk.points) < params.required_walk_length:
        raise ValueError(
            f"walk has {len(walk.points)} points, estimator needs "
            f"{params.required_walk_length}"
        )
    base = np.arange(params.pair_count) * params.stride
    xb = walk.points[base]
    diff_t = xb ^ walk.points[base + params.lag]
    diff_t1 = xb ^ walk.points[base + params.lag + 1]
    lb = walk.labels[base].astype(np.float64)
    prod_t = lb * walk.labels[base + params.lag]
    prod_t1 = lb * walk.labels[base + params.lag + 1]
    return LagSamples(walk.n, diff_t, diff_t1, prod_t, prod_t1)
