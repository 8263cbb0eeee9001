"""Reference lag-pair reader: gathers the estimator's samples from a whole walk.

The walk is cut into half-windows of alternately floor((lag + 1)/2) and
ceil((lag + 1)/2) steps, the shorter first.  Sample b reads the walk at
half-window boundary b, one step before boundary b + 2 and at boundary
b + 2 of a built, labelled walk, with float64 label products, so ``blocks``
samples need the blocks + 1 half-windows' steps plus one point.  Tests use
it to estimate from ``generate_walk`` walks and as the reference that
``RandomWalkOracle.lag_samples`` must reproduce bit for bit.
"""

import numpy as np

from junta_walk.walk import LabeledWalk, LagSamples


def half_window_bounds(lag: int, blocks: int) -> np.ndarray:
    """Walk positions of the blocks + 2 half-window boundaries."""
    lengths = [(lag + 1) // 2 if h % 2 == 0 else (lag + 2) // 2 for h in range(blocks + 1)]
    return np.cumsum([0] + lengths)


def lag_walk_points(lag: int, blocks: int) -> int:
    """Points of the walk whose half-windows ``blocks`` samples read."""
    return int(half_window_bounds(lag, blocks)[-1]) + 1


def lag_samples_from_walk(walk: LabeledWalk, lag: int, blocks: int) -> LagSamples:
    need = lag_walk_points(lag, blocks)
    if len(walk.points) < need:
        raise ValueError(f"walk has {len(walk.points)} points, estimator needs {need}")
    bounds = half_window_bounds(lag, blocks)
    base, far = bounds[:blocks], bounds[2:]
    assert np.all(far - base == lag + 1)
    xb = walk.points[base]
    diff_t = xb ^ walk.points[far - 1]
    diff_t1 = xb ^ walk.points[far]
    lb = walk.labels[base].astype(np.float64)
    prod_t = lb * walk.labels[far - 1]
    prod_t1 = lb * walk.labels[far]
    return LagSamples(walk.n, diff_t, diff_t1, prod_t, prod_t1)
