"""Reference lag-pair reader: gathers the estimator's samples from a harvest.

A harvest of P pairs is a chain of half-block boundaries: boundary j is pair
j's x for j < P and pair j - 2's y for j >= 2.  The reader takes sample b
one at a time at boundaries b w/2 and b w/2 + w of a window of w
half-blocks, each read by that rule, with the label product taken over
Python ints.  Tests use it as the reference that ``RefreshPairs.lag_samples``
must reproduce bit for bit, and ``harvested_lag_samples`` to draw samples for
the estimator as the sieve does.
"""

import numpy as np

from junta_walk.walk import (
    LagSamples,
    RandomWalkOracle,
    RefreshPairs,
    lag_pairs,
    lag_window,
)


def boundary(pairs: RefreshPairs, j: int) -> tuple[int, int]:
    """Boundary j of the harvest's chain and its label."""
    if j < len(pairs):
        return int(pairs.x_bits[j]), int(pairs.label_x[j])
    if not 2 <= j < len(pairs) + 2:
        raise ValueError(f"{len(pairs)} pairs hold no boundary {j}")
    return int(pairs.y_bits[j - 2]), int(pairs.label_y[j - 2])


def lag_samples_from_pairs(pairs: RefreshPairs, window: int, blocks: int) -> LagSamples:
    half = window // 2
    ends = [(boundary(pairs, b * half), boundary(pairs, b * half + window)) for b in range(blocks)]
    diff = np.array([x ^ y for (x, _), (y, _) in ends], dtype=pairs.x_bits.dtype)
    prod = np.array([lx * ly for (_, lx), (_, ly) in ends], dtype=np.int8)
    return LagSamples(pairs.n, diff, prod)


def harvested_lag_samples(f, n: int, lag: int, blocks: int, gap_steps: int, seed: int):
    """``blocks`` lag samples of mean flip count >= lag, read off one fresh
    harvest at ``gap_steps`` as the sieve reads them, and that mean flip
    count."""
    window = lag_window(lag, gap_steps)
    pairs = RandomWalkOracle(f, n, seed).refresh_pairs(lag_pairs(window, blocks), gap_steps)
    return pairs.lag_samples(window, blocks), window * gap_steps / 4
