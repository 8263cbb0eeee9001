"""Reference readers of a harvest's walk: its raw refresh pairs and the lag
samples gathered from them one at a time.

``raw_pairs`` concatenates the raw per-chunk pairs of the one harvest kernel,
``walk.harvest_chunks``, read with every pair screened, into parallel arrays
(pair i joins chain boundaries i and i + 2).  ``oracle_pairs`` does the same
for the harvest a fresh ``RandomWalkOracle`` serves first.

A harvest of P pairs is a chain of half-block boundaries: boundary j is pair
j's x for j < P and pair j - 2's y for j >= 2.  ``lag_samples_from_pairs``
takes sample b one at a time at boundaries b w/2 and b w/2 + w of a window of
w half-blocks, each read by that rule, with the label product taken over
Python ints.  Tests use it as the reference that a harvest's lag samples must
reproduce bit for bit, and ``harvested_lag_samples`` to draw samples for the
estimator as the sieve does.
"""

from dataclasses import dataclass

import numpy as np

from junta_walk.walk import (
    LagSamples,
    RandomWalkOracle,
    ScreenTally,
    harvest_chunks,
    lag_pairs,
    lag_window,
)


@dataclass(frozen=True)
class RawPairs:
    """Parallel arrays of harvested refresh pairs: packed x and y in the
    harvest's narrow word, their int8 labels, and each pair's flipped mask,
    the coordinates it flips at least once."""

    n: int
    x_bits: np.ndarray
    y_bits: np.ndarray
    label_x: np.ndarray
    label_y: np.ndarray
    flipped_masks: np.ndarray
    walk_steps: int

    def __len__(self) -> int:
        return len(self.x_bits)


def raw_pairs(f, n: int, pair_count: int, gap_steps: int, seed: int) -> RawPairs:
    """The ``pair_count`` pairs of the harvest at ``seed``, as the kernel
    yields them chunk by chunk with every pair screened."""
    bounds, labels, sel, steps = [], [], [], 0
    for done, b, lab, s, drawn in harvest_chunks(
        f, n, gap_steps, seed, pair_count, pair_count, 1
    ):
        # element 0 is boundary done - 1 and half-block done - 1: the
        # previous chunk's, or none in the first chunk
        first = 1 if done == 0 else 2
        bounds.append(b[first:].copy())
        labels.append(lab[first:].copy())
        sel.append(s[1:].copy())
        steps += drawn
    bounds, labels, sel = map(np.concatenate, (bounds, labels, sel))
    return RawPairs(
        n, bounds[:-2], bounds[2:], labels[:-2], labels[2:], sel[:-1] | sel[1:], steps
    )


def oracle_pairs(
    f, n: int, oracle_seed: int, pair_count: int, gap_steps: int, request: int = 0
) -> RawPairs:
    """The raw pairs of the harvest a ``RandomWalkOracle`` at ``oracle_seed``
    serves as its ``request``-th request, whose child seed is drawn here as
    the oracle draws it."""
    child = np.random.SeedSequence(entropy=oracle_seed, spawn_key=(request,))
    return raw_pairs(f, n, pair_count, gap_steps, int(child.generate_state(1, np.uint64)[0]))


def tally_of(pairs, gap_steps: int) -> ScreenTally:
    """The screen's tally of pairs given as parallel arrays, harvested at
    ``gap_steps``."""
    tally = ScreenTally(pairs.n, gap_steps)
    tally.add(pairs.flipped_masks, pairs.label_x, pairs.label_y)
    return tally


def boundary(pairs: RawPairs, j: int) -> tuple[int, int]:
    """Boundary j of the harvest's chain and its label."""
    if j < len(pairs):
        return int(pairs.x_bits[j]), int(pairs.label_x[j])
    if not 2 <= j < len(pairs) + 2:
        raise ValueError(f"{len(pairs)} pairs hold no boundary {j}")
    return int(pairs.y_bits[j - 2]), int(pairs.label_y[j - 2])


def lag_samples_from_pairs(pairs: RawPairs, window: int, blocks: int) -> LagSamples:
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
    harvest = RandomWalkOracle(f, n, seed).refresh_pairs(0, gap_steps, window, blocks)
    assert len(harvest) == lag_pairs(window, blocks)
    return harvest.lags, window * gap_steps / 4
