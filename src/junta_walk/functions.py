"""Factories for the Boolean functions used across tests and experiments.

Sign convention for AND: -1 plays the role of true, so AND over a coordinate
set is -1 exactly when every coordinate in the set is -1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .hypercube import IndexSet, JuntaHypothesis, TruthTable, _check_real, parity_sign_u64


def parity_table(n: int, coords: Iterable[int]) -> TruthTable:
    """chi_S as an explicit truth table."""
    mask = IndexSet.of(n, coords).mask
    all_bits = np.arange(1 << n, dtype=np.uint64)
    return TruthTable(n, parity_sign_u64(all_bits, mask))


def and_table(n: int, coords: Iterable[int]) -> TruthTable:
    """AND over the given coordinates (-1 = true): -1 iff all of them are -1."""
    mask = np.uint64(IndexSet.of(n, coords).mask)
    all_bits = np.arange(1 << n, dtype=np.uint64)
    values = np.where((all_bits & mask) == mask, -1, 1).astype(np.int8)
    return TruthTable(n, values)


def constant_table(n: int, sign: int) -> TruthTable:
    return TruthTable(n, np.full(1 << n, sign, dtype=np.int8))


def random_table(n: int, rng: np.random.Generator) -> TruthTable:
    return TruthTable(n, rng.choice(np.array([-1, 1], dtype=np.int8), size=1 << n))


def random_junta(n: int, k: int, rng: np.random.Generator) -> JuntaHypothesis:
    """Uniform k-subset of [n] with a uniform 2^k sign table."""
    coords = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
    table = rng.choice(np.array([-1, 1], dtype=np.int8), size=1 << k)
    return JuntaHypothesis(IndexSet.of(n, coords), table)


def flip_labels_iid(f: TruthTable, rate: float, rng: np.random.Generator) -> TruthTable:
    """Flip each label independently with the given probability."""
    _check_real("flip rate", rate, "[0, 1]")
    flips = rng.random(len(f.values)) < rate
    return TruthTable(f.n, np.where(flips, -f.values, f.values))


def flip_labels_region(
    f: TruthTable, region: Sequence[bool] | np.ndarray, fraction: float, rng: np.random.Generator
) -> TruthTable:
    """Flip a fixed fraction of the labels inside a point region.

    Exactly round(fraction * |region|) positions, chosen uniformly from the
    region, are flipped.
    """
    _check_real("flip fraction", fraction, "[0, 1]")
    region = np.asarray(region, dtype=bool)
    if len(region) != len(f.values):
        raise ValueError(f"region has {len(region)} entries for a table of {len(f.values)}")
    idx = np.flatnonzero(region)
    count = int(round(fraction * len(idx)))
    chosen = rng.choice(idx, size=count, replace=False) if count else np.array([], dtype=np.int64)
    values = np.array(f.values)
    values[chosen] = -values[chosen]
    return TruthTable(f.n, values)
