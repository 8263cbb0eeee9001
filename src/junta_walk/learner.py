"""Agnostic learning of k-juntas from a labeled-walk oracle.

Pipeline: pick a squared-coefficient threshold from (k, epsilon), run the
bounded sieve at level k to find every heavy set, pool the returned
coordinates, then minimize empirical disagreement over all k-subsets of the
pool on a fresh walk whose length makes disagreement means concentrate
uniformly over the finite hypothesis class.  That is the certified run.  A
practical run stops the sieve after its screen and minimizes over the
screened pool: estimating theta-sized coefficients within theta/8 takes a
Hoeffding count of lag samples whose harvest, 1e8 to 6e10 steps at n <= 16,
k <= 3, eps = 0.25 and delta = 0.1, is far past any practical budget, and
below it the keep rule decides on noise.  :func:`best_support` scores
every support from the walk's signed subcube label sums, and exact opt in
``oracle_bruteforce`` from the truth table's.

The threshold theta = (1 - 1/sqrt(2))^2 * 2^(1-k) * eps^2 guarantees that the
best k-junta's coordinate set survives the sieve whenever its distance
advantage is at least eps/2, and the pool stays within 12 k 2^k / eps^2
coordinates, which the pipeline asserts at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from .fourier import BULK_WHT_MAX_N, subcube_sums, wht
from .hypercube import (
    IndexSet,
    JuntaHypothesis,
    _BIN_CHUNK,
    _check_integer,
    _check_real,
    restriction_indices,  # noqa: F401 - the benchmark's tracer reads this name
    signed_sums,
)
from .sieve import SieveParams, SieveResult, _masks_up_to, bounded_sieve, practical_budgets
from .walk import RandomWalkOracle, sample_size_erm

GAP_CONSTANT = 1.0 - 1.0 / math.sqrt(2.0)


def theta_for(k: int, epsilon: float) -> float:
    """Sieve threshold making every epsilon-relevant k-set heavy enough to keep."""
    _check_integer("k", k, 1)
    _check_real("epsilon", epsilon, "(0, 1]")
    return GAP_CONSTANT**2 * 2.0 ** (1 - k) * epsilon**2


def pool_bound(k: int, epsilon: float) -> int:
    """Runtime cap 12 k 2^k / eps^2 on the relevant-coordinate pool."""
    _check_integer("k", k, 1)
    _check_real("epsilon", epsilon, "(0, 1]")
    return math.ceil(12.0 * k * 2.0**k / epsilon**2)


def log_junta_class_size(pool_size: int, k: int) -> float:
    """ln of the number of k-juntas over a pool: C(pool, k) tables of 2^k bits."""
    _check_integer("k", k, 1)
    if pool_size < k:
        raise ValueError(f"pool of {pool_size} coordinates cannot host a {k}-junta")
    return (1 << k) * math.log(2.0) + math.log(math.comb(pool_size, k))


@dataclass(frozen=True)
class LearnParams:
    """Target junta arity and the (epsilon, delta) agnostic guarantee.

    A run is certified or practical as a whole.  Leaving both budget fields
    at None requests certified sample sizes for every phase, which are only
    feasible for very small k; a practical run sets both the refresh pairs
    its sieve screens and its ERM walk length.  Setting only one raises
    ValueError.
    """

    k: int
    epsilon: float
    delta: float
    screen_pairs: int | None = None
    erm_sample: int | None = None

    def __post_init__(self) -> None:
        _check_integer("k", self.k, 1)
        _check_real("epsilon", self.epsilon, "(0, 1]")
        _check_real("delta", self.delta, "(0, 1)")
        if (self.screen_pairs is None) != (self.erm_sample is None):
            missing = "erm_sample" if self.erm_sample is None else "screen_pairs"
            raise ValueError(f"a practical run needs both budgets; {missing} is missing")
        if self.screen_pairs is not None:
            for name in ("screen_pairs", "erm_sample"):
                _check_integer(f"budget {name}", getattr(self, name), 1)

    @property
    def mode(self) -> str:
        """``"certified"`` when the budget fields are None, else ``"practical"``."""
        return "certified" if self.screen_pairs is None else "practical"


def sieve_params_for(k: int, epsilon: float, delta: float) -> SieveParams:
    """The learner's sieve: level k, threshold theta_for(k, epsilon), and half
    of the failure probability delta."""
    return SieveParams(level=k, theta=theta_for(k, epsilon), delta=delta / 2.0)


def relevant_pool(result: SieveResult) -> IndexSet:
    """Union of the sets a sieve run returned."""
    mask = 0
    for s in result.sets:
        mask |= s.mask
    return IndexSet(result.n, mask)


def pad_pool(pool: IndexSet, k: int) -> IndexSet:
    """Extend a pool below size k with the lowest-index absent coordinates."""
    if len(pool) >= k:
        return pool
    if k > pool.n:
        raise ValueError(f"cannot pad a pool over n={pool.n} coordinates to size {k}")
    padded = list(pool.coords())
    for c in range(1, pool.n + 1):
        if len(padded) == k:
            break
        if c not in pool:
            padded.append(c)
    return IndexSet.of(pool.n, padded)


def best_support(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    pool: IndexSet,
    total: int,
    per_set: dict[int, int] | None = None,
) -> tuple[JuntaHypothesis, int]:
    """Best junta over the supports of ``(positions, sums)`` chunks.

    Each support is given by positions into the pool's coordinates in
    increasing order, with its subcube sums s of ``total`` +-1 labels.  Its
    best junta is the sign of s (ties and empty subcubes +1), which disagrees
    with (total - sum |s|) / 2 labels, and the smallest (disagreements, mask)
    wins.  ``per_set``, when given, receives every support's mask and
    disagreement count.  Returns the winner and its disagreement count.
    """
    coord_bits = np.array([1 << (c - 1) for c in pool], dtype=np.uint64)
    best: tuple[tuple[int, int], np.ndarray] | None = None
    for positions, sums in chunks:
        errs = (total - np.abs(sums).sum(axis=1)) // 2
        masks = coord_bits[positions].sum(axis=1)
        if per_set is not None:
            per_set.update(zip(masks.tolist(), errs.tolist()))
        i = np.lexsort((masks, errs))[0]
        key = (int(errs[i]), int(masks[i]))
        if best is None or key < best[0]:
            best = (key, sums[i])
    assert best is not None
    (err, mask), sums = best
    return JuntaHypothesis(IndexSet(pool.n, mask), np.where(sums >= 0, 1, -1)), err


def _character_sums(points: np.ndarray, labels: np.ndarray, pool: IndexSet, k: int) -> Callable:
    """Lookup, as ``subcube_sums`` asks, of sum_t y_t chi_T(x_t) for each set T
    of <= k pool positions: m - 2 popcount(Y xor X_a xor ...) over bit-a-point
    words (Y: y = -1, X_a: pool coordinate a is -1), packed _BIN_CHUNK points
    and xored _BIN_CHUNK words at a time, so no temporary grows with m."""
    coords, masks = pool.coords(), _masks_up_to(len(pool), k)
    sums = np.full(len(masks), len(points), dtype=np.int64)
    for lo in range(0, len(points), _BIN_CHUNK):
        part = points[lo : lo + _BIN_CHUNK]
        # row j: the j-th coordinate; then all zero, for a position no set has; then Y
        flags = np.zeros((len(coords) + 2, -(-len(part) // 64) * 64), dtype=bool)
        for j, c in enumerate(coords):
            flags[j, : len(part)] = (part >> np.uint64(c - 1)) & np.uint64(1)
        flags[-1, : len(part)] = labels[lo : lo + _BIN_CHUNK] < 0
        words = np.packbits(flags, axis=1, bitorder="little").view(np.uint64)
        batch = max(1, _BIN_CHUNK // words.shape[1])
        for b in range(0, len(masks), batch):
            rest = masks[b : b + batch].astype(np.uint64)
            xor = np.repeat(words[-1:], len(rest), axis=0)
            while rest.any():  # peel each set's lowest position
                low, rest = rest & -rest, rest & (rest - np.uint64(1))
                xor ^= words[np.minimum(np.bitwise_count(low - np.uint64(1)), len(coords))]
            sums[b : b + batch] -= 2 * np.bitwise_count(xor).sum(axis=1, dtype=np.int64)
    return lambda subsets: sums[np.searchsorted(masks, subsets)]


def best_junta(
    points: np.ndarray, labels: np.ndarray, pool: IndexSet, k: int
) -> tuple[JuntaHypothesis, int]:
    """Empirical-disagreement minimizer over all k-subsets of the pool.

    ``subcube_sums`` gives every support's signed subcube label sums from the
    sums over sets T of pool coordinates: an exact transform of the sample
    binned onto a pool of at most BULK_WHT_MAX_N coordinates, or popcounts
    of bit columns (``_character_sums``) for a larger one.  :func:`best_support`
    scores them, ties going to the smallest coordinate-set mask, so reruns on
    the same sample are reproducible.  Labels are +-1 in an integer dtype.
    """
    points = np.asarray(points, dtype=np.uint64)
    labels = np.asarray(labels)
    if points.size == 0:
        raise ValueError("empty sample")
    if points.shape != labels.shape:
        raise ValueError(f"{points.size} points but {labels.size} labels")
    # integers in [-1, 1] and none 0, read by reductions: no temporary as long as the sample
    signs = labels.dtype.kind in "iu" and -1 <= labels.min() and labels.max() <= 1
    if not signs or np.count_nonzero(labels) < labels.size:
        raise ValueError("sample labels must all be +1 or -1 integers")
    if len(pool) < k:
        raise ValueError(f"pool has {len(pool)} coordinates, need {k}")
    if len(pool) > BULK_WHT_MAX_N:
        coeffs = _character_sums(points, labels, pool, k)
    else:
        coeffs = wht(signed_sums(pool, points, labels)).__getitem__
    chunks = subcube_sums(coeffs, combinations(range(len(pool)), k), k)
    return best_support(chunks, pool, len(labels))


@dataclass(frozen=True)
class LearnOutcome:
    """Learned hypothesis with the run's pool, sieve result, and accounting:
    ``walk_steps`` counts the oracle steps this run drew (sieve and ERM
    walk), not those the oracle served before it."""

    hypothesis: JuntaHypothesis
    pool: IndexSet
    sieve: SieveResult
    disagreements: int
    sample_size: int
    walk_steps: int


def learn_outcome(oracle: RandomWalkOracle, params: LearnParams) -> LearnOutcome:
    """Run the sieve-then-ERM pipeline, keeping all run diagnostics.

    A certified run pools the sets the full sieve keeps at certified budgets;
    a practical run screens ``screen_pairs`` refresh pairs, stops the sieve
    there (zero estimate blocks, so no lag samples), and pools the screened
    coordinates.
    """
    n = oracle.n
    if params.k > n:
        raise ValueError(f"k={params.k} exceeds dimension n={n}")
    served_before = oracle.steps_served
    sieve_params = sieve_params_for(params.k, params.epsilon, params.delta)
    if params.mode == "certified":
        result = bounded_sieve(oracle, sieve_params)
        pool = relevant_pool(result)
    else:
        budgets = practical_budgets(sieve_params, n, params.screen_pairs, estimate_blocks=0)
        result = bounded_sieve(oracle, sieve_params, budgets)
        pool = result.pool
    pool = pad_pool(pool, params.k)
    cap = pool_bound(params.k, params.epsilon)
    if len(pool) > cap:
        raise RuntimeError(
            f"relevant pool has {len(pool)} coordinates, exceeding the "
            f"12 k 2^k / eps^2 = {cap} bound; sieve output is inconsistent"
        )

    m = params.erm_sample
    if m is None:
        log_size = log_junta_class_size(len(pool), params.k)
        m = sample_size_erm(params.epsilon / 2.0, params.delta / 2.0, n, log_size).m

    walk = oracle.walk(m)
    hypothesis, disagreements = best_junta(walk.points, walk.labels, pool, params.k)
    return LearnOutcome(
        hypothesis=hypothesis,
        pool=pool,
        sieve=result,
        disagreements=disagreements,
        sample_size=m,
        walk_steps=oracle.steps_served - served_before,
    )

