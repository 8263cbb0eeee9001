"""Agnostic learning of k-juntas from a labeled-walk oracle.

Pipeline: pick a squared-coefficient threshold theta from (k, epsilon),
screen the coordinates with the bounded sieve's phase one at level k, then
minimize empirical disagreement over all k-subsets of the screened pool on a
fresh walk.  The threshold theta = (1 - 1/sqrt(2))^2 * 2^(1-k) * eps^2
makes every set the spectrum lemma needs heavy, so a pool that holds every
coordinate of every S with |S| <= k and fhat(S)^2 >= theta holds a k-junta
within eps/2 of opt.  The screen gives that pool at certified budgets: each
member of such an S has contrast at least theta (1-p)^(k-1), twice the
screen's threshold.  So no run estimates coefficients (phase two), and a
run's mode only picks its sizes: a certified run screens the certified
count of refresh pairs and draws an ERM walk long enough for disagreement
means to concentrate uniformly over the juntas on its pool; a practical run
sets both sizes itself.  :func:`best_support` scores every support from the
walk's signed subcube label sums, and exact opt in ``oracle_bruteforce``
from the truth table's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .sieve import (
    SieveParams,
    SieveResult,
    _masks_up_to,
    bounded_sieve,
    certified_budgets,
    practical_budgets,
)
from .walk import RandomWalkOracle, sample_size_erm

GAP_CONSTANT = 1.0 - 1.0 / math.sqrt(2.0)


def theta_for(k: int, epsilon: float) -> float:
    """Sieve threshold making every epsilon-relevant k-set heavy enough to keep."""
    _check_integer("k", k, 1)
    _check_real("epsilon", epsilon, "(0, 1]")
    return GAP_CONSTANT**2 * 2.0 ** (1 - k) * epsilon**2


def log_junta_class_size(pool_size: int, k: int) -> float:
    """ln of the number of k-juntas over a pool: C(pool, k) tables of 2^k bits."""
    _check_integer("pool_size", pool_size, 0)
    _check_integer("k", k, 1)
    if pool_size < k:
        raise ValueError(f"pool of {pool_size} coordinates cannot host a {k}-junta")
    return (1 << k) * math.log(2.0) + math.log(math.comb(pool_size, k))


@dataclass(frozen=True)
class LearnParams:
    """Target junta arity and the (epsilon, delta) agnostic guarantee.

    A run is certified or practical as a whole.  Leaving both budget fields
    at None requests certified sizes for the screen and the ERM walk, which
    are only feasible for very small k; a practical run sets both the
    refresh pairs its sieve screens and its ERM walk length.  Setting only
    one raises ValueError.
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


def pad_pool(pool: IndexSet, k: int) -> IndexSet:
    """Extend a pool below size k with the lowest-index absent coordinates."""
    _check_integer("k", k, 1)
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
    binned onto a pool of at most BULK_WHT_MAX_N coordinates, or onto a
    larger pool whose sets of <= k positions are at least half of all its
    sets, else popcounts of bit columns (``_character_sums``).
    :func:`best_support` scores them, ties going to the smallest
    coordinate-set mask, so reruns on the same sample are reproducible.
    Labels are +-1 in an integer dtype.
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
    # the bit columns pay once per set of <= k positions; from 2k >= |pool| - 1
    # on, those sets are at least half of the 2^|pool| cells the transform fills
    if len(pool) > BULK_WHT_MAX_N and 2 * k < len(pool) - 1:
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
    """Run the screen-then-ERM pipeline, keeping all run diagnostics.

    The sieve stops after its screen (zero estimate blocks, so no lag
    samples), and ERM runs over the screened pool padded to k coordinates.
    The mode picks only the sizes: a certified run screens the pairs of
    :func:`certified_budgets` and draws the certified ERM walk over its
    pool; a practical run draws ``screen_pairs`` and ``erm_sample``.
    ``certified_budgets`` still prices the full sieve, lag samples included,
    against its step ceiling, so a certified run is refused wherever the
    certified sieve would be.
    """
    n = oracle.n
    if params.k > n:
        raise ValueError(f"k={params.k} exceeds dimension n={n}")
    served_before = oracle.steps_served
    sieve_params = sieve_params_for(params.k, params.epsilon, params.delta)
    if params.mode == "certified":
        budgets = replace(certified_budgets(sieve_params, n), estimate_blocks=0)
    else:
        budgets = practical_budgets(sieve_params, n, params.screen_pairs, estimate_blocks=0)
    result = bounded_sieve(oracle, sieve_params, budgets)
    pool = pad_pool(result.pool, params.k)

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
