"""Agnostic learning of k-juntas from a labeled-walk oracle.

Pipeline: pick a squared-coefficient threshold from (k, epsilon), run the
bounded sieve at level k to find every heavy set, pool the returned
coordinates, then minimize empirical disagreement over all k-subsets of the
pool on a fresh walk whose length makes disagreement means concentrate
uniformly over the finite hypothesis class.

The threshold theta = (1 - 1/sqrt(2))^2 * 2^(1-k) * eps^2 guarantees that the
best k-junta's coordinate set survives the sieve whenever its distance
advantage is at least eps/2, and the pool stays within 12 k 2^k / eps^2
coordinates, which the pipeline asserts at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .fourier import BULK_WHT_MAX_N, subcube_sums
from .hypercube import IndexSet, JuntaHypothesis, TruthTable, restriction_indices
from .sieve import SieveBudgets, SieveParams, SieveResult, bounded_sieve
from .walk import RandomWalkOracle, SampleSizePlan, practical_plan, sample_size_erm

GAP_CONSTANT = 1.0 - 1.0 / math.sqrt(2.0)


def theta_for(k: int, epsilon: float) -> float:
    """Sieve threshold making every epsilon-relevant k-set heavy enough to keep."""
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside (0, 1]")
    return GAP_CONSTANT**2 * 2.0 ** (1 - k) * epsilon**2


def pool_bound(k: int, epsilon: float) -> int:
    """Runtime cap 12 k 2^k / eps^2 on the relevant-coordinate pool."""
    return math.ceil(12.0 * k * 2.0**k / epsilon**2)


def log_junta_class_size(pool_size: int, k: int) -> float:
    """ln of the number of k-juntas over a pool: C(pool, k) tables of 2^k bits."""
    if pool_size < k:
        raise ValueError(f"pool of {pool_size} coordinates cannot host a {k}-junta")
    return (1 << k) * math.log(2.0) + math.log(math.comb(pool_size, k))


@dataclass(frozen=True)
class LearnParams:
    """Target junta arity and the (epsilon, delta) agnostic guarantee.

    Leaving the budget fields at None requests certified sample sizes, which
    are only feasible for very small k; practical runs supply their own sieve
    budgets and/or ERM walk length.  A budget field left at None in practical
    mode falls back to the certified formula for that phase.
    """

    k: int
    epsilon: float
    delta: float
    sieve_budgets: SieveBudgets | None = None
    erm_sample: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k={self.k} must be >= 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon={self.epsilon} outside (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta={self.delta} outside (0, 1)")

    @property
    def mode(self) -> str:
        """``"practical"`` when any budget field is set, else ``"certified"``."""
        if self.sieve_budgets is None and self.erm_sample is None:
            return "certified"
        return "practical"


def sieve_params_for(k: int, epsilon: float, delta: float) -> SieveParams:
    """The learner's sieve: level k, threshold theta_for(k, epsilon), and half
    of the failure probability delta."""
    return SieveParams(level=k, theta=theta_for(k, epsilon), delta=delta / 2.0)


def relevant_pool(
    sieve_sets: "Iterable[IndexSet] | SieveResult", n: int | None = None
) -> IndexSet:
    """Union of the sets a sieve run returned.

    Accepts the SieveResult itself or any iterable of IndexSet.  ``n`` is only
    needed when the iterable is empty (the union is then the empty set).
    """
    if isinstance(sieve_sets, SieveResult):
        n = sieve_sets.n
        sieve_sets = sieve_sets.sets
    mask = 0
    for s in sieve_sets:
        if n is None:
            n = s.n
        elif s.n != n:
            raise ValueError(f"mixed dimensions in sieve sets: {s.n} != {n}")
        mask |= s.mask
    if n is None:
        raise ValueError("empty set list needs an explicit dimension n")
    return IndexSet(n, mask)


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


@dataclass(frozen=True)
class SubcubeTally:
    """Label counts of a sample, bucketed by assignment to the J coordinates."""

    J: IndexSet
    plus: np.ndarray
    minus: np.ndarray

    def disagreements(self) -> int:
        """Sample points any J-junta must get wrong: the minority count per bucket."""
        return int(np.minimum(self.plus, self.minus).sum())

    def majority_table(self) -> TruthTable:
        """Per-bucket majority label; ties and unseen buckets default to +1."""
        values = np.where(self.plus >= self.minus, 1, -1).astype(np.int8)
        return TruthTable(len(self.J), values)

    def hypothesis(self) -> JuntaHypothesis:
        return JuntaHypothesis(self.J, self.majority_table().values)


def subcube_tally(points: np.ndarray, labels: np.ndarray, J: IndexSet) -> SubcubeTally:
    """Count +1/-1 labels in each of the 2^|J| subcubes determined by J."""
    k = len(J)
    ridx = restriction_indices(J, np.asarray(points, dtype=np.uint64))
    labels = np.asarray(labels)
    plus = np.bincount(ridx[labels == 1], minlength=1 << k)
    minus = np.bincount(ridx[labels == -1], minlength=1 << k)
    return SubcubeTally(J=J, plus=plus, minus=minus)


def _as_sample(sample) -> tuple[np.ndarray, np.ndarray]:
    """Accept a LabeledWalk or a (points, labels) pair; reject empty samples
    and labels outside {-1, +1}."""
    if hasattr(sample, "points") and hasattr(sample, "labels"):
        points, labels = sample.points, sample.labels
    else:
        points, labels = sample
    points = np.asarray(points, dtype=np.uint64)
    labels = np.asarray(labels)
    if points.size == 0:
        raise ValueError("empty sample")
    if points.shape != labels.shape:
        raise ValueError(f"{points.size} points but {labels.size} labels")
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError("sample labels must all be +1 or -1")
    return points, labels


def tally_and_best_junta(J: IndexSet, sample) -> tuple[JuntaHypothesis, int]:
    """Best J-junta on a sample: per-subcube majority votes and their cost.

    Returns the majority hypothesis (ties and unseen subcubes labeled +1) and
    err = total minority counts, the fewest sample disagreements any J-junta
    can achieve.  ``sample`` is a LabeledWalk or a (points, labels) pair.
    This is :func:`best_junta` with J as the pool and its only support.
    """
    points, labels = _as_sample(sample)
    return best_junta(points, labels, J, len(J))


def best_junta(
    points: np.ndarray, labels: np.ndarray, pool: IndexSet, k: int
) -> tuple[JuntaHypothesis, int]:
    """Empirical-disagreement minimizer over all k-subsets of the pool.

    Pools of at most BULK_WHT_MAX_N coordinates bin the sample onto the pool
    once and take every support's +1/-1 counts from ``subcube_sums``; larger
    pools tally each support on the sample.  Ties go to the smallest
    coordinate-set mask, so reruns on the same sample are reproducible.
    """
    points, labels = _as_sample((points, labels))
    coords = sorted(pool.coords())
    if len(coords) < k:
        raise ValueError(f"pool has {len(coords)} coordinates, need {k}")
    best: tuple[tuple[int, int], SubcubeTally] | None = None
    if len(coords) > BULK_WHT_MAX_N:
        for combo in combinations(coords, k):
            tally = subcube_tally(points, labels, IndexSet.of(pool.n, combo))
            key = (tally.disagreements(), tally.J.mask)
            if best is None or key < best[0]:
                best = (key, tally)
    else:
        cells = restriction_indices(pool, points)
        size = 1 << len(coords)
        hist = [np.bincount(cells[labels == y], minlength=size) for y in (1, -1)]
        coord_bits = np.array([1 << (c - 1) for c in coords], dtype=np.uint64)
        supports = combinations(range(len(coords)), k)
        for positions, (plus, minus) in subcube_sums(hist, supports, k):
            errs = np.minimum(plus, minus).sum(axis=1)
            masks = coord_bits[positions].sum(axis=1)
            i = np.lexsort((masks, errs))[0]
            key = (int(errs[i]), int(masks[i]))
            if best is None or key < best[0]:
                best = (key, SubcubeTally(IndexSet(pool.n, key[1]), plus[i], minus[i]))
    assert best is not None
    return best[1].hypothesis(), best[0][0]


@dataclass(frozen=True)
class LearnOutcome:
    """Learned hypothesis with the run's pool, plans, and accounting."""

    hypothesis: JuntaHypothesis
    pool: IndexSet
    sieve: SieveResult
    erm_plan: SampleSizePlan
    disagreements: int
    sample_size: int
    walk_steps: int

    @property
    def empirical_error(self) -> float:
        return self.disagreements / self.sample_size


def learn_outcome(oracle: RandomWalkOracle, params: LearnParams) -> LearnOutcome:
    """Run the full sieve-then-ERM pipeline, keeping all run diagnostics."""
    n = oracle.n
    if params.k > n:
        raise ValueError(f"k={params.k} exceeds dimension n={n}")
    sieve_params = sieve_params_for(params.k, params.epsilon, params.delta)
    result = bounded_sieve(oracle, sieve_params, params.sieve_budgets)

    pool = pad_pool(relevant_pool(result), params.k)
    cap = pool_bound(params.k, params.epsilon)
    if len(pool) > cap:
        raise RuntimeError(
            f"relevant pool has {len(pool)} coordinates, exceeding the "
            f"12 k 2^k / eps^2 = {cap} bound; sieve output is inconsistent"
        )

    log_size = log_junta_class_size(len(pool), params.k)
    if params.erm_sample is not None:
        plan = practical_plan(
            params.erm_sample, params.epsilon / 2.0, params.delta / 2.0, n, log_size
        )
    else:
        plan = sample_size_erm(params.epsilon / 2.0, params.delta / 2.0, n, log_size)

    walk = oracle.walk(plan.m)
    hypothesis, disagreements = best_junta(walk.points, walk.labels, pool, params.k)
    return LearnOutcome(
        hypothesis=hypothesis,
        pool=pool,
        sieve=result,
        erm_plan=plan,
        disagreements=disagreements,
        sample_size=plan.m,
        walk_steps=oracle.steps_served,
    )

