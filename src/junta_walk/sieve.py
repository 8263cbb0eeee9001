"""Bounded-level search for heavy Fourier sets from walk access alone.

Contract: given level ell, threshold theta and confidence delta, return a
family of sets of size <= ell such that, with probability >= 1 - delta,

  * every S with |S| <= ell and fhat(S)^2 >= theta is returned,
  * no S with fhat(S)^2 < theta/2 is returned, and
  * at most ceil(2/theta) sets are returned.

The implementation is a two-phase design.  Phase one screens single
coordinates: refresh pairs harvested at density p give, for each i, the
contrast J_i = E[l_x l_y | i kept] - E[l_x l_y | i refreshed], whose exact
value is sum_{T owns i} fhat(T)^2 (1-p)^(|T|-1) because the harvester
refreshes coordinates independently.  Any member i of a qualifying
set S therefore has J_i >= theta (1-p)^(ell-1), so pooling the coordinates
whose estimated contrast clears tau, half that signal, keeps every relevant
coordinate while Parseval caps the pool size near 2/(p tau).  A contrast must
also clear z sigma_i, its noise floor (see :func:`bounded_sieve`), so a
budget too small to resolve tau does not pool coordinates on noise.  Phase two
enumerates all subsets of the pool up to size ell and keeps those whose
estimated squared coefficient clears (3/4) theta; one exact transform over the
pool gives every estimate, so the pool may hold at most BULK_WHT_MAX_N
coordinates.  Both phases read one harvest of refresh pairs.

Cost: the enumeration visits sum_{j<=ell} C(|pool|, j) candidates, and the
pool can hold up to ~4 (1-p)^(1-ell) / (p theta) coordinates, so the phase-two
work scales like (2 ell / theta)^ell in the worst case -- fine for the small
ell this package targets, but exponential in the level by design.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .fourier import (
    BULK_WHT_MAX_N,
    Spectrum,
    blocks_for,
    default_lag,
    estimate_bounded_influence,
    estimate_sq_coeff_bulk,
)
from .hypercube import IndexSet, _check_integer, _check_real
from .walk import (
    RandomWalkOracle,
    RefreshHarvest,
    effective_refresh_density,
    gap_for_density,
    lag_pairs,
    lag_window,
)

logger = logging.getLogger(__name__)

KEEP_FRACTION = 0.75  # accept candidates whose estimate clears (3/4) theta
BUDGET_CEILING = 100_000_000  # certified mode refuses beyond this many steps


class SieveError(Exception):
    """Base class for sieve failures."""


class PoolOverflow(SieveError):
    """The screened coordinate pool exceeded its certified size cap, or, in a
    run that estimates, the BULK_WHT_MAX_N coordinates estimation bins onto."""


class BudgetInfeasible(SieveError):
    """Certified budgets would exceed the configured step ceiling."""


@dataclass(frozen=True)
class SieveBudgets:
    """Concrete sample sizes for the two phases, read off one harvest at
    ``gap_steps``: ``screen_pairs`` refresh pairs and ``estimate_blocks`` lag
    samples of at least ``lag`` mean flips; zero ``estimate_blocks`` stops
    the search after phase one."""

    screen_pairs: int
    estimate_blocks: int
    lag: int
    gap_steps: int

    def __post_init__(self) -> None:
        for name, least in (
            ("screen_pairs", 1), ("estimate_blocks", 0), ("lag", 1), ("gap_steps", 1)
        ):
            _check_integer(f"budget {name}", getattr(self, name), least)


@dataclass(frozen=True)
class SieveParams:
    """Search level, squared-coefficient threshold, and failure probability."""

    level: int
    theta: float
    delta: float

    def __post_init__(self) -> None:
        _check_integer("level", self.level, 1)
        _check_real("theta", self.theta, "(0, 1]")
        _check_real("delta", self.delta, "(0, 1)")

    @property
    def density(self) -> float:
        """Refresh density for screening; 1/level clamped into (0, 1/2]."""
        return min(1.0 / self.level, 0.5)

    @property
    def result_cap(self) -> int:
        return math.ceil(2.0 / self.theta)


def _screen_signal(params: SieveParams, p_eff: float) -> float:
    """Guaranteed contrast of a member coordinate of a qualifying set."""
    return params.theta * (1.0 - p_eff) ** (params.level - 1)


def _screens(params: SieveParams, n: int) -> bool:
    """Whether a run screens; at n <= max(level, 2) it pools every coordinate
    without drawing a pair."""
    return n > max(params.level, 2)


def _candidate_bound(pool_size: int, level: int) -> int:
    return sum(math.comb(pool_size, j) for j in range(min(level, pool_size) + 1))


def certified_budgets(params: SieveParams, n: int) -> SieveBudgets:
    """Budgets under which the contract holds by Hoeffding + union bounds.

    The failure probability splits three ways: coordinate screening, pool-size
    control, and candidate estimation.  Screening needs each contrast within
    tau/2 where tau = theta (1-p)^(ell-1) / 2, which costs on the order of
    (1 / (q tau^2)) ln(n/delta) pairs with q = min(p, 1-p).  Consecutive
    harvested pairs share a half-block, but the even pairs, and the odd
    pairs, are each a chain of disjoint blocks, which that count covers; so
    the screen takes twice the count at half the screening share of delta,
    and each conditional mean, a weighted average of the two families'
    means, is within tau/2 when both are.  Estimation needs every candidate's
    mean of lag samples, terms in [-1, 1], within theta/8 at a third of delta
    split over every set of size <= ell over [n]: the pool is screened from
    the harvest the samples are read off.  Adjacent lag samples share half a
    window, so their dependency graph is a path, of fractional chromatic
    number 2, and Janson's Hoeffding bound for dependency graphs (Random
    Structures & Algorithms 24(3), 2004) holds at twice the iid count of
    samples, with no further split of delta.  Samples b and b + 2 chain as
    the even pairs do, and are read as independent in the same way.  So each
    chained family is priced as if its members were independent samples; no
    concentration bound for these Markov chains is proven yet.  These sizes
    grow like (2/theta)^(2 ell), so certified mode is only feasible for tiny
    levels; anything larger should supply practical budgets explicitly.  The
    step total checked against BUDGET_CEILING is one harvest's, gap/4 mean
    flips per half-block (its no-op selections come from the learner's own
    coins), over the longer phase: pairs + 1 half-blocks for a screen (none
    where the run does not screen), (blocks + 1) w/2 for the lag samples.
    """
    gap = gap_for_density(n, params.density)
    p_eff = effective_refresh_density(n, gap)
    tau = _screen_signal(params, p_eff) / 2.0
    q = min(p_eff, 1.0 - p_eff)  # > 0: the density and gap keep p_eff inside (0, 1)
    screen_pairs = 2 * math.ceil(
        (64.0 / (q * tau * tau)) * max(math.log(24.0 * n / params.delta), 1.0)
    )
    cand_bound = _candidate_bound(n, params.level)
    # lag for bias theta/8, samples for sampling error theta/8 on every
    # candidate: twice the iid count, as the samples' dependency graph is a path
    lag = default_lag(n, params.theta)
    blocks = 2 * blocks_for(params.theta / 8.0, params.delta / (3.0 * cand_bound))
    phases = [(lag_pairs(lag_window(lag, gap), blocks) + 1, f"estimate of {blocks} lag samples")]
    if _screens(params, n):
        phases.append((screen_pairs + 1, f"screen of {screen_pairs} pairs"))
    halves, longest = max(phases)
    total = math.ceil(halves * gap / 4)
    if total > BUDGET_CEILING:
        raise BudgetInfeasible(
            f"certified budgets need ~{total:.3g} walk steps: {halves} half-blocks "
            f"at gap {gap}, set by the {longest}; ceiling is {BUDGET_CEILING}"
        )
    return SieveBudgets(
        screen_pairs=screen_pairs, estimate_blocks=blocks, lag=lag, gap_steps=gap
    )


def practical_budgets(
    params: SieveParams, n: int, screen_pairs: int, estimate_blocks: int
) -> SieveBudgets:
    """User-chosen phase sizes at the certified lag and gap; the contract is
    then heuristic, which the entry points that choose these sizes report."""
    return SieveBudgets(
        screen_pairs=screen_pairs,
        estimate_blocks=estimate_blocks,
        lag=default_lag(n, params.theta),
        gap_steps=gap_for_density(n, params.density),
    )


def _pool_cap(params: SieveParams) -> int:
    """Pool size implied by Parseval when every pooled contrast is genuine.

    Sum_i J_i <= max_t t (1-p)^(t-1) <= 1/(e p), and each pooled coordinate
    certifies contrast >= theta (1-p)^(ell-1) / 2 >= theta / (2e) at the
    default density, bounding the pool by 2/(p theta); the cap doubles that
    for estimation slack.
    """
    return math.ceil(4.0 / (params.density * params.theta))


@dataclass(frozen=True)
class SieveResult:
    """Returned sets with their estimates, plus phase diagnostics;
    ``walk_steps`` counts the oracle steps this run drew, not those the
    oracle served before it."""

    n: int
    sets: tuple[IndexSet, ...]
    estimates: tuple[float, ...]
    pool: IndexSet
    influences: tuple[float, ...]
    candidates: int
    truncated: bool
    walk_steps: int
    budgets: SieveBudgets
    mode: str  # "certified" when bounded_sieve derived the budgets, else "practical"

    def masks(self) -> list[int]:
        return [s.mask for s in self.sets]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sets": [sorted(s.coords()) for s in self.sets],
            "estimates": list(self.estimates),
            "pool": sorted(self.pool.coords()),
            # a coordinate without contrast samples (+inf) has no value
            "influences": [v if math.isfinite(v) else None for v in self.influences],
            "candidates": self.candidates,
            "truncated": self.truncated,
            "walk_steps": self.walk_steps,
            "mode": self.mode,
        }


def bounded_sieve(
    oracle: RandomWalkOracle,
    params: SieveParams,
    budgets: SieveBudgets | None = None,
) -> SieveResult:
    """Run the two-phase search against a walk oracle.

    Without explicit ``budgets`` the certified formulas apply (and may raise
    :class:`BudgetInfeasible`).

    Phase one pools coordinate i when J_i >= max(tau, z sigma_i), where tau
    is half the signal of a member of a qualifying set, sigma_i comes from
    :func:`estimate_bounded_influence`, and z = Phi^-1(1 - delta/(2n)) is a
    union bound over the n coordinates at two-sided level delta.  sigma_i is
    the iid bound; the harvest's pairs are not iid (adjacent pairs share a
    half-block), so for them it is an estimate, not a bound.  Measured over
    200 oracle seeds of 300 000 pairs, one iid-0.1 instance per (n, k) cell
    at (8, 1), (12, 2), (16, 2) and (16, 3), the irrelevant coordinates'
    contrast sd is 1.01-1.04 sigma_i (pooled over coordinates), against
    0.92-0.97 sigma_i for disjoint blocks; it is not proven for the chain.
    Budgets sized to resolve tau give z sigma_i < tau, so the floor only acts
    when they do not.  At n <= max(level, 2) every coordinate is pooled
    without a screen.  Raises :class:`PoolOverflow` when the pool
    exceeds its certified cap, which signals that the screening estimates
    missed their tolerance.

    The run draws one harvest (one ``oracle.refresh_pairs`` call), which
    tallies its first ``screen_pairs`` pairs for the screen and cuts the
    ``estimate_blocks`` lag samples off the same walk as it draws it, so
    neither phase holds the walk.  Phase two bins those lag samples onto the
    pool and scores every subset of size <= level with one exact transform.
    A run that estimates raises :class:`PoolOverflow` if the pool holds more
    than BULK_WHT_MAX_N coordinates, before any candidate is scored (or
    anything drawn, if it does not screen).  With zero ``estimate_blocks`` the search
    stops after phase one and no set is kept, so the screened pool is the
    result.  ``candidates`` counts the subsets phase two scores, or would
    have scored.
    """
    n = oracle.n
    served_before = oracle.steps_served
    mode = "certified" if budgets is None else "practical"
    if budgets is None:
        budgets = certified_budgets(params, n)

    screens = _screens(params, n)

    def harvest() -> RefreshHarvest:
        return oracle.refresh_pairs(
            budgets.screen_pairs if screens else 0,
            budgets.gap_steps,
            lag_window(budgets.lag, budgets.gap_steps),
            budgets.estimate_blocks,
        )

    harvested = None
    if not screens:
        influences = np.full(n, np.inf)
        pool_coords = list(range(1, n + 1))
    else:
        harvested = harvest()
        # a coordinate without contrast samples reads +inf and stays pooled
        influences, sigmas = estimate_bounded_influence(harvested.screen)
        tau = _screen_signal(params, effective_refresh_density(n, budgets.gap_steps)) / 2.0
        z = NormalDist().inv_cdf(1.0 - params.delta / (2.0 * n))
        pool_coords = (np.flatnonzero(influences >= np.maximum(tau, z * sigmas)) + 1).tolist()
        cap = _pool_cap(params)
        if len(pool_coords) > cap:
            raise PoolOverflow(
                f"screened pool has {len(pool_coords)} coordinates, cap {cap}; "
                "screening estimates out of tolerance"
            )
    pool = IndexSet.of(n, pool_coords)

    keep: list[tuple[int, float]] = []
    if budgets.estimate_blocks:
        if len(pool_coords) > BULK_WHT_MAX_N:
            raise PoolOverflow(
                f"screened pool has {len(pool_coords)} coordinates; estimation "
                f"bins onto at most BULK_WHT_MAX_N = {BULK_WHT_MAX_N}"
            )
        if harvested is None:
            harvested = harvest()
        bulk = estimate_sq_coeff_bulk(harvested.lags, pool)
        # bulk is indexed by pool-local masks, whose bit j is the pool's j-th
        # smallest coordinate; a kept cell is deposited back onto those
        cells = _masks_up_to(len(pool_coords), params.level)
        estimates = bulk[cells]
        kept = estimates >= KEEP_FRACTION * params.theta
        keep = [
            (IndexSet.of(n, [c for j, c in enumerate(pool_coords) if cell >> j & 1]).mask, e)
            for cell, e in zip(cells[kept].tolist(), estimates[kept].tolist())
        ]
    keep.sort(key=lambda me: (-me[1], me[0]))
    truncated = len(keep) > params.result_cap
    if truncated:
        logger.warning(
            "sieve kept %d sets, cap is %d; dropping the lowest estimates",
            len(keep),
            params.result_cap,
        )
        keep = keep[: params.result_cap]

    return SieveResult(
        n=n,
        sets=tuple(IndexSet(n, m) for m, _ in keep),
        estimates=tuple(e for _, e in keep),
        pool=pool,
        influences=tuple(influences.tolist()),
        candidates=_candidate_bound(len(pool_coords), params.level),
        truncated=truncated,
        walk_steps=oracle.steps_served - served_before,
        budgets=budgets,
        mode=mode,
    )


@dataclass(frozen=True)
class CertifyReport:
    """Outcome of auditing a sieve run against the exact spectrum."""

    passed: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.passed


def _masks_up_to(n: int, level: int) -> np.ndarray:
    """The masks of the sets of size <= level over n coordinates, ascending.

    A set of size j is a set of size j - 1 plus a coordinate above all of
    its own, that is, a bit above the smaller mask as an integer."""
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    sized = [np.zeros(1, dtype=np.int64)]
    for _ in range(min(level, n)):
        below = sized[-1][:, None]
        sized.append((below | bits)[below < bits])
    return np.sort(np.concatenate(sized))


def certify_result(
    result: SieveResult, truth: Spectrum, theta: float, level: int
) -> CertifyReport:
    """Audit soundness, completeness, and the output cap against exact truth.

    Soundness: every returned set has true coeff^2 >= theta/2 and size <=
    level.  Completeness: every set with size <= level and coeff^2 >= theta is
    returned.  Cardinality: at most ceil(2/theta) sets.
    """
    if truth.n != result.n:
        raise ValueError(f"spectrum over n={truth.n}, sieve result over n={result.n}")
    _check_integer("level", level, 0)
    _check_real("theta", theta, "(0, 1]")
    failures: list[str] = []
    returned = set(result.masks())
    # only the sets of size <= level can be missing, so only they are read
    low = _masks_up_to(truth.n, level)
    heavy = low[truth.coeffs[low] ** 2 >= theta]
    for mask, sq in zip(heavy.tolist(), truth.coeffs[heavy] ** 2):
        if mask not in returned:
            failures.append(f"missing set mask={mask} with coeff^2={sq:.6f} >= theta")
    for mask in returned:
        sq = truth.coeffs[mask] ** 2
        if sq < theta / 2.0:
            failures.append(f"spurious set mask={mask} with coeff^2={sq:.6f} < theta/2")
        if mask.bit_count() > level:
            failures.append(f"oversized set mask={mask} (|S|={mask.bit_count()})")
    cap = math.ceil(2.0 / theta)
    if len(result.sets) > cap:
        failures.append(f"returned {len(result.sets)} sets, cap {cap}")
    return CertifyReport(passed=not failures, violations=tuple(failures))
