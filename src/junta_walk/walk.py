"""Labeled random walks on the hypercube and independence-harvesting machinery.

Two walk flavours are supported.  The plain walk flips one uniformly random
coordinate per step.  The updating (lazy) walk picks a uniform coordinate and
resamples it, i.e. flips it with probability 1/2.

A plain walk of length ell can be embedded into an updating walk by an
auxiliary experiment: draw fair bits F_1, F_2, ... until ell ones appear (give
up after a cutoff L); the j-th one receives the walk's j-th flipped coordinate,
every zero receives a fresh uniform coordinate.  ``simulate_updating`` runs
that experiment on one walk and reports whether the schedule covered [n].

``harvest_refresh_pairs`` mass-produces endpoint pairs annotated with refreshed
coordinate sets.  It cuts a single updating walk into Poisson-length blocks:
the coordinates selected inside a block are resampled uniformly and
independently between its endpoints, all others are frozen, which is the exact
statistical model the refresh annotation promises, and the Poisson lengths
decouple the per-coordinate refresh events from one another.  (The embedded
plain-walk experiment cannot deliver that exactness: a plain walk always
changes parity each step, so its endpoints carry a deterministic parity
constraint however the schedule is conditioned.)
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .hypercube import JuntaHypothesis, TruthTable, _check_dim

logger = logging.getLogger(__name__)

LabelSource = Union[TruthTable, JuntaHypothesis, Callable[[np.ndarray], np.ndarray]]


def labels_for(f: LabelSource, bits: np.ndarray) -> np.ndarray:
    """Evaluate a label source over an array of packed points."""
    if hasattr(f, "label_bits"):
        out = f.label_bits(bits)
    else:
        out = np.asarray(f(bits))
    # checked before the int8 cast, which would truncate 1.5, 257 or True to a sign
    signs = out.dtype != bool and np.all((out == 1) | (out == -1))
    if out.shape != bits.shape or not signs:
        raise ValueError("label source must map packed points to +1/-1 labels")
    return out.astype(np.int8)


def _check_source(f: LabelSource, n: int) -> None:
    """Refuse n outside [1, 63] and a table or hypothesis over another n."""
    _check_dim(n)
    if isinstance(f, (TruthTable, JuntaHypothesis)) and f.n != n:
        raise ValueError(f"label source over n={f.n}, walk over n={n}")


def _check_positive(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name}={value} must be >= 1")


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters: ``length`` counts labeled examples, so length-1 steps."""

    n: int
    length: int
    seed: int
    lazy: bool = False

    def __post_init__(self) -> None:
        _check_dim(self.n)
        _check_positive(length=self.length)


@dataclass(frozen=True)
class LabeledWalk:
    """A labeled walk: packed points, labels, and the per-step changed coordinate.

    ``flipped[t]`` is the coordinate flipped (plain) or updated (lazy) between
    points t-1 and t; ``flipped[0] = 0`` marks the initial uniform draw.
    """

    n: int
    points: np.ndarray
    labels: np.ndarray
    flipped: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    @property
    def steps(self) -> int:
        return len(self.points) - 1


@dataclass(frozen=True)
class LagSamples:
    """The lag pairs of a plain walk that the squared-coefficient estimator reads.

    Block b starts at walk point x = b (lag + 1) and pairs it with the points
    lag and lag + 1 steps later: ``diff_t[b]``/``diff_t1[b]`` are the xors of
    x with those points and ``prod_t[b]``/``prod_t1[b]`` the +-1 (int8) label
    products.  The arrays are read-only.
    """

    n: int
    diff_t: np.ndarray
    diff_t1: np.ndarray
    prod_t: np.ndarray
    prod_t1: np.ndarray

    def __len__(self) -> int:
        return len(self.diff_t)


def _draw_steps(
    rng: np.random.Generator, n: int, shape, lazy: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw walk steps: coordinates, their bits, and the bits each step changes.

    Coordinates are uniform over 1..n (int16) and ``bits`` holds each one's
    bit in the narrowest unsigned word with n bits (uint8 up to uint64).  A
    plain step changes its bit; an updating (``lazy``) step changes it only
    when a fair bit, drawn after all the coordinates, is 1.
    """
    coords = rng.integers(1, n + 1, size=shape, dtype=np.int16)
    words = (np.uint8, np.uint16, np.uint32, np.uint64)
    word = next(w for w in words if np.iinfo(w).bits >= n)
    # coords - 1 lies in [0, n), so the unsafe int16 -> word cast is exact
    bits = np.left_shift(word(1), coords - 1, dtype=word, casting="unsafe")
    if not lazy:
        return coords, bits, bits
    return coords, bits, bits * rng.integers(0, 2, size=shape, dtype=np.uint8)


def _walk_arrays(
    rng: np.random.Generator, n: int, count: int, lazy: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` packed points of a walk plus the changed-coordinate record."""
    start = int(rng.integers(0, 1 << n, dtype=np.uint64))
    steps = count - 1
    points = np.empty(count, dtype=np.uint64)
    points[0] = start
    flipped = np.zeros(count, dtype=np.int16)
    if steps > 0:
        coords, _, changes = _draw_steps(rng, n, steps, lazy)
        np.bitwise_xor.accumulate(changes, dtype=np.uint64, out=points[1:])
        points[1:] ^= np.uint64(start)
        flipped[1:] = coords
    return points, flipped


def generate_walk(f: LabelSource, config: WalkConfig) -> LabeledWalk:
    """Run the labeled-walk oracle: uniform start, one coordinate changed per step."""
    _check_source(f, config.n)
    rng = np.random.default_rng(config.seed)
    points, flipped = _walk_arrays(rng, config.n, config.length, config.lazy)
    return LabeledWalk(
        n=config.n,
        points=points,
        labels=labels_for(f, points),
        flipped=flipped,
    )


# ---------------------------------------------------------------------------
# Updating-walk embedding experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpdatingSimulation:
    """Outcome of embedding a plain walk into an updating walk over [n].

    ``schedule`` lists (coordinate, taken-from-walk) slots in update order.
    ``completed`` means the fair-bit stream produced enough ones before the
    cutoff; ``covered`` means the scheduled coordinates exhaust [n];
    ``accepted`` requires both.
    """

    n: int
    completed: bool
    schedule: tuple[tuple[int, bool], ...]

    @property
    def refreshed_mask(self) -> int:
        mask = 0
        for coord, _ in self.schedule:
            mask |= 1 << (coord - 1)
        return mask

    @property
    def covered(self) -> bool:
        return self.refreshed_mask == (1 << self.n) - 1

    @property
    def accepted(self) -> bool:
        return self.completed and self.covered


def _embedding_schedule(
    rng: np.random.Generator, n: int, ell: int, cutoff: int, trials: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fair bits and fresh coordinates of the embedding experiment, per trial.

    Returns (from_walk, fresh, fresh_bits, ones, completed, active), each with
    a trailing axis of ``cutoff`` slots where it has one.  Slot j takes the
    walk's ones[j]-th flip when from_walk[j] and fresh[j] otherwise; the
    schedule is the active slots, which end at the ell-th one, or run to the
    cutoff when the trial did not complete.
    """
    fair = rng.integers(0, 2, size=(*trials, cutoff), dtype=np.uint8)
    fresh, fresh_bits, _ = _draw_steps(rng, n, fair.shape, lazy=False)
    ones = np.cumsum(fair, axis=-1)
    completed = ones[..., -1] >= ell
    used = np.where(completed, np.argmax(ones >= ell, axis=-1) + 1, cutoff)
    active = np.arange(cutoff) < used[..., None]
    return fair.astype(bool), fresh, fresh_bits, ones, completed, active


def simulate_updating(
    walk: LabeledWalk, target_ones: int, cutoff: int, seed: int
) -> UpdatingSimulation:
    """Run the embedding experiment against the first ``target_ones`` walk flips."""
    if walk.steps < target_ones:
        raise ValueError(f"walk has {walk.steps} steps, need >= {target_ones}")
    if cutoff < target_ones:
        raise ValueError(f"cutoff {cutoff} below target ones {target_ones}")
    rng = np.random.default_rng(seed)
    from_walk, fresh, _, ones, completed, active = _embedding_schedule(
        rng, walk.n, target_ones, cutoff, ()
    )
    used = int(np.count_nonzero(active))
    from_walk = from_walk[:used]
    # walk.flipped[t] is the t-th flip, so the j-th one takes flipped[ones[j]]
    coords = np.where(from_walk, walk.flipped[ones[:used]], fresh[:used])
    return UpdatingSimulation(
        n=walk.n,
        completed=bool(completed),
        schedule=tuple(zip(coords.tolist(), from_walk.tolist())),
    )


def refresh_steps(n: int, delta: float) -> int:
    """Walk length making the embedding experiment accept w.p. >= 1-delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} outside (0, 1)")
    return math.ceil(n * math.log(2 * n / delta))


# Trials per chunk of the vectorized embedding and endpoint experiments.
_TRIAL_CHUNK = 20_000
CELL_MAX_N = 31  # endpoint cells x0 * 2^n + xl fit an int64 only while 2n <= 63


def _kept_cells(
    n: int, trials: int, draw: Callable[[int], tuple], pack: bool
) -> tuple[int, np.ndarray | None]:
    """Run ``draw(t) -> (kept, x0_bits, xl_bits)`` over chunks of at most
    ``_TRIAL_CHUNK`` trials; returns the kept count and, with ``pack``, the
    kept trials' cell indices x0 * 2^n + xl (n <= CELL_MAX_N)."""
    if pack and n > CELL_MAX_N:
        raise ValueError(f"endpoint cells x0 * 2^n + xl need n <= {CELL_MAX_N}, got {n}")
    kept_total = 0
    cells: list[np.ndarray] = []
    done = 0
    while done < trials:
        t = min(_TRIAL_CHUNK, trials - done)
        kept, x0, xl = draw(t)
        kept_total += int(np.count_nonzero(kept))
        if pack:
            cells.append((x0[kept].astype(np.int64) << n) | xl[kept].astype(np.int64))
        done += t
    return kept_total, np.concatenate(cells) if pack else None


def updating_walk_endpoints(
    n: int, ell: int, trials: int, seed: int
) -> tuple[int, np.ndarray]:
    """Endpoint pairs of genuine updating walks, conditioned on full coverage.

    Each trial draws an updating walk of ``ell`` steps (uniform coordinate,
    resampled by a fair bit).  Trials whose chosen coordinates cover [n] are
    kept; returns (covered_count, cell indices x0 * 2^n + xl of kept trials),
    so n must be <= CELL_MAX_N.  Unlike plain-walk endpoints, these carry no
    step-parity constraint, so conditional on coverage the pair is uniform
    over all 4^n cells.
    """
    rng = np.random.default_rng(seed)
    full = np.uint64((1 << n) - 1)

    def draw(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts = rng.integers(0, 1 << n, size=t, dtype=np.uint64)
        _, bits, changes = _draw_steps(rng, n, (t, ell), lazy=True)
        ends = starts ^ np.bitwise_xor.reduce(changes, axis=1)
        return np.bitwise_or.reduce(bits, axis=1) == full, starts, ends

    return _kept_cells(n, trials, draw, pack=True)


def _batch_experiment(
    rng: np.random.Generator, n: int, ell: int, cutoff: int, trials: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized experiment over independent trials.

    Returns (accepted, x0_bits, xl_bits); each trial draws its own fresh plain
    walk of ell steps and accepts when its schedule completes and covers [n].
    """
    starts = rng.integers(0, 1 << n, size=trials, dtype=np.uint64)
    _, bits, _ = _draw_steps(rng, n, (trials, ell), lazy=False)
    ends = starts ^ np.bitwise_xor.reduce(bits, axis=1)
    from_walk, _, fresh_bits, _, completed, active = _embedding_schedule(
        rng, n, ell, cutoff, (trials,)
    )
    fresh_masks = np.where(active & ~from_walk, fresh_bits, np.uint64(0))
    cover = np.bitwise_or.reduce(bits, axis=1) | np.bitwise_or.reduce(fresh_masks, axis=1)
    return completed & (cover == np.uint64((1 << n) - 1)), starts, ends


def updating_acceptance_trials(
    n: int,
    ell: int,
    cutoff: int,
    trials: int,
    seed: int,
    collect_pairs: bool = False,
) -> tuple[int, np.ndarray | None]:
    """Repeat the embedding experiment on fresh walks; count acceptances.

    With ``collect_pairs`` the accepted trials' endpoint pairs are returned as
    an array of cell indices x0 * 2^n + xl (n <= CELL_MAX_N), for
    endpoint-distribution tests.
    """
    rng = np.random.default_rng(seed)
    return _kept_cells(
        n, trials, lambda t: _batch_experiment(rng, n, ell, cutoff, t), collect_pairs
    )


# ---------------------------------------------------------------------------
# Refresh-pair harvesting
# ---------------------------------------------------------------------------


class RefreshPairs:
    """Harvested block endpoints (packed x and y, their int8 labels) with each
    block's refreshed coordinate mask, as parallel arrays."""

    def __init__(
        self,
        n: int,
        x_bits: np.ndarray,
        y_bits: np.ndarray,
        label_x: np.ndarray,
        label_y: np.ndarray,
        refreshed_masks: np.ndarray,
        walk_steps: int = 0,
    ) -> None:
        self.n = n
        self.x_bits = np.asarray(x_bits, dtype=np.uint64)
        self.y_bits = np.asarray(y_bits, dtype=np.uint64)
        self.label_x = np.asarray(label_x, dtype=np.int8)
        self.label_y = np.asarray(label_y, dtype=np.int8)
        self.refreshed_masks = np.asarray(refreshed_masks, dtype=np.uint64)
        self.walk_steps = walk_steps

    def __len__(self) -> int:
        return len(self.x_bits)


# Walk steps drawn per chunk of refresh-pair harvesting.
_HARVEST_CHUNK_STEPS = 200_000


def harvest_refresh_pairs(
    f: LabelSource, n: int, pair_count: int, gap_steps: int, seed: int
) -> RefreshPairs:
    """Cut one fresh updating walk into consecutive blocks of Poisson
    (``gap_steps``) mean length and emit each block's endpoint pair with its
    refreshed coordinate set.

    An updating step selects a uniform coordinate and rewrites it with a fair
    bit, so every selected coordinate of a block ends uniform and independent
    of where it started, while unselected coordinates carry through unchanged.
    The emitted pairs are exact samples of the refresh model

        E[f(x) f(y) | refreshed = R] = sum over T disjoint from R of fhat(T)^2.

    Poissonized block lengths make the per-coordinate selection counts
    independent Poisson(gap_steps/n) variables, so membership in R is an
    independent Bernoulli event of probability 1 - exp(-gap_steps/n) for every
    coordinate; conditional statistics over R then factorize exactly, which is
    what calibrates the screening contrasts downstream.  A zero-length block
    (probability e^-gap_steps) legitimately emits refreshed = empty and y = x.
    The returned arrays are read-only: ``x_bits``/``y_bits`` and the two label
    arrays are overlapping views of one chain of block boundaries.
    """
    _check_source(f, n)
    _check_positive(pair_count=pair_count, gap_steps=gap_steps)
    rng = np.random.default_rng(seed)

    chain = [rng.integers(0, 1 << n, size=1, dtype=np.uint64)]
    out_r: list[np.ndarray] = []
    done = 0
    steps_used = 0
    while done < pair_count:
        blocks = min(max(1, _HARVEST_CHUNK_STEPS // gap_steps), pair_count - done)
        lengths = rng.poisson(gap_steps, size=blocks)
        total = int(lengths.sum())
        steps_used += total
        _, bit, act_bit = _draw_steps(rng, n, total, lazy=True)
        ends = np.cumsum(lengths)
        # the non-empty blocks' segments tile the steps, so reduceat needs no padding
        nonempty = lengths > 0
        block_sel = np.zeros(blocks, dtype=np.uint64)
        block_sel[nonempty] = np.bitwise_or.reduceat(bit, (ends - lengths)[nonempty])
        # walked[t] xors the first t changes; walked[0] serves blocks ending before step 1
        walked = np.zeros(total + 1, dtype=act_bit.dtype)
        np.bitwise_xor.accumulate(act_bit, out=walked[1:])
        chain.append(chain[-1][-1] ^ walked[ends])
        out_r.append(block_sel)
        done += blocks

    bounds = np.concatenate(chain)
    labels = labels_for(f, bounds)
    masks = np.concatenate(out_r)
    for arr in (bounds, labels, masks):
        arr.setflags(write=False)
    return RefreshPairs(
        n=n,
        x_bits=bounds[:-1],
        y_bits=bounds[1:],
        label_x=labels[:-1],
        label_y=labels[1:],
        refreshed_masks=masks,
        walk_steps=steps_used,
    )


def effective_refresh_density(n: int, gap_steps: int) -> float:
    """Per-coordinate refresh probability of a harvested block.

    Poissonized blocks select coordinate i a Poisson(gap_steps/n) number of
    times, so P[i refreshed] = 1 - exp(-gap_steps/n), independently across i.
    """
    return 1.0 - math.exp(-gap_steps / n)


def gap_for_density(n: int, p: float) -> int:
    """Smallest mean block length whose refresh density reaches p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"refresh density {p} outside (0, 1)")
    return max(1, math.ceil(-n * math.log(1.0 - p)))


# ---------------------------------------------------------------------------
# Sample-size plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSizePlan:
    """Walk length m and block length N backing a concentration claim."""

    n: int
    epsilon: float
    delta: float
    log_class_size: float
    N: int
    m: int
    mode: str  # "certified" | "practical"


def _check_eps_delta(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} outside (0, 1)")


def sample_size_concentration(epsilon: float, delta: float, n: int) -> SampleSizePlan:
    """Walk length holding an empirical mean within epsilon w.p. >= 1-delta.

    N = ceil(n ln(n/delta)) and m = ceil((2N/eps^2) ln(2N/delta)).
    """
    _check_eps_delta(epsilon, delta)
    N = math.ceil(n * math.log(n / delta))
    m = math.ceil((2 * N / epsilon**2) * math.log(2 * N / delta))
    return SampleSizePlan(n, epsilon, delta, 0.0, N, m, "certified")


def sample_size_erm(
    epsilon: float, delta: float, n: int, log_class_size: float
) -> SampleSizePlan:
    """Walk length making disagreement minimization over a finite class sound.

    With lnC = log_class_size: N = ceil(n (ln(2n/delta) + lnC)) and
    m = ceil((8N/eps^2)(ln(2N/delta) + lnC)); all |C| factors stay in log space.
    """
    _check_eps_delta(epsilon, delta)
    if log_class_size < 0.0:
        raise ValueError(f"log_class_size={log_class_size} must be >= 0")
    N = math.ceil(n * (math.log(2 * n / delta) + log_class_size))
    m = math.ceil((8 * N / epsilon**2) * (math.log(2 * N / delta) + log_class_size))
    return SampleSizePlan(n, epsilon, delta, log_class_size, N, m, "certified")


_warned_plans: set[tuple] = set()


def practical_plan(
    m: int, epsilon: float, delta: float, n: int, log_class_size: float = 0.0
) -> SampleSizePlan:
    """Wrap a user-supplied walk length; certified guarantees do not apply."""
    _check_eps_delta(epsilon, delta)
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    certified = (
        sample_size_erm(epsilon, delta, n, log_class_size)
        if log_class_size > 0
        else sample_size_concentration(epsilon, delta, n)
    )
    key = (m, certified.m, epsilon, delta, n)
    if m < certified.m and key not in _warned_plans:
        _warned_plans.add(key)
        logger.warning(
            "practical sample size m=%d is below the certified m=%d for "
            "(eps=%g, delta=%g, n=%d); guarantees are heuristic",
            m,
            certified.m,
            epsilon,
            delta,
            n,
        )
    return SampleSizePlan(n, epsilon, delta, log_class_size, certified.N, m, "practical")


# ---------------------------------------------------------------------------
# Walk oracle with seed discipline
# ---------------------------------------------------------------------------


class RandomWalkOracle:
    """Seeded access to labeled walks over a fixed unknown function.

    Every request derives an independent child seed from (seed, counter), so a
    fixed request sequence reproduces exactly.
    """

    def __init__(self, f: LabelSource, n: int, seed: int) -> None:
        _check_source(f, n)
        self.f = f
        self.n = n
        self.seed = seed
        self._requests = 0
        self.steps_served = 0

    def _child_seed(self) -> np.random.SeedSequence:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self._requests,))
        self._requests += 1
        return ss

    def walk(self, length: int, lazy: bool = False) -> LabeledWalk:
        _check_positive(length=length)
        rng = np.random.default_rng(self._child_seed())
        points, flipped = _walk_arrays(rng, self.n, length, lazy)
        self.steps_served += length - 1
        return LabeledWalk(
            n=self.n,
            points=points,
            labels=labels_for(self.f, points),
            flipped=flipped,
        )

    def refresh_pairs(self, pair_count: int, gap_steps: int) -> RefreshPairs:
        _check_positive(pair_count=pair_count, gap_steps=gap_steps)
        seed = int(self._child_seed().generate_state(1, np.uint64)[0])
        pairs = harvest_refresh_pairs(self.f, self.n, pair_count, gap_steps, seed)
        self.steps_served += pairs.walk_steps
        return pairs

    def lag_samples(self, lag: int, blocks: int) -> LagSamples:
        """The lag pairs of the walk that ``walk(blocks * (lag + 1) + 1)`` would
        draw, with only the 2 blocks + 1 points read labelled: each block's row
        of step bits xors to its two lag words; the row xors chain the starts."""
        _check_positive(lag=lag, blocks=blocks)
        rng = np.random.default_rng(self._child_seed())
        start = rng.integers(0, 1 << self.n, dtype=np.uint64)
        _, bits, _ = _draw_steps(rng, self.n, blocks * (lag + 1), lazy=False)
        rows = bits.reshape(blocks, lag + 1)
        diff_t = np.bitwise_xor.reduce(rows[:, :lag], axis=1).astype(np.uint64)
        diff_t1 = diff_t ^ rows[:, lag]
        starts = np.bitwise_xor.accumulate(np.concatenate(([start], diff_t1)))
        labels = labels_for(self.f, np.concatenate((starts, starts[:-1] ^ diff_t)))
        prod_t = labels[:blocks] * labels[blocks + 1 :]
        prod_t1 = labels[:blocks] * labels[1 : blocks + 1]
        for arr in (diff_t, diff_t1, prod_t, prod_t1):
            arr.setflags(write=False)
        self.steps_served += blocks * (lag + 1)
        return LagSamples(self.n, diff_t, diff_t1, prod_t, prod_t1)
