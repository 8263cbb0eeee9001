"""Labeled random walks on the hypercube and refresh-pair harvesting.

The plain walk flips one uniformly random coordinate per step; it is the
learner's oracle, and both of its entry points, ``generate_walk`` and
``RandomWalkOracle.walk``, draw through ``generate_walk``.

``harvest_refresh_pairs`` reads endpoint pairs annotated with flipped
coordinate sets off a walk it consumes as it draws.  It cuts a single plain
walk into half-blocks of Poisson(gap/4) steps and reads each two adjacent
half-blocks as one pair: its endpoints and the set F of coordinates the pair
flipped at least once.  The Poisson lengths make the per-coordinate flip
counts independent Poisson(gap/(2n)) draws, so with pi = e^(-gap/(2n)) a
pair leaves each coordinate unflipped with probability pi, independently,
and y xor x lies inside F.  The screen splits the pairs by F and rescales
the contrast by 1/(1 + pi) (see
:func:`~junta_walk.fourier.estimate_bounded_influence`), which gives the
contrast of an updating walk (Bshouty, Mossel, O'Donnell & Servedio,
Learning DNF from random walks) of Poisson(gap) steps per pair, with no
random draw besides the walk.  Adjacent pairs overlap in one half-block, so
P pairs cost P + 1 half-blocks.  The harvest draws its walk per half-block
rather than per step: a Poisson flip total per chunk of half-blocks and a
uniform (half-block, coordinate) cell for each flip.  (A plain walk of fixed
length cannot deliver these independent counts: it changes parity every
step, so its endpoints carry a deterministic parity constraint; a Poisson
number of flips lifts it.)  The estimator's lag samples are read off the
same chain of boundaries.  Each chunk is consumed as soon as it is drawn:
its screened pairs are tallied (``ScreenTally``) and its lag samples cut, so
a harvest keeps no array as long as its walk (``RefreshHarvest``).

Plain walks draw their steps through one kernel, ``_draw_steps``, in the
narrowest unsigned word that holds n bits.  Harvested points and masks stay
in that word; label sources always receive uint64 packed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from .hypercube import JuntaHypothesis, TruthTable, _check_dim, _check_integer, _check_real

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


@dataclass(frozen=True)
class LabeledWalk:
    """A labeled plain walk: packed points and their +-1 (int8) labels.

    Step t flips the single coordinate set in ``points[t] ^ points[t - 1]``.
    """

    n: int
    points: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class LagSamples:
    """The lag pairs of a plain walk that the squared-coefficient estimator
    reads: sample b joins points x and y a Poisson number of flips apart,
    ``diff[b]`` is x xor y and ``prod[b]`` the +-1 (int8) label product
    f(x) f(y).  The arrays are read-only."""

    n: int
    diff: np.ndarray
    prod: np.ndarray

    def __len__(self) -> int:
        return len(self.diff)


def _word(n: int) -> type:
    """The narrowest unsigned integer type with n bits."""
    return next(w for w in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(w).bits >= n)


def _draw_steps(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Draw ``count`` plain walk steps: coordinates uniform over 1..n (int16),
    returned as each one's bit in the narrowest unsigned word with n bits
    (uint8 up to uint64)."""
    coords = rng.integers(1, n + 1, size=count, dtype=np.int16)
    word = _word(n)
    # coords - 1 lies in [0, n), so the unsafe int16 -> word cast is exact
    return np.left_shift(word(1), coords - 1, dtype=word, casting="unsafe")


def generate_walk(
    f: LabelSource, n: int, length: int, seed: int | np.random.SeedSequence
) -> LabeledWalk:
    """Run the labeled-walk oracle: ``length`` points (so length - 1 steps)
    from a uniform start, each step flipping one uniform coordinate."""
    _check_source(f, n)
    _check_integer("length", length, 1)
    if not isinstance(seed, np.random.SeedSequence):
        _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    points = np.empty(length, dtype=np.uint64)
    points[0] = rng.integers(0, 1 << n, dtype=np.uint64)
    if length > 1:
        bits = _draw_steps(rng, n, length - 1)
        np.bitwise_xor.accumulate(bits, dtype=np.uint64, out=points[1:])
        points[1:] ^= points[0]
    return LabeledWalk(n=n, points=points, labels=labels_for(f, points))


# ---------------------------------------------------------------------------
# Refresh-pair harvesting
# ---------------------------------------------------------------------------


def lag_window(lag: int, gap_steps: int) -> int:
    """The least even w whose w half-blocks at ``gap_steps`` hold a mean of
    w gap_steps / 4 >= lag flips."""
    _check_integer("lag", lag, 1)
    _check_integer("gap_steps", gap_steps, 1)
    return 2 * -(-2 * lag // gap_steps)


def lag_pairs(window: int, blocks: int) -> int:
    """Pairs whose (blocks + 1) window/2 half-blocks hold ``blocks`` lag
    samples of an even ``window`` of half-blocks."""
    _check_integer("window", window, 2)
    _check_integer("blocks", blocks, 0)
    if window % 2:
        raise ValueError(f"window={window} must be even")
    return (blocks + 1) * (window // 2) - 1


class ScreenTally:
    """The screen's counts over refresh pairs harvested at ``gap_steps``,
    from which :func:`~junta_walk.fourier.estimate_bounded_influence` reads
    each coordinate's contrast: ``hists[b]`` counts, for byte b of the pairs'
    flipped masks, the key byte | disagree << 8 in [0, 512), where disagree
    is label_x != label_y.  ``pi`` = e^(-gap_steps/(2n)) is the
    probability that a pair leaves a coordinate unflipped, by which the
    contrast is rescaled.  ``len`` is the number of pairs added.
    """

    def __init__(self, n: int, gap_steps: int) -> None:
        _check_dim(n)
        _check_integer("gap_steps", gap_steps, 1)
        self.n = n
        self.pi = math.exp(-gap_steps / (2 * n))
        self.hists = np.zeros(((n + 7) // 8, 512), dtype=np.intp)
        self.pairs = 0

    def __len__(self) -> int:
        return self.pairs

    def add(self, masks: np.ndarray, label_x: np.ndarray, label_y: np.ndarray) -> None:
        """Count pairs given as parallel arrays: flipped masks of any
        unsigned width (their bytes are read little-endian) and +-1 labels.
        They are keyed in one pass with an intp key and a bool per pair, so a
        harvest, which adds one chunk at a time, bounds that scratch."""
        octets = np.ascontiguousarray(masks, dtype=masks.dtype.newbyteorder("<"))
        octets = octets.view(np.uint8).reshape(-1, masks.dtype.itemsize)
        dis = np.not_equal(label_x, label_y)
        keys = np.empty(len(masks), dtype=np.intp)
        for b, hist in enumerate(self.hists):
            # shifted in intp: a bool or uint8 shift by 8 would wrap to 0
            np.left_shift(dis, 8, out=keys, dtype=np.intp)
            keys |= octets[:, b]
            hist += np.bincount(keys, minlength=512)
        self.pairs += len(masks)


@dataclass(frozen=True)
class RefreshHarvest:
    """What a refresh-pair harvest leaves once its walk is consumed: the
    screen's tally of its first ``len(screen)`` pairs (None without a
    screen), its lag samples (None without any) and the flips it charged.
    ``len`` is the number of pairs its walk spans."""

    n: int
    pair_count: int
    screen: ScreenTally | None
    lags: LagSamples | None
    walk_steps: int

    def __len__(self) -> int:
        return self.pair_count


# Half-blocks per chunk of refresh-pair harvesting: a chunk of B =
# _HARVEST_CHUNK_STEPS // gap_steps half-blocks draws Poisson(B gap_steps / 4)
# flip cells, about 0.2 MB of intp indices (mean _HARVEST_CHUNK_STEPS / 4
# cells), into B word-wide rows of uint8 flip counts and, inside the screen,
# of flipped-set bools (<= 128 B per half-block), and labels its boundaries
# in a B + 1 point uint64 buffer; these buffers are allocated once per
# harvest.  The screen's tally keys a chunk's pairs in one pass (9 B a pair),
# so the chunk bounds the screen's memory too.
_HARVEST_CHUNK_STEPS = 100_000


def _draw_cells(
    rng: np.random.Generator, mean: float, halves: int, n: int, width: int
) -> np.ndarray:
    """A Poisson(``mean``) number of uniform (half-block, coordinate) cells:
    cell c of coordinate c % n + 1 in half-block c // n becomes bit c % n of
    row c // n of a chunk whose rows are ``width`` bits wide.  The remap
    runs in int32, where it is cheapest, and the cells are returned as intp,
    which fancy indexing would otherwise convert them to on every scatter."""
    cells = rng.integers(0, halves * n, size=rng.poisson(mean), dtype=np.int32)
    if n != width:
        cells += (cells // n) * (width - n)
    return cells.astype(np.intp)


def harvest_chunks(
    f: LabelSource,
    n: int,
    gap_steps: int,
    seed: int,
    pair_count: int,
    screen_pairs: int,
    stride: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray | None, int]]:
    """Draw the walk behind ``pair_count`` refresh pairs chunk by chunk: the
    one kernel every harvest reads (see :func:`harvest_refresh_pairs` for the
    law).

    Each chunk of B half-blocks starting at half-block ``done`` is yielded as
    ``(done, bounds, labels, sel, steps)``: element k of ``bounds`` and
    ``labels`` is chain boundary done - 1 + k and its label (k = 0 is no
    boundary in the first chunk), element k of ``sel`` is the set of
    coordinates half-block done - 1 + k flips, so pair done - 1 + k joins
    bounds k and k + 2 and flips sel[k] | sel[k + 1], and ``steps`` is the
    chunk's flips.  Boundaries through the screen's last, screen_pairs + 1,
    are labelled; past it only every ``stride``-th boundary is, and the rest
    read label 0.  A chunk that holds no screened pair's half-block packs no
    flipped set and yields ``sel`` None.  The arrays are views of buffers the
    next chunk overwrites.
    """
    # the walk's stream is the seed's child 0, whose walks the tests pin
    walk_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    # a cell takes Poisson(gap_steps/(4n)) flips; at a mean of at most 1 its
    # uint8 count reaches 256 with probability below 1/256!, so its flipped
    # bit is read off the count, and at a larger mean, where the count could
    # wrap to 0, it is scattered from the cells themselves
    scatter = gap_steps > 4 * n
    word = np.dtype(_word(n)).newbyteorder("<")
    width = word.itemsize * 8
    halves_total = pair_count + 1
    last_screened = screen_pairs + 1 if screen_pairs else -1
    per_chunk = min(max(1, _HARVEST_CHUNK_STEPS // gap_steps), halves_total)
    flip_rows = np.empty(per_chunk * width, dtype=np.uint8)
    hit_rows = np.empty(per_chunk * width, dtype=bool) if screen_pairs else None
    # every label source reads uint64 points: a chunk's boundaries are
    # widened into this buffer and labelled there
    points = np.empty(per_chunk + 1, dtype=np.uint64)
    bounds = np.zeros(per_chunk + 2, dtype=word)
    labels = np.zeros(per_chunk + 2, dtype=np.int8)
    sel = np.zeros(per_chunk + 1, dtype=word)

    bounds[1:2] = walk_rng.integers(0, 1 << n, size=1, dtype=np.uint64)
    for done in range(0, halves_total, per_chunk):
        if done:  # carry the previous chunk's last two boundaries and flipped set
            bounds[:2] = bounds[per_chunk:]
            labels[:2] = labels[per_chunk:]
            sel[0] = sel[per_chunk]
        halves = min(per_chunk, halves_total - done)
        mean = halves * gap_steps / 4
        flips = flip_rows[: halves * width]
        flips.fill(0)
        cells = _draw_cells(walk_rng, mean, halves, n, width)
        np.add.at(flips, cells, np.uint8(1))
        screened = done < last_screened
        if screened:
            hit = hit_rows[: halves * width]
            if scatter:
                hit.fill(False)
                hit[cells] = True
            else:
                np.not_equal(flips, 0, out=hit)
            # little-endian bits and bytes: element j of a row is bit j of its word
            sel[1 : halves + 1] = np.packbits(hit, bitorder="little").view(word)
        # only bit 0 of a count is read, and it is exact under the mod-256 wrap
        np.bitwise_and(flips, np.uint8(1), out=flips)
        moves = np.packbits(flips.view(bool), bitorder="little").view(word)
        chain = bounds[2 : halves + 2]
        np.bitwise_xor.accumulate(moves, out=chain)
        chain ^= bounds[1]

        # the new boundaries (in the first chunk, the start too): all of
        # them up to the screen's last, then every stride-th
        lo, hi = done + (done > 0), done + halves
        cut = max(lo, min(hi, last_screened) + 1)
        head = slice(lo - done + 1, cut - done + 1)
        tail = slice(-(-cut // stride) * stride - done + 1, halves + 2, stride)
        labels[head.stop :] = 0
        a, b = len(bounds[head]), len(bounds[tail])
        if a + b:
            fresh = points[: a + b]
            fresh[:a], fresh[a:] = bounds[head], bounds[tail]
            fresh = labels_for(f, fresh)
            labels[head], labels[tail] = fresh[:a], fresh[a:]
        yield (
            done,
            bounds[: halves + 2],
            labels[: halves + 2],
            sel[: halves + 1] if screened else None,
            len(cells),
        )


def _harvest_size(screen_pairs: int, gap_steps: int, window: int, blocks: int) -> int:
    """Check a harvest's sizes and return the pairs its walk spans."""
    _check_integer("screen_pairs", screen_pairs, 0)
    _check_integer("gap_steps", gap_steps, 1)
    lags = lag_pairs(window, blocks)
    if not screen_pairs and not blocks:
        raise ValueError("screen_pairs=0 and blocks=0: a harvest reads at least one pair")
    return max(screen_pairs, lags if blocks else 0)


def harvest_refresh_pairs(
    f: LabelSource,
    n: int,
    screen_pairs: int,
    gap_steps: int,
    seed: int,
    window: int = 2,
    blocks: int = 0,
) -> RefreshHarvest:
    """Cut one fresh plain walk into consecutive half-blocks of
    Poisson(``gap_steps`` / 4) steps and read each two adjacent half-blocks
    as a refresh pair: the endpoint pair they span with the set F of
    coordinates it flips at least once.  The first ``screen_pairs`` pairs
    are tallied for the screen (:class:`ScreenTally`), and ``blocks`` lag
    samples of ``window`` half-blocks are read off the chain of half-block
    boundaries.

    Per half-block, coordinate i takes a Poisson(gap_steps/(4n)) number of
    flips, independently across coordinates and half-blocks, so a pair,
    spanning two half-blocks, flips it Poisson(gap_steps/(2n)) times.  With
    pi = exp(-gap_steps/(2n)), each pair and coordinate, independently
    across coordinates, is

        unflipped                          with probability pi,
        flipped an odd number of times     with probability (1 - pi^2)/2,
        flipped a nonzero even number      with probability (1 - pi)^2/2,

    and y xor x is the odd-flipped coordinates, so it lies inside F.
    Writing a = E[f(x) f(y) | i unflipped] and b = E[f(x) f(y) | i flipped],

        (a - b) / (1 + pi) = sum over T owning i of fhat(T)^2 pi^(2(|T|-1)),

    the screening contrast of an updating walk (each step picks a uniform
    coordinate and rewrites it with a fair bit; Bshouty, Mossel, O'Donnell
    & Servedio, Learning DNF from random walks) of Poisson(gap_steps) steps,
    which refreshes each coordinate with probability 1 - pi^2
    (:func:`effective_refresh_density`).  The screen splits the pairs by F
    and rescales by 1/(1 + pi); it draws nothing besides the walk.  A pair
    without flips (probability e^(-gap_steps/2)) has F empty and y = x.
    Pair i joins chain boundaries i and i + 2, so consecutive pairs share a
    half-block and are not independent, but the even pairs, and the odd
    pairs, are each a chain of disjoint blocks.

    Lag sample b joins boundaries b w/2 and b w/2 + w for an even window of
    w half-blocks, so adjacent samples share half a window: at gap g its
    flip count is Poisson(w g / 4), whatever came before.  The walk spans
    max(screen_pairs, lag_pairs(window, blocks)) pairs.

    The walk is drawn and read a chunk of B half-blocks at a time
    (:func:`harvest_chunks`): the walk's stream draws F ~ Poisson(B
    gap_steps / 4) flips into uniform (half-block, coordinate) cells.  A
    half-block's flipped set is the coordinates of its cells, and its move
    is the parity of its flip counts, so every boundary is a point of the
    plain walk.  ``walk_steps`` sums the F.  Boundaries are kept in the
    narrowest unsigned word with n bits, where each chunk's moves
    xor-accumulate, and are widened into a uint64 buffer to be labelled, so
    the label source sees uint64 points.  Each chunk's screened pairs go
    into the tally and its lag samples are cut as soon as their ends are
    drawn, carrying two boundaries to the next chunk; past the screen a
    chunk packs no flipped set and labels only the boundaries a lag sample
    reads.  Memory is a chunk's buffers plus the lag samples (word + 1 bytes
    each), not the walk's length.
    """
    _check_source(f, n)
    _check_integer("seed", seed, 0)
    pair_count = _harvest_size(screen_pairs, gap_steps, window, blocks)
    word = np.dtype(_word(n)).newbyteorder("<")
    half = window // 2
    tally = ScreenTally(n, gap_steps) if screen_pairs else None
    diff, prod = np.empty(blocks, dtype=word), np.empty(blocks, dtype=np.int8)
    # the last two lag boundaries read, and their labels
    ends, end_labels = np.empty(0, dtype=word), np.empty(0, dtype=np.int8)
    cut = steps = 0
    for done, bounds, labels, sel, drawn in harvest_chunks(
        f, n, gap_steps, seed, pair_count, screen_pairs, half
    ):
        steps += drawn
        halves = len(bounds) - 2
        # pair done - 1 + k, for k in [lo, hi), joins bounds k and k + 2
        lo, hi = int(done == 0), min(halves, screen_pairs - done + 1)
        if hi > lo:
            tally.add(sel[lo:hi] | sel[lo + 1 : hi + 1], labels[lo:hi], labels[lo + 2 : hi + 2])
        # the lag boundaries m w/2, m <= blocks + 1, new in this chunk
        first = -(-(done + (done > 0)) // half) * half
        last = min(done + halves, (blocks + 1) * half)
        if blocks and first <= last:
            pick = slice(first - done + 1, last - done + 2, half)
            ends = np.concatenate((ends, bounds[pick]))
            end_labels = np.concatenate((end_labels, labels[pick]))
            new = len(ends) - 2
            if new > 0:
                np.bitwise_xor(ends[:-2], ends[2:], out=diff[cut : cut + new])
                np.multiply(end_labels[:-2], end_labels[2:], out=prod[cut : cut + new])
                cut += new
            ends, end_labels = ends[-2:], end_labels[-2:]
    lags = None
    if blocks:
        for arr in (diff, prod):
            arr.setflags(write=False)
        lags = LagSamples(n, diff, prod)
    return RefreshHarvest(n, pair_count, tally, lags, steps)


def effective_refresh_density(n: int, gap_steps: int) -> float:
    """Refresh density p = 1 - exp(-gap_steps/n) of the screen.

    An updating block of Poisson(gap_steps) steps refreshes each coordinate
    with probability p, independently, and its contrast is the one a
    harvested pair's rescaled contrast estimates: p = 1 - pi^2, where pi =
    exp(-gap_steps/(2n)) is the probability that a pair leaves a coordinate
    unflipped (see :func:`harvest_refresh_pairs`).
    """
    _check_dim(n)
    _check_integer("gap_steps", gap_steps, 1)
    return 1.0 - math.exp(-gap_steps / n)


def gap_for_density(n: int, p: float) -> int:
    """Smallest mean block length whose refresh density reaches p."""
    _check_dim(n)
    _check_real("refresh density p", p, "(0, 1)")
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


def sample_size_concentration(epsilon: float, delta: float, n: int) -> SampleSizePlan:
    """Walk length holding an empirical mean within epsilon w.p. >= 1-delta.

    N = ceil(n ln(n/delta)) and m = ceil((2N/eps^2) ln(2N/delta)).
    """
    _check_real("epsilon", epsilon, "(0, 1]")
    _check_real("delta", delta, "(0, 1)")
    _check_dim(n)
    N = math.ceil(n * math.log(n / delta))
    m = math.ceil((2 * N / epsilon**2) * math.log(2 * N / delta))
    return SampleSizePlan(n, epsilon, delta, 0.0, N, m)


def sample_size_erm(
    epsilon: float, delta: float, n: int, log_class_size: float
) -> SampleSizePlan:
    """Walk length making disagreement minimization over a finite class sound.

    With lnC = log_class_size: N = ceil(n (ln(2n/delta) + lnC)) and
    m = ceil((8N/eps^2)(ln(2N/delta) + lnC)); all |C| factors stay in log space.
    """
    _check_real("epsilon", epsilon, "(0, 1]")
    _check_real("delta", delta, "(0, 1)")
    _check_dim(n)
    _check_real("log_class_size", log_class_size, "[0, inf)")
    N = math.ceil(n * (math.log(2 * n / delta) + log_class_size))
    m = math.ceil((8 * N / epsilon**2) * (math.log(2 * N / delta) + log_class_size))
    return SampleSizePlan(n, epsilon, delta, log_class_size, N, m)


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
        _check_integer("seed", seed, 0)
        self.f = f
        self.n = n
        self.seed = seed
        self._requests = 0
        self.steps_served = 0

    def _child_seed(self) -> np.random.SeedSequence:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self._requests,))
        self._requests += 1
        return ss

    def walk(self, length: int) -> LabeledWalk:
        _check_integer("length", length, 1)
        walk = generate_walk(self.f, self.n, length, self._child_seed())
        self.steps_served += length - 1
        return walk

    def refresh_pairs(
        self, screen_pairs: int, gap_steps: int, window: int = 2, blocks: int = 0
    ) -> RefreshHarvest:
        """One harvest (:func:`harvest_refresh_pairs`): a screen of
        ``screen_pairs`` pairs and ``blocks`` lag samples of ``window``
        half-blocks, read off one walk."""
        _harvest_size(screen_pairs, gap_steps, window, blocks)
        seed = int(self._child_seed().generate_state(1, np.uint64)[0])
        harvest = harvest_refresh_pairs(
            self.f, self.n, screen_pairs, gap_steps, seed, window, blocks
        )
        self.steps_served += harvest.walk_steps
        return harvest
