"""Labeled walks, refresh pairs, lag samples, sample sizes, oracle seeds."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from junta_walk.fourier import default_lag, estimate_bounded_influence
from junta_walk.functions import parity_table, random_table
from junta_walk.hypercube import IndexSet, JuntaHypothesis
from junta_walk.walk import (
    _HARVEST_CHUNK_STEPS,
    RandomWalkOracle,
    ScreenTally,
    _draw_steps,
    _draw_walk,
    _harvest_size,
    _word,
    effective_refresh_density,
    gap_for_density,
    harvest_chunks,
    lag_pairs,
    lag_window,
    sample_size_concentration,
    sample_size_erm,
)
from lag_reference import (
    boundary,
    hash_labels,
    lag_samples_from_pairs,
    oracle_pairs,
    raw_pairs,
    seeded_harvest,
    tally_of,
)

XOR2 = parity_table(6, [1, 2])


def _step_coords(w):
    """Each step's coordinate: the single set bit of consecutive point xors."""
    diffs = w.points[1:] ^ w.points[:-1]
    assert np.all(np.bitwise_count(diffs) == 1)
    return np.bitwise_count(diffs - np.uint64(1)).astype(np.int64) + 1


# ---------------------------------------------------------------------------
# Walk generation


def test_walk_layer_enforces_the_packed_cap():
    # the oracle is the walk layer's one door; its kernels take n from f
    f = JuntaHypothesis(IndexSet(63), [1])
    for n in (0, 64):
        with pytest.raises(ValueError, match=r"outside \[1, 63\]"):
            RandomWalkOracle(f, n, seed=1)
    oracle = RandomWalkOracle(f, 63, seed=1)
    assert len(oracle.walk(5)) == 5
    assert len(oracle.refresh_pairs(5, gap_steps=3)) == 5


@pytest.mark.parametrize("delta", [-4, -1, 1, 4])
def test_label_source_of_another_dimension_is_refused(delta):
    n = 8
    table = random_table(n + delta, np.random.default_rng(n + delta))
    hypothesis = JuntaHypothesis(IndexSet.of(n + delta, [1, 2]), [1, -1, -1, 1])
    for f in (table, hypothesis):
        with pytest.raises(ValueError, match=f"n={n + delta}.*n={n}"):
            RandomWalkOracle(f, n, seed=1)


@pytest.mark.parametrize("n", [1, 8, 9, 24, 33, 63])
@pytest.mark.parametrize("kernel", ["walk", "harvest"])
def test_kernels_take_n_from_their_table(kernel, n):
    # neither kernel is told n: every coordinate of f, and none past it, moves
    f = hash_labels(n)
    if kernel == "walk":
        w = _draw_walk(f, 2_000, n)
        assert w.n == n
        assert set(_step_coords(w).tolist()) == set(range(1, n + 1))
        np.testing.assert_array_equal(w.labels, f.label_bits(w.points))
    else:
        pairs = raw_pairs(f, 2_000, 2 * n, seed=n)
        assert pairs.n == n and pairs.x_bits.dtype == _word(n)
        assert int(np.bitwise_or.reduce(pairs.flipped_masks)) == (1 << n) - 1
        harvest = seeded_harvest(f, 2_000, 2 * n, n, 4, 30)
        assert harvest.screen.n == harvest.lags.n == n
        assert harvest.screen.hists.tobytes() == tally_of(pairs, 2 * n).hists.tobytes()


def test_length_counts_points_not_steps():
    oracle = RandomWalkOracle(XOR2, 6, seed=3)
    w = oracle.walk(1)
    assert len(w) == 1 and _step_coords(w).size == 0
    w = oracle.walk(10)
    assert len(w) == 10 and _step_coords(w).size == 9
    for length in (0, -1):
        with pytest.raises(ValueError, match="length"):
            oracle.walk(length)


def test_plain_walk_changes_exactly_the_recorded_coordinate():
    # every step flips exactly one coordinate, and all six occur
    w = _draw_walk(XOR2, 500, 11)
    assert set(_step_coords(w).tolist()) == set(range(1, 7))


def test_oracle_walk_is_the_kernel_at_the_child_seed():
    f = random_table(7, np.random.default_rng(3))
    oracle = RandomWalkOracle(f, 7, seed=41)
    got = oracle.walk(1_000)
    want = _draw_walk(f, 1_000, np.random.SeedSequence(41, spawn_key=(0,)))
    assert got.n == want.n == 7
    for g, w in ((got.points, want.points), (got.labels, want.labels)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert oracle.steps_served == 999


def test_walk_and_refresh_pairs_at_n63_with_junta_labels():
    # the packed-word cap: bit 62 is coordinate 63, which labels the points
    n = 63
    top = np.uint64(62)
    f = _top_bit_labels(n)
    oracle = RandomWalkOracle(f, n, seed=63)
    walks = [oracle.walk(20_000) for _ in range(2)]
    assert not np.array_equal(walks[0].points, walks[1].points)  # fresh child seeds
    for w in walks:
        coords = _step_coords(w)
        assert coords.min() == 1 and coords.max() == n
        np.testing.assert_array_equal(w.labels, 1 - 2 * (w.points >> top).astype(np.int8))
        assert np.any(w.labels == 1) and np.any(w.labels == -1)
    harvest = oracle.refresh_pairs(5_000, gap_steps=40)
    pairs = oracle_pairs(f, 63, 5_000, 40, request=2)
    assert pairs.walk_steps == harvest.walk_steps
    assert harvest.screen.hists.tobytes() == tally_of(pairs, 40).hists.tobytes()
    assert np.all((pairs.x_bits ^ pairs.y_bits) & ~pairs.flipped_masks == 0)
    assert np.all(pairs.y_bits[:-2] == pairs.x_bits[2:])  # one walk, cut into half-blocks
    np.testing.assert_array_equal(pairs.label_x, 1 - 2 * (pairs.x_bits >> top).astype(np.int8))
    np.testing.assert_array_equal(pairs.label_y, 1 - 2 * (pairs.y_bits >> top).astype(np.int8))
    assert np.any(pairs.flipped_masks >> top)
    assert oracle.steps_served == 2 * 19_999 + pairs.walk_steps


def test_n1_plain_walk_alternates():
    f = parity_table(1, [1])
    w = _draw_walk(f, 64, 9)
    assert np.all(w.points[1:] != w.points[:-1])
    assert set(np.unique(w.points).tolist()) <= {0, 1}


def test_walk_labels_match_function():
    f = random_table(7, np.random.default_rng(2))
    w = _draw_walk(f, 300, 5)
    np.testing.assert_array_equal(w.labels, f.values[w.points.astype(np.int64)])


def test_same_seed_reproduces_walk():
    a = _draw_walk(XOR2, 100, 21)
    b = _draw_walk(XOR2, 100, 21)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = _draw_walk(XOR2, 100, 22)
    assert not np.array_equal(a.points, c.points)


def test_flip_coordinate_frequencies_uniform():
    f = parity_table(8, [1])
    w = _draw_walk(f, 100_001, 1)
    counts = np.bincount(_step_coords(w), minlength=9)[1:]
    expect = 100_000 / 8
    sigma = math.sqrt(100_000 * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_start_points_uniform():
    starts = [int(_draw_walk(parity_table(2, [1]), 1, s).points[0]) for s in range(2000)]
    _, pvalue = scipy.stats.chisquare(np.bincount(starts, minlength=4))
    assert pvalue > 1e-4


# ---------------------------------------------------------------------------
# Size refusals


ENTRIES = {
    "RandomWalkOracle": lambda n: RandomWalkOracle(XOR2, n, seed=1),
    "oracle_seed": lambda seed: RandomWalkOracle(XOR2, 6, seed=seed),
    "walk": lambda *args: RandomWalkOracle(XOR2, 6, seed=1).walk(*args),
    "refresh_pairs": lambda *args: RandomWalkOracle(XOR2, 6, seed=1).refresh_pairs(*args),
    "lag_samples": lambda *args: RandomWalkOracle(XOR2, 6, seed=1).refresh_pairs(0, 3, *args),
    "lag_window": lag_window,
    "effective_refresh_density": effective_refresh_density,
    "gap_for_density": gap_for_density,
}

# (entry, arguments, error, the name and value the error must state)
REFUSALS = [
    ("RandomWalkOracle", (True,), TypeError, "n=True"),
    ("RandomWalkOracle", (6.0,), TypeError, "n=6.0"),
    ("oracle_seed", (-1,), ValueError, "seed=-1"),
    ("oracle_seed", (1.5,), TypeError, "seed=1.5"),
    ("oracle_seed", (True,), TypeError, "seed=True"),
    ("walk", (3.0,), TypeError, "length=3.0"),
    ("walk", (False,), TypeError, "length=False"),
    ("refresh_pairs", (10, 2.5), TypeError, "gap_steps=2.5"),
    ("refresh_pairs", (True, 3), TypeError, "screen_pairs=True"),
    ("lag_samples", (1.5, 5), TypeError, "window=1.5"),
    ("lag_samples", (2, True), TypeError, "blocks=True"),
    ("lag_samples", (3, 5), ValueError, "window=3"),
    ("lag_samples", (0, 5), ValueError, "window=0"),
    ("lag_samples", (2, 0), ValueError, "blocks=0"),
    ("lag_samples", (4, -1), ValueError, "blocks=-1"),
    ("lag_window", (1.5, 3), TypeError, "lag=1.5"),
    ("lag_window", (4, 0), ValueError, "gap_steps=0"),
    ("effective_refresh_density", (0, 3), ValueError, "n=0"),
    ("effective_refresh_density", (True, 3), TypeError, "n=True"),
    ("effective_refresh_density", (6, 2.5), TypeError, "gap_steps=2.5"),
    ("gap_for_density", (0, 0.5), ValueError, "n=0"),
    ("gap_for_density", (2.5, 0.5), TypeError, "n=2.5"),
    ("gap_for_density", (False, 0.5), TypeError, "n=False"),
]


@pytest.mark.parametrize(
    "entry, args, error, name", REFUSALS, ids=[f"{r[0]}-{r[3]}" for r in REFUSALS]
)
def test_walk_sizes_are_refused_by_name(entry, args, error, name):
    with pytest.raises(error, match=re.escape(name)):
        ENTRIES[entry](*args)


# ---------------------------------------------------------------------------
# Refresh-pair harvesting


def test_harvest_validation():
    oracle = RandomWalkOracle(XOR2, 6, seed=1)
    with pytest.raises(ValueError, match="gap_steps=0"):
        oracle.refresh_pairs(screen_pairs=10, gap_steps=0)
    with pytest.raises(ValueError, match="screen_pairs=0 and blocks=0"):
        oracle.refresh_pairs(screen_pairs=0, gap_steps=3)
    # lag samples alone are a harvest, without a screen
    harvest = oracle.refresh_pairs(0, 3, 4, 5)
    assert harvest.screen is None and len(harvest.lags) == 5


def test_harvest_pairs_chain_into_one_walk():
    pairs = raw_pairs(XOR2, 5000, 3, seed=2)
    harvest = seeded_harvest(XOR2, screen_pairs=5000, gap_steps=3, seed=2)
    assert len(pairs) == len(harvest) == len(harvest.screen) == 5000
    assert harvest.walk_steps == pairs.walk_steps
    # pair i spans half-blocks i and i + 1: it ends where pair i + 2 starts
    np.testing.assert_array_equal(pairs.y_bits[:-2], pairs.x_bits[2:])
    np.testing.assert_array_equal(pairs.label_y[:-2], pairs.label_x[2:])
    assert pairs.walk_steps > 0


def test_harvest_pairs_overlap_in_one_half_block():
    # x[i + 1] ^ x[i] is half-block i's move, which both pairs i - 1 and i flip
    for n, gap in ((6, 3), (16, 7), (63, 40)):
        pairs = raw_pairs(_top_bit_labels(n), 5000, gap, seed=n)
        x, masks = pairs.x_bits, pairs.flipped_masks
        move = x[2:] ^ x[1:-1]
        assert np.all(move & ~(masks[1:-1] & masks[:-2]) == 0)
        assert np.any(move)


def test_harvest_moves_only_refreshed_coordinates():
    pairs = raw_pairs(XOR2, 5000, 4, seed=3)
    diff = pairs.x_bits ^ pairs.y_bits
    assert np.all(diff & ~pairs.flipped_masks == 0)


def test_harvest_empty_blocks_keep_the_point():
    pairs = raw_pairs(XOR2, 20_000, 2, seed=4)
    empty = pairs.flipped_masks == 0
    # P[no flip in a pair] = e^(-gap/2) = e^-1, so about 7358 of 20000; the
    # overlapping pairs' count has sd about 90
    assert 6900 < int(empty.sum()) < 7800
    np.testing.assert_array_equal(pairs.x_bits[empty], pairs.y_bits[empty])


def test_harvest_reads_a_plain_walk_and_charges_its_flips():
    # every plain-walk step flips one coordinate, so the chain's end points
    # differ in as many coordinates as the walk has steps, mod 2; an updating
    # walk's no-op steps break this about half the time
    for seed in range(200):
        n = (1, 5, 16, 63)[seed % 4]
        oracle = RandomWalkOracle(_top_bit_labels(n), n, seed=seed)
        oracle.walk(1 + seed)
        served = oracle.steps_served
        count, gap = 1 + seed % 50, min(1 + seed % 9, 4 * n)
        harvest = oracle.refresh_pairs(count, gap_steps=gap)
        assert oracle.steps_served - served == harvest.walk_steps
        pairs = oracle_pairs(_top_bit_labels(n), seed, count, gap, request=1)
        assert pairs.walk_steps == harvest.walk_steps
        moved = int(np.bitwise_count(pairs.x_bits[0] ^ pairs.y_bits[-1]))
        assert moved % 2 == pairs.walk_steps % 2


def test_harvest_determinism():
    a, b = (raw_pairs(XOR2, 100, 3, seed=5) for _ in range(2))
    np.testing.assert_array_equal(a.x_bits, b.x_bits)
    np.testing.assert_array_equal(a.flipped_masks, b.flipped_masks)
    a, b = (seeded_harvest(XOR2, 100, 3, 5, 4, 30) for _ in range(2))
    np.testing.assert_array_equal(a.screen.hists, b.screen.hists)
    np.testing.assert_array_equal(a.lags.diff, b.lags.diff)


def test_unrefreshed_parity_product_is_exactly_one():
    # f = chi_{1}: if coordinate 1 is not flipped, f(x) f(y) = +1 for every
    # single pair, not just on average; if it is, f(x) f(y) = (-1)^count for
    # a Poisson(gap/(2n)) count given count >= 1, of mean -pi
    n, gap = 4, 3
    f = parity_table(n, [1])
    pairs = raw_pairs(f, 30_000, gap, seed=6)
    prod = pairs.label_x.astype(np.int32) * pairs.label_y
    hit = (pairs.flipped_masks & np.uint64(1)) != 0
    assert np.all(prod[~hit] == 1)
    m = int(hit.sum())
    pi = math.exp(-gap / (2 * n))
    assert abs(float(prod[hit].mean()) + pi) < 5 / math.sqrt(m)


def test_refresh_membership_matches_density_formula():
    # a pair leaves each coordinate unflipped with probability pi =
    # e^(-gap/(2n)), where the refresh density is 1 - pi^2; the even pairs
    # share no half-block, so their memberships are iid
    n, gap = 6, 4
    pairs = raw_pairs(XOR2, 40_000, gap, seed=7)
    pi = math.exp(-gap / (2 * n))
    assert effective_refresh_density(n, gap) == pytest.approx(1 - pi * pi, rel=1e-15)
    even = pairs.flipped_masks[::2]
    for i in range(1, n + 1):
        freq = float(np.mean((even >> np.uint64(i - 1)) & np.uint64(1)))
        assert abs(freq - (1 - pi)) < 5 * math.sqrt(pi * (1 - pi) / len(even))


def test_refresh_memberships_are_independent_across_coordinates():
    # joint frequency of {1 refreshed, 2 refreshed} factorizes
    pairs = raw_pairs(XOR2, 60_000, 4, seed=8)
    a = ((pairs.flipped_masks >> np.uint64(0)) & np.uint64(1)).astype(float)
    b = ((pairs.flipped_masks >> np.uint64(1)) & np.uint64(1)).astype(float)
    joint = float(np.mean(a * b))
    assert abs(joint - a.mean() * b.mean()) < 5 / math.sqrt(60_000)


def _reference_draw_steps(rng, n, count):
    # the uint64 step kernel the narrow-word one must reproduce bit for bit
    coords = rng.integers(1, n + 1, size=count, dtype=np.int16)
    return np.uint64(1) << (coords.astype(np.uint64) - np.uint64(1))


def _reference_walk_points(rng, n, count):
    start = int(rng.integers(0, 1 << n, dtype=np.uint64))
    points = np.empty(count, dtype=np.uint64)
    points[0] = start
    if count > 1:
        steps = _reference_draw_steps(rng, n, count - 1)
        points[1:] = np.uint64(start) ^ np.bitwise_xor.accumulate(steps)
    return points


def _reference_pairs(f, out_b, out_r, steps_used):
    # pair i joins boundaries i and i + 2 and flips half-blocks i and i + 1
    bounds, sel = np.concatenate(out_b), np.concatenate(out_r)
    x_bits, y_bits = bounds[:-2], bounds[2:]
    return {
        "x_bits": x_bits,
        "y_bits": y_bits,
        "label_x": f.label_bits(x_bits),
        "label_y": f.label_bits(y_bits),
        "flipped_masks": sel[:-1] | sel[1:],
        "walk_steps": steps_used,
    }


def _walk_stream(seed):
    # the harvest's one stream: child 0 of the seed
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def _per_block(ufunc, values, lengths):
    # reduce each block's run of values with padded reduceats; an empty block is 0
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    out = ufunc.reduceat(np.append(values, np.uint64(0)), starts)
    out[lengths == 0] = 0
    return out


def _reference_harvest(f, n, pair_count, gap_steps, seed):
    # the per-step plain walk: Poisson(gap/4) steps per half-block, each
    # flipping a uniform coordinate
    walk_rng = _walk_stream(seed)
    out_b = [walk_rng.integers(0, 1 << n, size=1, dtype=np.uint64)]
    out_r = []
    done = steps_used = 0
    while done < pair_count + 1:
        blocks = min(max(1, _HARVEST_CHUNK_STEPS // gap_steps), pair_count + 1 - done)
        flips = walk_rng.poisson(gap_steps / 4, size=blocks)
        bit = _reference_draw_steps(walk_rng, n, int(flips.sum()))
        steps_used += int(flips.sum())
        moves = _per_block(np.bitwise_xor, bit, flips)
        block_sel = _per_block(np.bitwise_or, bit, flips)
        out_b.append(out_b[-1][-1] ^ np.bitwise_xor.accumulate(moves))
        out_r.append(block_sel)
        done += blocks
    return _reference_pairs(f, out_b, out_r, steps_used)


def _reference_cell_harvest(f, n, pair_count, gap_steps, seed):
    # the per-half-block draw one cell at a time in uint64: per chunk, the
    # walk's stream draws a Poisson flip total at mean half-blocks * gap / 4,
    # cell c flipping coordinate c % n + 1 of half-block c // n; a half-block
    # moves by the xor of its flips and its flipped set is every coordinate
    # a flip hits, however many times
    walk_rng = _walk_stream(seed)
    out_b = [walk_rng.integers(0, 1 << n, size=1, dtype=np.uint64)]
    out_r = []
    done = steps_used = 0
    while done < pair_count + 1:
        blocks = min(max(1, _HARVEST_CHUNK_STEPS // gap_steps), pair_count + 1 - done)
        moves = np.zeros(blocks, dtype=np.uint64)
        block_sel = np.zeros(blocks, dtype=np.uint64)
        total = int(walk_rng.poisson(blocks * gap_steps / 4))
        cells = walk_rng.integers(0, blocks * n, size=total, dtype=np.int64)
        coord_bits = np.uint64(1) << (cells % n).astype(np.uint64)
        np.bitwise_or.at(block_sel, cells // n, coord_bits)
        np.bitwise_xor.at(moves, cells // n, coord_bits)
        steps_used += total
        out_b.append(out_b[-1][-1] ^ np.bitwise_xor.accumulate(moves))
        out_r.append(block_sel)
        done += blocks
    return _reference_pairs(f, out_b, out_r, steps_used)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _top_bit_labels(n):
    # -1 exactly where coordinate n, the word's top bit, is set
    return JuntaHypothesis(IndexSet.of(n, [n]), [1, -1])


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 63])
def test_step_kernel_matches_uint64_reference_bit_for_bit(n):
    f = _top_bit_labels(n)
    for count in (1, 2, 5_000):
        got = _draw_walk(f, count, n).points
        _assert_same_bytes(got, _reference_walk_points(np.random.default_rng(n), n, count))
        # the step bits themselves, widened from the narrow word
        got = _draw_steps(np.random.default_rng(n), n, count)
        want = _reference_draw_steps(np.random.default_rng(n), n, count)
        _assert_same_bytes(got.astype(np.uint64), want)


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 63])
def test_harvest_matches_per_cell_reference_bit_for_bit(n):
    f = _top_bit_labels(n)
    # 4n, the largest gap a harvest takes, is the largest mean flip count,
    # 1, that a cell's byte-wide count is read at
    for gap in sorted({1, gap_for_density(n, 0.5), 3 * n, 4 * n}):
        # gap 1 leaves empty blocks at the head and the tail of a chunk
        for count in (1, 7, _HARVEST_CHUNK_STEPS // gap + 3):
            seed = 1000 * n + gap + count
            pairs = raw_pairs(f, count, gap, seed)
            want = _reference_cell_harvest(f, n, count, gap, seed)
            assert pairs.walk_steps == want.pop("walk_steps")
            for name, ref in want.items():
                got = getattr(pairs, name)
                if name not in ("label_x", "label_y"):
                    # points and masks are stored in the narrow word
                    assert got.dtype == _word(n)
                    got = got.astype(np.uint64)
                _assert_same_bytes(got, ref)


@pytest.mark.parametrize("n", [5, 16, 40])
def test_label_sources_read_the_narrow_points_of_narrow_pairs(n, monkeypatch):
    # pairs are stored in the narrow word and labelled in it, each screened
    # boundary exactly once per harvest, and past the screen only the
    # boundaries a lag sample reads; the labels are those of uint64 points
    top = _top_bit_labels(n)
    label_bits = JuntaHypothesis.label_bits
    seen = []

    def spy(self, bits):
        assert bits.dtype == _word(n)
        seen.append(len(bits))
        return label_bits(self, bits)

    monkeypatch.setattr(JuntaHypothesis, "label_bits", spy)
    gap = gap_for_density(n, 1 / 3)
    count = 3 * (_HARVEST_CHUNK_STEPS // gap) + 5
    harvested = seeded_harvest(top, count, gap, seed=n)
    served = RandomWalkOracle(top, n, seed=n).refresh_pairs(count, gap)
    assert sum(seen) == 2 * (count + 2)
    pairs = raw_pairs(top, count, gap, seed=n)
    assert served.walk_steps == oracle_pairs(top, n, count, gap).walk_steps
    for name in ("x_bits", "y_bits", "flipped_masks"):
        assert getattr(pairs, name).dtype == _word(n)
    for points, labels in ((pairs.x_bits, pairs.label_x), (pairs.y_bits, pairs.label_y)):
        want = label_bits(top, points.astype(np.uint64))
        assert labels.tobytes() == want.tobytes()
    assert harvested.screen.hists.tobytes() == tally_of(pairs, gap).hists.tobytes()
    assert harvested.walk_steps == pairs.walk_steps
    # a screen of the first quarter and lag samples of 6 half-blocks
    seen.clear()
    blocks = 2 * count // 3
    screen = count // 4
    seeded_harvest(top, screen, gap, n, 6, blocks)
    past = blocks + 2 - (screen + 1) // 3 - 1  # lag boundaries 3m > screen + 1
    assert sum(seen) == screen + 2 + past


def _screen_harvest_peak(n, count, gap, seed):
    f = random_table(n, np.random.default_rng(seed))
    tracemalloc.start()
    try:
        seeded_harvest(f, count, gap, seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_screen_harvest_peak_is_one_chunk_at_any_length():
    # a screen-only harvest holds one chunk's buffers whatever its length.
    # Per half-block of the B = _HARVEST_CHUNK_STEPS // gap in a chunk:
    # word-wide rows of uint8 flip counts and bool flipped sets, the int64
    # index its label is read at, its boundary, label and flipped-set words,
    # and as many words built per chunk (moves, packed flipped sets, labels);
    # per flip drawn
    # (mean B gap / 4): its int32 cell and the intp cell it is widened to,
    # held through the chunk; and per pair of the chunk, which the tally
    # keys at once, an intp key, a bool and the pair's flipped-set word,
    # plus the two 8192-element intp buffers numpy casts the keys through.
    n = 16
    gap = gap_for_density(n, 1 / 3)
    halves = _HARVEST_CHUNK_STEPS // gap
    word = np.dtype(_word(n)).itemsize
    per_half = 2 * 8 * word + 8 + 2 * (2 * word + 1)
    per_flip = 4 + 8
    one_chunk = halves * (per_half + gap / 4 * per_flip + 9 + word) + 2 * 8192 * 8
    peaks = [_screen_harvest_peak(n, count, gap, 16) for count in (300_000, 3_000_000)]
    assert max(peaks) < one_chunk
    # an array of even one byte a pair would add 2.7 MB at the longer harvest
    assert abs(peaks[1] - peaks[0]) < 1 << 16


@pytest.mark.parametrize("n", [3, 9])
def test_screens_and_lag_windows_at_chunk_edges_read_the_raw_chunks(n):
    # the screen is tallied and the lag samples are cut chunk by chunk,
    # carrying two boundaries and a selection word across each chunk edge:
    # screens and lag walks that end one pair before an edge, at it and one
    # pair after it give the bytes read off the raw chunks concatenated
    f, gap = hash_labels(n), 4 * n
    edge = _HARVEST_CHUNK_STEPS // gap  # half-blocks per chunk
    for half in (1, 3):
        window = 2 * half
        # a walk of h half-blocks holds h // half - 1 lag samples
        lag_lengths = [0] + [h // half - 1 for h in (edge - 1, edge, edge + 1, 2 * edge + 1)]
        for screen in (0, 1, edge - 2, edge - 1, edge, 2 * edge):
            for blocks in lag_lengths:
                if not screen and not blocks:
                    continue
                seed = 10 * screen + blocks + half
                harvest = seeded_harvest(f, screen, gap, seed, window, blocks)
                pairs = raw_pairs(f, len(harvest), gap, seed)
                assert harvest.walk_steps == pairs.walk_steps
                if screen:
                    want = ScreenTally(n, gap)
                    masks, label_x, label_y = pairs.flipped_masks, pairs.label_x, pairs.label_y
                    want.add(masks[:screen], label_x[:screen], label_y[:screen])
                    got = estimate_bounded_influence(harvest.screen)
                    assert len(harvest.screen) == screen
                    for g, w in zip(got, estimate_bounded_influence(want)):
                        _assert_same_bytes(g, w)
                else:
                    assert harvest.screen is None
                if blocks:
                    chain = np.concatenate((pairs.x_bits, pairs.y_bits[-2:]))
                    labels = np.concatenate((pairs.label_x, pairs.label_y[-2:]))
                    starts = slice(0, blocks * half, half)
                    ends = slice(window, window + blocks * half, half)
                    _assert_same_bytes(harvest.lags.diff, chain[starts] ^ chain[ends])
                    _assert_same_bytes(harvest.lags.prod, labels[starts] * labels[ends])
                else:
                    assert harvest.lags is None


def _flip_law_cell(pi, n, flipped, odd):
    """P[F = flipped, y xor x = odd] under the flipped-set law: per
    coordinate, independently, unflipped with probability pi, flipped an odd
    number of times with probability (1 - pi^2)/2 and a nonzero even number
    of times with probability (1 - pi)^2/2, and y xor x is the odd ones."""
    if odd & ~flipped:
        return 0.0
    size, odds = bin(flipped).count("1"), bin(odd).count("1")
    return pi ** (n - size) * ((1 - pi * pi) / 2) ** odds * ((1 - pi) ** 2 / 2) ** (size - odds)


@pytest.mark.parametrize("kernel", ["blocks", "steps"])
@pytest.mark.parametrize("gap", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_harvest_follows_the_refresh_law(n, gap, kernel):
    # the block kernel and a per-step plain walk, held to one law: each
    # pair's (F, y xor x) cell follows the flipped-set law at pi =
    # e^(-gap/(2n)), steps Poisson(gap / 4) per half-block.  The even pairs,
    # and the odd pairs, are each a chain of disjoint blocks, so each family
    # is held to the iid cell bound on its own.
    count, seed = 200_000, 100 * n + gap
    f = _top_bit_labels(n)
    if kernel == "blocks":
        pairs = raw_pairs(f, count, gap, seed)
        r, d, steps = pairs.flipped_masks, pairs.x_bits ^ pairs.y_bits, pairs.walk_steps
    else:
        want = _reference_harvest(f, n, count, gap, seed)
        r, d, steps = want["flipped_masks"], want["x_bits"] ^ want["y_bits"], want["walk_steps"]
    assert len(r) == count and r.max() < 1 << n and np.all(d & ~r == 0)
    pi = math.exp(-gap / (2 * n))
    for parity in (0, 1):
        rw, dw = r[parity::2], d[parity::2]
        windows = len(rw)
        freq = np.bincount((rw << np.uint64(n) | dw).astype(np.int64), minlength=4**n) / windows
        for cell in range(4**n):
            p = _flip_law_cell(pi, n, *divmod(cell, 1 << n))
            assert abs(freq[cell] - p) <= 5 * math.sqrt(p * (1 - p) / windows)
    half_blocks = count + 1
    assert abs(steps / half_blocks - gap / 4) <= 5 * math.sqrt(gap / 4 / half_blocks)


@given(
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_gap_for_density_is_minimal(n, p):
    gap = gap_for_density(n, p)
    assert effective_refresh_density(n, gap) >= p
    if gap > 1:
        assert effective_refresh_density(n, gap - 1) < p


def test_refresh_density_needs_a_positive_gap():
    for gap in (0, -3):
        with pytest.raises(ValueError, match=f"gap_steps={gap}"):
            effective_refresh_density(6, gap)


def test_gap_for_density_rejects_bad_density():
    with pytest.raises(ValueError):
        gap_for_density(4, 0.0)
    with pytest.raises(ValueError):
        gap_for_density(4, 1.0)


def test_label_sources_other_than_tables_are_refused():
    # a table checks its +-1 values once, when it is built; a callable, an
    # array of labels or no source at all is refused by name before any draw
    for name, source in (
        ("function", lambda bits: np.ones(bits.shape, np.int8)),
        ("ndarray", XOR2.values),
        ("NoneType", None),
    ):
        with pytest.raises(TypeError, match=f"label source {name} must be a TruthTable"):
            RandomWalkOracle(source, 6, seed=1)


# ---------------------------------------------------------------------------
# Sample-size plans


def test_concentration_plan_values():
    plan = sample_size_concentration(0.1, 0.1, 16)
    assert (plan.N, plan.m) == (82, 121401)


def test_erm_plan_values():
    plan = sample_size_erm(0.125, 0.1, 12, 9.975994243322877)
    assert (plan.N, plan.m) == (186, 1732982)
    plan = sample_size_erm(0.2, 0.1, 16, 12.583960985868103)
    assert (plan.N, plan.m) == (294, 1250281)


@given(
    st.floats(min_value=0.02, max_value=0.5),
    st.floats(min_value=0.02, max_value=0.5),
    st.integers(min_value=2, max_value=24),
)
def test_plans_grow_when_epsilon_shrinks(eps, delta, n):
    big = sample_size_concentration(eps, delta, n)
    small = sample_size_concentration(eps / 2, delta, n)
    assert small.m > big.m
    assert small.N == big.N  # N depends on (n, delta) only


def test_plan_validation():
    with pytest.raises(ValueError):
        sample_size_concentration(0.0, 0.1, 8)
    with pytest.raises(ValueError):
        sample_size_concentration(0.1, 1.0, 8)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="log_class_size="):
            sample_size_erm(0.1, 0.1, 8, bad)


# ---------------------------------------------------------------------------
# Oracle seed discipline


def test_oracle_reproduces_request_sequence():
    f = random_table(8, np.random.default_rng(1))
    a = RandomWalkOracle(f, 8, seed=99)
    b = RandomWalkOracle(f, 8, seed=99)
    wa, wb = a.walk(200), b.walk(200)
    np.testing.assert_array_equal(wa.points, wb.points)
    pa, pb = a.refresh_pairs(100, 3, 4, 30), b.refresh_pairs(100, 3, 4, 30)
    np.testing.assert_array_equal(pa.screen.hists, pb.screen.hists)
    np.testing.assert_array_equal(pa.lags.diff, pb.lags.diff)
    assert pa.walk_steps == pb.walk_steps


def test_oracle_requests_are_independent():
    f = random_table(8, np.random.default_rng(1))
    a = RandomWalkOracle(f, 8, seed=99)
    w1, w2 = a.walk(200), a.walk(200)
    assert not np.array_equal(w1.points, w2.points)


def test_oracle_counts_steps():
    f = random_table(8, np.random.default_rng(1))
    a = RandomWalkOracle(f, 8, seed=0)
    a.walk(101)
    assert a.steps_served == 100
    pairs = a.refresh_pairs(50, 4)
    assert a.steps_served == 100 + pairs.walk_steps


def test_rejected_requests_do_not_consume_a_seed():
    f = random_table(8, np.random.default_rng(1))
    bad_requests = (
        ("walk", (0,), "length=0"),
        ("walk", (-3,), "length=-3"),
        ("refresh_pairs", (0, 3), "screen_pairs=0"),
        ("refresh_pairs", (5, 0), "gap_steps=0"),
        ("refresh_pairs", (5, 33), "gap_steps=33"),
    )
    for name, args, message in bad_requests:
        oracle = RandomWalkOracle(f, 8, seed=99)
        with pytest.raises(ValueError, match=message):
            getattr(oracle, name)(*args)
        assert oracle.steps_served == 0
        fresh = RandomWalkOracle(f, 8, seed=99)
        np.testing.assert_array_equal(oracle.walk(50).points, fresh.walk(50).points)


# (n, gap, seed, window, blocks, screen) -> digest of the walk's stream: the
# chunks' boundaries, labels and flip totals, and the harvest's lag samples
# and flips charged, labelled by hash_labels(n).  Pinned when the harvest
# still drew a second stream of no-op coins, which read none of these: the
# n = 16 screen ends at the first chunk's edge, the n = 17 harvest is lag
# samples alone over three chunks, and the n = 63 one spans five.  The n = 63
# digest was re-pinned when its labels became a 20-coordinate junta of the
# hash; the harvest that still labelled uint64 points gave the same digest.
WALK_STREAM_DIGESTS = {
    (1, 1, 0, 2, 300, 200): "d6f0b205d4ff44f8",
    (5, 3, 7, 4, 1_000, 3_000): "ae80f272e5321538",
    (16, 7, 16, 6, 5_000, _HARVEST_CHUNK_STEPS // 7): "1e00126d5c855cfc",
    (17, 9, 17, 24, 2_000, 0): "3d69b30b8ecc635a",
    (63, 40, 63, 8, 3_000, 2_500): "e110c0e466b719af",
}


@pytest.mark.parametrize(
    "cell", list(WALK_STREAM_DIGESTS), ids=[f"n{c[0]}-gap{c[1]}" for c in WALK_STREAM_DIGESTS]
)
def test_walk_stream_is_pinned(cell):
    n, gap, seed, window, blocks, screen = cell
    digest = hashlib.sha256()
    f = hash_labels(n)
    count = _harvest_size(n, screen, gap, window, blocks)
    for done, bounds, labels, _, steps in harvest_chunks(
        f, gap, seed, count, screen, window // 2
    ):
        first = 1 if done == 0 else 2  # the boundaries new in this chunk
        digest.update(bounds[first:].tobytes())
        digest.update(labels[first:].tobytes())
        digest.update(steps.to_bytes(8, "little"))
    harvest = seeded_harvest(f, screen, gap, seed, window, blocks)
    digest.update(harvest.lags.diff.tobytes())
    digest.update(harvest.lags.prod.tobytes())
    digest.update(harvest.walk_steps.to_bytes(8, "little"))
    assert digest.hexdigest()[:16] == WALK_STREAM_DIGESTS[cell]


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 63])
def test_lag_samples_match_the_walk_they_skip_bit_for_bit(n):
    # the harvest skips every step between its half-block boundaries; the
    # reference reader takes each sample's two boundaries from x_bits and
    # y_bits one at a time, and the lag samples match it bit for bit
    f, gap = hash_labels(n), gap_for_density(n, 1 / 3)
    for window in sorted({2, 4, 6, lag_window(default_lag(n, 0.05), gap)}):
        for blocks in (1, 2, 7, 20_000):
            oracle = RandomWalkOracle(f, n, 100 * n + window)
            harvest = oracle.refresh_pairs(0, gap, window, blocks)
            got = harvest.lags
            pairs = oracle_pairs(f, 100 * n + window, lag_pairs(window, blocks), gap)
            want = lag_samples_from_pairs(pairs, window, blocks)
            assert (got.n, len(got)) == (n, blocks)
            _assert_same_bytes(got.diff, want.diff)
            assert got.prod.dtype == np.int8 and np.array_equal(got.prod, want.prod)
            assert not got.diff.flags.writeable and not got.prod.flags.writeable
            assert oracle.steps_served == harvest.walk_steps == pairs.walk_steps


def test_lag_walk_steps_count_the_half_windows():
    # w = 2 ceil(2 lag / gap) half-blocks hold a mean of w gap / 4 >= lag
    # flips, and blocks samples read (blocks + 1) w / 2 half-blocks, which
    # lag_pairs(w, blocks) pairs span
    for gap in range(1, 12):
        for lag in range(1, 40):
            window = lag_window(lag, gap)
            assert window % 2 == 0 and lag <= window * gap / 4 < lag + gap / 2
        for blocks in range(1, 40):
            assert lag_pairs(2 * gap, blocks) + 1 == (blocks + 1) * gap
    # the README's n = 20 sieve: lag 51 at gap 9, 20 000 samples
    assert lag_window(51, 9) == 24 and lag_pairs(24, 20_000) == 240_011


def test_lag_samples_charge_exactly_their_half_windows():
    # the lag samples' half-blocks are the harvest's, which charges its
    # flips: gap/4 per half-block on average
    f = random_table(8, np.random.default_rng(2))
    oracle = RandomWalkOracle(f, 8, seed=5)
    served = 0
    for lag, gap, blocks in ((1, 4, 1), (4, 4, 2), (6, 3, 333), (18, 6, 5_000)):
        window = lag_window(lag, gap)
        pairs = oracle.refresh_pairs(0, gap, window, blocks)
        assert len(pairs) == lag_pairs(window, blocks) and len(pairs.lags) == blocks
        served += pairs.walk_steps
        assert oracle.steps_served == served
        mean = (blocks + 1) * window / 2 * gap / 4
        assert abs(pairs.walk_steps - mean) <= 5 * math.sqrt(mean)


@pytest.mark.parametrize("lag", [1, 4, 5, 6])
def test_lag_sample_ends_where_the_sample_two_later_starts(lag):
    # sample b spans half-windows b and b + 1 of w/2 half-blocks each, so its
    # end is half-window boundary b + 2, which is sample b + 2's start, and
    # adjacent samples share a half-window
    n, blocks, gap = 9, 50, 3
    window, f = lag_window(lag, gap), hash_labels(n)
    drawn = RandomWalkOracle(f, n, seed=lag).refresh_pairs(0, gap, window, blocks).lags
    pairs = oracle_pairs(f, lag, lag_pairs(window, blocks), gap)
    half = window // 2
    starts = np.array([boundary(pairs, b * half)[0] for b in range(blocks + 2)], np.uint64)
    labels = np.array([boundary(pairs, b * half)[1] for b in range(blocks + 2)])
    np.testing.assert_array_equal(starts[:-2] ^ drawn.diff, starts[2:])
    np.testing.assert_array_equal(drawn.prod, labels[:-2] * labels[2:])
