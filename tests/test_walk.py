"""Labeled walks, the updating-walk embedding, refresh pairs, sample sizes."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from junta_walk.fourier import EstimatorParams, default_lag
from junta_walk.functions import parity_table, random_table
from junta_walk.hypercube import IndexSet, JuntaHypothesis
from junta_walk.walk import (
    _HARVEST_CHUNK_STEPS,
    CELL_MAX_N,
    RandomWalkOracle,
    WalkConfig,
    _walk_arrays,
    effective_refresh_density,
    gap_for_density,
    generate_walk,
    harvest_refresh_pairs,
    labels_for,
    practical_plan,
    refresh_steps,
    sample_size_concentration,
    sample_size_erm,
    simulate_updating,
    updating_acceptance_trials,
    updating_walk_endpoints,
)
from lag_reference import lag_samples_from_walk

XOR2 = parity_table(6, [1, 2])


# ---------------------------------------------------------------------------
# Walk generation


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(n=0, length=5, seed=1)
    with pytest.raises(ValueError):
        WalkConfig(n=4, length=0, seed=1)


def test_walk_layer_enforces_the_packed_cap():
    def f(bits):
        return np.ones(bits.shape, dtype=np.int8)

    for n in (0, 64):
        with pytest.raises(ValueError, match=r"outside \[1, 63\]"):
            WalkConfig(n=n, length=5, seed=1)
        with pytest.raises(ValueError, match=r"outside \[1, 63\]"):
            RandomWalkOracle(f, n, seed=1)
        with pytest.raises(ValueError, match=r"outside \[1, 63\]"):
            harvest_refresh_pairs(f, n, pair_count=5, gap_steps=3, seed=1)
    assert len(generate_walk(f, WalkConfig(n=63, length=5, seed=1))) == 5
    assert len(RandomWalkOracle(f, 63, seed=1).refresh_pairs(5, gap_steps=3)) == 5


@pytest.mark.parametrize("delta", [-4, -1, 1, 4])
@pytest.mark.parametrize("entry", ["oracle", "harvest", "walk"])
def test_label_source_of_another_dimension_is_refused(entry, delta):
    n = 8
    table = random_table(n + delta, np.random.default_rng(n + delta))
    hypothesis = JuntaHypothesis(IndexSet.of(n + delta, [1, 2]), [1, -1, -1, 1])
    for f in (table, hypothesis):
        with pytest.raises(ValueError, match=f"n={n + delta}.*n={n}"):
            if entry == "oracle":
                RandomWalkOracle(f, n, seed=1)
            elif entry == "harvest":
                harvest_refresh_pairs(f, n, pair_count=5, gap_steps=3, seed=1)
            else:
                generate_walk(f, WalkConfig(n=n, length=5, seed=1))


def test_length_counts_points_not_steps():
    w = generate_walk(XOR2, WalkConfig(n=6, length=1, seed=3))
    assert len(w) == 1 and w.steps == 0
    assert w.flipped[0] == 0
    w = generate_walk(XOR2, WalkConfig(n=6, length=10, seed=3))
    assert len(w) == 10 and w.steps == 9


def test_plain_walk_changes_exactly_the_recorded_coordinate():
    w = generate_walk(XOR2, WalkConfig(n=6, length=500, seed=11))
    diffs = w.points[1:] ^ w.points[:-1]
    expected = np.uint64(1) << (w.flipped[1:].astype(np.uint64) - np.uint64(1))
    np.testing.assert_array_equal(diffs, expected)


def test_lazy_walk_moves_only_on_the_recorded_coordinate():
    w = generate_walk(XOR2, WalkConfig(n=6, length=2000, seed=11, lazy=True))
    diffs = w.points[1:] ^ w.points[:-1]
    allowed = np.uint64(1) << (w.flipped[1:].astype(np.uint64) - np.uint64(1))
    assert np.all((diffs == 0) | (diffs == allowed))
    holds = float(np.mean(diffs == 0))
    assert abs(holds - 0.5) < 5 * 0.5 / math.sqrt(len(diffs))


def test_walk_and_refresh_pairs_at_n63_with_callable_labels():
    # the packed-word cap: bit 62 is coordinate 63, and labels come from a callable
    n = 63
    top = np.uint64(62)

    def f(bits):
        return (1 - 2 * ((bits >> top) & np.uint64(1)).astype(np.int8)).astype(np.int8)

    oracle = RandomWalkOracle(f, n, seed=63)
    for lazy in (False, True):
        w = oracle.walk(20_000, lazy=lazy)
        diffs = w.points[1:] ^ w.points[:-1]
        allowed = np.uint64(1) << (w.flipped[1:].astype(np.uint64) - np.uint64(1))
        if lazy:
            assert np.all((diffs == 0) | (diffs == allowed))
        else:
            np.testing.assert_array_equal(diffs, allowed)
        assert w.flipped[1:].min() == 1 and w.flipped[1:].max() == n
        np.testing.assert_array_equal(w.labels, f(w.points))
        assert np.any(w.labels == 1) and np.any(w.labels == -1)
    pairs = oracle.refresh_pairs(5_000, gap_steps=40)
    assert np.all((pairs.x_bits ^ pairs.y_bits) & ~pairs.refreshed_masks == 0)
    assert np.all(pairs.y_bits[:-1] == pairs.x_bits[1:])  # one walk, cut into blocks
    np.testing.assert_array_equal(pairs.label_x, f(pairs.x_bits))
    np.testing.assert_array_equal(pairs.label_y, f(pairs.y_bits))
    assert np.any(pairs.refreshed_masks >> top)
    assert oracle.steps_served == 2 * 19_999 + pairs.walk_steps


def test_n1_plain_walk_alternates():
    f = parity_table(1, [1])
    w = generate_walk(f, WalkConfig(n=1, length=64, seed=9))
    assert np.all(w.points[1:] != w.points[:-1])
    assert set(np.unique(w.points).tolist()) <= {0, 1}


def test_walk_labels_match_function():
    f = random_table(7, np.random.default_rng(2))
    w = generate_walk(f, WalkConfig(n=7, length=300, seed=5))
    np.testing.assert_array_equal(w.labels, f.values[w.points.astype(np.int64)])


def test_same_seed_reproduces_walk():
    a = generate_walk(XOR2, WalkConfig(n=6, length=100, seed=21))
    b = generate_walk(XOR2, WalkConfig(n=6, length=100, seed=21))
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.flipped, b.flipped)
    c = generate_walk(XOR2, WalkConfig(n=6, length=100, seed=22))
    assert not np.array_equal(a.points, c.points)


def test_flip_coordinate_frequencies_uniform():
    f = parity_table(8, [1])
    w = generate_walk(f, WalkConfig(n=8, length=100_001, seed=1))
    counts = np.bincount(w.flipped[1:], minlength=9)[1:]
    expect = 100_000 / 8
    sigma = math.sqrt(100_000 * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_start_points_uniform():
    starts = [
        int(generate_walk(parity_table(2, [1]), WalkConfig(n=2, length=1, seed=s)).points[0])
        for s in range(2000)
    ]
    _, pvalue = scipy.stats.chisquare(np.bincount(starts, minlength=4))
    assert pvalue > 1e-4


# ---------------------------------------------------------------------------
# Updating-walk embedding


def test_simulate_updating_replays_walk_flips_in_order():
    w = generate_walk(XOR2, WalkConfig(n=6, length=40, seed=8))
    sim = simulate_updating(w, target_ones=12, cutoff=96, seed=17)
    if sim.completed:
        taken = [coord for coord, from_walk in sim.schedule if from_walk]
        np.testing.assert_array_equal(taken, w.flipped[1:13])
        assert sum(1 for _, fw in sim.schedule if fw) == 12


def test_simulate_updating_validation():
    w = generate_walk(XOR2, WalkConfig(n=6, length=5, seed=8))
    with pytest.raises(ValueError):
        simulate_updating(w, target_ones=10, cutoff=40, seed=0)  # walk too short
    with pytest.raises(ValueError):
        simulate_updating(w, target_ones=4, cutoff=3, seed=0)  # cutoff below target


def test_simulate_updating_refreshed_mask_covers_schedule():
    w = generate_walk(XOR2, WalkConfig(n=6, length=60, seed=4))
    sim = simulate_updating(w, target_ones=20, cutoff=160, seed=5)
    mask = 0
    for coord, _ in sim.schedule:
        mask |= 1 << (coord - 1)
    assert sim.refreshed_mask == mask
    assert sim.covered == (mask == 0b111111)


def test_refresh_steps_values():
    assert refresh_steps(2, 0.1) == 8
    assert refresh_steps(3, 0.1) == 13
    assert refresh_steps(4, 0.1) == 18
    assert refresh_steps(8, 0.1) == 41
    with pytest.raises(ValueError):
        refresh_steps(4, 0.0)


def test_acceptance_rate_with_generous_cutoff():
    # n=4, ell = refresh_steps(4, 0.1) = 18, cutoff 8*ell: acceptance well above 0.9
    accepted, _ = updating_acceptance_trials(4, 18, 144, trials=4000, seed=33)
    assert accepted / 4000 > 0.93


def test_embedded_endpoint_parity_is_locked_to_step_count():
    # a plain walk changes parity every step, so x0 xor xl always has
    # popcount parity ell mod 2 -- the embedding cannot hide that
    ell = 13
    _, cells = updating_acceptance_trials(
        3, ell, 4 * ell, trials=4000, seed=12, collect_pairs=True
    )
    diff = (cells >> 3) ^ (cells & 0b111)
    parities = np.unique(np.bitwise_count(diff.astype(np.uint64)) & 1)
    assert parities.tolist() == [ell % 2]


def test_updating_walk_endpoints_hit_both_parities():
    covered, cells = updating_walk_endpoints(3, 13, trials=20_000, seed=21)
    assert covered > 18_000
    diff = (cells >> 3) ^ (cells & 0b111)
    parities = np.unique(np.bitwise_count(diff.astype(np.uint64)) & 1)
    assert parities.tolist() == [0, 1]
    assert cells.min() >= 0 and cells.max() < 64


@pytest.mark.parametrize("n", [CELL_MAX_N - 1, CELL_MAX_N])
def test_endpoint_cells_decode_up_to_the_cap(n):
    for cells in (
        updating_walk_endpoints(n, 4 * n, trials=50, seed=1)[1],
        updating_acceptance_trials(n, 4 * n, 16 * n, 50, seed=1, collect_pairs=True)[1],
    ):
        assert cells.size > 0 and cells.min() >= 0
        x0, xl = cells >> n, cells & ((1 << n) - 1)
        assert x0.max() < 1 << n and xl.max() < 1 << n


def test_endpoint_cells_refuse_dimensions_past_the_cap():
    n = CELL_MAX_N + 1
    with pytest.raises(ValueError, match="need n <= 31"):
        updating_walk_endpoints(n, 40, trials=10, seed=1)
    with pytest.raises(ValueError, match="need n <= 31"):
        updating_acceptance_trials(n, 40, 160, 10, seed=1, collect_pairs=True)
    # the count alone packs no cell, so any packed dimension works
    accepted, cells = updating_acceptance_trials(40, 400, 1600, 10, seed=1)
    assert 0 <= accepted <= 10 and cells is None


# ---------------------------------------------------------------------------
# Refresh-pair harvesting


def test_harvest_validation():
    with pytest.raises(ValueError):
        harvest_refresh_pairs(XOR2, 6, pair_count=10, gap_steps=0, seed=1)
    with pytest.raises(ValueError):
        harvest_refresh_pairs(XOR2, 6, pair_count=0, gap_steps=3, seed=1)


def test_harvest_pairs_chain_into_one_walk():
    pairs = harvest_refresh_pairs(XOR2, 6, pair_count=5000, gap_steps=3, seed=2)
    assert len(pairs) == 5000
    np.testing.assert_array_equal(pairs.y_bits[:-1], pairs.x_bits[1:])
    assert pairs.walk_steps > 0


def test_harvest_moves_only_refreshed_coordinates():
    pairs = harvest_refresh_pairs(XOR2, 6, pair_count=5000, gap_steps=4, seed=3)
    diff = pairs.x_bits ^ pairs.y_bits
    assert np.all(diff & ~pairs.refreshed_masks == 0)


def test_harvest_empty_blocks_keep_the_point():
    pairs = harvest_refresh_pairs(XOR2, 6, pair_count=20_000, gap_steps=2, seed=4)
    empty = pairs.refreshed_masks == 0
    # P[empty block] = e^-2, so about 2700 of 20000
    assert 2000 < int(empty.sum()) < 3500
    np.testing.assert_array_equal(pairs.x_bits[empty], pairs.y_bits[empty])


def test_harvest_determinism():
    a = harvest_refresh_pairs(XOR2, 6, pair_count=100, gap_steps=3, seed=5)
    b = harvest_refresh_pairs(XOR2, 6, pair_count=100, gap_steps=3, seed=5)
    np.testing.assert_array_equal(a.x_bits, b.x_bits)
    np.testing.assert_array_equal(a.refreshed_masks, b.refreshed_masks)


def test_unrefreshed_parity_product_is_exactly_one():
    # f = chi_{1}: if coordinate 1 is not refreshed, f(x) f(y) = +1 for every
    # single pair, not just on average
    f = parity_table(4, [1])
    pairs = harvest_refresh_pairs(f, 4, pair_count=30_000, gap_steps=3, seed=6)
    prod = pairs.label_x.astype(np.int32) * pairs.label_y
    hit = (pairs.refreshed_masks & np.uint64(1)) != 0
    assert np.all(prod[~hit] == 1)
    m = int(hit.sum())
    assert abs(float(prod[hit].mean())) < 5 / math.sqrt(m)


def test_refresh_membership_matches_density_formula():
    gap = 4
    pairs = harvest_refresh_pairs(XOR2, 6, pair_count=40_000, gap_steps=gap, seed=7)
    p = effective_refresh_density(6, gap)
    for i in range(1, 7):
        freq = float(np.mean((pairs.refreshed_masks >> np.uint64(i - 1)) & np.uint64(1)))
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / 40_000)


def test_refresh_memberships_are_independent_across_coordinates():
    # joint frequency of {1 refreshed, 2 refreshed} factorizes
    pairs = harvest_refresh_pairs(XOR2, 6, pair_count=60_000, gap_steps=4, seed=8)
    a = ((pairs.refreshed_masks >> np.uint64(0)) & np.uint64(1)).astype(float)
    b = ((pairs.refreshed_masks >> np.uint64(1)) & np.uint64(1)).astype(float)
    joint = float(np.mean(a * b))
    assert abs(joint - a.mean() * b.mean()) < 5 / math.sqrt(60_000)


def _reference_draw_steps(rng, n, shape, lazy):
    # the uint64 step kernel the narrow-word one must reproduce bit for bit
    coords = rng.integers(1, n + 1, size=shape, dtype=np.int16)
    bits = np.uint64(1) << (coords.astype(np.uint64) - np.uint64(1))
    if not lazy:
        return coords, bits, bits
    act = rng.integers(0, 2, size=shape, dtype=np.uint8).astype(bool)
    return coords, bits, np.where(act, bits, np.uint64(0))


def _reference_walk_arrays(rng, n, count, lazy):
    start = int(rng.integers(0, 1 << n, dtype=np.uint64))
    points = np.empty(count, dtype=np.uint64)
    points[0] = start
    flipped = np.zeros(count, dtype=np.int16)
    if count > 1:
        coords, _, changes = _reference_draw_steps(rng, n, count - 1, lazy)
        points[1:] = np.uint64(start) ^ np.bitwise_xor.accumulate(changes)
        flipped[1:] = coords
    return points, flipped


def _reference_harvest(f, n, pair_count, gap_steps, seed):
    # padded reduceats per chunk, and every block endpoint labelled twice
    rng = np.random.default_rng(seed)
    out_x, out_y, out_r = [], [], []
    state = np.uint64(rng.integers(0, 1 << n, dtype=np.uint64))
    done = steps_used = 0
    while done < pair_count:
        blocks = min(max(1, _HARVEST_CHUNK_STEPS // gap_steps), pair_count - done)
        lengths = rng.poisson(gap_steps, size=blocks)
        total = int(lengths.sum())
        steps_used += total
        _, bit, act_bit = _reference_draw_steps(rng, n, total, lazy=True)
        starts = np.zeros(blocks, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        block_xor = np.bitwise_xor.reduceat(np.append(act_bit, np.uint64(0)), starts)
        block_sel = np.bitwise_or.reduceat(np.append(bit, np.uint64(0)), starts)
        block_xor[lengths == 0] = 0
        block_sel[lengths == 0] = 0
        bounds = np.empty(blocks + 1, dtype=np.uint64)
        bounds[0] = state
        bounds[1:] = state ^ np.bitwise_xor.accumulate(block_xor)
        state = bounds[-1]
        out_x.append(bounds[:-1])
        out_y.append(bounds[1:])
        out_r.append(block_sel)
        done += blocks
    x_bits, y_bits = np.concatenate(out_x), np.concatenate(out_y)
    return {
        "x_bits": x_bits,
        "y_bits": y_bits,
        "label_x": labels_for(f, x_bits),
        "label_y": labels_for(f, y_bits),
        "refreshed_masks": np.concatenate(out_r),
        "walk_steps": steps_used,
    }


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 63])
def test_step_kernel_matches_uint64_reference_bit_for_bit(n):
    top = np.uint64(n - 1)

    def f(bits):
        return (1 - 2 * ((bits >> top) & np.uint64(1)).astype(np.int8)).astype(np.int8)

    for gap in sorted({1, gap_for_density(n, 0.5), 3 * n}):
        # gap 1 leaves empty blocks at the head and the tail of a chunk
        for count in (1, 7, _HARVEST_CHUNK_STEPS // gap + 3):
            seed = 1000 * n + gap + count
            pairs = harvest_refresh_pairs(f, n, count, gap, seed)
            want = _reference_harvest(f, n, count, gap, seed)
            assert pairs.walk_steps == want.pop("walk_steps")
            for name, ref in want.items():
                got = getattr(pairs, name)
                _assert_same_bytes(got, ref)
                assert not got.flags.writeable
    for lazy in (False, True):
        for count in (1, 2, 5_000):
            got = _walk_arrays(np.random.default_rng(n), n, count, lazy)
            want = _reference_walk_arrays(np.random.default_rng(n), n, count, lazy)
            for g, w in zip(got, want):
                _assert_same_bytes(g, w)


@given(
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_gap_for_density_is_minimal(n, p):
    gap = gap_for_density(n, p)
    assert effective_refresh_density(n, gap) >= p
    if gap > 1:
        assert effective_refresh_density(n, gap - 1) < p


def test_gap_for_density_rejects_bad_density():
    with pytest.raises(ValueError):
        gap_for_density(4, 0.0)
    with pytest.raises(ValueError):
        gap_for_density(4, 1.0)


def test_labels_for_accepts_callables_and_validates():
    bits = np.arange(8, dtype=np.uint64)
    out = labels_for(lambda b: np.where(b & 1, -1, 1), bits)
    np.testing.assert_array_equal(out, [1, -1] * 4)
    with pytest.raises(ValueError):
        labels_for(lambda b: np.zeros_like(b, dtype=np.int8), bits)
    bad_sources = (
        lambda b: np.full(b.shape, 1.5),
        lambda b: np.full(b.shape, 257),
        lambda b: np.full(b.shape, True),
        lambda b: np.where(b & 1, -1.2, 1.9),
    )
    for source in bad_sources:  # none may be truncated to +-1 by the int8 cast
        with pytest.raises(ValueError):
            labels_for(source, bits)
    assert labels_for(lambda b: np.where(b & 1, -1.0, 1.0), bits).dtype == np.int8


# ---------------------------------------------------------------------------
# Sample-size plans


def test_concentration_plan_values():
    plan = sample_size_concentration(0.1, 0.1, 16)
    assert (plan.N, plan.m) == (82, 121401)
    assert plan.mode == "certified"


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
    with pytest.raises(ValueError):
        sample_size_erm(0.1, 0.1, 8, -1.0)


def test_practical_plan_warns_when_short(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="junta_walk.walk"):
        plan = practical_plan(1000, 0.05, 0.05, 14)
    assert plan.m == 1000 and plan.mode == "practical"
    assert any("heuristic" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# Oracle seed discipline


def test_oracle_reproduces_request_sequence():
    f = random_table(8, np.random.default_rng(1))
    a = RandomWalkOracle(f, 8, seed=99)
    b = RandomWalkOracle(f, 8, seed=99)
    wa, wb = a.walk(200), b.walk(200)
    np.testing.assert_array_equal(wa.points, wb.points)
    pa, pb = a.refresh_pairs(100, 3), b.refresh_pairs(100, 3)
    np.testing.assert_array_equal(pa.x_bits, pb.x_bits)


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
        ("refresh_pairs", (0, 3), "pair_count=0"),
        ("refresh_pairs", (5, 0), "gap_steps=0"),
        ("lag_samples", (0, 5), "lag=0"),
        ("lag_samples", (2, 0), "blocks=0"),
    )
    for name, args, message in bad_requests:
        oracle = RandomWalkOracle(f, 8, seed=99)
        with pytest.raises(ValueError, match=message):
            getattr(oracle, name)(*args)
        assert oracle.steps_served == 0
        fresh = RandomWalkOracle(f, 8, seed=99)
        np.testing.assert_array_equal(oracle.walk(50).points, fresh.walk(50).points)


def _hash_label(bits):
    # a deterministic +-1 label that depends on every coordinate
    top = (bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(63)
    return (1 - 2 * top).astype(np.int8)


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 63])
def test_lag_samples_match_the_walk_they_skip_bit_for_bit(n):
    for lag in sorted({1, 2, default_lag(n, 0.05)}):
        for blocks in (1, 7, 20_000):
            seed = 100 * n + lag
            drawn_from = RandomWalkOracle(_hash_label, n, seed)
            walked = RandomWalkOracle(_hash_label, n, seed)
            got = drawn_from.lag_samples(lag, blocks)
            params = EstimatorParams(lag=lag, pair_count=blocks)
            want = lag_samples_from_walk(walked.walk(params.required_walk_length), params)
            assert (got.n, len(got)) == (n, blocks)
            _assert_same_bytes(got.diff_t, want.diff_t)
            _assert_same_bytes(got.diff_t1, want.diff_t1)
            for g, w in ((got.prod_t, want.prod_t), (got.prod_t1, want.prod_t1)):
                assert g.dtype == np.int8 and np.array_equal(g, w)
            assert all(
                not a.flags.writeable
                for a in (got.diff_t, got.diff_t1, got.prod_t, got.prod_t1)
            )
            assert drawn_from.steps_served == walked.steps_served == blocks * (lag + 1)
            _assert_same_bytes(drawn_from.walk(9).points, walked.walk(9).points)
