"""Exact transforms, spectra, and the walk-based squared-coefficient estimator."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_walk import fourier
from junta_walk.fourier import (
    BULK_WHT_MAX_N,
    Spectrum,
    blocks_for,
    default_lag,
    estimate_bounded_influence,
    estimate_sq_coeff,
    estimate_sq_coeff_bulk,
    estimator_bias_bound,
    expected_bounded_influence,
    expected_sq_estimate,
    subcube_projection_exact,
    subcube_sums,
    wht,
)
from junta_walk.functions import and_table, parity_table, random_table
from junta_walk import hypercube
from junta_walk.hypercube import IndexSet, TruthTable, restriction_indices
from junta_walk.walk import (
    _HARVEST_CHUNK_STEPS,
    RandomWalkOracle,
    ScreenTally,
    _word,
    gap_for_density,
    harvest_refresh_pairs,
    lag_pairs,
    lag_window,
)
from lag_reference import (
    RawPairs,
    harvested_lag_samples,
    lag_samples_from_pairs,
    oracle_pairs,
    raw_pairs,
    tally_of,
)


def _sign_tables_over(n):
    return st.lists(st.sampled_from([-1, 1]), min_size=1 << n, max_size=1 << n).map(
        lambda vals: TruthTable(n, vals)
    )


sign_tables = st.integers(min_value=1, max_value=6).flatmap(_sign_tables_over)
sign_table_pairs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(_sign_tables_over(n), _sign_tables_over(n))
)


# ---------------------------------------------------------------------------
# Transforms


def test_wht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        wht(np.ones(3))


def test_wht_on_table_returns_spectrum():
    # a table's spectrum is the transform of its values, scaled by 2^-n
    f = parity_table(5, [2, 4])
    assert wht(f.values).dtype == np.int64
    spec = Spectrum.from_table(f)
    np.testing.assert_array_equal(spec.coeffs, wht(f.values) / 32)
    expected = np.zeros(32)
    expected[IndexSet.of(5, [2, 4]).mask] = 1.0
    np.testing.assert_allclose(spec.coeffs, expected, atol=1e-12)


def _concatenating_wht(values: np.ndarray) -> np.ndarray:
    """Reference butterfly along the last axis: a fresh (a + b, a - b)
    concatenation per level."""
    v = np.array(values)
    size = v.shape[-1]
    h = 1
    while h < size:
        v = v.reshape(-1, 2 * h)
        v = np.concatenate([v[:, :h] + v[:, h:], v[:, :h] - v[:, h:]], axis=1)
        h *= 2
    return v.reshape(np.shape(values))


def test_wht_integer_input_matches_float_butterfly():
    # integer input matches the reference butterfly; float input is refused
    rng = np.random.default_rng(0)
    v = rng.integers(-3, 4, size=64)
    out = wht(v)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, _concatenating_wht(v))
    np.testing.assert_array_equal(wht(v.astype(np.int8)), out)
    assert wht(np.ones(4, dtype=bool)).dtype == np.int64
    for floats in (v.astype(float), v.astype(np.float32), np.ones(1)):
        with pytest.raises(TypeError, match=str(floats.dtype)):
            wht(floats)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_wht_matches_concatenating_reference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    ints = rng.integers(-(1 << 20), 1 << 20, size=1 << n)
    kept = ints.copy()
    assert wht(ints).tobytes() == _concatenating_wht(ints).tobytes()
    np.testing.assert_array_equal(ints, kept)  # the input is not overwritten
    if n:
        f = random_table(n, rng)
        float_coeffs = _concatenating_wht(f.values.astype(np.float64)) / (1 << n)
        assert Spectrum.from_table(f).coeffs.tobytes() == float_coeffs.tobytes()


@pytest.mark.parametrize("n", [1, 5, 12, 20])
def test_spectrum_from_table_is_the_exact_transform_exactly_scaled(n):
    f = random_table(n, np.random.default_rng(100 + n))
    exact = wht(f.values) / (1 << n)  # int64 transform, correctly rounded quotient
    assert Spectrum.from_table(f).coeffs.tobytes() == exact.tobytes()


def test_spectrum_copies_the_callers_array():
    coeffs = np.array([0.5, 0.5, 0.5, -0.5])
    spec = Spectrum(2, coeffs)
    coeffs[0] = 7.0
    assert spec.coeffs[0] == 0.5 and not spec.coeffs.flags.writeable
    assert coeffs.flags.writeable  # the caller's array stays theirs


@pytest.mark.parametrize("n", [1, 4, 10])
def test_wht_narrow_integer_path_is_exact_on_both_sides_of_the_bound(n, monkeypatch):
    # every partial sum is bounded by size * max|v|: float32 runs below 2^24,
    # float64 below 2^53, and a bound of 2^53 or more is refused
    gemm, words = fourier._gemm_wht, []

    def spy(v):
        words.append(v.dtype)
        return gemm(v)

    monkeypatch.setattr(fourier, "_gemm_wht", spy)
    size, rng = 1 << n, np.random.default_rng(n)
    f32_top, f64_top = (1 << 24) // size, (1 << 53) // size  # size * top == bound
    for peak, word in (
        (f32_top - 1, np.float32),
        (f32_top, np.float64),
        (f64_top - 1, np.float64),
        (f64_top, None),
    ):
        for v in (
            np.full(size, peak),
            np.full(size, -peak),
            rng.integers(-peak, peak + 1, size=size),
            np.where(rng.integers(0, 2, size=size) == 1, peak, -peak),
        ):
            v[0] = peak if v[0] >= 0 else -peak  # the bound is met exactly
            words.clear()
            if word is None:
                with pytest.raises(ValueError, match=f"{size * peak} reaches 2\\^53"):
                    wht(v)
                assert words == []
                continue
            out = wht(v)
            assert words == [word]
            assert out.dtype == np.int64
            assert out.tobytes() == _concatenating_wht(v.astype(np.int64)).tobytes()
    assert wht(np.full(size, f32_top))[0] == 1 << 24  # past float32's exact range
    # subcube_sums transforms (S, 2^k) coefficient blocks the same way
    k, table = min(n, 3), rng.integers(-f32_top + 1, f32_top, size=size)
    supports = list(combinations(range(n), k))
    words.clear()
    got = list(subcube_sums(wht(table).__getitem__, supports, k))
    coeffs = _concatenating_wht(table.astype(np.int64))
    block_word = np.float32 if (max(abs(coeffs)) << k) < 1 << 24 else np.float64
    assert words == [np.float32, block_word]
    monkeypatch.setattr(fourier, "_exact_wht", lambda v: _concatenating_wht(v.astype(np.int64)))
    for (pos, sums), (ref_pos, ref_sums) in zip(
        got, subcube_sums(coeffs.__getitem__, supports, k), strict=True
    ):
        assert pos.tobytes() == ref_pos.tobytes()
        assert sums.tobytes() == ref_sums.tobytes()


def test_and2_coefficients():
    spec = Spectrum.from_table(and_table(2, [1, 2]))
    np.testing.assert_allclose(spec.coeffs, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_and3_coefficients():
    spec = Spectrum.from_table(and_table(3, [1, 2, 3]))
    np.testing.assert_allclose(
        spec.coeffs, [0.75, 0.25, 0.25, -0.25, 0.25, -0.25, -0.25, 0.25], atol=1e-12
    )


@given(sign_tables)
def test_parseval(f):
    coeffs = Spectrum.from_table(f).coeffs
    assert abs(np.dot(coeffs, coeffs) - 1.0) < 1e-12


@given(sign_tables)
def test_spectrum_table_round_trip(f):
    # the spectrum is the exact integer transform scaled by 2^-n, and
    # transforming those integers again gives the table times 2^n
    coeffs = wht(f.values)
    assert Spectrum.from_table(f).coeffs.tobytes() == (coeffs / (1 << f.n)).tobytes()
    g = TruthTable(f.n, (wht(coeffs) >> f.n).astype(np.int8))
    np.testing.assert_array_equal(g.values, f.values)


def test_wht_inverts_itself_up_to_scale():
    f = random_table(6, np.random.default_rng(4))
    np.testing.assert_array_equal(wht(wht(f.values)), f.values.astype(np.int64) << 6)
    v = np.random.default_rng(5).integers(-1000, 1000, size=1 << 10)
    np.testing.assert_array_equal(wht(wht(v)), v << 10)


# ---------------------------------------------------------------------------
# Inner products and subcube projections


@given(sign_table_pairs)
def test_inner_product_parseval_form(fg):
    # <f, g> = 2^-n sum_x f(x) g(x) = sum_S fhat(S) ghat(S)
    f, g = fg
    direct = np.dot(f.values.astype(np.int64), g.values) / (1 << f.n)
    via_spectra = np.dot(Spectrum.from_table(f).coeffs, Spectrum.from_table(g).coeffs)
    assert direct == pytest.approx(via_spectra, abs=1e-10)


def test_subcube_projection_exact_brute_force():
    # for every refresh set R, resampling exactly R's coordinates leaves
    # E[f(x) f(y)] = sum of squared coefficients disjoint from R
    n = 4
    f = random_table(n, np.random.default_rng(12))
    spec = Spectrum.from_table(f)
    for r_mask in range(1 << n):
        R = IndexSet(n, r_mask)
        acc = 0.0
        count = 0
        for x in range(1 << n):
            for z in range(1 << n):
                y = (x & ~r_mask) | (z & r_mask)
                acc += int(f.values[x]) * int(f.values[y])
                count += 1
        assert acc / count == pytest.approx(subcube_projection_exact(spec, R), abs=1e-12)


def test_subcube_averages_on_and():
    f = and_table(2, [1, 2])
    _, sums = next(subcube_sums(wht(f.values).__getitem__, [[0]], 1))  # support {1}
    avg = sums[0] / 2
    # coordinate 1 = +1: f is constant +1; coordinate 1 = -1: mean of {+1, -1}
    np.testing.assert_allclose(avg, [1.0, 0.0])


@pytest.mark.parametrize("chunk_cells", [1, 16, 1 << 20])
def test_subcube_sums_match_per_support_bincount(monkeypatch, chunk_cells):
    monkeypatch.setattr(fourier, "_SUBCUBE_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(9)
    p = 7
    tables = [rng.integers(0, 50, size=1 << p), random_table(p, rng).values]
    cells = np.arange(1 << p, dtype=np.uint64)
    for table, k in product(tables, range(p + 1)):
        supports = list(combinations(range(p), k))
        got_positions, got_sums = [], []
        for positions, sums in subcube_sums(wht(table).__getitem__, supports, k):
            assert sums.dtype == np.int64
            got_positions.extend(map(tuple, positions.tolist()))
            got_sums.append(sums)
        assert got_positions == supports
        got = np.concatenate(got_sums)
        for s, support in enumerate(supports):
            ridx = restriction_indices(IndexSet.of(p, [c + 1 for c in support]), cells)
            ref = np.bincount(ridx, weights=table, minlength=1 << k)
            np.testing.assert_array_equal(got[s], ref.astype(np.int64))


# ---------------------------------------------------------------------------
# Estimator lag and block count


def test_default_lag_and_blocks_frozen_values():
    assert default_lag(8, 0.1) == 18  # ceil(4 ln 80)
    assert blocks_for(0.1, 0.05) == 738
    with pytest.raises(ValueError):
        default_lag(8, 0.0)
    with pytest.raises(ValueError):
        blocks_for(0.0, 0.05)
    with pytest.raises(ValueError):
        blocks_for(0.1, 1.0)


def test_bias_bound():
    assert estimator_bias_bound(8, 18) == pytest.approx(math.exp(-4.5))


# ---------------------------------------------------------------------------
# Squared-coefficient estimation


def test_estimate_on_own_parity_is_exactly_one():
    # for f = chi_S each sample is chi_S(x)chi_S(y)chi_S(x xor y) = +1
    S = IndexSet.of(6, [2, 5])
    samples, _ = harvested_lag_samples(parity_table(6, [2, 5]), 6, 5, 200, 4, 3)
    assert estimate_sq_coeff(samples, S) == 1.0


def test_poisson_lag_leaves_no_full_set_alternation():
    # f = chi_[n] against S = empty: a fixed lag t gives every sample the
    # sign (-1)^t, while a Poisson(mu) flip count gives mean e^(-2 mu), so a
    # single lag needs no second one to cancel the full set
    n = 5
    f = parity_table(n, range(1, n + 1))
    spec = Spectrum.from_table(f)
    samples, mu = harvested_lag_samples(f, n, 7, 4_000, 3, 8)
    assert mu == 7.5
    assert expected_sq_estimate(spec, IndexSet(n, 0), mu) == pytest.approx(math.exp(-15))
    # adjacent samples share a half-window, so allow twice the iid sd
    assert abs(estimate_sq_coeff(samples, IndexSet(n, 0))) < 8 / math.sqrt(4_000)
    assert set(samples.prod.tolist()) == {-1, 1}


def test_estimate_dimension_mismatch():
    samples, _ = harvested_lag_samples(parity_table(4, [1]), 4, 2, 5, 3, 1)
    with pytest.raises(ValueError, match="samples over n=4"):
        estimate_sq_coeff(samples, IndexSet(5, 0))


def test_expected_estimate_within_bias_bound_of_truth():
    rng = np.random.default_rng(5)
    for n in (4, 6):
        f = random_table(n, rng)
        spec = Spectrum.from_table(f)
        lag = default_lag(n, 0.05)
        for mask in (0, 1, (1 << n) - 1):
            S = IndexSet(n, mask)
            err = abs(expected_sq_estimate(spec, S, lag) - spec.coeffs[mask] ** 2)
            assert err <= estimator_bias_bound(n, lag) + 1e-12


@pytest.mark.parametrize("n", [3, 6, 8])
def test_closed_form_matches_chain_read_lag_samples(n):
    # every set S at once: the bulk estimate of many chain-read samples sits
    # at sum_U fhat(U)^2 e^(-2 |U xor S| mu / n), which is within the bias
    # bound e^(-2 mu / n) of fhat(S)^2.  Short windows keep mu small, so the
    # closed form is far from fhat(S)^2 and the test reads its damping.
    rng = np.random.default_rng(70 + n)
    f = random_table(n, rng)
    spec = Spectrum.from_table(f)
    gap, blocks = gap_for_density(n, 0.5), 60_000
    masks = np.arange(1 << n)
    for lag in (1, gap, default_lag(n, 0.1)):
        samples, mu = harvested_lag_samples(f, n, lag, blocks, gap, 900 + lag)
        assert lag <= mu < lag + gap / 2
        closed = np.array([expected_sq_estimate(spec, IndexSet(n, int(m)), mu) for m in masks])
        assert np.all(np.abs(closed - spec.coeffs**2) <= estimator_bias_bound(n, mu) + 1e-12)
        bulk = estimate_sq_coeff_bulk(samples, IndexSet.full(n))
        # adjacent samples share half a window: at most 3x the iid variance
        assert np.max(np.abs(bulk - closed)) < 6 * math.sqrt(3 / blocks)


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=200))
def test_estimator_concentrates_near_expectation(seed):
    n = 5
    f = random_table(n, np.random.default_rng(seed))
    spec = Spectrum.from_table(f)
    S = IndexSet.of(n, [1, 3])
    samples, mu = harvested_lag_samples(f, n, default_lag(n, 0.2), 4000, 4, seed + 1)
    est = estimate_sq_coeff(samples, S)
    # terms are means of [-1, 1] samples; walk correlation inflates variance
    # by a small constant, so test at a generous 8 / sqrt(m)
    assert abs(est - expected_sq_estimate(spec, S, mu)) < 8 / math.sqrt(4000)


def test_bulk_matches_per_set_estimates():
    n = 5
    f = random_table(n, np.random.default_rng(6))
    samples, _ = harvested_lag_samples(f, n, 6, 500, 3, 2)
    bulk = estimate_sq_coeff_bulk(samples, IndexSet.full(n))
    for mask in range(1 << n):
        assert bulk[mask] == estimate_sq_coeff(samples, IndexSet(n, mask))


def _dense_bulk_reference(samples):
    """The former bulk path: the samples binned on all 2^n xor words."""
    size = 1 << samples.n
    bins = np.bincount(samples.diff.astype(np.int64), weights=samples.prod, minlength=size)
    return wht(bins.astype(np.int64)) / len(samples)


def _subset_masks(pool):
    coords = pool.coords()
    return np.array(
        [
            IndexSet.of(pool.n, combo).mask
            for size in range(len(coords) + 1)
            for combo in combinations(coords, size)
        ],
        dtype=np.uint64,
    )


@pytest.mark.parametrize("n", [5, 8, 12, 16])
def test_bulk_on_pool_matches_dense_reference_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    f = random_table(n, rng)
    gap = gap_for_density(n, 1 / 3)
    samples, _ = harvested_lag_samples(f, n, default_lag(n, 0.1), 2_000, gap, n)
    dense = _dense_bulk_reference(samples)
    partial = sorted(rng.choice(np.arange(1, n + 1), n // 2, replace=False).tolist())
    for pool in (
        IndexSet(n, 0),
        IndexSet.of(n, [n]),
        IndexSet.of(n, partial),
        IndexSet.full(n),
    ):
        bulk = estimate_sq_coeff_bulk(samples, pool)
        assert bulk.shape == (1 << len(pool),)
        masks = _subset_masks(pool)
        assert bulk[restriction_indices(pool, masks)].tobytes() == dense[masks].tobytes()


@pytest.mark.parametrize("n", [21, 40])
def test_bulk_on_pool_matches_per_set_above_n_cap(n):
    def label(bits):  # a deterministic +-1 label depending on every coordinate
        top = (bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(63)
        return (1 - 2 * top).astype(np.int8)

    gap = gap_for_density(n, 1 / 3)
    samples, _ = harvested_lag_samples(label, n, default_lag(n, 0.2), 1_500, gap, n)
    pool = IndexSet.of(n, [2, 5, 11, 17, n - 1, n])
    tracemalloc.start()
    try:
        bulk = estimate_sq_coeff_bulk(samples, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lag samples and 2^6 cells take ~150 KiB; one 2^21-entry array is 16 MiB
    assert peak < 1 << 20
    masks = _subset_masks(pool)
    per_set = [estimate_sq_coeff(samples, IndexSet(n, int(m))) for m in masks]
    assert bulk[restriction_indices(pool, masks)].tobytes() == np.array(per_set).tobytes()


def test_bulk_bins_each_lag_on_its_own():
    # the samples' one lag is binned in place by signed_sums, _BIN_CHUNK
    # samples at a time, with no copy of the samples beyond one chunk's
    # widened word: the peak is a chunk's uint64 words, index and scratch
    # word, then its index and float64 weights, whatever the sample count;
    # the exact int64 sums of the chunks give the one-pass estimates bit for bit
    n = 8
    f = random_table(n, np.random.default_rng(0))
    samples, _ = harvested_lag_samples(f, n, 5, 200_000, 4, 1)
    pool = IndexSet.of(n, [1, 4, 7])
    assert len(samples) > 3 * hypercube._BIN_CHUNK
    tracemalloc.start()
    try:
        bulk = estimate_sq_coeff_bulk(samples, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * hypercube._BIN_CHUNK + (1 << 16)
    cells = restriction_indices(pool, samples.diff)
    sums = np.bincount(cells, weights=samples.prod, minlength=1 << len(pool))
    one_pass = wht(sums.astype(np.int64)) / len(samples)
    assert bulk.tobytes() == one_pass.tobytes()


def test_bulk_rejects_large_n():
    # the cap is on the binned pool, whatever n is; the pool must match the walk
    n = BULK_WHT_MAX_N + 1
    samples, _ = harvested_lag_samples(lambda bits: np.ones(bits.shape, np.int8), n, 1, 1, 2, 0)
    with pytest.raises(ValueError, match="pool of <= 20"):
        estimate_sq_coeff_bulk(samples, IndexSet.full(n))
    largest = IndexSet.of(n, range(2, n + 1))
    assert estimate_sq_coeff_bulk(samples, largest).size == 1 << BULK_WHT_MAX_N
    with pytest.raises(ValueError, match="pool over n=20"):
        estimate_sq_coeff_bulk(samples, IndexSet(BULK_WHT_MAX_N, 1))


@pytest.mark.parametrize("n", [8, 21])
def test_oracle_lag_samples_give_the_walk_estimates_bit_for_bit(n):
    # the lag samples read off an oracle's harvest, and the reference reader's
    # samples of the same harvest's chain, give the same bulk and per-set
    # estimates; windows of 2 and 6 half-blocks share one and three
    f = random_table(8, np.random.default_rng(3)) if n == 8 else parity_table(n, [4, 17])
    pool = IndexSet.of(n, [1, 3, 4, 6, 8] if n == 8 else [2, 4, 9, 17, n])
    gap = gap_for_density(n, 1 / 3)
    for window in (2, 6, lag_window(default_lag(n, 0.1), gap)):
        for blocks in (1, 3_000):
            drawn = RandomWalkOracle(f, n, seed=77).refresh_pairs(0, gap, window, blocks).lags
            pairs = oracle_pairs(f, n, 77, lag_pairs(window, blocks), gap)
            read = lag_samples_from_pairs(pairs, window, blocks)
            assert estimate_sq_coeff_bulk(drawn, pool).tobytes() == (
                estimate_sq_coeff_bulk(read, pool).tobytes()
            )
            for mask in _subset_masks(pool):
                S = IndexSet(n, int(mask))
                assert estimate_sq_coeff(drawn, S) == estimate_sq_coeff(read, S)


# ---------------------------------------------------------------------------
# Bounded-influence contrasts


def _exhaustive_pairs(f: TruthTable, r_mask: int) -> RawPairs:
    """All (x, y) pairs whose y resamples exactly the coordinates in r_mask."""
    n = f.n
    xs, ys = [], []
    for x in range(1 << n):
        for z in range(1 << n):
            xs.append(x)
            ys.append((x & ~r_mask) | (z & r_mask))
    xs = np.array(xs, dtype=np.uint64)
    ys = np.array(ys, dtype=np.uint64)
    return RawPairs(
        n=n,
        x_bits=xs,
        y_bits=ys,
        label_x=f.values[xs.astype(np.int64)],
        label_y=f.values[ys.astype(np.int64)],
        flipped_masks=np.full(len(xs), r_mask, dtype=np.uint64),
        walk_steps=0,
    )


def _no_pairs(n: int) -> RawPairs:
    empty = np.empty(0, dtype=np.uint64)
    return RawPairs(n, empty, empty, empty, empty, empty, 0)


def _concat_pairs(*parts: RawPairs) -> RawPairs:
    return RawPairs(
        n=parts[0].n,
        walk_steps=0,
        **{
            field: np.concatenate([getattr(p, field) for p in parts])
            for field in ("x_bits", "y_bits", "label_x", "label_y", "flipped_masks")
        },
    )


def test_contrast_on_exhaustive_refresh_sets():
    # mixing exhaustive R and complement-of-R pair sets realizes the
    # difference of means exactly: l(R without i) - l(R with i) for each
    # coordinate i, rescaled by 1 / (1 + pi) at the tally's gap
    n, gap = 4, 3
    f = random_table(n, np.random.default_rng(13))
    spec = Spectrum.from_table(f)
    for r_mask in (0b0011, 0b1010, 0b0110):
        with_i = _exhaustive_pairs(f, r_mask | 0b0001)
        without_i = _exhaustive_pairs(f, r_mask & ~0b0001)
        tally = tally_of(_concat_pairs(with_i, without_i), gap)
        got = estimate_bounded_influence(tally)[0][0]
        want = subcube_projection_exact(
            spec, IndexSet(n, r_mask & ~0b0001)
        ) - subcube_projection_exact(spec, IndexSet(n, r_mask | 0b0001))
        assert tally.pi == math.exp(-gap / (2 * n))
        assert got == pytest.approx(want / (1 + tally.pi), abs=1e-12)


def test_contrast_examples_from_harvested_pairs():
    from junta_walk.walk import effective_refresh_density

    n, gap, m = 4, 3, 120_000
    p = effective_refresh_density(n, gap)
    tol = 6 / math.sqrt(m / 4)

    pairs = harvest_refresh_pairs(parity_table(n, [1]), n, m, gap, seed=20)
    contrasts, _ = estimate_bounded_influence(pairs.screen)
    assert contrasts[0] == pytest.approx(1.0, abs=tol)
    assert contrasts[1] == pytest.approx(0.0, abs=tol)

    pairs = harvest_refresh_pairs(and_table(n, [1, 2]), n, m, gap, seed=21)
    want = 0.25 + 0.25 * (1 - p)
    assert estimate_bounded_influence(pairs.screen)[0][0] == pytest.approx(want, abs=tol)


def test_contrast_matches_exact_value_statistically():
    from junta_walk.walk import effective_refresh_density

    n, gap, m = 5, 4, 150_000
    f = random_table(n, np.random.default_rng(22))
    spec = Spectrum.from_table(f)
    p = effective_refresh_density(n, gap)
    pairs = harvest_refresh_pairs(f, n, m, gap, seed=23)
    contrasts, _ = estimate_bounded_influence(pairs.screen)
    for i in (1, 3, 5):
        got = contrasts[i - 1]
        want = expected_bounded_influence(spec, i, p)
        assert got == pytest.approx(want, abs=6 / math.sqrt(m / 4))


def _flip_law_contrasts(values: list[int], n: int, pi: Fraction) -> list[Fraction]:
    """(a - b) / (1 + pi) for every coordinate, exactly, where a and b are
    E[f(x) f(y)] given the coordinate unflipped and given it flipped: x is
    uniform and each coordinate, independently, is unflipped (probability
    pi), flipped an odd number of times ((1 - pi^2)/2, the only state that
    sets its bit of y xor x) or a nonzero even number ((1 - pi)^2/2)."""
    # the label product summed over every x, per y xor x
    corr = [sum(values[x] * values[x ^ d] for x in range(1 << n)) for d in range(1 << n)]
    states = ((0, pi), (1, (1 - pi * pi) / 2), (0, (1 - pi) ** 2 / 2))  # (odd bit, probability)
    kept, flipped = [Fraction(0)] * n, [Fraction(0)] * n
    for law in product(range(3), repeat=n):
        weight, d = Fraction(1), 0
        for i, state in enumerate(law):
            odd, prob = states[state]
            weight *= prob
            d |= odd << i
        term = weight * Fraction(corr[d], 1 << n)
        for i, state in enumerate(law):
            if state:
                flipped[i] += term
            else:
                kept[i] += term
    return [(kept[i] / pi - flipped[i] / (1 - pi)) / (1 + pi) for i in range(n)]


@pytest.mark.parametrize("pi", [Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize("n", [4, 6])
def test_rescaled_contrast_is_the_updating_walk_contrast_exactly(n, pi):
    # under the flipped-set law a harvested pair follows, the rescaled
    # contrast is sum over T owning i of fhat(T)^2 pi^(2(|T| - 1)), the
    # contrast of an updating walk at refresh density 1 - pi^2, in exact
    # rational arithmetic for every coordinate
    tables = (and_table(n, [1, 2]), parity_table(n, [1, 3]))
    for f in (*tables, random_table(n, np.random.default_rng(n))):
        values = [int(v) for v in f.values]
        coeffs = [Fraction(int(c), 1 << n) for c in wht(f.values)]
        got = _flip_law_contrasts(values, n, pi)
        for i in range(n):
            want = sum(
                c * c * pi ** (2 * (bin(t).count("1") - 1))
                for t, c in enumerate(coeffs)
                if t >> i & 1
            )
            assert got[i] == want


def test_contrast_requires_both_buckets():
    # a coordinate refreshed in every pair, or in none, has no contrast: +inf
    f = parity_table(3, [1])
    for r_mask in (0b111, 0b010):
        pairs = _exhaustive_pairs(f, r_mask)
        for values in estimate_bounded_influence(tally_of(pairs, 2)):
            assert values.tolist() == [math.inf] * 3
    for values in estimate_bounded_influence(ScreenTally(3, 2)):
        assert values.tolist() == [math.inf] * 3
    mixed = _concat_pairs(pairs, _exhaustive_pairs(f, 0b011))
    for values in estimate_bounded_influence(tally_of(mixed, 2)):
        assert values[0] < math.inf and values[1] == values[2] == math.inf


def _reference_contrast(pairs: RawPairs, i: int, gap: int) -> float:
    """The per-coordinate float formula: mean label product over the pairs
    that left i unflipped minus the mean over those that flipped it, over
    1 + pi at the harvest's gap."""
    products = pairs.label_x.astype(np.float64) * pairs.label_y
    hit = (pairs.flipped_masks >> np.uint64(i - 1)) & np.uint64(1) == 1
    if not hit.any() or hit.all():
        return math.inf
    pi = math.exp(-gap / (2 * pairs.n))
    return float(np.mean(products[~hit]) - np.mean(products[hit])) / (1 + pi)


def _assert_contrasts_bit_identical(pairs: RawPairs, gap: int) -> None:
    got, _ = estimate_bounded_influence(tally_of(pairs, gap))
    want = np.array([_reference_contrast(pairs, i, gap) for i in range(1, pairs.n + 1)])
    assert got.dtype == np.float64 and got.shape == (pairs.n,)
    assert got.tobytes() == want.tobytes()


def test_contrasts_match_per_coordinate_reference_bit_for_bit():
    from junta_walk.walk import gap_for_density

    for n in range(4, 21):
        f = random_table(n, np.random.default_rng(300 + n))
        gap = gap_for_density(n, 1 / 3)
        pairs = raw_pairs(f, n, 20_000, gap, seed=n)
        _assert_contrasts_bit_identical(pairs, gap)
        harvest = harvest_refresh_pairs(f, n, 20_000, gap, seed=n)
        assert harvest.screen.hists.tobytes() == tally_of(pairs, gap).hists.tobytes()
    # exhaustive sets: alone every coordinate is undefined, merged all defined
    f = random_table(4, np.random.default_rng(13))
    parts = [_exhaustive_pairs(f, r_mask) for r_mask in (0b0000, 0b0011, 0b1010, 0b1111)]
    for pairs in parts:
        _assert_contrasts_bit_identical(pairs, 3)
    _assert_contrasts_bit_identical(_concat_pairs(*parts), 3)
    _assert_contrasts_bit_identical(_concat_pairs(*parts[1:3]), 5)
    # byte boundaries of the mask words, up to the packed cap
    rng = np.random.default_rng(310)
    for n in (1, 7, 8, 9, 16, 33, 63):
        m = 5_000
        masks = rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        masks &= rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
        for label_y in (rng.choice(np.array([-1, 1], dtype=np.int8), size=m), -labels):
            pairs = RawPairs(n, masks, masks, labels, label_y, masks, 0)
            _assert_contrasts_bit_identical(pairs, 2 * n)
            _assert_contrasts_bit_identical(_no_pairs(n), 1)


def _reference_sigma(pairs: RawPairs, i: int, gap: int) -> float:
    """sqrt(1/unflipped + 1/flipped) / (1 + pi) from a direct count of the
    masks that flip i."""
    hit = int(np.count_nonzero((pairs.flipped_masks >> np.uint64(i - 1)) & np.uint64(1)))
    kept = len(pairs.flipped_masks) - hit
    if hit == 0 or kept == 0:
        return math.inf
    return math.sqrt(1.0 / kept + 1.0 / hit) / (1 + math.exp(-gap / (2 * pairs.n)))


def test_sigmas_match_per_coordinate_counts():
    from junta_walk.walk import gap_for_density

    f4 = random_table(4, np.random.default_rng(13))
    exhaustive = [_exhaustive_pairs(f4, r_mask) for r_mask in (0b0000, 0b0011, 0b1010)]
    cases = [(_no_pairs(5), 1), (exhaustive[1], 3), (_concat_pairs(*exhaustive), 4)]
    for n in (5, 12, 20):
        f = random_table(n, np.random.default_rng(320 + n))
        gap = gap_for_density(n, 1 / 3)
        cases.append((raw_pairs(f, n, 10_000, gap, seed=n), gap))
    for pairs, gap in cases:
        _, sigmas = estimate_bounded_influence(tally_of(pairs, gap))
        want = [_reference_sigma(pairs, i, gap) for i in range(1, pairs.n + 1)]
        assert sigmas.tolist() == want


def _reference_tally(pairs: RawPairs, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Contrasts and sigmas from a direct count of each mask bit, split by
    whether the pair's labels disagree, over 1 + pi at the harvest's gap."""
    masks = pairs.flipped_masks.astype(np.uint64)
    disagree = pairs.label_x != pairs.label_y
    bits = [(masks >> np.uint64(i)) & np.uint64(1) for i in range(pairs.n)]
    hit = np.array([np.count_nonzero(b) for b in bits], dtype=np.int64)
    hit_dis = np.array([np.count_nonzero(b[disagree]) for b in bits], dtype=np.int64)
    kept, kept_dis = len(masks) - hit, np.count_nonzero(disagree) - hit_dis
    scale = 1 + math.exp(-gap / (2 * pairs.n))
    with np.errstate(divide="ignore", invalid="ignore"):
        contrasts = ((kept - 2 * kept_dis) / kept - (hit - 2 * hit_dis) / hit) / scale
        sigmas = np.sqrt(1.0 / kept + 1.0 / hit) / scale
    empty = (hit == 0) | (kept == 0)
    contrasts[empty] = np.inf
    sigmas[empty] = np.inf
    return contrasts, sigmas


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 33, 63])
def test_tally_matches_per_coordinate_counts_across_chunks_and_words(n):
    # pair counts around a harvest's chunk at n = 16 (the most pairs one
    # call keys at once), masks in uint64 and in the harvest's narrow word,
    # added at once or in two calls: the same pairs must give the same bytes
    gap = gap_for_density(16, 1 / 3)
    chunk = _HARVEST_CHUNK_STEPS // gap
    rng = np.random.default_rng(330 + n)
    signs = np.array([-1, 1], dtype=np.int8)
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        masks = rng.integers(0, 1 << n, size=count, dtype=np.uint64)
        masks &= rng.integers(0, 1 << n, size=count, dtype=np.uint64)
        label_x, label_y = rng.choice(signs, size=count), rng.choice(signs, size=count)
        want = _reference_tally(RawPairs(n, masks, masks, label_x, label_y, masks, 0), gap)
        narrow = masks.astype(_word(n))
        for stored in (masks, narrow):
            whole = tally_of(RawPairs(n, stored, stored, label_x, label_y, stored, 0), gap)
            split = ScreenTally(n, gap)
            cut = min(count, chunk // 3)
            split.add(stored[:cut], label_x[:cut], label_y[:cut])
            split.add(stored[cut:], label_x[cut:], label_y[cut:])
            assert len(whole) == len(split) == count
            for tally in (whole, split):
                for g, w in zip(estimate_bounded_influence(tally), want):
                    assert g.dtype == np.float64 and g.shape == (n,)
                    assert g.tobytes() == w.tobytes()


def test_contrast_coordinate_range():
    f = parity_table(3, [1])
    with pytest.raises(ValueError):
        expected_bounded_influence(Spectrum.from_table(f), 0, 0.5)
