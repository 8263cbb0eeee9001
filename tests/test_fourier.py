"""Exact transforms, spectra, and the walk-based squared-coefficient estimator."""

import io
import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_walk import fourier
from junta_walk.fourier import (
    BULK_WHT_MAX_N,
    EstimatorParams,
    Spectrum,
    blocks_for,
    default_lag,
    estimate_bounded_influence,
    estimate_sq_coeff,
    estimate_sq_coeff_bulk,
    estimator_bias_bound,
    expected_bounded_influence,
    expected_sq_estimate,
    fourier_weight,
    inner_product,
    project_spectrum,
    spectrum_to_csv,
    subcube_projection_exact,
    subcube_sums,
    wht,
)
from junta_walk.functions import and_table, parity_table, random_table
from junta_walk.hypercube import IndexSet, TruthTable, restriction_indices
from junta_walk.walk import (
    RandomWalkOracle,
    RefreshPairs,
    WalkConfig,
    generate_walk,
    harvest_refresh_pairs,
)
from lag_reference import lag_samples_from_walk

sign_tables = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.sampled_from([-1, 1]), min_size=1 << n, max_size=1 << n
    ).map(lambda vals: TruthTable(n, vals))
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
    """Reference butterfly: a fresh (a + b, a - b) concatenation per level."""
    v = np.array(values)
    size = v.size
    h = 1
    while h < size:
        v = v.reshape(-1, 2 * h)
        v = np.concatenate([v[:, :h] + v[:, h:], v[:, :h] - v[:, h:]], axis=1)
        h *= 2
    return v.reshape(size)


def test_wht_integer_input_matches_float_butterfly():
    rng = np.random.default_rng(0)
    v = rng.integers(-3, 4, size=64)
    out = wht(v)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, wht(v.astype(float)).astype(np.int64))
    np.testing.assert_array_equal(wht(v.astype(np.int8)), out)
    assert wht(np.ones(4, dtype=bool)).dtype == np.int64


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
def test_wht_matches_concatenating_reference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    floats = rng.normal(size=1 << n) * 10.0 ** rng.integers(-8, 8, size=1 << n)
    kept = floats.copy()
    out = wht(floats)
    assert out.dtype == np.float64
    assert out.tobytes() == _concatenating_wht(floats).tobytes()
    np.testing.assert_array_equal(floats, kept)  # the input is not overwritten
    ints = rng.integers(-(1 << 20), 1 << 20, size=1 << n)
    np.testing.assert_array_equal(wht(ints), _concatenating_wht(ints))
    if n:
        f = random_table(n, rng)
        float_coeffs = _concatenating_wht(f.values.astype(np.float64)) / (1 << n)
        assert Spectrum.from_table(f).coeffs.tobytes() == float_coeffs.tobytes()


@pytest.mark.parametrize("n", [1, 4, 10])
def test_wht_narrow_integer_path_is_exact_on_both_sides_of_the_bound(n, monkeypatch):
    # every partial sum is bounded by size * max|v|: float32 runs below 2^24,
    # float64 below 2^53, and the int64 butterfly from there on
    butterfly, gemm, words = fourier._butterfly, fourier._gemm_wht, []

    def spy(inner):
        def run(v):
            words.append(v.dtype)
            return inner(v)

        return run

    monkeypatch.setattr(fourier, "_butterfly", spy(butterfly))
    monkeypatch.setattr(fourier, "_gemm_wht", spy(gemm))
    size, rng = 1 << n, np.random.default_rng(n)
    f32_top, f64_top = (1 << 24) // size, (1 << 53) // size  # size * top == bound
    for peak, word in (
        (f32_top - 1, np.float32),
        (f32_top, np.float64),
        (f64_top - 1, np.float64),
        (f64_top, np.int64),
    ):
        for v in (
            np.full(size, peak),
            np.full(size, -peak),
            rng.integers(-peak, peak + 1, size=size),
            np.where(rng.integers(0, 2, size=size) == 1, peak, -peak),
        ):
            v[0] = peak if v[0] >= 0 else -peak  # the bound is met exactly
            words.clear()
            out = wht(v)
            assert words == [word]
            assert out.dtype == np.int64
            assert out.tobytes() == butterfly(v.astype(np.int64)).tobytes()
    assert wht(np.full(size, f32_top))[0] == 1 << 24  # past float32's exact range
    # subcube_sums transforms (S, 2^k) coefficient blocks the same way
    k, table = min(n, 3), rng.integers(-f32_top + 1, f32_top, size=size)
    supports = list(combinations(range(n), k))
    words.clear()
    got = list(subcube_sums(table, supports, k))
    coeffs = butterfly(table.astype(np.int64))
    block_word = np.float32 if (max(abs(coeffs)) << k) < 1 << 24 else np.float64
    assert words == [np.float32, block_word]
    monkeypatch.setattr(fourier, "_exact_wht", lambda v: butterfly(v.astype(np.int64)))
    for (pos, sums), (ref_pos, ref_sums) in zip(
        got, subcube_sums(table, supports, k), strict=True
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
    assert abs(Spectrum.from_table(f).sq_weight() - 1.0) < 1e-12


@given(sign_tables)
def test_spectrum_table_round_trip(f):
    # coefficients are multiples of 2^-n, so the float inverse is exact
    g = TruthTable(f.n, wht(Spectrum.from_table(f).coeffs).astype(np.int8))
    np.testing.assert_array_equal(g.values, f.values)


def test_wht_inverts_itself_up_to_scale():
    f = random_table(6, np.random.default_rng(4))
    spec = Spectrum.from_table(f)
    np.testing.assert_allclose(wht(spec.coeffs), f.values, atol=1e-9)
    np.testing.assert_array_equal(wht(wht(f.values)), f.values.astype(np.int64) << 6)


def test_largest_orders_by_magnitude():
    spec = Spectrum.from_table(and_table(3, [1, 2, 3]))
    top = spec.largest(2)
    assert top[0][0].mask == 0 and abs(top[0][1] - 0.75) < 1e-12
    assert abs(top[1][1]) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Projections and inner products


def test_project_spectrum_keeps_only_subsets():
    spec = Spectrum.from_table(and_table(3, [1, 2, 3]))
    proj = project_spectrum(spec, IndexSet.of(3, [1, 2]))
    for mask in range(8):
        if mask & 0b100:
            assert proj.coeffs[mask] == 0.0
        else:
            assert proj.coeffs[mask] == spec.coeffs[mask]


def test_fourier_weight_full_set_is_total_mass():
    f = random_table(5, np.random.default_rng(9))
    spec = Spectrum.from_table(f)
    assert fourier_weight(spec, IndexSet.full(5)) == pytest.approx(1.0, abs=1e-12)


def test_fourier_weight_monotone_under_inclusion():
    spec = Spectrum.from_table(random_table(5, np.random.default_rng(10)))
    small = fourier_weight(spec, IndexSet.of(5, [1, 3]))
    large = fourier_weight(spec, IndexSet.of(5, [1, 3, 4]))
    assert small <= large + 1e-12


@given(sign_tables, sign_tables)
def test_inner_product_parseval_form(f, g):
    if f.n != g.n:
        with pytest.raises(ValueError):
            inner_product(f, g)
        return
    direct = inner_product(f, g)
    via_spectra = inner_product(Spectrum.from_table(f), Spectrum.from_table(g))
    assert direct == pytest.approx(via_spectra, abs=1e-10)
    assert inner_product(f, f) == pytest.approx(1.0)


def test_inner_product_rejects_mixed_kinds():
    f = parity_table(3, [1])
    with pytest.raises(TypeError):
        inner_product(f, Spectrum.from_table(f))


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
                acc += f(x) * f(y)
                count += 1
        assert acc / count == pytest.approx(subcube_projection_exact(spec, R), abs=1e-12)


def test_subcube_averages_on_and():
    f = and_table(2, [1, 2])
    _, sums = next(subcube_sums(f.values, [[0]], 1))  # support {1}
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
        for positions, sums in subcube_sums(table, supports, k):
            assert sums.dtype == np.int64
            got_positions.extend(map(tuple, positions.tolist()))
            got_sums.append(sums)
        assert got_positions == supports
        got = np.concatenate(got_sums)
        for s, support in enumerate(supports):
            ridx = restriction_indices(IndexSet.of(p, [c + 1 for c in support]), cells)
            ref = np.bincount(ridx, weights=table, minlength=1 << k)
            np.testing.assert_array_equal(got[s], ref.astype(np.int64))


def test_spectrum_to_csv():
    spec = Spectrum.from_table(parity_table(3, [1, 3]))
    buf = io.StringIO()
    spectrum_to_csv(spec, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "mask,coords,coefficient"
    assert len(lines) == 9
    mask, coords, coeff = lines[6].split(",")  # mask 5 = {1, 3}
    assert (mask, coords) == ("5", "1|3")
    assert float(coeff) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Estimator parameters


def test_estimator_params_validation():
    with pytest.raises(ValueError):
        EstimatorParams(lag=0, pair_count=5)
    with pytest.raises(ValueError):
        EstimatorParams(lag=3, pair_count=0)


def test_estimator_params_geometry():
    params = EstimatorParams(lag=4, pair_count=3)
    assert params.stride == 5
    assert params.required_walk_length == 2 * 5 + 4 + 2


def test_certified_params():
    params = EstimatorParams.certified(8, theta=0.1, delta=0.05)
    assert params.lag == default_lag(8, 0.1)
    assert params.pair_count == blocks_for(0.1 / 8, 0.05)


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
    f = parity_table(6, [2, 5])
    params = EstimatorParams(lag=5, pair_count=200)
    walk = generate_walk(f, WalkConfig(6, params.required_walk_length, seed=3))
    samples = lag_samples_from_walk(walk, params)
    assert estimate_sq_coeff(samples, S) == 1.0


def test_lag_averaging_cancels_full_set_alternation():
    # f = chi_[n] against S = empty: lag-t samples alternate (-1)^t, and the
    # two-lag average is identically zero
    n = 5
    f = parity_table(n, range(1, n + 1))
    params = EstimatorParams(lag=7, pair_count=300)
    walk = generate_walk(f, WalkConfig(n, params.required_walk_length, seed=8))
    samples = lag_samples_from_walk(walk, params)
    assert estimate_sq_coeff(samples, IndexSet(n, 0)) == 0.0
    spec = Spectrum.from_table(f)
    assert expected_sq_estimate(spec, IndexSet(n, 0), lag=7) == 0.0


def test_estimate_dimension_mismatch():
    f = parity_table(4, [1])
    walk = generate_walk(f, WalkConfig(4, 50, seed=1))
    samples = lag_samples_from_walk(walk, EstimatorParams(lag=2, pair_count=5))
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
            err = abs(expected_sq_estimate(spec, S, lag) - spec.coeff(S) ** 2)
            assert err <= estimator_bias_bound(n, lag) + 1e-12


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=200))
def test_estimator_concentrates_near_expectation(seed):
    n = 5
    f = random_table(n, np.random.default_rng(seed))
    spec = Spectrum.from_table(f)
    S = IndexSet.of(n, [1, 3])
    params = EstimatorParams(lag=default_lag(n, 0.2), pair_count=4000)
    walk = generate_walk(f, WalkConfig(n, params.required_walk_length, seed=seed + 1))
    samples = lag_samples_from_walk(walk, params)
    est = estimate_sq_coeff(samples, S)
    # terms are means of [-1, 1] samples; walk correlation inflates variance
    # by a small constant, so test at a generous 8 / sqrt(m)
    assert abs(est - expected_sq_estimate(spec, S, params.lag)) < 8 / math.sqrt(4000)


def test_bulk_matches_per_set_estimates():
    n = 5
    f = random_table(n, np.random.default_rng(6))
    params = EstimatorParams(lag=6, pair_count=500)
    walk = generate_walk(f, WalkConfig(n, params.required_walk_length, seed=2))
    samples = lag_samples_from_walk(walk, params)
    bulk = estimate_sq_coeff_bulk(samples, IndexSet.full(n))
    for mask in range(1 << n):
        assert bulk[mask] == estimate_sq_coeff(samples, IndexSet(n, mask))


def _dense_bulk_reference(samples):
    """The former bulk path: both lags binned on all 2^n xor words."""
    size = 1 << samples.n
    bins_t, bins_t1 = (
        np.bincount(diff.astype(np.int64), weights=prod, minlength=size)
        for diff, prod in ((samples.diff_t, samples.prod_t), (samples.diff_t1, samples.prod_t1))
    )
    return 0.5 * (wht(bins_t) + wht(bins_t1)) / len(samples)


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
    params = EstimatorParams(lag=default_lag(n, 0.1), pair_count=2_000)
    walk = generate_walk(f, WalkConfig(n, params.required_walk_length, seed=n))
    samples = lag_samples_from_walk(walk, params)
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

    params = EstimatorParams(lag=default_lag(n, 0.2), pair_count=1_500)
    walk = generate_walk(label, WalkConfig(n, params.required_walk_length, seed=n))
    samples = lag_samples_from_walk(walk, params)
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


def test_bulk_rejects_large_n():
    # the cap is on the binned pool, whatever n is; the pool must match the walk
    params = EstimatorParams(lag=1, pair_count=1)
    n = BULK_WHT_MAX_N + 1
    walk = generate_walk(lambda bits: np.ones(bits.shape, np.int8), WalkConfig(n, 10, seed=0))
    samples = lag_samples_from_walk(walk, params)
    with pytest.raises(ValueError, match="pool of <= 20"):
        estimate_sq_coeff_bulk(samples, IndexSet.full(n))
    largest = IndexSet.of(n, range(2, n + 1))
    assert estimate_sq_coeff_bulk(samples, largest).size == 1 << BULK_WHT_MAX_N
    with pytest.raises(ValueError, match="pool over n=20"):
        estimate_sq_coeff_bulk(samples, IndexSet(BULK_WHT_MAX_N, 1))


@pytest.mark.parametrize("n", [8, 21])
def test_oracle_lag_samples_give_the_walk_estimates_bit_for_bit(n):
    # a twin oracle's whole walk, read by the reference reader, is the
    # estimator's former input; bulk and per-set estimates must not move
    f = random_table(8, np.random.default_rng(3)) if n == 8 else parity_table(n, [4, 17])
    params = EstimatorParams(lag=default_lag(n, 0.1), pair_count=3_000)
    drawn = RandomWalkOracle(f, n, seed=77).lag_samples(params.lag, params.pair_count)
    walk = RandomWalkOracle(f, n, seed=77).walk(params.required_walk_length)
    read = lag_samples_from_walk(walk, params)
    pool = IndexSet.of(n, [1, 3, 4, 6, 8] if n == 8 else [2, 4, 9, 17, n])
    assert estimate_sq_coeff_bulk(drawn, pool).tobytes() == (
        estimate_sq_coeff_bulk(read, pool).tobytes()
    )
    for mask in _subset_masks(pool):
        S = IndexSet(n, int(mask))
        assert estimate_sq_coeff(drawn, S) == estimate_sq_coeff(read, S)


# ---------------------------------------------------------------------------
# Bounded-influence contrasts


def _exhaustive_pairs(f: TruthTable, r_mask: int) -> RefreshPairs:
    """All (x, y) pairs whose y resamples exactly the coordinates in r_mask."""
    n = f.n
    xs, ys = [], []
    for x in range(1 << n):
        for z in range(1 << n):
            xs.append(x)
            ys.append((x & ~r_mask) | (z & r_mask))
    xs = np.array(xs, dtype=np.uint64)
    ys = np.array(ys, dtype=np.uint64)
    return RefreshPairs(
        n=n,
        x_bits=xs,
        y_bits=ys,
        label_x=f.values[xs.astype(np.int64)],
        label_y=f.values[ys.astype(np.int64)],
        refreshed_masks=np.full(len(xs), r_mask, dtype=np.uint64),
    )


def _no_pairs(n: int) -> RefreshPairs:
    empty = np.empty(0, dtype=np.uint64)
    return RefreshPairs(n, empty, empty, empty, empty, empty)


def _concat_pairs(*parts: RefreshPairs) -> RefreshPairs:
    return RefreshPairs(
        n=parts[0].n,
        **{
            field: np.concatenate([getattr(p, field) for p in parts])
            for field in ("x_bits", "y_bits", "label_x", "label_y", "refreshed_masks")
        },
    )


def test_contrast_on_exhaustive_refresh_sets():
    # mixing exhaustive R and complement-of-R pair sets realizes the contrast
    # exactly: l(R without i) - l(R with i) for each coordinate i
    n = 4
    f = random_table(n, np.random.default_rng(13))
    spec = Spectrum.from_table(f)
    for r_mask in (0b0011, 0b1010, 0b0110):
        with_i = _exhaustive_pairs(f, r_mask | 0b0001)
        without_i = _exhaustive_pairs(f, r_mask & ~0b0001)
        got = estimate_bounded_influence(_concat_pairs(with_i, without_i))[0]
        want = subcube_projection_exact(
            spec, IndexSet(n, r_mask & ~0b0001)
        ) - subcube_projection_exact(spec, IndexSet(n, r_mask | 0b0001))
        assert got == pytest.approx(want, abs=1e-12)


def test_contrast_examples_from_harvested_pairs():
    from junta_walk.walk import effective_refresh_density

    n, gap, m = 4, 3, 120_000
    p = effective_refresh_density(n, gap)
    tol = 6 / math.sqrt(m / 4)

    pairs = harvest_refresh_pairs(parity_table(n, [1]), n, m, gap, seed=20)
    contrasts = estimate_bounded_influence(pairs)
    assert contrasts[0] == pytest.approx(1.0, abs=tol)
    assert contrasts[1] == pytest.approx(0.0, abs=tol)

    pairs = harvest_refresh_pairs(and_table(n, [1, 2]), n, m, gap, seed=21)
    want = 0.25 + 0.25 * (1 - p)
    assert estimate_bounded_influence(pairs)[0] == pytest.approx(want, abs=tol)


def test_contrast_matches_exact_value_statistically():
    from junta_walk.walk import effective_refresh_density

    n, gap, m = 5, 4, 150_000
    f = random_table(n, np.random.default_rng(22))
    spec = Spectrum.from_table(f)
    p = effective_refresh_density(n, gap)
    pairs = harvest_refresh_pairs(f, n, m, gap, seed=23)
    contrasts = estimate_bounded_influence(pairs)
    for i in (1, 3, 5):
        got = contrasts[i - 1]
        want = expected_bounded_influence(spec, i, p)
        assert got == pytest.approx(want, abs=6 / math.sqrt(m / 4))


def test_contrast_requires_both_buckets():
    # a coordinate refreshed in every pair, or in none, has no contrast: +inf
    f = parity_table(3, [1])
    for r_mask in (0b111, 0b010):
        pairs = _exhaustive_pairs(f, r_mask)
        assert estimate_bounded_influence(pairs).tolist() == [math.inf] * 3
    assert estimate_bounded_influence(_no_pairs(3)).tolist() == [math.inf] * 3
    got = estimate_bounded_influence(_concat_pairs(pairs, _exhaustive_pairs(f, 0b011)))
    assert got[0] < math.inf and got[1] == got[2] == math.inf


def _reference_contrast(pairs: RefreshPairs, i: int) -> float:
    """The per-coordinate float formula: mean label product over the pairs
    that kept i minus the mean over those that refreshed it."""
    products = pairs.label_x.astype(np.float64) * pairs.label_y
    hit = (pairs.refreshed_masks >> np.uint64(i - 1)) & np.uint64(1) == 1
    if not hit.any() or hit.all():
        return math.inf
    return float(np.mean(products[~hit]) - np.mean(products[hit]))


def _assert_contrasts_bit_identical(pairs: RefreshPairs) -> None:
    got = estimate_bounded_influence(pairs)
    want = np.array([_reference_contrast(pairs, i) for i in range(1, pairs.n + 1)])
    assert got.dtype == np.float64 and got.shape == (pairs.n,)
    assert got.tobytes() == want.tobytes()


def test_contrasts_match_per_coordinate_reference_bit_for_bit():
    from junta_walk.walk import gap_for_density

    for n in range(4, 21):
        f = random_table(n, np.random.default_rng(300 + n))
        gap = gap_for_density(n, 1 / 3)
        _assert_contrasts_bit_identical(harvest_refresh_pairs(f, n, 20_000, gap, seed=n))
    # exhaustive sets: alone every coordinate is undefined, merged all defined
    f = random_table(4, np.random.default_rng(13))
    parts = [_exhaustive_pairs(f, r_mask) for r_mask in (0b0000, 0b0011, 0b1010, 0b1111)]
    for pairs in parts:
        _assert_contrasts_bit_identical(pairs)
    _assert_contrasts_bit_identical(_concat_pairs(*parts))
    _assert_contrasts_bit_identical(_concat_pairs(*parts[1:3]))
    # byte boundaries of the mask words, up to the packed cap
    rng = np.random.default_rng(310)
    for n in (1, 7, 8, 9, 16, 33, 63):
        m = 5_000
        masks = rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        masks &= rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
        for label_y in (rng.choice(np.array([-1, 1], dtype=np.int8), size=m), -labels):
            pairs = RefreshPairs(n, masks, masks, labels, label_y, masks)
            _assert_contrasts_bit_identical(pairs)
            _assert_contrasts_bit_identical(_no_pairs(n))


def test_contrast_coordinate_range():
    f = parity_table(3, [1])
    with pytest.raises(ValueError):
        expected_bounded_influence(Spectrum.from_table(f), 0, 0.5)
