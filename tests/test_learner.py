"""Threshold choices, subcube tallies, ERM, and the full learning pipeline."""

import logging
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_walk import learner
from junta_walk.fourier import BULK_WHT_MAX_N, wht
from junta_walk.functions import and_table, flip_labels_iid, parity_table
from junta_walk.harness import default_learn_params
from junta_walk.hypercube import (
    IndexSet,
    JuntaHypothesis,
    distance_exact,
    restriction_indices,
)
from junta_walk.learner import (
    GAP_CONSTANT,
    LearnParams,
    best_junta,
    learn_outcome,
    log_junta_class_size,
    pad_pool,
    theta_for,
)
from junta_walk.oracle_bruteforce import exact_opt
from junta_walk.sieve import SieveParams, bounded_sieve, practical_budgets
from junta_walk.walk import RandomWalkOracle, generate_walk, sample_size_erm


# ---------------------------------------------------------------------------
# Thresholds and class sizes


def test_theta_frozen_values():
    assert theta_for(1, 1.0) == pytest.approx(0.085786437626905, abs=1e-15)
    assert theta_for(3, 0.1) == pytest.approx(2.1446609406726251e-4, rel=1e-12)
    assert theta_for(3, 0.25) == pytest.approx(1.3404130879203905e-3, rel=1e-12)
    assert GAP_CONSTANT == pytest.approx(1 - 1 / math.sqrt(2))


def test_theta_validation():
    with pytest.raises(ValueError):
        theta_for(0, 0.5)
    with pytest.raises(ValueError):
        theta_for(2, 0.0)


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_theta_monotone_in_epsilon(k, eps):
    assert theta_for(k, eps) < theta_for(k, min(1.0, 2 * eps))
    assert theta_for(k + 1, eps) < theta_for(k, eps)


def test_log_class_size():
    assert log_junta_class_size(9, 3) == pytest.approx(9.975994243322877, rel=1e-12)
    assert log_junta_class_size(3, 3) == pytest.approx(8 * math.log(2))
    with pytest.raises(ValueError):
        log_junta_class_size(2, 3)


# ---------------------------------------------------------------------------
# Parameter modes


def test_mode_derivation():
    assert LearnParams(k=2, epsilon=0.2, delta=0.1).mode == "certified"
    practical = LearnParams(2, 0.2, 0.1, screen_pairs=1, erm_sample=1000)
    assert practical.mode == "practical"


@pytest.mark.parametrize("missing", ["erm_sample", "screen_pairs"])
def test_a_practical_run_sets_both_budgets(missing):
    # a run is certified or practical as a whole, never a mix of the two
    fields = {"screen_pairs": 1, "erm_sample": 1000}
    del fields[missing]
    with pytest.raises(ValueError, match=f"{missing} is missing"):
        LearnParams(k=2, epsilon=0.2, delta=0.1, **fields)


def test_erm_sample_is_refused_below_one():
    # checked when the run is configured, not after its sieve has run
    with pytest.raises(ValueError, match="erm_sample=0"):
        LearnParams(2, 0.2, 0.1, screen_pairs=1, erm_sample=0)
    with pytest.raises(ValueError, match="screen_pairs=0"):
        LearnParams(2, 0.2, 0.1, screen_pairs=0, erm_sample=1000)


@pytest.mark.parametrize("name", ["screen_pairs", "erm_sample"])
@pytest.mark.parametrize("value", [1000.5, 1000.0, True, "1000", None])
def test_non_integer_budgets_are_refused_by_name(name, value):
    # refused when the run is configured, before any walk is drawn
    fields = {"screen_pairs": 1000, "erm_sample": 100, name: value}
    error = ValueError if value is None else TypeError
    with pytest.raises(error, match=name):
        LearnParams(2, 0.25, 0.2, **fields)
    LearnParams(2, 0.25, 0.2, **{**fields, name: np.int64(1000)})


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_non_integer_arity_is_refused_by_name(k):
    # refused at construction, not after the screen and ERM walks are drawn
    with pytest.raises(TypeError, match="k="):
        LearnParams(k, 0.25, 0.2, screen_pairs=1000, erm_sample=100)
    with pytest.raises(TypeError, match="k="):
        LearnParams(k, 0.25, 0.2)
    assert LearnParams(np.int64(2), 0.25, 0.2).k == 2


def test_mode_conflicts_rejected():
    # the mode follows from the budget fields, so it cannot be set against them
    with pytest.raises(TypeError):
        LearnParams(k=2, epsilon=0.2, delta=0.1, mode="certified", erm_sample=10)
    with pytest.raises(AttributeError):
        LearnParams(k=2, epsilon=0.2, delta=0.1).mode = "practical"
    with pytest.raises(ValueError):
        LearnParams(k=0, epsilon=0.2, delta=0.1)


# ---------------------------------------------------------------------------
# Pool assembly


def test_pad_pool():
    pool = IndexSet.of(6, [4])
    assert pad_pool(pool, 3).coords() == (1, 2, 4)
    assert pad_pool(pool, 1) is pool
    with pytest.raises(ValueError):
        pad_pool(IndexSet.of(3, [1]), 4)


# ---------------------------------------------------------------------------
# Tallies and ERM


def test_subcube_tally_counts():
    points = np.array([0b000, 0b001, 0b000, 0b011], dtype=np.uint64)
    labels = np.array([1, -1, 1, -1], dtype=np.int8)
    h, err = best_junta(points, labels, IndexSet.of(3, [1]), 1)
    assert err == 0
    np.testing.assert_array_equal(h.table, [1, -1])


def test_tally_majority_with_conflict():
    # bucket x1=+1 sees labels {+1, -1}: tie goes to +1 and costs one point
    points = np.array([0b000, 0b000, 0b001], dtype=np.uint64)
    labels = np.array([1, -1, -1], dtype=np.int8)
    h, err = best_junta(points, labels, IndexSet.of(3, [1]), 1)
    assert err == 1
    np.testing.assert_array_equal(h.table, [1, -1])
    assert isinstance(h, JuntaHypothesis)


def test_tally_unseen_buckets_default_positive():
    points = np.array([0b00], dtype=np.uint64)
    labels = np.array([-1], dtype=np.int8)
    h, err = best_junta(points, labels, IndexSet.of(2, [1, 2]), 2)
    np.testing.assert_array_equal(h.table, [-1, 1, 1, 1])
    assert err == 0


def test_tally_accepts_labeled_walk():
    f = parity_table(5, [2])
    walk = generate_walk(f, 5, 200, 4)
    h, err = best_junta(walk.points, walk.labels, IndexSet.of(5, [2]), 1)
    assert err == 0
    assert distance_exact(f, h) == 0


def test_tally_rejects_bad_samples():
    J = IndexSet.of(3, [1])
    with pytest.raises(ValueError):
        best_junta(np.array([], dtype=np.uint64), np.array([]), J, len(J))
    with pytest.raises(ValueError):
        best_junta(
            np.array([1], dtype=np.uint64), np.array([1, -1], dtype=np.int8), J, len(J)
        )


@settings(max_examples=30)
@given(st.data())
def test_best_junta_matches_exhaustive_search(data):
    n, k = 5, 2
    pool = IndexSet.of(n, [1, 2, 4, 5])
    m = data.draw(st.integers(min_value=1, max_value=24))
    points = np.array(
        data.draw(st.lists(st.integers(0, 31), min_size=m, max_size=m)), dtype=np.uint64
    )
    labels = np.array(
        data.draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m)),
        dtype=np.int8,
    )
    h, err = best_junta(points, labels, pool, k)
    assert h.k == k and set(h.J.coords()) <= set(pool.coords())

    # literal minimum over every k-subset and every sign table
    best = m + 1
    for combo in combinations(pool.coords(), k):
        J = IndexSet.of(n, combo)
        for table in product([-1, 1], repeat=1 << k):
            cube = JuntaHypothesis(J, table).to_truth_table().values
            best = min(best, int(np.count_nonzero(cube[points] != labels)))
    assert err == best
    # the returned hypothesis achieves its reported cost on the sample
    realized = np.count_nonzero(h.to_truth_table().values[points] != labels)
    assert realized == err


def test_best_junta_tie_breaks_to_smallest_mask():
    points = np.arange(16, dtype=np.uint64)
    labels = np.ones(16, dtype=np.int8)  # every junta fits perfectly
    h, err = best_junta(points, labels, IndexSet.full(4), 2)
    assert err == 0
    assert h.J.coords() == (1, 2)


def _per_support_best_junta(points, labels, pool, k):
    """Reference ERM: +1 and -1 label counts per subcube of each support, the
    minority count as its error, smallest (err, mask) wins."""
    best = None
    for combo in combinations(pool.coords(), k):
        J = IndexSet.of(pool.n, combo)
        ridx = restriction_indices(J, points)
        plus = np.bincount(ridx[labels == 1], minlength=1 << k)
        minus = np.bincount(ridx[labels == -1], minlength=1 << k)
        key = (int(np.minimum(plus, minus).sum()), J.mask)
        if best is None or key < best[0]:
            best = (key, JuntaHypothesis(J, np.where(plus >= minus, 1, -1)))
    return best[1], best[0][0]


@pytest.mark.parametrize(
    "pool_size, k, m",
    [
        (4, 2, 3),  # most buckets see no point
        (8, 1, 500),
        (9, 3, 40),
        (12, 3, 2_000),
        (BULK_WHT_MAX_N, 2, 300),  # the largest pool binned onto 2^|pool| cells
        (BULK_WHT_MAX_N + 1, 2, 300),  # the smallest pool read off bit columns
        (BULK_WHT_MAX_N + 2, 3, 500),
        (BULK_WHT_MAX_N + 2, 4, 1_000),
        # nearly every set of the pool: 2k >= |pool| - 1 bins it onto 2^|pool| cells
        (BULK_WHT_MAX_N + 1, BULK_WHT_MAX_N, 300),
    ],
)
def test_best_junta_matches_per_support_tallies(pool_size, k, m):
    for n in (24, 63):
        rng = np.random.default_rng(pool_size * 100 + k)
        coords = rng.choice(np.arange(1, n + 1), pool_size, replace=False)
        if n == 63 and n not in coords:
            coords[0] = n  # the top coordinate, bit 62 of the packed word
        pool = IndexSet.of(n, (int(c) for c in coords))
        points = rng.integers(0, 1 << n, size=m, dtype=np.uint64)
        target = IndexSet.of(n, sorted(pool.coords())[-k:])
        planted = JuntaHypothesis(target, rng.choice([-1, 1], 1 << k))
        noisy = np.where(rng.random(m) < 0.2, -1, 1) * planted.label_bits(points)
        ones = np.ones(m, dtype=np.int8)
        for labels in (noisy.astype(np.int8), ones, -ones):
            h, err = best_junta(points, labels, pool, k)
            ref_h, ref_err = _per_support_best_junta(points, labels, pool, k)
            assert (err, h.J.mask) == (ref_err, ref_h.J.mask)
            np.testing.assert_array_equal(h.table, ref_h.table)
            assert int(np.count_nonzero(h.label_bits(points) != labels)) == err


def test_erm_rejects_labels_outside_plus_minus_one():
    points = np.array([0, 1, 2], dtype=np.uint64)
    labels = np.array([1, 0, -1], dtype=np.int8)
    with pytest.raises(ValueError, match="labels"):
        best_junta(points, labels, IndexSet.full(3), 1)
    with pytest.raises(ValueError, match="labels"):
        best_junta(points, labels, IndexSet.of(3, [1]), 1)


def test_best_junta_needs_enough_coordinates():
    with pytest.raises(ValueError):
        best_junta(
            np.array([0], dtype=np.uint64),
            np.array([1], dtype=np.int8),
            IndexSet.of(4, [2]),
            2,
        )


def test_erm_refuses_non_integer_labels():
    # float and bool labels are refused even at +-1: the label check reads
    # integer reductions only
    points = np.array([0, 1], dtype=np.uint64)
    for labels in (np.array([1.0, -1.0]), np.array([0.5, -1.0]), np.array([True, True])):
        with pytest.raises(ValueError, match="labels"):
            best_junta(points, labels, IndexSet.of(3, [1]), 1)


@pytest.mark.parametrize("step", [64, 37])
def test_wide_pool_sums_add_across_point_steps(monkeypatch, step):
    # steps of one 64-point word, and of an odd count that splits words, give
    # the per-support tallies at sample sizes around a word
    monkeypatch.setattr(learner, "_BIN_CHUNK", step)
    rng = np.random.default_rng(step)
    coords = rng.choice(np.arange(1, 64), BULK_WHT_MAX_N + 2, replace=False)
    pool = IndexSet.of(63, coords.tolist())
    for m in (1, 63, 64, 65):
        points = rng.integers(0, 1 << 63, size=m, dtype=np.uint64)
        labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
        h, err = best_junta(points, labels, pool, 3)
        ref_h, ref_err = _per_support_best_junta(points, labels, pool, 3)
        assert (err, h.J.mask) == (ref_err, ref_h.J.mask)
        np.testing.assert_array_equal(h.table, ref_h.table)


def _best_junta_peak(m, pool, k):
    rng = np.random.default_rng(m)
    points = rng.integers(0, 1 << pool.n, size=m, dtype=np.uint64)
    labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    tracemalloc.start()
    try:
        best_junta(points, labels, pool, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_best_junta_peak_is_flat_in_the_sample():
    # the sample is binned onto the 2^16 cells a bounded step at a time and
    # the labels checked by reductions, so no temporary grows with it; a
    # one-pass bincount holds ~24 bytes a point (60 MB more at 3 M points)
    peaks = [_best_junta_peak(m, IndexSet.full(16), 3) for m in (500_000, 3_000_000)]
    assert abs(peaks[1] - peaks[0]) < 1 << 20
    assert max(peaks) < 8 << 20


def test_wide_pool_erm_peak_is_flat_in_the_sample():
    # a pool over BULK_WHT_MAX_N coordinates packs a bounded step of points
    # into bit columns at a time, so no temporary grows with the sample
    pool = IndexSet.of(24, range(1, BULK_WHT_MAX_N + 2))
    peaks = [_best_junta_peak(m, pool, 2) for m in (100_000, 400_000)]
    assert peaks[0] < 6 << 20
    assert abs(peaks[1] - peaks[0]) < 1 << 20


# ---------------------------------------------------------------------------
# Full pipeline


def practical_params(k, epsilon, delta, screen=40_000, sample=20_000):
    return LearnParams(k, epsilon, delta, screen_pairs=screen, erm_sample=sample)


def test_learn_recovers_noiseless_and():
    n, k = 8, 2
    f = and_table(n, [3, 6])
    params = practical_params(k, 0.25, 0.2)
    outcome = learn_outcome(RandomWalkOracle(f, n, seed=17), params)
    assert distance_exact(f, outcome.hypothesis) == 0
    assert set(outcome.hypothesis.J.coords()) == {3, 6}
    assert outcome.walk_steps > 0
    assert outcome.sample_size == 20_000
    assert outcome.disagreements == 0  # an exact hypothesis on a noiseless sample


def test_learn_under_noise_stays_close():
    n, k = 8, 2
    rng = np.random.default_rng(30)
    clean = and_table(n, [2, 7])
    noisy = flip_labels_iid(clean, 0.1, rng)
    params = practical_params(k, 0.25, 0.2)
    outcome = learn_outcome(RandomWalkOracle(noisy, n, seed=18), params)
    opt = distance_exact(noisy, clean)  # the planted junta's own error
    achieved = distance_exact(noisy, outcome.hypothesis)
    assert float(achieved) <= float(opt) + 0.25
    # empirical error tracks true error at this sample size
    assert abs(outcome.disagreements / outcome.sample_size - float(achieved)) < 0.05


def test_learn_logs_nothing(caplog):
    # budget warnings come from the entry points, so suite trials stay silent
    params = practical_params(2, 0.5, 0.2, screen=5_000, sample=4_000)
    with caplog.at_level(logging.DEBUG):
        learn_outcome(RandomWalkOracle(parity_table(6, [2, 5]), 6, seed=22), params)
    assert caplog.records == []


def test_learn_pads_pool_for_degenerate_targets():
    # a constant function gives an empty pool; padding must still yield k coords
    from junta_walk.functions import constant_table

    n, k = 6, 2
    f = constant_table(n, 1)
    params = practical_params(k, 0.5, 0.2, screen=5_000, sample=4_000)
    outcome = learn_outcome(RandomWalkOracle(f, n, seed=19), params)
    assert outcome.hypothesis.k == k
    assert outcome.pool.coords() == (1, 2)
    assert distance_exact(f, outcome.hypothesis) == 0


def test_learn_certified_tiny_case():
    # n=2 skips screening, so the pool is [n] and the sieve draws nothing
    f = parity_table(2, [2])
    params = LearnParams(k=1, epsilon=0.5, delta=0.25)
    assert params.mode == "certified"
    outcome = learn_outcome(RandomWalkOracle(f, 2, seed=20), params)
    log_size = log_junta_class_size(len(outcome.pool), 1)
    assert outcome.sample_size == sample_size_erm(0.25, 0.125, 2, log_size).m
    assert distance_exact(f, outcome.hypothesis) == 0
    # a certified run stops the sieve after its screen, as a practical one does
    assert outcome.hypothesis.to_dict() == {"J": [2], "table": [1, -1]}
    assert outcome.pool.coords() == (1, 2)
    assert (outcome.disagreements, outcome.sample_size) == (0, 11_270)
    assert outcome.walk_steps == 11_269
    assert outcome.sieve.to_dict() == {
        "n": 2, "sets": [], "estimates": [], "pool": [1, 2],
        "influences": [None, None], "candidates": 3, "truncated": False,
        "walk_steps": 0,
    }


def _heavy_sets(f, k, theta):
    """Masks of the sets S with |S| <= k and fhat(S)^2 >= theta, decided
    exactly: fhat(S) = w / 2^n for the integer transform entry w."""
    w = wht(f.values)
    bound = Fraction(theta) * 4**f.n
    return [s for s in range(1 << f.n) if s.bit_count() <= k and int(w[s]) ** 2 >= bound]


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("noise_seed", [None, 50])
def test_certified_pool_covers_every_heavy_set(n, noise_seed):
    # the screen at certified budgets pools every member of every heavy set,
    # so ERM over the pool has a k-junta within eps/2 of opt to find
    k, eps = 1, 0.5
    f = parity_table(n, [n])
    if noise_seed is not None:
        f = flip_labels_iid(f, 0.1, np.random.default_rng(noise_seed + n))
    outcome = learn_outcome(RandomWalkOracle(f, n, seed=60 + n), LearnParams(k, eps, 0.2))
    heavy = _heavy_sets(f, k, theta_for(k, eps))
    assert heavy and all(s & outcome.pool.mask == s for s in heavy)
    excess = distance_exact(f, outcome.hypothesis) - exact_opt(f, k).opt
    assert 0 <= excess <= Fraction(eps)


@pytest.mark.parametrize(
    "mode, n, k, eps, target",
    [("practical", 12, 2, 0.25, [4, 9]), ("certified", 4, 1, 0.5, [3])],
    ids=["practical", "certified"],
)
def test_stock_preset_skips_the_estimation_walk(monkeypatch, mode, n, k, eps, target):
    # either mode stops the sieve after its screen and reads no lag sample,
    # so a run's walk steps are the screen's plus the ERM walk's
    harvests = []
    draw = RandomWalkOracle.refresh_pairs

    def record(self, *args):
        harvests.append(draw(self, *args))
        return harvests[-1]

    monkeypatch.setattr(RandomWalkOracle, "refresh_pairs", record)
    f = flip_labels_iid(and_table(n, target), 0.1, np.random.default_rng(40))
    params = default_learn_params(n, k, eps, 0.2)
    if mode == "certified":
        params = LearnParams(k, eps, 0.2)
    outcome = learn_outcome(RandomWalkOracle(f, n, seed=41), params)
    assert [h.lags for h in harvests] == [None]
    assert outcome.sieve.sets == () and outcome.sieve.estimates == ()
    assert outcome.pool == pad_pool(outcome.sieve.pool, k)
    assert outcome.walk_steps == outcome.sieve.walk_steps + outcome.sample_size - 1
    assert set(outcome.hypothesis.J.coords()) == set(target)


def test_walk_steps_count_only_the_run_on_a_used_oracle():
    # an oracle that has served 5 000 steps before the run: the sieve and
    # the learner report the steps they drew, not the oracle's running total
    f = parity_table(8, [1, 2])
    params = SieveParams(2, 0.5, 0.1)
    budgets = practical_budgets(params, 8, 2000, 100)
    fresh, used = RandomWalkOracle(f, 8, seed=3), RandomWalkOracle(f, 8, seed=3)
    used.walk(5001)
    result = bounded_sieve(used, params, budgets)
    assert result.walk_steps == used.steps_served - 5000 > 0
    assert bounded_sieve(fresh, params, budgets).walk_steps == fresh.steps_served
    outcome = learn_outcome(used, practical_params(2, 0.5, 0.2, screen=2000, sample=500))
    assert outcome.walk_steps == used.steps_served - 5000 - result.walk_steps
    assert outcome.walk_steps == outcome.sieve.walk_steps + 499


def test_learn_rejects_k_above_n():
    f = parity_table(3, [1])
    params = LearnParams(k=4, epsilon=0.5, delta=0.2)
    with pytest.raises(ValueError, match="k=4 exceeds"):
        learn_outcome(RandomWalkOracle(f, 3, seed=21), params)


def test_learn_epsilon_controls_certified_cost():
    # smaller epsilon must never shrink the certified ERM walk
    loose = sample_size_erm(0.3 / 2, 0.05, 10, 5.0)
    tight = sample_size_erm(0.1 / 2, 0.05, 10, 5.0)
    assert tight.m > loose.m
