"""Threshold choices, subcube tallies, ERM, and the full learning pipeline."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_walk.fourier import BULK_WHT_MAX_N
from junta_walk.functions import and_table, flip_labels_iid, parity_table, random_junta
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
    pool_bound,
    relevant_pool,
    tally_and_best_junta,
    theta_for,
)
from junta_walk.sieve import (
    SieveBudgets,
    SieveParams,
    SieveResult,
    bounded_sieve,
    practical_budgets,
)
from junta_walk.walk import RandomWalkOracle, WalkConfig, generate_walk


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


def test_pool_bound_value():
    assert pool_bound(3, 0.25) == 4608


def test_log_class_size():
    assert log_junta_class_size(9, 3) == pytest.approx(9.975994243322877, rel=1e-12)
    assert log_junta_class_size(3, 3) == pytest.approx(8 * math.log(2))
    with pytest.raises(ValueError):
        log_junta_class_size(2, 3)


# ---------------------------------------------------------------------------
# Parameter modes


def test_mode_derivation():
    assert LearnParams(k=2, epsilon=0.2, delta=0.1).mode == "certified"
    assert LearnParams(k=2, epsilon=0.2, delta=0.1, erm_sample=1000).mode == "practical"


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


def _sieve_result(n, sets):
    budgets = SieveBudgets(
        screen_pairs=1, estimate_blocks=1, lag=1, gap_steps=1, mode="practical"
    )
    return SieveResult(
        n=n,
        sets=tuple(sets),
        estimates=tuple(1.0 for _ in sets),
        pool=IndexSet.full(n),
        influences=(),
        candidates=len(sets),
        truncated=False,
        walk_steps=0,
        budgets=budgets,
    )


def test_relevant_pool_unions_sets():
    sets = [IndexSet.of(6, [1, 3]), IndexSet.of(6, [3, 5])]
    assert relevant_pool(_sieve_result(6, sets)).coords() == (1, 3, 5)


def test_relevant_pool_empty_needs_dimension():
    # the result carries the dimension, so an empty family still has one
    assert relevant_pool(_sieve_result(4, [])) == IndexSet(4, 0)


def test_relevant_pool_accepts_sieve_result():
    f = parity_table(6, [2, 4])
    params = SieveParams(level=2, theta=0.5, delta=0.2)
    budgets = practical_budgets(params, 6, screen_pairs=20_000, estimate_blocks=4_000)
    res = bounded_sieve(RandomWalkOracle(f, 6, seed=3), params, budgets=budgets)
    assert relevant_pool(res).coords() == (2, 4)


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
    h, err = tally_and_best_junta(IndexSet.of(3, [1]), (points, labels))
    assert err == 0
    np.testing.assert_array_equal(h.table, [1, -1])


def test_tally_majority_with_conflict():
    # bucket x1=+1 sees labels {+1, -1}: tie goes to +1 and costs one point
    points = np.array([0b000, 0b000, 0b001], dtype=np.uint64)
    labels = np.array([1, -1, -1], dtype=np.int8)
    h, err = tally_and_best_junta(IndexSet.of(3, [1]), (points, labels))
    assert err == 1
    np.testing.assert_array_equal(h.table, [1, -1])
    assert isinstance(h, JuntaHypothesis)


def test_tally_unseen_buckets_default_positive():
    points = np.array([0b00], dtype=np.uint64)
    labels = np.array([-1], dtype=np.int8)
    h, err = tally_and_best_junta(IndexSet.of(2, [1, 2]), (points, labels))
    np.testing.assert_array_equal(h.table, [-1, 1, 1, 1])
    assert err == 0


def test_tally_accepts_labeled_walk():
    f = parity_table(5, [2])
    walk = generate_walk(f, WalkConfig(5, 200, seed=4))
    h, err = tally_and_best_junta(IndexSet.of(5, [2]), walk)
    assert err == 0
    assert distance_exact(f, h) == 0


def test_tally_rejects_bad_samples():
    J = IndexSet.of(3, [1])
    with pytest.raises(ValueError):
        tally_and_best_junta(J, (np.array([], dtype=np.uint64), np.array([])))
    with pytest.raises(ValueError):
        tally_and_best_junta(
            J, (np.array([1], dtype=np.uint64), np.array([1, -1], dtype=np.int8))
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
        ridx = [JuntaHypothesis(J, [1] * (1 << k)).restriction_index(int(p)) for p in points]
        for table in product([-1, 1], repeat=1 << k):
            cost = sum(1 for r, y in zip(ridx, labels) if table[r] != y)
            best = min(best, cost)
    assert err == best
    # the returned hypothesis achieves its reported cost on the sample
    realized = sum(1 for p, y in zip(points, labels) if h(int(p)) != y)
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
        (BULK_WHT_MAX_N + 1, 2, 300),  # the smallest pool binned per support
        (BULK_WHT_MAX_N + 2, 3, 500),
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
        tally_and_best_junta(IndexSet.of(3, [1]), (points, labels))


def test_best_junta_needs_enough_coordinates():
    with pytest.raises(ValueError):
        best_junta(
            np.array([0], dtype=np.uint64),
            np.array([1], dtype=np.int8),
            IndexSet.of(4, [2]),
            2,
        )


# ---------------------------------------------------------------------------
# Full pipeline


def practical_params(n, k, epsilon, delta, screen=40_000, blocks=8_000, sample=20_000):
    theta = theta_for(k, epsilon)
    sp = SieveParams(level=k, theta=theta, delta=delta / 2)
    return LearnParams(
        k=k,
        epsilon=epsilon,
        delta=delta,
        sieve_budgets=practical_budgets(sp, n, screen_pairs=screen, estimate_blocks=blocks),
        erm_sample=sample,
    )


def test_learn_recovers_noiseless_and():
    n, k = 8, 2
    f = and_table(n, [3, 6])
    params = practical_params(n, k, 0.25, 0.2)
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
    params = practical_params(n, k, 0.25, 0.2)
    outcome = learn_outcome(RandomWalkOracle(noisy, n, seed=18), params)
    opt = distance_exact(noisy, clean)  # the planted junta's own error
    achieved = distance_exact(noisy, outcome.hypothesis)
    assert float(achieved) <= float(opt) + 0.25
    # empirical error tracks true error at this sample size
    assert abs(outcome.disagreements / outcome.sample_size - float(achieved)) < 0.05


def test_learn_pads_pool_for_degenerate_targets():
    # a constant function gives an empty pool; padding must still yield k coords
    from junta_walk.functions import constant_table

    n, k = 6, 2
    f = constant_table(n, 1)
    params = practical_params(n, k, 0.5, 0.2, screen=5_000, blocks=2_000, sample=4_000)
    outcome = learn_outcome(RandomWalkOracle(f, n, seed=19), params)
    assert outcome.hypothesis.k == k
    assert outcome.pool.coords() == (1, 2)
    assert distance_exact(f, outcome.hypothesis) == 0


def test_learn_certified_tiny_case():
    # n=2 skips screening, so fully certified budgets stay affordable
    f = parity_table(2, [2])
    params = LearnParams(k=1, epsilon=0.5, delta=0.25)
    assert params.mode == "certified"
    outcome = learn_outcome(RandomWalkOracle(f, 2, seed=20), params)
    assert outcome.erm_plan.mode == "certified"
    assert distance_exact(f, outcome.hypothesis) == 0


def test_learn_rejects_k_above_n():
    f = parity_table(3, [1])
    params = LearnParams(k=4, epsilon=0.5, delta=0.2, erm_sample=100)
    with pytest.raises(ValueError):
        learn_outcome(RandomWalkOracle(f, 3, seed=21), params)


def test_learn_epsilon_controls_certified_cost():
    # smaller epsilon must never shrink the certified ERM walk
    from junta_walk.walk import sample_size_erm

    loose = sample_size_erm(0.3 / 2, 0.05, 10, 5.0)
    tight = sample_size_erm(0.1 / 2, 0.05, 10, 5.0)
    assert tight.m > loose.m
