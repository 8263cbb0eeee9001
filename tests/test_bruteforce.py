"""Exact optima, the restriction certificate search, and the AND fixtures."""

import json
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_walk.functions import (
    and_table,
    constant_table,
    parity_table,
    random_junta,
    random_table,
)
from junta_walk.hypercube import (
    IndexSet,
    TruthTable,
    distance_exact,
    restriction_indices,
)
from junta_walk.learner import best_junta
from junta_walk.oracle_bruteforce import (
    LemmaWitness,
    OptResult,
    _clears_floor,
    coefficient_bound,
    counterexample_fixtures,
    exact_opt,
    relevant_coords,
    verify_spectrum_lemma,
)


# ---------------------------------------------------------------------------
# Exact optima


def _best_on_support(f, J):
    """The best J-junta for f and its exact distance: ERM over the whole cube."""
    cube = np.arange(1 << f.n, dtype=np.uint64)
    h, disagree = best_junta(cube, f.values, J, len(J))
    return h.table, Fraction(disagree, 1 << f.n)


def test_exact_opt_for_parity_on_wrong_coordinate():
    f = parity_table(2, [1, 2])
    table, dist = _best_on_support(f, IndexSet.of(2, [1]))
    assert dist == Fraction(1, 2)
    np.testing.assert_array_equal(table, [1, 1])  # all buckets tie to +1
    assert exact_opt(f, 1, include_per_set=True).per_set[0b01] == dist


def test_exact_opt_for_own_support_is_exact():
    f = and_table(4, [2, 3])
    table, dist = _best_on_support(f, IndexSet.of(4, [2, 3]))
    assert dist == 0
    np.testing.assert_array_equal(table, [1, 1, 1, -1])
    assert exact_opt(f, 2, include_per_set=True).per_set[0b0110] == 0


def test_exact_opt_and2_best_dictator():
    f = and_table(2, [1, 2])
    res = exact_opt(f, 1, include_per_set=True)
    assert res.opt == Fraction(1, 4)
    assert res.witness.J.coords() == (1,)  # tie against {2} resolves low
    assert res.per_set == {0b01: Fraction(1, 4), 0b10: Fraction(1, 4)}


def test_exact_opt_constant_prefers_smallest_mask():
    res = exact_opt(constant_table(4, -1), 2)
    assert res.opt == 0
    assert res.witness.J.coords() == (1, 2)


def test_exact_opt_per_set_default_off():
    res = exact_opt(parity_table(3, [2]), 1)
    assert isinstance(res, OptResult)
    assert res.per_set is None


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
def test_exact_opt_witness_achieves_optimum(seed, k):
    f = random_table(4, np.random.default_rng(seed))
    res = exact_opt(f, k)
    assert distance_exact(f, res.witness) == res.opt
    assert res.witness.k == k


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_exact_opt_is_a_true_minimum(seed):
    # no 1-junta can beat the reported optimum
    f = random_table(3, np.random.default_rng(seed))
    res = exact_opt(f, 1, include_per_set=True)
    assert res.per_set is not None
    assert min(res.per_set.values()) == res.opt


def test_exact_opt_validation():
    f = parity_table(3, [1])
    with pytest.raises(ValueError):
        exact_opt(f, 0)
    with pytest.raises(ValueError):
        exact_opt(f, 4)
    big = TruthTable(17, np.ones(1 << 17, dtype=np.int8))
    with pytest.raises(ValueError):
        exact_opt(big, 1)


def _per_support_opt(f: TruthTable, k: int):
    """Reference exact opt: restriction indices and a bincount over the whole
    cube for every support, keeping the smallest (distance, mask)."""
    cube = np.arange(1 << f.n, dtype=np.uint64)
    best, per_set = None, {}
    for combo in combinations(range(1, f.n + 1), k):
        J = IndexSet.of(f.n, combo)
        ridx = restriction_indices(J, cube)
        weights = f.values.astype(np.float64)
        sums = np.bincount(ridx, weights=weights, minlength=1 << k).astype(np.int64)
        dist = Fraction(((1 << f.n) - int(np.abs(sums).sum())) // 2, 1 << f.n)
        per_set[J.mask] = dist
        if best is None or (dist, J.mask) < best[:2]:
            best = (dist, J.mask, np.where(sums >= 0, 1, -1))
    return best, per_set


def _opt_reference_tables(n: int):
    rng = np.random.default_rng(100 + n)
    yield random_table(n, rng)
    yield TruthTable(n, np.where(rng.random(1 << n) < 0.1, -1, 1))  # sparse minus
    yield constant_table(n, 1)
    yield constant_table(n, -1)
    yield parity_table(n, range(1, n + 1))
    yield parity_table(n, [n])
    yield and_table(n, range(1, min(n, 3) + 1))


def test_erm_over_the_whole_cube_is_exact_opt():
    # the learner's ERM on every point of the cube, labelled by f, is exact opt
    for n in range(1, 11):
        cube = np.arange(1 << n, dtype=np.uint64)
        for f in _opt_reference_tables(n):
            for k in range(1, min(n, 3) + 1):
                res = exact_opt(f, k)
                h, err = best_junta(cube, f.values, IndexSet.full(n), k)
                assert h.J.mask == res.witness.J.mask
                assert err == res.opt * (1 << n)
                np.testing.assert_array_equal(h.table, res.witness.table)


@pytest.mark.parametrize("n", range(1, 11))
def test_exact_opt_matches_per_support_reference(n):
    for f in _opt_reference_tables(n):
        for k in range(1, n + 1):
            (dist, mask, table), per_set = _per_support_opt(f, k)
            res = exact_opt(f, k, include_per_set=True)
            assert (res.opt, res.witness.J.mask) == (dist, mask)
            np.testing.assert_array_equal(res.witness.table, table)
            assert res.per_set == per_set
            assert list(res.per_set) == list(per_set)  # same support order
            J = IndexSet(n, mask)
            h_table, h_dist = _best_on_support(f, J)
            assert h_dist == dist
            np.testing.assert_array_equal(h_table, table)


# ---------------------------------------------------------------------------
# Relevant coordinates and the certificate search


def test_relevant_coords():
    assert relevant_coords(parity_table(5, [2, 4])).coords() == (2, 4)
    assert relevant_coords(and_table(5, [1, 5])).coords() == (1, 5)
    assert relevant_coords(constant_table(5, 1)).coords() == ()


def test_coefficient_bound_value():
    assert coefficient_bound(1, 0.5) == pytest.approx((1 - 2 ** -0.5) * 0.5)
    assert coefficient_bound(3, 0.5) == pytest.approx((1 - 2 ** -0.5) * 0.25)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.3, 0.5, 1.0])
def test_coefficient_floor_is_decided_exactly(k, epsilon):
    # the smallest integer |c| clearing (1 - 1/sqrt(2)) 2^(-(k-1)/2) eps 2^n,
    # from a 60-digit reference; the floor is irrational, so never equal to c
    with localcontext() as ctx:
        ctx.prec = 60
        for n in (4, 8, 12):
            scale = Fraction(epsilon) * (1 << n)
            floor = (1 - 1 / Decimal(2).sqrt()) / Decimal(2) ** (Decimal(k - 1) / 2)
            floor *= Decimal(scale.numerator) / Decimal(scale.denominator)
            c = int(floor.to_integral_value(rounding=ROUND_CEILING))
            assert _clears_floor(c, k, scale) and _clears_floor(-c, k, scale)
            assert not _clears_floor(c - 1, k, scale)


def test_lemma_trivial_self_certificate():
    f = parity_table(4, [1, 2])
    w = verify_spectrum_lemma(f, f, epsilon=0.25, k=2)
    assert w is not None
    assert w.fixed == ()
    assert w.inner_original == 1 and w.inner_restricted == 1
    assert set(w.witnesses) == {1, 2}
    S, coeff = w.witnesses[1]
    assert S.coords() == (1, 2) and coeff == 1


def test_lemma_drops_unsupported_coordinate():
    # f knows nothing about coordinate 3, so the certificate must fix it away
    f = and_table(3, [1, 2])
    g = and_table(3, [2, 3])
    w = verify_spectrum_lemma(f, g, epsilon=0.5, k=2)
    assert w is not None
    assert 3 not in relevant_coords(w.g_prime)
    assert float(w.inner_restricted) >= float(w.inner_original) - 0.5
    for i, (S, coeff) in w.witnesses.items():
        assert i in S
        assert abs(float(coeff)) >= w.bound - 1e-9


def test_lemma_fixes_when_zero_fixes_fail():
    # f is constant: chi_1 has no heavy witness, but fixing coordinate 1
    # collapses g to a constant whose certificate is vacuous
    f = constant_table(4, 1)
    g = parity_table(4, [1])
    w = verify_spectrum_lemma(f, g, epsilon=0.5, k=1)
    assert w is not None
    assert w.fixed == ((1, 1),)
    assert relevant_coords(w.g_prime).coords() == ()
    assert w.inner_original == 0 and w.inner_restricted == 1


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=5_000))
def test_lemma_certifies_opt_witnesses(seed):
    f = random_table(5, np.random.default_rng(seed))
    g = exact_opt(f, 2).witness.to_truth_table()
    w = verify_spectrum_lemma(f, g, epsilon=0.25, k=2)
    assert w is not None
    assert float(w.inner_restricted) >= float(w.inner_original) - 0.25 - 1e-9


def test_lemma_witnesses_lose_at_most_epsilon_on_random_juntas():
    # g is a random k-junta rather than f's best one, so the cheapest
    # restrictions often lose more than epsilon of <f, g> and must be skipped
    rng = np.random.default_rng(2024)
    found = 0
    for _ in range(400):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 4))
        epsilon = float(rng.choice([0.05, 0.1, 0.2, 0.3]))
        f = random_table(n, rng)
        g = random_junta(n, k, rng).to_truth_table()
        w = verify_spectrum_lemma(f, g, epsilon, k)
        if w is None:
            continue
        found += 1
        assert w.inner_original - w.inner_restricted <= Fraction(epsilon)
        assert set(w.witnesses) == set(relevant_coords(w.g_prime))
        for i, (S, coeff) in w.witnesses.items():
            assert i in S and abs(float(coeff)) >= w.bound - 1e-9
    assert found >= 100


def test_lemma_validation():
    f = parity_table(4, [1])
    with pytest.raises(ValueError):
        verify_spectrum_lemma(f, parity_table(5, [1]), epsilon=0.2, k=1)
    with pytest.raises(ValueError):
        verify_spectrum_lemma(f, parity_table(4, [1, 2]), epsilon=0.2, k=1)
    with pytest.raises(ValueError):
        verify_spectrum_lemma(f, f, epsilon=0.0, k=1)
    big = TruthTable(13, np.ones(1 << 13, dtype=np.int8))
    with pytest.raises(ValueError):
        verify_spectrum_lemma(big, big, epsilon=0.2, k=1)


def test_lemma_witness_json():
    f = and_table(3, [1, 2])
    w = verify_spectrum_lemma(f, f, epsilon=0.5, k=2)
    assert isinstance(w, LemmaWitness)
    obj = json.loads(json.dumps(w.to_dict(), allow_nan=False))
    assert set(obj) == {
        "fixed",
        "witnesses",
        "inner_original",
        "inner_restricted",
        "bound",
    }


# ---------------------------------------------------------------------------
# AND fixtures


@pytest.mark.parametrize("k", range(1, 7))
def test_fixtures_pass_exactly(k):
    report = counterexample_fixtures(k)
    assert report.all_pass
    assert report.facts == {
        "tight_coefficients": True,
        "shifted_inner_product": True,
        "vanishing_coefficients": True,
    }


def test_fixture_report_json():
    report = counterexample_fixtures(3)
    obj = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert obj["k"] == 3
    assert set(obj["facts"]) == set(obj["detail"])


def test_fixture_range():
    with pytest.raises(ValueError):
        counterexample_fixtures(0)
    with pytest.raises(ValueError):
        counterexample_fixtures(11)
