"""Bit-packed points, parities, truth tables, and exact distances."""

import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import junta_walk
from junta_walk.cli import _load_instance
from junta_walk.fourier import Spectrum, blocks_for, default_lag, expected_bounded_influence
from junta_walk.functions import (
    and_table,
    flip_labels_iid,
    flip_labels_region,
    parity_table,
    random_junta,
    random_table,
)
from junta_walk.harness import Corruption
from junta_walk.hypercube import (
    IndexSet,
    JuntaHypothesis,
    TruthTable,
    distance_exact,
    parity_sign_u64,
    restriction_indices,
    signed_sums,
)
from junta_walk.learner import LearnParams, log_junta_class_size, pad_pool, theta_for
from junta_walk.oracle_bruteforce import (
    coefficient_bound,
    counterexample_fixtures,
    exact_opt,
    verify_spectrum_lemma,
)
from junta_walk.sieve import SieveBudgets, SieveParams, SieveResult, certify_result
from junta_walk.walk import (
    gap_for_density,
    generate_walk,
    harvest_refresh_pairs,
    lag_pairs,
    sample_size_concentration,
    sample_size_erm,
)


@st.composite
def dim_and_mask(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    return n, draw(st.integers(min_value=0, max_value=(1 << n) - 1))


# ---------------------------------------------------------------------------
# Packed-bits encoding, read through the dictator tables x -> x_i


def _dictators(n: int) -> list[np.ndarray]:
    """Entry i-1 holds x_i at every packed point of the n-cube."""
    return [parity_table(n, [i]).values for i in range(1, n + 1)]


def test_point_all_plus_is_zero_word():
    assert [x_i[0] for x_i in _dictators(5)] == [1, 1, 1, 1, 1]


def test_basis_point_sets_single_bit():
    e3 = 1 << 2  # e_3: all +1 except coordinate 3
    assert [x_i[e3] for x_i in _dictators(6)] == [1, 1, -1, 1, 1, 1]


@given(dim_and_mask())
def test_signs_round_trip(nm):
    n, bits = nm
    signs = [int(x_i[bits]) for x_i in _dictators(n)]
    assert set(signs) <= {1, -1}
    assert sum(1 << i for i, s in enumerate(signs) if s == -1) == bits


@given(dim_and_mask(), st.data())
def test_flip_changes_exactly_one_coordinate(nm, data):
    # flipping coordinate i is xor with the basis word 1 << (i-1)
    n, bits = nm
    i = data.draw(st.integers(min_value=1, max_value=n))
    y = bits ^ (1 << (i - 1))
    for j, x_j in enumerate(_dictators(n), start=1):
        assert x_j[y] == (-x_j[bits] if j == i else x_j[bits])


# ---------------------------------------------------------------------------
# Index sets and parities


def test_index_set_basics():
    S = IndexSet.of(8, [2, 5, 7])
    assert len(S) == 3
    assert S.coords() == (2, 5, 7)
    assert 5 in S and 4 not in S and 9 not in S
    assert S.mask == 0b1010010


def test_index_set_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        IndexSet(3, 0b1000)
    with pytest.raises(ValueError):
        IndexSet(0, 0)


@given(st.integers(min_value=1, max_value=63), st.data())
def test_chi_multiplicative(n, data):
    words = st.integers(min_value=0, max_value=(1 << n) - 1)
    points = st.lists(words, min_size=8, max_size=8).map(lambda w: np.array(w, dtype=np.uint64))
    s, a, b = data.draw(words), data.draw(points), data.draw(points)
    np.testing.assert_array_equal(
        parity_sign_u64(a ^ b, s), parity_sign_u64(a, s) * parity_sign_u64(b, s)
    )


def test_chi_on_basis_points():
    S = IndexSet.of(7, [1, 4])
    basis = np.array([1 << (i - 1) for i in range(1, 8)], dtype=np.uint64)
    expected = [-1 if i in S else 1 for i in range(1, 8)]
    assert parity_sign_u64(basis, S.mask).tolist() == expected


def test_chi_empty_set_is_constant_one():
    assert set(parity_sign_u64(np.arange(16, dtype=np.uint64), 0).tolist()) == {1}


@given(dim_and_mask())
def test_parity_sign_is_a_single_character(nm):
    # read over the whole cube, chi_S has the one Fourier coefficient 1 at S
    n, s = nm
    signs = parity_sign_u64(np.arange(1 << n, dtype=np.uint64), s)
    coeffs = Spectrum.from_table(TruthTable(n, signs)).coeffs
    assert coeffs[s] == 1.0
    assert np.count_nonzero(coeffs) == 1


# ---------------------------------------------------------------------------
# Truth tables


def test_truth_table_rejects_bad_values():
    with pytest.raises(ValueError):
        TruthTable(2, [1, 1, 0, -1])
    with pytest.raises(ValueError):
        TruthTable(2, [1, 1, -1])  # wrong length
    for values in ([1.5, -1], [1, -0.5], [0.999, -1], [257, -1]):
        with pytest.raises(ValueError, match="values"):  # not truncated to +-1
            TruthTable(1, values)
    with pytest.raises(ValueError, match="values"):  # True is not the sign +1
        TruthTable(1, [True, True])
    assert TruthTable(1, [1.0, -1.0]).values.tolist() == [1, -1]


def test_tables_copy_the_callers_array():
    make = (lambda v: TruthTable(1, v), lambda v: JuntaHypothesis(IndexSet.of(3, [2]), v))
    origin = np.zeros(1, dtype=np.uint64)
    for build in make:
        v = np.array([1, -1], dtype=np.int8)
        h = build(v)
        assert v.flags.writeable  # the caller's array is not frozen
        v[0] = -1
        assert h.label_bits(origin).tolist() == [1]
        base = np.ones(4, dtype=np.int8)
        h = build(base[:2])
        base[0] = 7  # writing through the base cannot reach the table
        assert h.label_bits(origin).tolist() == [1]


def test_truth_table_label_bits_reads_values():
    f = random_table(5, np.random.default_rng(0))
    bits = np.array([31, 0, 7, 7, 16], dtype=np.uint64)
    np.testing.assert_array_equal(f.label_bits(bits), f.values[[31, 0, 7, 7, 16]])


def test_truth_table_json_round_trip(tmp_path):
    # the instance-file form that `junta-walk gen` writes and every command loads
    f = parity_table(4, [1, 3])
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": f.n, "values": [int(v) for v in f.values]}))
    g, _ = _load_instance(str(path))
    assert g.n == f.n
    np.testing.assert_array_equal(g.values, f.values)


def test_truth_table_values_read_only():
    f = parity_table(3, [2])
    with pytest.raises(ValueError):
        f.values[0] = -1


# ---------------------------------------------------------------------------
# Junta hypotheses


def test_restriction_index_uses_increasing_coordinate_order():
    # J = {2, 5}: bit 0 of the index comes from coordinate 2, bit 1 from 5
    J = IndexSet.of(6, [2, 5])
    points = np.array([0b000010, 0b010000], dtype=np.uint64)  # coordinate 2, then 5, is -1
    assert restriction_indices(J, points).tolist() == [0b01, 0b10]


@given(st.integers(min_value=1, max_value=8), st.data())
def test_junta_table_round_trip(n, data):
    k = data.draw(st.integers(min_value=0, max_value=min(n, 3)))
    coords = data.draw(
        st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    )
    table = data.draw(
        st.lists(st.sampled_from([-1, 1]), min_size=1 << k, max_size=1 << k)
    )
    h = JuntaHypothesis(IndexSet.of(n, coords), table)
    f = h.to_truth_table()
    np.testing.assert_array_equal(h.label_bits(np.arange(1 << n, dtype=np.uint64)), f.values)


def test_junta_table_allocates_no_wide_temporary():
    # the table is broadcast over the cube, so its only 2^n arrays are the
    # int8 result and the sign check's bools; 8-byte index temporaries per
    # point would leave a 20-coordinate op's heap with more free space than
    # glibc keeps between ops, and the next op would refault it
    n = 20
    h = JuntaHypothesis(IndexSet.of(n, [2, 9, 17]), [1, -1, -1, 1, 1, 1, -1, 1])
    tracemalloc.start()
    try:
        f = h.to_truth_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << n
    want = h.label_bits(np.arange(1 << n, dtype=np.uint64))
    assert f.values.tobytes() == want.tobytes()


def test_junta_ignores_coordinates_outside_J():
    h = JuntaHypothesis(IndexSet.of(5, [2]), [1, -1])
    x = 0b00010  # coordinate 2 is -1
    neighbours = np.array([x ^ (1 << (j - 1)) for j in range(1, 6)], dtype=np.uint64)
    assert h.label_bits(np.array([x], dtype=np.uint64)).tolist() == [-1]
    assert h.label_bits(neighbours).tolist() == [-1, 1, -1, -1, -1]


def test_junta_json_round_trip():
    h = JuntaHypothesis(IndexSet.of(6, [1, 4]), [1, -1, -1, 1])
    obj = json.loads(json.dumps(h.to_dict()))
    assert obj == {"J": [1, 4], "table": [1, -1, -1, 1]}
    g = JuntaHypothesis(IndexSet.of(6, obj["J"]), obj["table"])
    assert g.J == h.J
    np.testing.assert_array_equal(g.table, h.table)


def test_restriction_indices_match_the_broadcast_cube():
    # the junta whose table reads bit j of the restriction index, broadcast
    # over the cube, gives that bit of restriction_indices at every point
    J = IndexSet.of(8, [1, 3, 8])
    bits = np.arange(256, dtype=np.uint64)
    idx = restriction_indices(J, bits)
    for j in range(len(J)):
        h = JuntaHypothesis(J, 1 - 2 * ((np.arange(8) >> j) & 1))
        np.testing.assert_array_equal(h.to_truth_table().values, 1 - 2 * ((idx >> j) & 1))
        np.testing.assert_array_equal(h.label_bits(bits), h.to_truth_table().values[bits])


@pytest.mark.parametrize("size", [3, 17])
def test_signed_sums_steps_give_one_bincount(size):
    # point counts around the binning step, max(_BIN_CHUNK, 2^|J|), the
    # 17-coordinate table being wider than _BIN_CHUNK: the steps' int64
    # sums are byte-equal to one bincount over all the points
    n = 24
    rng = np.random.default_rng(600 + size)
    J = IndexSet.of(n, sorted(int(c) for c in rng.choice(np.arange(1, n + 1), size, False)))
    step = max(junta_walk.hypercube._BIN_CHUNK, 1 << size)
    for count in (0, 1, step - 1, step, step + 1, 3 * step + 5):
        bits = rng.integers(0, 1 << n, size=count, dtype=np.uint64)
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=count)
        want = np.bincount(restriction_indices(J, bits), weights=signs, minlength=1 << size)
        got = signed_sums(J, bits, signs)
        assert got.dtype == np.int64
        assert got.tobytes() == want.astype(np.int64).tobytes()


# ---------------------------------------------------------------------------
# Distances


def test_distance_to_self_and_negation():
    f = parity_table(5, [1, 2, 5])
    assert distance_exact(f, f) == 0
    assert distance_exact(f, TruthTable(f.n, -f.values)) == 1


def test_distance_between_shifted_ands():
    # AND on {1,2,3} vs AND on {2,3,4} at n=4 disagree on exactly 2 of 16 points
    f = and_table(4, [1, 2, 3])
    g = and_table(4, [2, 3, 4])
    assert distance_exact(f, g) == Fraction(1, 8)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_distance_via_inner_product(n, data):
    fv = data.draw(
        st.lists(st.sampled_from([-1, 1]), min_size=1 << n, max_size=1 << n)
    )
    gv = data.draw(
        st.lists(st.sampled_from([-1, 1]), min_size=1 << n, max_size=1 << n)
    )
    f, g = TruthTable(n, fv), TruthTable(n, gv)
    ip = Fraction(int(np.dot(np.array(fv, dtype=np.int64), gv)), 1 << n)
    assert distance_exact(f, g) == (1 - ip) / 2


def test_distance_accepts_junta_argument():
    h = JuntaHypothesis(IndexSet.of(3, [2]), [1, -1])
    assert distance_exact(h.to_truth_table(), h) == 0


def test_distance_refuses_a_function_of_another_dimension():
    h = JuntaHypothesis(IndexSet.of(5, [2]), [1, -1])
    with pytest.raises(ValueError, match="dimension mismatch: 5 != 4"):
        distance_exact(parity_table(4, [2]), h)


def test_distance_to_a_junta_allocates_no_wide_temporary():
    # h is read as its table broadcast over the cube, not at 2^n packed
    # points with 8-byte words and indices
    n = 20
    f = parity_table(n, [2, 9, 17])
    h = JuntaHypothesis(IndexSet.of(n, [2, 9, 17]), [1, -1, -1, 1, 1, 1, -1, 1])
    tracemalloc.start()
    try:
        d = distance_exact(f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << n
    assert d == Fraction(3, 8)  # the table differs from the parity at 3 of its 8 cells


def test_every_package_export_resolves():
    assert len(set(junta_walk.__all__)) == len(junta_walk.__all__)
    for name in junta_walk.__all__:
        assert getattr(junta_walk, name) is not None, name
    namespace: dict = {}
    exec("from junta_walk import *", namespace)
    assert set(junta_walk.__all__) <= set(namespace)


# ---------------------------------------------------------------------------
# Numeric arguments, checked through _check_integer and _check_real


F3 = parity_table(3, [1])
EMPTY_RESULT = SieveResult(3, (), (), IndexSet(3), (), 0, False, 0, SieveBudgets(1, 0, 1, 1))


def _rng():
    return np.random.default_rng(0)


# (entry, the parameter's name in the error, its kind, a call passing the value as it)
NUMERIC_ARGUMENTS = [
    ("IndexSet", "dimension n", int, lambda v: IndexSet(v)),
    ("IndexSet.of", "coordinate", int, lambda v: IndexSet.of(3, [v])),
    ("TruthTable", "truth table dimension n", int, lambda v: TruthTable(v, [1, -1])),
    ("exact_opt", "k", int, lambda v: exact_opt(F3, v)),
    ("counterexample_fixtures", "k", int, counterexample_fixtures),
    (
        "expected_bounded_influence",
        "coordinate i",
        int,
        lambda v: expected_bounded_influence(Spectrum.from_table(F3), v, 0.5),
    ),
    (
        "expected_bounded_influence",
        "refresh density p",
        float,
        lambda v: expected_bounded_influence(Spectrum.from_table(F3), 1, v),
    ),
    ("log_junta_class_size", "k", int, lambda v: log_junta_class_size(3, v)),
    ("log_junta_class_size", "pool_size", int, lambda v: log_junta_class_size(v, 1)),
    ("pad_pool", "k", int, lambda v: pad_pool(IndexSet.of(3, [1]), v)),
    ("verify_spectrum_lemma", "k", int, lambda v: verify_spectrum_lemma(F3, F3, 0.5, v)),
    ("default_lag", "dimension n", int, lambda v: default_lag(v, 0.1)),
    ("default_lag", "theta", float, lambda v: default_lag(8, v)),
    ("blocks_for", "accuracy", float, lambda v: blocks_for(v, 0.1)),
    ("blocks_for", "delta", float, lambda v: blocks_for(0.5, v)),
    ("random_junta", "k", int, lambda v: random_junta(3, v, _rng())),
    ("flip_labels_iid", "flip rate", float, lambda v: flip_labels_iid(F3, v, _rng())),
    (
        "flip_labels_region",
        "flip fraction",
        float,
        lambda v: flip_labels_region(F3, [True] * 8, v, _rng()),
    ),
    ("Corruption", "iid rate", float, lambda v: Corruption(kind="iid", rate=v)),
    ("Corruption", "planted fraction", float, lambda v: Corruption(kind="planted", fraction=v)),
    ("theta_for", "epsilon", float, lambda v: theta_for(2, v)),
    ("coefficient_bound", "k", int, lambda v: coefficient_bound(v, 0.5)),
    ("coefficient_bound", "epsilon", float, lambda v: coefficient_bound(2, v)),
    ("LearnParams", "epsilon", float, lambda v: LearnParams(2, v, 0.2)),
    ("LearnParams", "delta", float, lambda v: LearnParams(2, 0.25, v)),
    ("verify_spectrum_lemma", "epsilon", float, lambda v: verify_spectrum_lemma(F3, F3, v, 3)),
    ("SieveParams", "theta", float, lambda v: SieveParams(2, v, 0.1)),
    ("SieveParams", "delta", float, lambda v: SieveParams(2, 0.5, v)),
    (
        "certify_result",
        "theta",
        float,
        lambda v: certify_result(EMPTY_RESULT, Spectrum.from_table(F3), v, 2),
    ),
    ("generate_walk", "seed", int, lambda v: generate_walk(F3, 3, 4, v)),
    ("lag_pairs", "window", int, lambda v: lag_pairs(v, 3)),
    ("lag_pairs", "blocks", int, lambda v: lag_pairs(2, v)),
    ("harvest_refresh_pairs", "seed", int, lambda v: harvest_refresh_pairs(F3, 3, 10, 2, v)),
    ("gap_for_density", "refresh density p", float, lambda v: gap_for_density(4, v)),
    ("sample_size_concentration", "epsilon", float, lambda v: sample_size_concentration(v, 0.1, 8)),
    ("sample_size_concentration", "delta", float, lambda v: sample_size_concentration(0.1, v, 8)),
    (
        "sample_size_concentration",
        "dimension n",
        int,
        lambda v: sample_size_concentration(0.1, 0.1, v),
    ),
    ("sample_size_erm", "epsilon", float, lambda v: sample_size_erm(v, 0.1, 8, 1.0)),
    ("sample_size_erm", "delta", float, lambda v: sample_size_erm(0.1, v, 8, 1.0)),
    ("sample_size_erm", "dimension n", int, lambda v: sample_size_erm(0.1, 0.1, v, 1.0)),
    ("sample_size_erm", "log_class_size", float, lambda v: sample_size_erm(0.1, 0.1, 8, v)),
]


@pytest.mark.parametrize("value", [True, False, "1", None, math.nan])
@pytest.mark.parametrize(
    "entry, name, kind, call", NUMERIC_ARGUMENTS, ids=[f"{r[0]}-{r[1]}" for r in NUMERIC_ARGUMENTS]
)
def test_numeric_arguments_refuse_bools_and_non_numbers_by_name(entry, name, kind, call, value):
    # NaN is a real number, outside every interval, but not an integer
    error = ValueError if kind is float and isinstance(value, float) else TypeError
    with pytest.raises(error, match=re.escape(f"{name}={value!r}")):
        call(value)


def test_numeric_refusals_state_the_interval():
    with pytest.raises(ValueError, match=re.escape("theta=1.5 outside (0, 1]")):
        SieveParams(2, 1.5, 0.1)
    with pytest.raises(ValueError, match=re.escape("iid rate=0.6 outside [0, 0.5]")):
        Corruption(kind="iid", rate=0.6)
    with pytest.raises(ValueError, match=re.escape("log_class_size=inf outside [0, inf)")):
        sample_size_erm(0.1, 0.1, 8, math.inf)
    with pytest.raises(ValueError, match=re.escape("k=4 outside [1, 3]")):
        exact_opt(F3, 4)
    # each was computed from the bad value: -0.62, -6.0 and "negative shift count"
    with pytest.raises(ValueError, match=re.escape("epsilon=-3 outside (0, 1]")):
        coefficient_bound(2, -3)
    with pytest.raises(ValueError, match=re.escape("refresh density p=7.0 outside [0, 1]")):
        expected_bounded_influence(Spectrum.from_table(F3), 1, 7.0)
    with pytest.raises(ValueError, match=re.escape("k=-1 must be >= 1")):
        log_junta_class_size(3, -1)
    with pytest.raises(ValueError, match=re.escape("pool_size=-1 must be >= 0")):
        log_junta_class_size(-1, 1)
    with pytest.raises(TypeError, match=re.escape("k=1.5 must be an integer")):
        verify_spectrum_lemma(F3, F3, 0.5, k=1.5)
    # each once returned 0.207, 1, -1 and -1, or raised an unnamed error:
    # math's domain error twice, then numpy's for the sample and the seeds
    with pytest.raises(ValueError, match=re.escape("k=0 must be >= 1")):
        coefficient_bound(0, 0.5)
    with pytest.raises(ValueError, match=re.escape("dimension n=-4 outside [1, 63]")):
        default_lag(-4, 0.1)
    with pytest.raises(ValueError, match=re.escape("window=0 must be >= 2")):
        lag_pairs(0, 3)
    with pytest.raises(ValueError, match=re.escape("blocks=-1 must be >= 0")):
        lag_pairs(2, -1)
    with pytest.raises(ValueError, match=re.escape("dimension n=0 outside [1, 63]")):
        sample_size_erm(0.1, 0.1, 0, 1.0)
    with pytest.raises(ValueError, match=re.escape("dimension n=0 outside [1, 63]")):
        sample_size_concentration(0.1, 0.1, 0)
    with pytest.raises(ValueError, match=re.escape("k=4 outside [0, 3]")):
        random_junta(3, 4, _rng())
    with pytest.raises(ValueError, match=re.escape("seed=-1 must be >= 0")):
        harvest_refresh_pairs(F3, 3, 10, 2, -1)
    with pytest.raises(ValueError, match=re.escape("seed=-1 must be >= 0")):
        generate_walk(F3, 3, 4, -1)
    assert len(generate_walk(F3, 3, 4, np.random.SeedSequence(5)).points) == 4
    # numpy scalars, integers for a real and exact fractions pass
    assert LearnParams(np.int64(2), np.float64(0.25), Fraction(1, 5)).epsilon == 0.25
    assert SieveParams(2, 1, 0.1).theta == 1
