"""Bit-packed points, parities, truth tables, and exact distances."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import junta_walk
from junta_walk.cli import _load_instance
from junta_walk.hypercube import (
    IndexSet,
    JuntaHypothesis,
    Point,
    TruthTable,
    chi,
    distance_exact,
    flip,
    parity_sign_u64,
    restriction_indices,
)
from junta_walk.functions import and_table, parity_table


@st.composite
def dim_and_masks(draw, max_n=10, count=1):
    n = draw(st.integers(min_value=1, max_value=max_n))
    masks = [draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(count)]
    return (n, *masks)


# ---------------------------------------------------------------------------
# Point encoding


def test_point_all_plus_is_zero_word():
    p = Point(5)
    assert p.bits == 0
    assert [p.coord(i) for i in range(1, 6)] == [1, 1, 1, 1, 1]


def test_basis_point_sets_single_bit():
    e3 = Point(6, 1 << 2)  # e_3: all +1 except coordinate 3
    assert e3.bits == 0b100
    assert e3.coord(3) == -1
    assert all(e3.coord(i) == 1 for i in (1, 2, 4, 5, 6))


@given(dim_and_masks(count=1))
def test_signs_round_trip(nm):
    n, bits = nm
    signs = [Point(n, bits).coord(i) for i in range(1, n + 1)]
    assert set(signs) <= {1, -1}
    assert sum(1 << i for i, s in enumerate(signs) if s == -1) == bits


def test_point_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        Point(3, 0b1000)
    with pytest.raises(ValueError):
        Point(0, 0)


@given(dim_and_masks(count=1), st.data())
def test_flip_changes_exactly_one_coordinate(nm, data):
    n, bits = nm
    i = data.draw(st.integers(min_value=1, max_value=n))
    x = Point(n, bits)
    y = flip(x, i)
    assert y.coord(i) == -x.coord(i)
    assert all(y.coord(j) == x.coord(j) for j in range(1, n + 1) if j != i)
    assert flip(y, i) == x


# ---------------------------------------------------------------------------
# Index sets and parities


def test_index_set_basics():
    S = IndexSet.of(8, [2, 5, 7])
    assert len(S) == 3
    assert S.coords() == (2, 5, 7)
    assert 5 in S and 4 not in S and 9 not in S
    assert S.mask == 0b1010010


@given(dim_and_masks(max_n=12, count=3))
def test_chi_multiplicative(nmmm):
    n, s, a, b = nmmm
    S = IndexSet(n, s)
    x, y = Point(n, a), Point(n, b)
    assert chi(S, Point(n, a ^ b)) == chi(S, x) * chi(S, y)


def test_chi_on_basis_points():
    S = IndexSet.of(7, [1, 4])
    for i in range(1, 8):
        expected = -1 if i in S else 1
        assert chi(S, Point(7, 1 << (i - 1))) == expected


def test_chi_empty_set_is_constant_one():
    for bits in range(16):
        assert chi(IndexSet(4, 0), Point(4, bits)) == 1


@given(dim_and_masks(max_n=16, count=2))
def test_parity_sign_matches_scalar_chi(nmm):
    n, s, x = nmm
    arr = np.arange(1 << min(n, 10), dtype=np.uint64)
    signs = parity_sign_u64(arr, s)
    S = IndexSet(n, s)
    for bits in (0, int(arr[-1]), x % len(arr)):
        assert signs[bits] == chi(S, Point(n, bits))


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
    for build in make:
        v = np.array([1, -1], dtype=np.int8)
        h = build(v)
        assert v.flags.writeable  # the caller's array is not frozen
        v[0] = -1
        assert h(0) == 1
        base = np.ones(4, dtype=np.int8)
        h = build(base[:2])
        base[0] = 7  # writing through the base cannot reach the table
        assert h(0) == 1


def test_truth_table_call_and_vectorized_agree():
    rng = np.random.default_rng(0)
    values = rng.choice(np.array([-1, 1], dtype=np.int8), size=32)
    f = TruthTable(5, values)
    bits = np.arange(32, dtype=np.uint64)
    np.testing.assert_array_equal(f.label_bits(bits), [f(int(b)) for b in bits])


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
    h = JuntaHypothesis(IndexSet.of(6, [2, 5]), [1, -1, 1, -1])
    x = Point(6, 0b000010)  # coordinate 2 is -1
    assert h.restriction_index(x.bits) == 0b01
    y = Point(6, 0b010000)  # coordinate 5 is -1
    assert h.restriction_index(y.bits) == 0b10


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
    for bits in range(1 << n):
        assert f(bits) == h(bits)


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
    x = Point(5, 0b00010)  # coordinate 2 is -1
    for j in (1, 3, 4, 5):
        assert h(flip(x, j)) == h(x)
    assert h(flip(x, 2)) != h(x)


def test_junta_json_round_trip():
    h = JuntaHypothesis(IndexSet.of(6, [1, 4]), [1, -1, -1, 1])
    obj = json.loads(h.to_json())
    assert obj == {"J": [1, 4], "table": [1, -1, -1, 1]}
    g = JuntaHypothesis(IndexSet.of(6, obj["J"]), obj["table"])
    assert g.J == h.J
    np.testing.assert_array_equal(g.table, h.table)


def test_call_rejects_point_of_other_dimension():
    h = JuntaHypothesis(IndexSet.of(4, [1]), [1, -1])
    f = h.to_truth_table()
    for g in (h, f):
        assert g(Point(4, 0b0001)) == -1
        for other in (Point(5), Point(3), Point(5, 3)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                g(other)
        assert g(0b1111) == -1
        for packed in (1 << 4, 1 << 10, -1):
            with pytest.raises(ValueError, match="outside"):
                g(packed)


def test_restriction_indices_matches_scalar():
    J = IndexSet.of(8, [1, 3, 8])
    h = JuntaHypothesis(J, [1] * 8)
    bits = np.arange(256, dtype=np.uint64)
    np.testing.assert_array_equal(
        restriction_indices(J, bits), [h.restriction_index(int(b)) for b in bits]
    )


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


def test_every_package_export_resolves():
    assert len(set(junta_walk.__all__)) == len(junta_walk.__all__)
    for name in junta_walk.__all__:
        assert getattr(junta_walk, name) is not None, name
    namespace: dict = {}
    exec("from junta_walk import *", namespace)
    assert set(junta_walk.__all__) <= set(namespace)
