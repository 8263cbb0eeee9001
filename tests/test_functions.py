"""Function factories: parities, ANDs, random juntas, label corrupters."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from junta_walk.functions import (
    and_table,
    constant_table,
    flip_labels_iid,
    flip_labels_region,
    parity_table,
    random_junta,
    random_table,
)
from junta_walk.fourier import Spectrum
from junta_walk.hypercube import IndexSet, distance_exact


@given(st.integers(min_value=1, max_value=8), st.data())
def test_parity_table_matches_chi(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    S = IndexSet(n, mask)
    coeffs = Spectrum.from_table(parity_table(n, S.coords())).coeffs
    assert coeffs[mask] == 1.0
    assert np.count_nonzero(coeffs) == 1


def test_and_table_truth_values():
    f = and_table(3, [1, 3])
    for bits in range(8):
        both_true = (bits & 0b101) == 0b101  # coords 1 and 3 both -1
        assert f.values[bits] == (-1 if both_true else 1)


def test_and_single_coordinate_is_dictator():
    f = and_table(4, [2])
    g = parity_table(4, [2])
    np.testing.assert_array_equal(f.values, g.values)


def test_constant_table():
    assert set(constant_table(3, 1).values.tolist()) == {1}
    assert set(constant_table(3, -1).values.tolist()) == {-1}
    with pytest.raises(ValueError):
        constant_table(3, 0)


def test_random_table_seeded_determinism():
    a = random_table(6, np.random.default_rng(42))
    b = random_table(6, np.random.default_rng(42))
    np.testing.assert_array_equal(a.values, b.values)


def test_random_junta_shape():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = random_junta(10, 3, rng)
        coords = h.J.coords()
        assert len(coords) == 3
        assert coords == tuple(sorted(coords))
        assert all(1 <= c <= 10 for c in coords)
        assert len(h.table) == 8


def test_flip_labels_iid_extremes():
    f = parity_table(4, [1, 2])
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(flip_labels_iid(f, 0.0, rng).values, f.values)
    np.testing.assert_array_equal(flip_labels_iid(f, 1.0, rng).values, -f.values)
    with pytest.raises(ValueError):
        flip_labels_iid(f, 1.5, rng)


def test_flip_labels_iid_rate():
    f = constant_table(12, 1)
    rng = np.random.default_rng(3)
    g = flip_labels_iid(f, 0.1, rng)
    d = float(distance_exact(f, g))
    # binomial(4096, 0.1): five sigma is about 0.023
    assert abs(d - 0.1) < 0.025


def test_flip_labels_region_exact_count():
    f = constant_table(6, 1)
    region = np.zeros(64, dtype=bool)
    region[:40] = True
    rng = np.random.default_rng(1)
    g = flip_labels_region(f, region, 0.25, rng)
    changed = np.flatnonzero(g.values != f.values)
    assert len(changed) == 10  # round(0.25 * 40)
    assert np.all(changed < 40)  # nothing outside the region moves


@pytest.mark.parametrize("length", [4, 40])
def test_flip_labels_region_refuses_a_region_of_another_length(length):
    f = constant_table(4, 1)
    with pytest.raises(ValueError, match=f"region has {length} entries for a table of 16"):
        flip_labels_region(f, np.ones(length, dtype=bool), 0.5, np.random.default_rng(3))


def test_flip_labels_region_zero_fraction():
    f = parity_table(5, [3])
    region = np.ones(32, dtype=bool)
    g = flip_labels_region(f, region, 0.0, np.random.default_rng(2))
    np.testing.assert_array_equal(g.values, f.values)
