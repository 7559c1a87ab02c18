from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.coefficients import Modulus
from nilcert.howell import (
    HowellBasis,
    howell_complete,
    howell_form,
    howell_spanning_subset,
)


def _span_set(rows, n):
    """Every Z/n combination of the rows, enumerated outright."""
    rows = [tuple(int(x) % n for x in row) for row in rows]
    width = len(rows[0])
    out = set()
    for coeffs in product(range(n), repeat=len(rows)):
        vec = tuple(
            sum(c * row[i] for c, row in zip(coeffs, rows)) % n for i in range(width)
        )
        out.add(vec)
    return out


def test_annihilator_row_is_found():
    # span of (2, 1) over Z/4 contains (0, 2); naive echelon misses it
    mod = Modulus(2, 2)
    basis = howell_form(np.array([[2, 1]]), mod)
    assert basis.matrix.tolist() == [[2, 1], [0, 2]]
    assert basis.pivot_columns == (0, 1)
    assert basis.pivot_values == (2, 2)
    assert not basis.reduce(np.array([0, 2]))[0].any()
    assert basis.reduce(np.array([1, 0]))[0].any()
    assert basis.reduce(np.array([0, 1]))[0].any()


def test_identity_like_input():
    mod = Modulus(2, 3)
    basis = howell_form(np.array([[1, 2], [0, 4]]), mod)
    assert basis.matrix.tolist() == [[1, 2], [0, 4]]
    assert basis.rank == 2


def test_unit_normalization():
    # 3 is a unit mod 4; the canonical form rescales it away
    mod = Modulus(2, 2)
    basis = howell_form(np.array([[3, 1]]), mod)
    assert basis.matrix.tolist() == [[1, 3]]


def test_zero_rows_dropped():
    mod = Modulus(3, 2)
    basis = howell_form(np.array([[0, 0, 0], [3, 0, 6]]), mod)
    # 3 * (3, 0, 6) vanishes mod 9, so no annihilator row survives
    assert basis.rank == 1
    assert basis.matrix.tolist() == [[3, 0, 6]]


def test_reduce_coefficients_reconstruct():
    mod = Modulus(2, 3)
    rows = np.array([[2, 1, 0], [0, 4, 2]])
    basis, transform = howell_complete(rows, mod)
    assert np.array_equal(basis.matrix, transform @ rows % 8)
    rng = random.Random(3)
    for _ in range(20):
        coeffs = np.array([rng.randrange(8) for _ in range(2)])
        vector = coeffs @ rows % 8
        residue, reduced_coeffs = basis.reduce(vector)
        assert not residue.any()
        assert np.array_equal(reduced_coeffs @ basis.matrix % 8, vector)


def test_residue_is_canonical_on_cosets():
    mod = Modulus(2, 2)
    basis = howell_form(np.array([[2, 1, 3]]), mod)
    v = np.array([1, 1, 0])
    member = np.array([2, 1, 3])
    r1, _ = basis.reduce(v)
    r2, _ = basis.reduce((v + member) % 4)
    assert np.array_equal(r1, r2)
    assert r1.any()


def test_vector_length_checked():
    mod = Modulus(2, 2)
    basis = howell_form(np.array([[2, 1]]), mod)
    with pytest.raises(ValueError, match="length"):
        basis.reduce(np.array([1, 2, 3]))


def test_modulus_size_guard():
    with pytest.raises(ValueError, match="too large"):
        howell_form(np.array([[1]]), Modulus(2, 31))


def test_empty_input():
    mod = Modulus(2, 2)
    basis = howell_form(np.zeros((0, 4), dtype=np.int64), mod)
    assert basis.rank == 0
    residue, coeffs = basis.reduce(np.array([1, 0, 0, 0]))
    assert residue.any()
    assert coeffs.size == 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_membership_matches_enumeration(pm, nrows, seed):
    p, m = pm
    n = p**m
    width = 3
    rng = random.Random(seed)
    rows = [[rng.randrange(n) for _ in range(width)] for _ in range(nrows)]
    basis = howell_form(np.array(rows), Modulus(p, m))
    expected = _span_set(rows, n)
    for vec in product(range(n), repeat=width):
        member = not basis.reduce(np.array(vec))[0].any()
        assert member == (vec in expected), (rows, vec)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 1)]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_canonical_under_regeneration(pm, nrows, seed):
    # a second generating set for the same module has the same Howell form
    p, m = pm
    n = p**m
    width = 4
    rng = random.Random(seed)
    rows = np.array([[rng.randrange(n) for _ in range(width)] for _ in range(nrows)])
    basis = howell_form(rows, Modulus(p, m))
    regenerated = []
    for _ in range(nrows + 2):
        coeffs = [rng.randrange(n) for _ in range(nrows)]
        regenerated.append([int(x) for x in (np.array(coeffs) @ rows) % n])
    # keep the original span reachable: include unit multiples of each row
    for row in rows:
        unit = rng.choice([u for u in range(1, n) if u % p != 0])
        regenerated.append([int(x) for x in (unit * row) % n])
    rng.shuffle(regenerated)
    other = howell_form(np.array(regenerated), Modulus(p, m))
    assert np.array_equal(basis.matrix, other.matrix)
    assert basis.pivot_columns == other.pivot_columns
    assert basis.pivot_values == other.pivot_values


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 2)]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_transform_identity(pm, nrows, seed):
    p, m = pm
    n = p**m
    rng = random.Random(seed)
    rows = np.array([[rng.randrange(n) for _ in range(5)] for _ in range(nrows)])
    basis, transform = howell_complete(rows, Modulus(p, m))
    assert transform.shape == (basis.rank, nrows)
    assert np.array_equal(basis.matrix, transform @ rows % n)
    # and the transform route agrees with the plain route
    assert np.array_equal(basis.matrix, howell_form(rows, Modulus(p, m)).matrix)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1)]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_spanning_subset_spans(pm, nrows, ncols, seed):
    # ascending indices, at most one per basis row, spanning the module
    p, m = pm
    n = p**m
    rng = random.Random(seed)
    # every other row a combination of earlier ones, so some are redundant
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.5:
            row = [0] * ncols
            for earlier in rows:
                factor = rng.randrange(n)
                row = [(x + factor * y) % n for x, y in zip(row, earlier)]
            rows.append(row)
        else:
            rows.append([rng.randrange(n) if rng.random() < 0.6 else 0 for _ in range(ncols)])
    rows = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    basis, indices = howell_spanning_subset(rows, Modulus(p, m))
    assert list(indices) == sorted(set(indices))
    assert all(0 <= k < nrows for k in indices)
    assert len(indices) <= basis.rank
    again = howell_form(rows[list(indices)], Modulus(p, m))
    assert np.array_equal(again.matrix, basis.matrix)
    assert again.pivot_columns == basis.pivot_columns
    assert again.pivot_values == basis.pivot_values
