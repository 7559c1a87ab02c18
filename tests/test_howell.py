from __future__ import annotations

import random
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert import quotient
from nilcert.certificates import MAX_PRECISION
from nilcert.coefficients import Modulus
from nilcert.howell import howell_complete, howell_spanning_subset
from nilcert.quotient import build_membership_module


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


def _combine(coefficients, rows, n):
    """sum of coefficients[k] * rows[k] mod n, as a list."""
    total = [0] * len(rows[0])
    for c, row in zip(coefficients, rows):
        total = [(t + c * x) % n for t, x in zip(total, row)]
    return total


def _transform_image(transform, origins, rows, n):
    """The rows the transform makes of the origin rows, as int tuples."""
    origin_rows = [rows[k] for k in origins]
    return tuple(tuple(_combine(coefficients, origin_rows, n)) for coefficients in transform)


def _single_pass_elimination(rows, n, ncols):
    """One tracked elimination over every row, the reference for the two
    passes.

    An identity block as wide as the input rides to the right of every row
    through one elimination over all rows, zero rows and annihilator rows
    included.  Returns (matrix, pivots as (column, p^k), transform), the
    transform dense over every input row.
    """
    nrows = len(rows)
    work = [
        [x % n for x in row] + [int(k == index) for k in range(nrows)]
        for index, row in enumerate(rows)
    ]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        gcds = [gcd(row[c], n) for row in work[r:]]
        pk = min(gcds)
        if pk == n:
            continue
        best = r + gcds.index(pk)
        work[r], work[best] = work[best], work[r]
        unit = work[r][c] // pk
        if unit != 1:
            inverse = pow(unit, -1, n)
            work[r] = [x * inverse % n for x in work[r]]
        # every row is zero left of c from r down, and the pivot row too
        tail = work[r][c:]
        for index, row in enumerate(work):
            factor = row[c] // pk
            if index != r and factor:
                row[c:] = [(x - factor * y) % n for x, y in zip(row[c:], tail)]
        if pk > 1:
            annihilator = [x * (n // pk) % n for x in tail]
            if any(annihilator[: ncols - c]):
                work.append([0] * c + annihilator)
        pivots.append((c, pk))
        r += 1
    return (
        [row[:ncols] for row in work[:r]],
        pivots,
        [row[ncols:] for row in work[:r]],
    )


def _assert_matches_single_pass(rows, modulus, ncols, complete=None):
    """howell_complete, or its result complete, equals the one-pass
    elimination entry for entry: matrix, pivots, and the transform
    densified over every input row."""
    n = modulus.value
    matrix, pivots, dense = _single_pass_elimination(rows, n, ncols)
    basis, origins, transform = complete or howell_complete(rows, modulus)
    assert [list(row) for row in basis.matrix] == matrix
    assert list(zip(basis.pivot_columns, basis.pivot_values)) == pivots
    densified = []
    for row in transform:
        full = [0] * len(rows)
        for origin, value in zip(origins, row):
            full[origin] = value
        densified.append(full)
    assert densified == dense
    if complete is None:
        assert howell_spanning_subset(rows, modulus) == (basis, list(origins))


def _random_rows(rng, p, m, nrows, ncols):
    """Rows mixing random residues with zero rows, zero columns and rows
    of multiples of p, which make annihilator rows."""
    n = p**m
    zero_columns = {k for k in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
            continue
        scale = p ** rng.randrange(1, m) if kind < 0.6 and m > 1 else 1
        density = rng.choice((0.3, 0.7, 1.0))
        rows.append(
            [
                0 if k in zero_columns or rng.random() > density else scale * rng.randrange(n) % n
                for k in range(ncols)
            ]
        )
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_two_passes_match_the_single_pass_elimination(p):
    rng = random.Random(f"two-pass:{p}")
    for _ in range(150):
        m = rng.randint(1, 4)
        nrows, ncols = rng.randint(0, 12), rng.randint(1, 8)
        rows = _random_rows(rng, p, m, nrows, ncols)
        _assert_matches_single_pass(rows, Modulus(p, m), ncols)
    # p^m past 2^63: residues no fixed-width integer holds
    for _ in range(30):
        nrows, ncols = rng.randint(0, 12), rng.randint(1, 8)
        rows = _random_rows(rng, p, MAX_PRECISION, nrows, ncols)
        _assert_matches_single_pass(rows, Modulus(p, MAX_PRECISION), ncols)


@pytest.mark.parametrize("p,e,m", [(2, 5, 6), (5, 3, 4)])
def test_two_passes_match_on_every_class(monkeypatch, p, e, m):
    # the class matrices of a fully built module: wide, redundant, and
    # rich in rows that fall to zero
    seen = []
    inner = quotient.howell_complete

    def recorded(rows, modulus):
        result = inner(rows, modulus)
        seen.append(([list(row) for row in rows], result))
        return result

    monkeypatch.setattr(quotient, "howell_complete", recorded)
    module = build_membership_module(p, e, m)
    classes = module.basis
    assert len(seen) == len(classes)
    for rows, result in seen:
        _assert_matches_single_pass(rows, module.modulus, len(rows[0]), result)


def test_annihilator_row_is_found():
    # span of (2, 1) over Z/4 contains (0, 2); naive echelon misses it
    mod = Modulus(2, 2)
    basis = howell_complete([[2, 1]], mod)[0]
    assert basis.matrix == ((2, 1), (0, 2))
    assert basis.pivot_columns == (0, 1)
    assert basis.pivot_values == (2, 2)
    assert not any(basis.reduce([0, 2])[0])
    assert any(basis.reduce([1, 0])[0])
    assert any(basis.reduce([0, 1])[0])


@pytest.mark.parametrize(
    "p,m,rows,matrix,origins,transform",
    [
        (2, 3, [[4, 7, 5], [2, 7, 7]], ((2, 0, 6), (0, 1, 7)), (0, 1), ((1, 7), (1, 6))),
        (2, 2, [[2, 1, 2], [2, 0, 2]], ((2, 0, 2), (0, 1, 0)), (0, 1), ((0, 1), (1, 3))),
        (
            2, 2, [[0, 0, 3], [0, 1, 2], [2, 3, 3]],
            ((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 1, 2), ((1, 1, 1), (2, 1, 0), (3, 0, 0)),
        ),
    ],
)
def test_replay_keeps_annihilators_it_never_picks(p, m, rows, matrix, origins, transform):
    # the first pass forms an annihilator row that no pivot picks; the
    # replay forms and keeps it too, and places the same rows
    basis, got_origins, got_transform = howell_complete(rows, Modulus(p, m))
    assert (basis.matrix, got_origins, got_transform) == (matrix, origins, transform)
    assert basis.matrix == _transform_image(transform, origins, rows, p**m)


def test_identity_like_input():
    mod = Modulus(2, 3)
    basis = howell_complete([[1, 2], [0, 4]], mod)[0]
    assert basis.matrix == ((1, 2), (0, 4))
    assert basis.rank == 2


def test_unit_normalization():
    # 3 is a unit mod 4; the canonical form rescales it away
    mod = Modulus(2, 2)
    basis = howell_complete([[3, 1]], mod)[0]
    assert basis.matrix == ((1, 3),)


def test_zero_rows_dropped():
    mod = Modulus(3, 2)
    basis = howell_complete([[0, 0, 0], [3, 0, 6]], mod)[0]
    # 3 * (3, 0, 6) vanishes mod 9, so no annihilator row survives
    assert basis.rank == 1
    assert basis.matrix == ((3, 0, 6),)


def test_reduce_coefficients_reconstruct():
    mod = Modulus(2, 3)
    rows = [[2, 1, 0], [0, 4, 2]]
    basis, origins, transform = howell_complete(rows, mod)
    assert basis.matrix == _transform_image(transform, origins, rows, 8)
    rng = random.Random(3)
    for _ in range(20):
        vector = _combine([rng.randrange(8) for _ in range(2)], rows, 8)
        residue, reduced_coeffs = basis.reduce(vector)
        assert residue == [0, 0, 0]
        assert _combine(reduced_coeffs, basis.matrix, 8) == vector


def test_residue_is_canonical_on_cosets():
    mod = Modulus(2, 2)
    basis = howell_complete([[2, 1, 3]], mod)[0]
    v = [1, 1, 0]
    member = [2, 1, 3]
    r1, _ = basis.reduce(v)
    r2, _ = basis.reduce([(a + b) % 4 for a, b in zip(v, member)])
    assert r1 == r2
    assert any(r1)


def test_vector_length_checked():
    mod = Modulus(2, 2)
    basis = howell_complete([[2, 1]], mod)[0]
    with pytest.raises(ValueError, match="length"):
        basis.reduce([1, 2, 3])
    with pytest.raises(ValueError, match="differ in length"):
        howell_complete([[2, 1], [1]], mod)


def _dense_reduce(basis, vector):
    """HowellBasis.reduce by the dense formula: each pivot step rewrites
    the whole residue from the pivot column on."""
    n = basis.modulus.value
    residue = [int(x) % n for x in vector]
    coefficients = [0] * basis.rank
    for index, (col, pk) in enumerate(zip(basis.pivot_columns, basis.pivot_values)):
        factor = residue[col] // pk
        if factor:
            row = basis.matrix[index]
            residue[col:] = [(x - factor * y) % n for x, y in zip(residue[col:], row[col:])]
            coefficients[index] = factor
    return residue, coefficients


@settings(max_examples=80, deadline=None)
@given(pm=st.sampled_from([(2, 3), (3, 2), (5, 2), (2, 40), (2, 64)]), data=st.data())
def test_sparse_reduce_matches_dense_formula(pm, data):
    p, m = pm
    n = p**m
    width = data.draw(st.integers(1, 6))
    # entries of every valuation, negative ones and ones past p^m among them
    entries = st.builds(
        lambda u, k: u * p**k, st.integers(-2 * n, 2 * n), st.integers(0, m)
    ) | st.just(0)
    row = st.lists(entries, min_size=width, max_size=width)
    basis = howell_complete(data.draw(st.lists(row, min_size=1, max_size=5)), Modulus(p, m))[0]
    vector = data.draw(row)
    given = list(vector)
    expected_residue, expected_coefficients = _dense_reduce(basis, vector)
    assert basis.reduce(vector) == (expected_residue, expected_coefficients)
    assert vector == given
    # the walk on the vector's nonzero residues leaves the same remainder,
    # on columns alone, and the same coefficients
    residue = {j: x % n for j, x in enumerate(vector) if x % n}
    coefficients = basis.reduce_residues(residue)
    assert [residue.get(j, 0) for j in range(width)] == expected_residue
    assert set(residue) <= set(range(width))
    if any(expected_coefficients):
        assert coefficients == expected_coefficients
    else:
        assert coefficients is None
    if pm == (2, 40):
        # int64 entries are read as Python ints: a pivot step's products
        # pass 2^63 here, where int64 arithmetic would wrap
        fitting = [x % 2**64 - 2**63 for x in vector]  # into the int64 range
        residue, coefficients = basis.reduce(np.array(fitting, dtype=np.int64))
        assert (residue, coefficients) == _dense_reduce(basis, fitting)
        assert all(type(x) is int for x in residue + coefficients)
    with pytest.raises(ValueError, match="length"):
        basis.reduce(vector + [0])


@pytest.mark.parametrize("entry", [1.5, 2.0, np.float64(1.0)], ids=["float", "integral-float", "numpy-float"])
def test_non_integer_entries_are_refused(entry):
    # an entry is read as an integer, never truncated: [[1.5, 2.0]] over
    # Z/3 is not the row (1, 2)
    modulus = Modulus(3, 1)
    with pytest.raises(TypeError):
        howell_complete([[entry, 2]], modulus)
    with pytest.raises(TypeError):
        howell_spanning_subset([[1, 2], [0, entry]], modulus)
    basis = howell_complete([[1, 2]], modulus)[0]
    with pytest.raises(TypeError):
        basis.reduce([entry, 0])


def test_integer_scalar_entries_are_read_exactly():
    # anything operator.index takes is an entry: numpy integer scalars of
    # any width and bool, read as Python ints
    modulus = Modulus(2, 70)
    rows = [[np.int64(-1), np.uint8(6), True], [np.int32(4), 0, np.int64(2**62)]]
    plain = [[-1, 6, 1], [4, 0, 2**62]]
    assert howell_complete(rows, modulus) == howell_complete(plain, modulus)
    basis = howell_complete(plain, modulus)[0]
    residue, coefficients = basis.reduce([np.int64(3), np.uint16(5), False])
    assert (residue, coefficients) == basis.reduce([3, 5, 0])
    assert all(type(x) is int for x in residue + coefficients)


@pytest.mark.parametrize(
    "form",
    [
        lambda rows: [list(row) for row in rows],
        lambda rows: [tuple(row) for row in rows],
        lambda rows: np.array(rows, dtype=np.int64),
        lambda rows: np.array(rows, dtype=object),
    ],
    ids=["lists", "tuples", "int64-array", "object-array"],
)
def test_input_rows_are_left_unchanged(form):
    # the first pass eliminates its own copy of the rows in place, and the
    # replay reads the origin rows again from the input: the input stays as
    # given, and an array answers as the same rows given as lists do
    rng = random.Random("unchanged")
    for p in (2, 3, 5):
        for _ in range(20):
            m = rng.randint(1, 4)
            modulus = Modulus(p, m)
            rows = _random_rows(rng, p, m, rng.randint(1, 10), rng.randint(1, 6))
            # entries outside [0, p^m), which the read reduces
            rows = [[x + modulus.value * rng.randint(-2, 2) for x in row] for row in rows]
            given = form(rows)
            before = [list(row) for row in given]
            complete = howell_complete(given, modulus)
            subset = howell_spanning_subset(given, modulus)
            assert [list(row) for row in given] == before
            assert complete == howell_complete(rows, modulus)
            assert subset == howell_spanning_subset(rows, modulus)


def test_modulus_size_guard():
    # the elimination runs on Python ints and bounds no modulus: 2^31, the
    # old int64 limit, and moduli past 2^63 answer exactly
    assert howell_complete([[1]], Modulus(2, 31))[0].matrix == ((1,),)
    for p in (2, 3):
        modulus = Modulus(p, MAX_PRECISION)
        basis = howell_complete([[p, 1]], modulus)[0]
        assert basis.matrix == ((p, 1), (0, modulus.value // p))
    # the one precision bound is build_membership_module's
    with pytest.raises(ValueError, match=f"precision {MAX_PRECISION + 1} exceeds"):
        build_membership_module(2, 1, MAX_PRECISION + 1)


def test_empty_input():
    # no rows: no width, no origins and an empty transform
    mod = Modulus(2, 2)
    basis, origins, transform = howell_complete([], mod)
    assert basis.rank == 0
    assert origins == ()
    assert transform == ()
    assert basis.reduce([]) == ([], [])


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
    basis = howell_complete(rows, Modulus(p, m))[0]
    expected = _span_set(rows, n)
    for vec in product(range(n), repeat=width):
        member = not any(basis.reduce(vec)[0])
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
    rows = [[rng.randrange(n) for _ in range(width)] for _ in range(nrows)]
    basis = howell_complete(rows, Modulus(p, m))[0]
    regenerated = []
    for _ in range(nrows + 2):
        regenerated.append(_combine([rng.randrange(n) for _ in range(nrows)], rows, n))
    # keep the original span reachable: include unit multiples of each row
    for row in rows:
        unit = rng.choice([u for u in range(1, n) if u % p != 0])
        regenerated.append([unit * x % n for x in row])
    rng.shuffle(regenerated)
    other = howell_complete(regenerated, Modulus(p, m))[0]
    assert basis.matrix == other.matrix
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
    rows = [[rng.randrange(n) for _ in range(5)] for _ in range(nrows)]
    basis, origins, transform = howell_complete(rows, Modulus(p, m))
    assert list(origins) == sorted(set(origins))
    assert all(0 <= k < nrows for k in origins)
    assert [len(row) for row in transform] == [len(origins)] * basis.rank
    assert basis.matrix == _transform_image(transform, origins, rows, n)
    # and the replay agrees with the first pass alone, also when the rows
    # come in as an array
    assert basis == howell_spanning_subset(rows, Modulus(p, m))[0]
    for dtype in (np.int64, object):
        assert howell_complete(np.array(rows, dtype=dtype), Modulus(p, m)) == (
            basis,
            origins,
            transform,
        )


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
    basis, indices = howell_spanning_subset(rows, Modulus(p, m))
    assert list(indices) == sorted(set(indices))
    assert all(0 <= k < nrows for k in indices)
    assert len(indices) <= basis.rank
    assert list(indices) == list(howell_complete(rows, Modulus(p, m))[1])
    again = howell_complete([rows[k] for k in indices], Modulus(p, m))[0]
    assert again.matrix == basis.matrix
    assert again.pivot_columns == basis.pivot_columns
    assert again.pivot_values == basis.pivot_values
